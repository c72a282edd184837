"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture()
def flaky_svd(monkeypatch):
    """Make np.linalg.svd raise LinAlgError on every odd-numbered call, as
    LAPACK's gesdd can when it does not converge; returns the list of input
    shapes it was called with."""
    real_svd = np.linalg.svd
    shapes = []

    def svd(a, *args, **kwargs):
        shapes.append(a.shape)
        if len(shapes) % 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return shapes
