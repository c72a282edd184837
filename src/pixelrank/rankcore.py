"""Sparse unfoldings of a family's indicator function over pixel
bipartitions, exact matrix rank over the rationals, and the one
floating-point step of the network builders: an SVD basis per tree node.

A full unfolding of the indicator has a row per configuration of one pixel
set and a column per configuration of the complement.  Rows and columns of
configurations that never occur among members are zero, and occurring
configurations are pairwise distinct by construction, so compressing to the
occurring configurations preserves rank exactly.  All rank certificates run
on the compressed biadjacency matrix with integer arithmetic; floating SVD
is used only where the network builders need explicit bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .images import ImageFamily, Region

__all__ = [
    "Bipartition",
    "FixedRowConstraint",
    "Unfolding",
    "unfold",
    "exact_rank",
    "fixed_row_unfolding",
    "row_prefix_unfolding",
    "pixel_prefix_unfolding",
    "region_unfolding",
]


@dataclass(frozen=True)
class FixedRowConstraint:
    """Pin row i of the image to the configuration y (n pixel values)."""

    i: int
    y: bytes

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.y):
            raise ValueError("row configuration values must be 0 or 1")

    @classmethod
    def from_text(cls, i: int, text: str) -> "FixedRowConstraint":
        return cls(i, bytes(int(c) for c in text))


@dataclass(frozen=True)
class Bipartition:
    """An ordered split of the n*n pixels into a left set, a right set and
    an optional pinned set; the three are disjoint and cover the grid."""

    n: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    fixed: tuple[int, ...] = ()

    def __post_init__(self):
        total = self.n * self.n
        for name, part in (("left", self.left), ("right", self.right), ("fixed", self.fixed)):
            if part and not (1 <= min(part) and max(part) <= total):
                raise ValueError(f"{name} pixel index out of range")
            if list(part) != sorted(part):
                raise ValueError(f"{name} pixels must be ascending")
        combined = set(self.left) | set(self.right) | set(self.fixed)
        if len(combined) != len(self.left) + len(self.right) + len(self.fixed):
            raise ValueError("pixel sets overlap")
        if combined != set(range(1, total + 1)):
            raise ValueError("pixel sets must cover the whole grid")

    @classmethod
    def from_region(cls, region: Region) -> "Bipartition":
        n = region.n
        inside = region.pixels()
        inset = set(inside)
        outside = tuple(k for k in range(1, n * n + 1) if k not in inset)
        return cls(n, inside, outside)

    @classmethod
    def row_prefix(cls, i: int, n: int) -> "Bipartition":
        return cls.from_region(Region.row_prefix(i, n))

    @classmethod
    def pixel_prefix(cls, k: int, n: int) -> "Bipartition":
        return cls.from_region(Region.pixel_prefix(k, n))

    @classmethod
    def fixed_row(cls, i: int, n: int) -> "Bipartition":
        """Rows above i on the left, rows below on the right, row i pinned."""
        if not 1 <= i <= n:
            raise ValueError(f"row {i} out of range for n={n}")
        left = tuple(range(1, (i - 1) * n + 1))
        fixed = tuple(range((i - 1) * n + 1, i * n + 1))
        right = tuple(range(i * n + 1, n * n + 1))
        return cls(n, left, right, fixed)


class Unfolding:
    """Compressed biadjacency of an indicator unfolding.

    left_configs / right_configs list the distinct occurring configurations
    (lexicographically sorted); entries holds one (row, col) pair per member
    compatible with the constraint.
    """

    def __init__(self, bipartition, constraint, left_configs, right_configs, entries):
        self.bipartition = bipartition
        self.constraint = constraint
        self.left_configs = left_configs
        self.right_configs = right_configs
        self.entries = entries

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.left_configs), len(self.right_configs)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Unfolding(shape={self.shape}, nnz={self.nnz})"


def unfold(
    family: ImageFamily,
    bipartition: Bipartition,
    constraint: FixedRowConstraint | None = None,
) -> Unfolding:
    """Build the compressed unfolding of the family's indicator.

    Members whose pinned row differs from the constraint are excluded; each
    surviving member contributes exactly one unit entry.
    """
    if family.n != bipartition.n:
        raise ValueError("bipartition side does not match family side")
    if constraint is not None:
        if len(constraint.y) != family.n:
            raise ValueError("constraint row length does not match family side")
        row_pixels = tuple(
            range((constraint.i - 1) * family.n + 1, constraint.i * family.n + 1)
        )
        if bipartition.fixed != row_pixels:
            raise ValueError("bipartition's pinned pixels must be the constrained row")
    elif bipartition.fixed:
        raise ValueError("bipartition pins pixels but no constraint was given")

    bits = family.bit_matrix()
    if constraint is not None:
        bits = bits[_configs(bits, bipartition.fixed) == np.void(constraint.y)]
    left_keys = _configs(bits, bipartition.left).tolist()
    right_keys = _configs(bits, bipartition.right).tolist()

    left_configs = tuple(sorted(set(left_keys)))
    right_configs = tuple(sorted(set(right_keys)))
    lpos = {cfg: p for p, cfg in enumerate(left_configs)}
    rpos = {cfg: q for q, cfg in enumerate(right_configs)}
    entries = tuple(sorted((lpos[l], rpos[r]) for l, r in zip(left_keys, right_keys)))
    if len(set(entries)) != len(entries):
        raise AssertionError("distinct members collided in the unfolding")
    return Unfolding(bipartition, constraint, left_configs, right_configs, entries)


def _configs(bits: np.ndarray, pixels: tuple[int, ...]) -> np.ndarray:
    """Each member's configuration on the given pixels as one numpy void
    value, which compares as its bytes and turns into bytes by tolist()."""
    if not pixels:
        return np.zeros(len(bits), dtype="V0")
    lo, hi = pixels[0] - 1, pixels[-1]
    if hi - lo == len(pixels):
        # Ascending distinct pixels spanning no more than their count: a
        # range, so a slice does the gather.
        cols = bits[:, lo:hi]
    else:
        cols = bits[:, np.array(pixels, dtype=np.intp) - 1]
    return np.ascontiguousarray(cols).view(f"V{len(pixels)}")[:, 0]


def fixed_row_unfolding(family: ImageFamily, i: int, y) -> Unfolding:
    """Unfolding with row i pinned to y: rows above against rows below."""
    if isinstance(y, str):
        y = bytes(int(c) for c in y)
    return unfold(
        family,
        Bipartition.fixed_row(i, family.n),
        FixedRowConstraint(i, bytes(y)),
    )


def row_prefix_unfolding(family: ImageFamily, i: int) -> Unfolding:
    """Unfolding at the cut between rows i and i+1."""
    return unfold(family, Bipartition.row_prefix(i, family.n))


def pixel_prefix_unfolding(family: ImageFamily, k: int) -> Unfolding:
    """Unfolding at the cut after the first k pixels in flat order."""
    return unfold(family, Bipartition.pixel_prefix(k, family.n))


def region_unfolding(family: ImageFamily, region: Region) -> Unfolding:
    """Unfolding of a region against its complement."""
    return unfold(family, Bipartition.from_region(region))


# ---------------------------------------------------------------------------
# Exact rank over the rationals.
#
# The biadjacency matrices here are 0/1 and sparse, so before running dense
# fraction-free elimination we shrink the matrix with three rank-preserving
# reductions: dropping duplicate rows/columns, and peeling rows or columns
# with a single nonzero entry (whose Schur complement is just the submatrix,
# since the pivot row or column has no other entries).


def exact_rank(unfolding: Unfolding) -> int:
    """Rank of the unfolding over the rationals; no floating tolerance."""
    rows: dict[int, dict[int, int]] = {}
    for p, q in unfolding.entries:
        rows.setdefault(p, {})[q] = 1
    return _integer_rank(list(rows.values()))


def _integer_rank(rows: list[dict[int, int]]) -> int:
    rank = 0
    rows = [dict(r) for r in rows if r]
    while rows:
        progress = False

        # Duplicate rows are linearly dependent; keep the first of each.
        seen: set[tuple] = set()
        kept = []
        for r in rows:
            key = tuple(sorted(r.items()))
            if key in seen:
                progress = True
            else:
                seen.add(key)
                kept.append(r)
        rows = kept

        # Duplicate columns likewise.
        cols: dict[int, list[tuple[int, int]]] = {}
        for ri, r in enumerate(rows):
            for c, v in r.items():
                cols.setdefault(c, []).append((ri, v))
        seen_cols: dict[tuple, int] = {}
        for c, pattern in sorted(cols.items()):
            key = tuple(pattern)
            if key in seen_cols:
                for ri, _ in pattern:
                    del rows[ri][c]
                progress = True
            else:
                seen_cols[key] = c
        rows = [r for r in rows if r]

        # Rows with a single entry: the pivot eliminates only its column.
        singles = [r for r in rows if len(r) == 1]
        if singles:
            pivot_cols = {next(iter(r)) for r in singles}
            rank += len(pivot_cols)
            survivors = []
            for r in rows:
                if len(r) == 1 and next(iter(r)) in pivot_cols:
                    continue
                for c in pivot_cols:
                    r.pop(c, None)
                if r:
                    survivors.append(r)
            rows = survivors
            progress = True

        # Columns with a single entry: the pivot eliminates only its row.
        col_count: dict[int, int] = {}
        col_row: dict[int, int] = {}
        for ri, r in enumerate(rows):
            for c in r:
                col_count[c] = col_count.get(c, 0) + 1
                col_row[c] = ri
        single_rows = sorted({col_row[c] for c, cnt in col_count.items() if cnt == 1})
        if single_rows:
            rank += len(single_rows)
            drop = set(single_rows)
            rows = [r for ri, r in enumerate(rows) if ri not in drop]
            progress = True

        if not progress:
            break

    if rows:
        col_ids = sorted({c for r in rows for c in r})
        pos = {c: j for j, c in enumerate(col_ids)}
        dense = [[0] * len(col_ids) for _ in rows]
        for ri, r in enumerate(rows):
            for c, v in r.items():
                dense[ri][pos[c]] = v
        rank += _bareiss_rank(dense)
    return rank


def _bareiss_rank(matrix: list[list[int]]) -> int:
    """Rank by one-step fraction-free elimination; all divisions exact."""
    a = np.array(matrix, dtype=object)
    n_rows, n_cols = a.shape
    r = 0
    prev = 1
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if a[i, c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[[r, pivot_row]] = a[[pivot_row, r]]
        pivot = a[r, c]
        if r + 1 < n_rows:
            block = a[r + 1 :, c:]
            a[r + 1 :, c:] = (pivot * block - np.outer(a[r + 1 :, c], a[r, c:])) // prev
        prev = pivot
        r += 1
        if r == n_rows:
            break
    return r


def svd(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD, u @ diag(s) @ vt == mat.

    LAPACK's gesdd, behind np.linalg.svd, can fail to converge on finite
    matrices (seen on a 225 x 126 train core with one BLAS thread); the
    transpose then usually converges, and its factors swap back.
    """
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        u, s, vt = np.linalg.svd(mat.T, full_matrices=False)
        return vt.T, s, u.T


def _node_basis(
    bits: np.ndarray, pixels: tuple[int, ...], tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """One node of a dimension tree: an orthonormal basis of the occupied
    configurations of the pixel set against its complement.

    Returns the basis as an (r x d) array over the d distinct member
    configurations on the pixels (sorted as bytes) and each member's
    configuration index.  r counts the singular values of the (d x d_c)
    biadjacency above tol times the largest, and is at least 1.  When the
    pixels cover the grid the basis is the all-ones row: the indicator
    itself, not a normalized basis of it.
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    configs, idx = np.unique(_configs(bits, pixels), return_inverse=True)
    d = len(configs)
    if len(pixels) == bits.shape[1]:
        return np.ones((1, d)), idx
    inside = set(pixels)
    comp = tuple(p for p in range(1, bits.shape[1] + 1) if p not in inside)
    _, comp_idx = np.unique(_configs(bits, comp), return_inverse=True)
    biadj = np.zeros((d, int(comp_idx.max()) + 1))
    biadj[idx, comp_idx] = 1.0
    u, s, _ = svd(biadj)
    r = max(int(np.count_nonzero(s > tol * s[0])), 1)
    return u[:, :r].T, idx
