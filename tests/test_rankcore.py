"""Tests for unfoldings, exact integer rank, and the SVD node step."""

import itertools
import random

import numpy as np
import pytest

from pixelrank.certify import row_configurations
from pixelrank.images import (
    BinaryImage,
    FamilyMeta,
    ImageFamily,
    Region,
    gen_random_family,
    gen_rectangle_outlines,
    gen_stacked_outlines,
    gen_vertical_bars,
)
from pixelrank.rankcore import (
    Bipartition,
    FixedRowConstraint,
    _node_basis,
    exact_rank,
    fixed_row_unfolding,
    pixel_prefix_unfolding,
    region_unfolding,
    row_prefix_unfolding,
    svd,
    unfold,
)

from oracles import dense_unfolding_oracle, integer_matrix_rank, to_dense, transpose


def _family_of(n, texts, name="adhoc"):
    return ImageFamily(n, [BinaryImage.from_text(n, t) for t in texts], FamilyMeta(name))


class TestBipartition:
    def test_row_prefix(self):
        b = Bipartition.row_prefix(1, 2)
        assert b.left == (1, 2) and b.right == (3, 4)

    def test_fixed_row(self):
        b = Bipartition.fixed_row(2, 3)
        assert b.left == (1, 2, 3)
        assert b.fixed == (4, 5, 6)
        assert b.right == (7, 8, 9)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Bipartition(2, (1, 2), (2, 3, 4))

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            Bipartition(2, (1, 2), (3,))


def _unfold_by_member_loop(family, bipartition, constraint=None):
    """Reference for unfold: scan every member in Python, keep those whose
    pinned row matches, and read off its left and right configurations."""
    left_idx = np.array(bipartition.left, dtype=np.intp) - 1
    right_idx = np.array(bipartition.right, dtype=np.intp) - 1
    pairs = []
    for img in family:
        if constraint is not None and img.row(constraint.i) != constraint.y:
            continue
        arr = np.frombuffer(img.bits, dtype=np.uint8)
        pairs.append((arr[left_idx].tobytes(), arr[right_idx].tobytes()))
    left_configs = tuple(sorted({l for l, _ in pairs}))
    right_configs = tuple(sorted({r for _, r in pairs}))
    lpos = {cfg: p for p, cfg in enumerate(left_configs)}
    rpos = {cfg: q for q, cfg in enumerate(right_configs)}
    entries = tuple(sorted((lpos[l], rpos[r]) for l, r in pairs))
    return left_configs, right_configs, entries


_REFERENCE_FAMILIES = {
    "rect6": lambda: gen_rectangle_outlines(6),
    "rect8": lambda: gen_rectangle_outlines(8),
    "bars8": lambda: gen_vertical_bars(8),
    "stacked6": lambda: gen_stacked_outlines(6),
    "random5": lambda: gen_random_family(5, 60, seed=3),
    "random8": lambda: gen_random_family(8, 200, seed=4),
    "empty4": lambda: ImageFamily(4, [], FamilyMeta("empty")),
}


def _reference_cuts(family):
    """Every pinned row (i, y) over the occurring y plus one y no member
    has, every row-prefix and pixel-prefix cut, and a few rectangles."""
    n = family.n
    for i in range(1, n + 1):
        occurring = row_configurations(family, i)
        absent = next(
            bytes(y) for y in itertools.product((0, 1), repeat=n) if bytes(y) not in occurring
        )
        for y in occurring + (absent,):
            yield Bipartition.fixed_row(i, n), FixedRowConstraint(i, y)
    for i in range(1, n):
        yield Bipartition.row_prefix(i, n), None
    for k in range(1, n * n):
        yield Bipartition.pixel_prefix(k, n), None
    for region in (
        Region.rectangle(2, 2, n - 2, n - 3, n),
        Region.rectangle(1, n // 2, n, 1, n),
        Region.rectangle(n // 2, 1, 2, n, n),
    ):
        yield Bipartition.from_region(region), None


class TestUnfoldMatchesMemberLoop:
    @pytest.mark.parametrize("name", sorted(_REFERENCE_FAMILIES))
    def test_configs_and_entries_match(self, name):
        family = _REFERENCE_FAMILIES[name]()
        cuts = 0
        for bipartition, constraint in _reference_cuts(family):
            u = unfold(family, bipartition, constraint)
            got = (u.left_configs, u.right_configs, u.entries)
            assert got == _unfold_by_member_loop(family, bipartition, constraint)
            cuts += 1
        assert cuts > family.n * family.n

    def test_collision_is_detected(self):
        class UncheckedBipartition(Bipartition):
            def __post_init__(self):
                pass  # skip the check that the sets cover the grid

        # Pixel 4 is in neither set, so the two members look the same.
        fam = _family_of(2, ["1000", "1001"])
        with pytest.raises(AssertionError, match="collided"):
            unfold(fam, UncheckedBipartition(2, (1, 2), (3,)))
        assert unfold(fam, Bipartition(2, (1, 2), (3, 4))).nnz == 2


class TestIntegerRank:
    def test_zero_matrix(self):
        fam = _family_of(2, [])
        assert exact_rank(row_prefix_unfolding(fam, 1)) == 0

    def test_known_small_matrices(self):
        assert integer_matrix_rank([[0, 0], [0, 0]]) == 0
        assert integer_matrix_rank([[1, 2], [2, 4]]) == 1
        assert integer_matrix_rank([[1, 2], [3, 4]]) == 2
        assert integer_matrix_rank(np.eye(5, dtype=int)) == 5
        assert integer_matrix_rank([[2, 4, 6], [1, 2, 3], [0, 0, 1]]) == 2
        # Magic square: rows sum equal, rank 3.
        assert integer_matrix_rank([[8, 1, 6], [3, 5, 7], [4, 9, 2]]) == 3

    def test_against_numpy_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            rows = rng.integers(1, 7)
            cols = rng.integers(1, 7)
            inner = rng.integers(1, 5)
            # Products of small integer factors give controlled ranks.
            a = rng.integers(-2, 3, size=(rows, inner))
            b = rng.integers(-2, 3, size=(inner, cols))
            mat = a @ b
            assert integer_matrix_rank(mat) == np.linalg.matrix_rank(mat)

    def test_dense_01_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            mat = rng.integers(0, 2, size=(rng.integers(1, 9), rng.integers(1, 9)))
            assert integer_matrix_rank(mat) == np.linalg.matrix_rank(mat)

    def test_against_sympy_exact_rank(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(2024)
        for trial in range(60):
            rows = int(rng.integers(1, 11))
            cols = int(rng.integers(1, 11))
            if trial % 3 == 0:
                mat = rng.integers(0, 2, size=(rows, cols)) * (
                    rng.random((rows, cols)) < 0.3
                )
            elif trial % 3 == 1:
                inner = int(rng.integers(1, 6))
                mat = rng.integers(-3, 4, size=(rows, inner)) @ rng.integers(
                    -3, 4, size=(inner, cols)
                )
            else:
                mat = rng.integers(-5, 6, size=(rows, cols))
            assert integer_matrix_rank(mat) == sympy.Matrix(mat.tolist()).rank()

    def test_huge_entries_stay_exact(self):
        # A hidden dependency among rows with large coefficients; floating
        # rank estimates can go either way here, the integer path must not.
        rng = np.random.default_rng(5)
        base = rng.integers(-(10**8), 10**8, size=(6, 7), dtype=np.int64)
        mat = np.vstack([base, 7 * base[0] - 123456 * base[3] + base[5]])
        mat_obj = [[int(v) for v in row] for row in mat]
        assert integer_matrix_rank(mat_obj) == 6


class TestUnfold:
    def test_empty_left_side_is_row_vector(self):
        fam = gen_rectangle_outlines(4, 3)
        u = fixed_row_unfolding(fam, 1, "0000")
        assert u.shape[0] == 1
        assert u.shape[1] == u.nnz == 3  # the three outlines starting at row 2

    def test_absent_row_config_gives_rank_zero(self):
        fam = gen_rectangle_outlines(4, 3)
        u = fixed_row_unfolding(fam, 1, "1001")
        assert u.nnz == 0
        assert exact_rank(u) == 0

    def test_each_member_contributes_one_entry(self):
        fam = gen_rectangle_outlines(4, 3)
        u = row_prefix_unfolding(fam, 2)
        assert u.nnz == 9

    def test_single_unit_entry_is_rank_one(self):
        fam = _family_of(2, ["1000"])
        u = row_prefix_unfolding(fam, 1)
        assert u.shape == (1, 1) and u.nnz == 1
        assert exact_rank(u) == 1

    def test_case3_row_is_rank_one(self):
        # Two isolated black pixels in the pinned row: upper and lower parts
        # combine freely, so the unfolding is an all-ones block.
        fam = gen_rectangle_outlines(4, 3)
        u = fixed_row_unfolding(fam, 2, "1010")
        assert exact_rank(u) == 1
        dense = to_dense(u)
        assert np.all(dense[dense > 0] == 1)
        assert np.linalg.matrix_rank(dense) == 1

    def test_constraint_mismatch_rejected(self):
        fam = gen_rectangle_outlines(4, 3)
        with pytest.raises(ValueError):
            unfold(fam, Bipartition.row_prefix(2, 4), FixedRowConstraint.from_text(1, "0000"))

    def test_overlapping_sets_rejected(self):
        fam = gen_rectangle_outlines(4, 3)
        with pytest.raises(ValueError):
            Bipartition(4, tuple(range(1, 10)), tuple(range(9, 17)))
        with pytest.raises(ValueError):
            # Pinned pixels without a constraint are a structural error.
            unfold(fam, Bipartition.fixed_row(2, 4), None)


class TestDenseOracle:
    def test_guard(self):
        fam = gen_rectangle_outlines(4, 3)
        with pytest.raises(ValueError):
            # 2 left pixels but 14 right pixels exceeds the guard.
            dense_unfolding_oracle(fam, Bipartition.pixel_prefix(2, 4))
        # 4 left / 12 right pixels is within the guard at n=4.
        mat = dense_unfolding_oracle(
            fam, Bipartition.from_region(Region.rectangle(1, 1, 2, 2, 4))
        )
        assert mat.shape == (16, 4096)

    def test_empty_family_all_zero(self):
        fam = _family_of(2, [])
        mat = dense_unfolding_oracle(fam, Bipartition.row_prefix(1, 2))
        assert mat.shape == (4, 4) and not mat.any()

    def test_single_member_rank_one_everywhere(self):
        fam = _family_of(3, ["111101111"])
        for k in range(1, 9):
            mat = dense_unfolding_oracle(fam, Bipartition.pixel_prefix(k, 3))
            assert np.linalg.matrix_rank(mat) == 1
            assert exact_rank(pixel_prefix_unfolding(fam, k)) == 1

    def test_sparse_equals_dense_on_row_prefix_cuts_n4(self):
        # Row-prefix cuts at n=4 keep both sides within the dense guard.
        fam = gen_rectangle_outlines(4, 3)
        for i in (1, 2, 3):
            bip = Bipartition.row_prefix(i, 4)
            dense_rank = np.linalg.matrix_rank(dense_unfolding_oracle(fam, bip))
            assert exact_rank(unfold(fam, bip)) == dense_rank

    def test_sparse_equals_dense_on_all_bipartitions_n3(self):
        # Every subset of the nine pixels as the left side.
        families = [
            gen_vertical_bars(3, 2),
            gen_random_family(3, 12, seed=5),
            _family_of(3, ["111101111"]),
        ]
        pixels = list(range(1, 10))
        for fam in families:
            for r in range(10):
                for left in itertools.combinations(pixels, r):
                    right = tuple(k for k in pixels if k not in left)
                    bip = Bipartition(3, left, right)
                    dense_rank = np.linalg.matrix_rank(dense_unfolding_oracle(fam, bip))
                    assert exact_rank(unfold(fam, bip)) == dense_rank


class TestRankInvariance:
    def test_member_order_irrelevant(self):
        fam = gen_rectangle_outlines(4, 3)
        shuffled = list(fam.members)
        random.Random(3).shuffle(shuffled)
        fam2 = ImageFamily(4, shuffled, fam.meta)
        for i in (1, 2, 3):
            assert exact_rank(row_prefix_unfolding(fam, i)) == exact_rank(
                row_prefix_unfolding(fam2, i)
            )

    def test_transpose_symmetry(self):
        fam = gen_rectangle_outlines(4, 3)
        for k in (3, 7, 11):
            u = pixel_prefix_unfolding(fam, k)
            assert exact_rank(u) == exact_rank(transpose(u))

    def test_subadditivity_over_row_configs(self):
        for fam in (
            gen_rectangle_outlines(4, 3),
            gen_vertical_bars(4, 2),
            gen_random_family(4, 10, seed=2),
        ):
            for i in range(1, fam.n):
                lhs = exact_rank(row_prefix_unfolding(fam, i))
                rhs = sum(
                    exact_rank(fixed_row_unfolding(fam, i, y))
                    for y in sorted({img.row(i) for img in fam})
                )
                assert lhs <= rhs


class TestSvd:
    def test_retries_on_the_transpose(self, flaky_svd):
        mat = np.random.default_rng(8).standard_normal((7, 4))
        u, s, vt = svd(mat)
        assert flaky_svd == [(7, 4), (4, 7)]
        assert (u.shape, s.shape, vt.shape) == ((7, 4), (4,), (4, 4))
        assert np.all(np.diff(s) <= 0)
        assert np.allclose((u * s) @ vt, mat)
        assert np.allclose(u.T @ u, np.eye(4)) and np.allclose(vt @ vt.T, np.eye(4))


class TestNodeBasis:
    @pytest.mark.parametrize(
        "region",
        [Region.rectangle(2, 3, 2, 3, 6), Region.pixel_prefix(17, 6), Region.row_prefix(3, 6)],
        ids=["rectangle", "pixel-prefix", "row-prefix"],
    )
    def test_configs_in_byte_order_and_rank_exact(self, region):
        fam = gen_rectangle_outlines(6)
        bits = fam.bit_matrix()
        pixels = region.pixels()
        basis, idx = _node_basis(bits, pixels, 1e-9)
        keys = [row.tobytes() for row in bits[:, np.array(pixels) - 1]]
        configs = sorted(set(keys))
        assert idx.tolist() == [configs.index(key) for key in keys]
        unfolding = region_unfolding(fam, region)
        assert basis.shape == (exact_rank(unfolding), len(configs))
        assert np.allclose(basis @ basis.T, np.eye(basis.shape[0]))
        # The basis spans every column of the biadjacency.
        dense = to_dense(unfolding)
        assert np.allclose(basis.T @ (basis @ dense), dense)

    def test_whole_grid_is_the_all_ones_row(self):
        bits = gen_rectangle_outlines(5).bit_matrix()
        basis, idx = _node_basis(bits, tuple(range(1, 26)), 1e-9)
        assert np.array_equal(basis, np.ones((1, len(bits))))
        assert sorted(idx.tolist()) == list(range(len(bits)))

    def test_bad_tolerance(self):
        bits = gen_rectangle_outlines(4, 3).bit_matrix()
        for tol in (0.0, 1.0, -1e-9):
            with pytest.raises(ValueError):
                _node_basis(bits, (1, 2, 3, 4), tol)
