"""Tests for unfoldings, exact integer rank and its pivot columns, the
node step, and the chunked network contraction."""

import itertools
import math
import multiprocessing
import pickle
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from pixelrank import ht, rankcore, tt
from pixelrank.certify import (
    fixed_row_rank_table,
    row_config_counts,
    row_configurations,
    verify_row_cut_subadditivity,
)
from pixelrank.ht import (
    Tree,
    _layer_widths,
    _layers,
    _padded,
    diagonalize,
    ht_eval_batch,
    ht_from_family,
    load_ht,
    save_ht,
)
from pixelrank.images import (
    BinaryImage,
    FamilyMeta,
    ImageFamily,
    Region,
    _members_and_probes,
    gen_random_family,
    gen_rectangle_outlines,
    gen_stacked_outlines,
    gen_vertical_bars,
)
from pixelrank.rankcore import (
    Bipartition,
    _interpolate,
    _node_pivots,
    exact_rank,
    unfold,
)
from pixelrank.tt import (
    _bond_dims,
    _caterpillar,
    load_tt,
    save_tt,
    tt_eval_batch,
    tt_from_family,
)

from oracles import (
    byte_ordered,
    configuration_ids,
    contract_rows_unpruned,
    dense_blocks,
    dense_unfolding_oracle,
    in_byte_order,
    integer_matrix_rank,
    kept_pairs_by_member_scan,
    layer_rank_table,
    live_nonzeros_by_sorting,
    node_pivots_uncollapsed,
    node_ranks,
    pinned,
    pivot_columns,
    pivots,
    pivots_by_rounds,
    pivots_valued,
    row_configurations_per_image,
    to_dense,
    transpose,
    unfold_by_member_scan,
    with_blocks,
)


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
            yield Bipartition.fixed_row(i, n), y
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


def _off_row_pins(n):
    """Column 2 pinned, then the 2x2 block at (2, 2); the other pixels split
    into their first and second half in flat order."""
    for fixed in (tuple(range(2, n * n + 1, n)), Region.rectangle(2, 2, 2, 2, n).pixels()):
        rest = [k for k in range(1, n * n + 1) if k not in fixed]
        half = len(rest) // 2
        yield Bipartition(n, tuple(rest[:half]), tuple(rest[half:]), fixed)


class TestUnfoldMatchesMemberLoop:
    @pytest.mark.parametrize("name", sorted(_REFERENCE_FAMILIES))
    def test_configs_and_entries_match(self, name):
        family = _REFERENCE_FAMILIES[name]()
        cuts = 0
        for bipartition, pinned in _reference_cuts(family):
            u = unfold(family, bipartition, pinned)
            assert in_byte_order(u) == unfold_by_member_scan(family, bipartition, pinned)
            cuts += 1
        assert cuts > family.n * family.n

    @pytest.mark.parametrize("name", sorted(_REFERENCE_FAMILIES))
    def test_numbered_in_member_order(self, name):
        """Row p is the p-th distinct left configuration among the kept
        members in member order, column q likewise on the right, and the
        entries go in member order; relabeling to byte order keeps the
        rank."""
        family = _REFERENCE_FAMILIES[name]()
        for bipartition, pinned in _reference_cuts(family):
            u = unfold(family, bipartition, pinned)
            pairs = kept_pairs_by_member_scan(family, bipartition, pinned)
            left = tuple(dict.fromkeys(l for l, _ in pairs))
            right = tuple(dict.fromkeys(r for _, r in pairs))
            assert (u.left_configs, u.right_configs) == (left, right)
            assert u.entries == tuple((left.index(l), right.index(r)) for l, r in pairs)
            assert exact_rank(u) == exact_rank(byte_ordered(u))

    @pytest.mark.parametrize("name", sorted(_REFERENCE_FAMILIES))
    def test_pins_off_the_rows_match(self, name):
        family = _REFERENCE_FAMILIES[name]()
        for bipartition in _off_row_pins(family.n):
            size = len(bipartition.fixed)
            occurring = {bytes(img.bits[k - 1] for k in bipartition.fixed) for img in family}
            for pinned in sorted(occurring | {bytes(size), bytes([1] * size)}):
                u = unfold(family, bipartition, pinned)
                assert in_byte_order(u) == unfold_by_member_scan(family, bipartition, pinned)

    @pytest.mark.parametrize("name", sorted(_REFERENCE_FAMILIES))
    def test_row_configurations_match_per_image(self, name):
        family = _REFERENCE_FAMILIES[name]()
        for i in range(1, family.n + 1):
            assert row_configurations(family, i) == row_configurations_per_image(family, i)

    def test_collision_is_detected(self):
        class UncheckedBipartition(Bipartition):
            def __post_init__(self):
                pass  # skip the check that the sets cover the grid

        # Pixel 4 is in neither set, so the two members look the same.
        fam = _family_of(2, ["1000", "1001"])
        with pytest.raises(AssertionError, match="collided"):
            unfold(fam, UncheckedBipartition(2, (1, 2), (3,)))
        assert unfold(fam, Bipartition(2, (1, 2), (3, 4))).nnz == 2


_INDEX_FAMILIES = {
    "rect7": lambda: gen_rectangle_outlines(7),
    "stacked5": lambda: gen_stacked_outlines(5),
    "bars6": lambda: gen_vertical_bars(6),
    "random7": lambda: gen_random_family(7, 225, seed=3),
}


def _pins_match_scan(family, i):
    """Pin row i of the family to each configuration that occurs, and to
    one that does not if there is one, and check every unfolding against
    the linear scan; returns whether an absent configuration was pinned."""
    n = family.n
    bipartition = Bipartition.fixed_row(i, n)
    occurring = row_configurations_per_image(family, i)
    absent = [
        bytes(y) for y in itertools.product((0, 1), repeat=n) if bytes(y) not in occurring
    ][:1]
    for y in occurring + tuple(absent):
        u = unfold(family, bipartition, y)
        assert in_byte_order(u) == unfold_by_member_scan(family, bipartition, y)
        assert (u.shape == (0, 0)) == (y not in occurring)
    return bool(absent)


class TestPinnedMemberIndex:
    @pytest.mark.parametrize("name", sorted(_INDEX_FAMILIES))
    def test_every_row_pin_matches_the_scan(self, name):
        family = _INDEX_FAMILIES[name]()
        absent = [_pins_match_scan(family, i) for i in range(1, family.n + 1)]
        assert any(absent)

    def test_alternating_families_and_rows_read_no_stale_index(self):
        rect = _INDEX_FAMILIES["rect7"]()
        rand = _INDEX_FAMILIES["random7"]()
        steps = [(rect, 2), (rand, 2), (rect, 3), (rect, 2), (rand, 4), (rand, 2), (rect, 5)]
        built = {}
        for family, i in steps:
            _pins_match_scan(family, i)
            fixed = Bipartition.fixed_row(i, family.n).fixed
            # The first pin of a set builds its index; later pins reuse it.
            index = built.setdefault((id(family), fixed), family._pin_index[fixed])
            assert family._pin_index[fixed] is index
        # Each family keeps one index per set it pinned, and only those.
        assert set(rect._pin_index) == {Bipartition.fixed_row(i, 7).fixed for i in (2, 3, 5)}
        assert set(rand._pin_index) == {Bipartition.fixed_row(i, 7).fixed for i in (2, 4)}

    def test_pickled_family_carries_no_index(self):
        family = _INDEX_FAMILIES["stacked5"]()
        _pins_match_scan(family, 3)
        _pins_match_scan(family, 4)
        indexes = dict(family._pin_index)
        copy = pickle.loads(pickle.dumps(family))
        assert copy._pin_index == {} and copy._bit_matrix is None
        assert len(indexes) == 2
        assert all(family._pin_index[fixed] is index for fixed, index in indexes.items())
        _pins_match_scan(copy, 3)
        assert set(copy._pin_index) == {Bipartition.fixed_row(3, copy.n).fixed}

    def test_row_configurations_and_pins_share_the_index(self):
        rect = _INDEX_FAMILIES["rect7"]()
        rand = _INDEX_FAMILIES["random7"]()
        steps = [
            ("rows", rect, 2), ("pin", rect, 2), ("pin", rect, 5), ("rows", rect, 2),
            ("rows", rand, 2), ("rows", rect, 5), ("pin", rand, 4), ("rows", rand, 4),
            ("pin", rect, 3), ("rows", rand, 2), ("rows", rect, 3), ("pin", rand, 2),
        ]
        for step, family, i in steps:
            fixed = Bipartition.fixed_row(i, family.n).fixed
            if step == "rows":
                got = row_configurations(family, i)
                assert got == row_configurations_per_image(family, i)
                # Pinning the row then reuses the index its configurations came from.
                index = family._pin_index[fixed]
                assert tuple(index[0]) == got
                _pins_match_scan(family, i)
                assert family._pin_index[fixed] is index
            else:
                _pins_match_scan(family, i)
            assert fixed in family._pin_index

    def test_index_is_an_int32_order_and_group_starts(self):
        family = _INDEX_FAMILIES["rect7"]()
        for i in range(1, family.n + 1):
            groups, order, starts = rankcore._member_index(
                family, Bipartition.fixed_row(i, family.n).fixed
            )
            assert order.dtype == np.int32 and sorted(order.tolist()) == list(range(len(family)))
            assert list(groups.values()) == list(range(len(groups)))
            assert starts[0] == 0 and starts[-1] == len(family) and len(starts) == len(groups) + 1
            for g in range(len(groups)):
                # Each group holds its members in member order.
                assert starts[g] < starts[g + 1]
                assert np.all(np.diff(order[starts[g] : starts[g + 1]]) > 0)

    def test_empty_family_has_no_configurations(self):
        empty = ImageFamily(4, [], FamilyMeta("empty"))
        for i in range(1, 5):
            assert row_configurations(empty, i) == ()
            assert unfold(empty, Bipartition.fixed_row(i, 4), pinned("0110")).shape == (0, 0)
        assert row_config_counts(empty) == {1: 0, 2: 0, 3: 0, 4: 0}

    def test_pickled_family_drops_the_configurations_index(self):
        family = _INDEX_FAMILIES["bars6"]()
        want = row_configurations(family, 4)
        copy = pickle.loads(pickle.dumps(family))
        fixed = Bipartition.fixed_row(4, copy.n).fixed
        assert set(family._pin_index) == {fixed} and copy._pin_index == {}
        assert row_configurations(copy, 4) == want == row_configurations_per_image(copy, 4)
        assert set(copy._pin_index) == {fixed}

    @pytest.mark.parametrize("name", ["rect7", "random7"])
    def test_certify_builds_each_row_index_once(self, name):
        """row_config_counts, fixed_row_rank_table and
        verify_row_cut_subadditivity, run as certify runs them, build one
        index per row and never replace it."""
        family = _INDEX_FAMILIES[name]()
        builds = []

        class CountingIndexes(dict):
            def __setitem__(self, fixed, index):
                builds.append(fixed)
                super().__setitem__(fixed, index)

        family._pin_index = CountingIndexes()
        row_config_counts(family)
        fixed_row_rank_table(family)
        verify_row_cut_subadditivity(family)
        rows = [Bipartition.fixed_row(i, family.n).fixed for i in range(1, family.n + 1)]
        assert builds == rows
        copy = pickle.loads(pickle.dumps(family))
        assert copy._pin_index == {} and len(family._pin_index) == family.n

    def test_pool_workers_inherit_the_row_indexes(self):
        """Under fork, the workers of fixed_row_rank_table and
        verify_row_cut_subadditivity read the indexes row_config_counts
        built before the pool started, and build none of their own."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the family only under fork")
        family = _INDEX_FAMILIES["rect7"]()
        want = (fixed_row_rank_table(family), verify_row_cut_subadditivity(family))
        family = _INDEX_FAMILIES["rect7"]()
        row_config_counts(family)

        class BuiltIndexes(dict):
            def __setitem__(self, fixed, index):
                raise AssertionError(f"index of {fixed} built again")

        family._pin_index = BuiltIndexes(family._pin_index)
        got = (fixed_row_rank_table(family, jobs=2), verify_row_cut_subadditivity(family, jobs=2))
        assert got == want


class TestIntegerRank:
    """integer_matrix_rank is fraction-free elimination alone, so the
    general integer matrices here check Bareiss directly, not the peel."""

    def test_zero_matrix(self):
        fam = _family_of(2, [])
        assert exact_rank(unfold(fam, Bipartition.row_prefix(1, fam.n))) == 0

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
        u = unfold(fam, Bipartition.fixed_row(1, fam.n), pinned("0000"))
        assert u.shape[0] == 1
        assert u.shape[1] == u.nnz == 3  # the three outlines starting at row 2

    def test_absent_row_config_gives_rank_zero(self):
        fam = gen_rectangle_outlines(4, 3)
        u = unfold(fam, Bipartition.fixed_row(1, fam.n), pinned("1001"))
        assert u.nnz == 0
        assert exact_rank(u) == 0

    def test_each_member_contributes_one_entry(self):
        fam = gen_rectangle_outlines(4, 3)
        u = unfold(fam, Bipartition.row_prefix(2, fam.n))
        assert u.nnz == 9

    def test_single_unit_entry_is_rank_one(self):
        fam = _family_of(2, ["1000"])
        u = unfold(fam, Bipartition.row_prefix(1, fam.n))
        assert u.shape == (1, 1) and u.nnz == 1
        assert exact_rank(u) == 1

    def test_case3_row_is_rank_one(self):
        # Two isolated black pixels in the pinned row: upper and lower parts
        # combine freely, so the unfolding is an all-ones block.
        fam = gen_rectangle_outlines(4, 3)
        u = unfold(fam, Bipartition.fixed_row(2, fam.n), pinned("1010"))
        assert exact_rank(u) == 1
        dense = to_dense(u)
        assert np.all(dense[dense > 0] == 1)
        assert np.linalg.matrix_rank(dense) == 1

    def test_constraint_mismatch_rejected(self):
        fam = gen_rectangle_outlines(4, 3)
        with pytest.raises(ValueError):
            unfold(fam, Bipartition.row_prefix(2, 4), bytes(4))

    @pytest.mark.parametrize(
        "bipartition, pinned",
        [
            (Bipartition.fixed_row(2, 4), bytes(3)),  # wrong length
            (Bipartition.fixed_row(2, 4), bytes(5)),
            (Bipartition.fixed_row(2, 4), b"\x00\x01\x02\x00"),  # not 0 or 1
            (Bipartition.fixed_row(2, 4), "0110"),
            (Bipartition.row_prefix(2, 4), bytes(4)),  # values, nothing pinned
            (Bipartition.row_prefix(2, 4), b""),
            (Bipartition.fixed_row(2, 4), None),  # pinned, no values
        ],
    )
    def test_pin_contract_violations_rejected(self, bipartition, pinned):
        fam = gen_rectangle_outlines(4, 3)
        with pytest.raises(ValueError, match="pinned"):
            unfold(fam, bipartition, pinned)

    def test_overlapping_sets_rejected(self):
        fam = gen_rectangle_outlines(4, 3)
        with pytest.raises(ValueError):
            Bipartition(4, tuple(range(1, 10)), tuple(range(9, 17)))
        with pytest.raises(ValueError):
            # Pinned pixels without their values are a structural error.
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
            assert exact_rank(unfold(fam, Bipartition.pixel_prefix(k, fam.n))) == 1

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
            assert exact_rank(unfold(fam, Bipartition.row_prefix(i, fam.n))) == exact_rank(
                unfold(fam2, Bipartition.row_prefix(i, fam2.n))
            )

    def test_transpose_symmetry(self):
        fam = gen_rectangle_outlines(4, 3)
        for k in (3, 7, 11):
            u = unfold(fam, Bipartition.pixel_prefix(k, fam.n))
            assert exact_rank(u) == exact_rank(transpose(u))

    def test_subadditivity_over_row_configs(self):
        for fam in (
            gen_rectangle_outlines(4, 3),
            gen_vertical_bars(4, 2),
            gen_random_family(4, 10, seed=2),
        ):
            for i in range(1, fam.n):
                lhs = exact_rank(unfold(fam, Bipartition.row_prefix(i, fam.n)))
                rhs = sum(
                    exact_rank(unfold(fam, Bipartition.fixed_row(i, fam.n), y))
                    for y in sorted({img.row(i) for img in fam})
                )
                assert lhs <= rhs


def _prefix_unfoldings(family):
    return [unfold(family, Bipartition.pixel_prefix(k, family.n)) for k in range(1, family.n**2)]


def _duplicate_heavy(seed):
    """0/1 matrices of a few distinct rows and columns, each repeated."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        core = rng.integers(0, 2, size=(rng.integers(1, 6), rng.integers(1, 6)))
        rows = rng.integers(0, len(core), size=rng.integers(1, 12))
        cols = rng.integers(0, core.shape[1], size=rng.integers(1, 12))
        yield core[np.ix_(rows, cols)]


class TestPivotColumns:
    @staticmethod
    def _check(mat, rank):
        mat = np.asarray(mat)
        pairs = pivots(mat)
        rows, cols = [i for i, _ in pairs], [j for _, j in pairs]
        assert cols == pivot_columns(mat)
        assert len(cols) == len(set(cols)) == len(set(rows)) == rank
        # B[:, J] has full column rank, so its columns are independent, and
        # that rank is B's, so they span B's columns.
        assert integer_matrix_rank(mat[:, cols]) == len(cols) == integer_matrix_rank(mat)
        # The pivots are those of one elimination: B[I, J] is nonsingular.
        assert integer_matrix_rank(mat[np.ix_(rows, cols)]) == rank

    def test_peel_only_rect(self, monkeypatch):
        calls = []
        real = rankcore._bareiss_pivots
        monkeypatch.setattr(rankcore, "_bareiss_pivots", lambda m: calls.append(m) or real(m))
        for unfolding in _prefix_unfoldings(gen_rectangle_outlines(5, 3)):
            mat = to_dense(unfolding, int)
            pivot_columns(mat)
            assert not calls  # every pivot came from the peeling
            self._check(mat, exact_rank(unfolding))
            calls.clear()

    def test_bareiss_core(self, monkeypatch):
        calls = []
        real = rankcore._bareiss_pivots
        monkeypatch.setattr(rankcore, "_bareiss_pivots", lambda m: calls.append(m) or real(m))
        mats = [to_dense(u, int) for u in _prefix_unfoldings(gen_stacked_outlines(5, 2))]
        rng = np.random.default_rng(11)
        shapes = rng.integers(3, 9, size=(60, 2))
        mats += [rng.integers(0, 2, size=tuple(shape)) for shape in shapes]
        for mat in mats:
            self._check(mat, np.linalg.matrix_rank(mat))
        assert len(calls) > 30

    def test_duplicate_heavy(self):
        for mat in _duplicate_heavy(12):
            self._check(mat, np.linalg.matrix_rank(mat))

    def test_node_pivots_are_the_unfolding_pivots(self):
        fam = gen_stacked_outlines(5, 2)
        region = Region.rectangle(2, 2, 3, 2, 5)
        idx, rows, b = _node_pivots(np.packbits(fam.bit_matrix(), axis=1), region.pixels())
        dense = to_dense(byte_ordered(unfold(fam, Bipartition.from_region(region))), int)
        pairs = sorted(pivots(dense), key=lambda ij: ij[1])
        assert b.dtype == np.uint8
        assert rows.tolist() == [i for i, _ in pairs]
        assert np.array_equal(b, dense[:, [j for _, j in pairs]])


def _peel_reference_matrices():
    """2,200 seeded 0/1 matrices up to 14 x 14: sparse, half full, dense and
    duplicate-heavy."""
    rng = np.random.default_rng(20)
    for density in (0.15, 0.5, 0.85):
        for _ in range(600):
            yield (rng.random(rng.integers(1, 15, size=2)) < density).astype(int)
    for seed in range(10):
        yield from _duplicate_heavy(seed)


class TestPairPeel:
    """The peel on (row, column) pairs gives the pivots of the peel that
    carried each entry's value (oracles.pivots_valued), whatever the order
    of the pairs."""

    @staticmethod
    def _check(pairs, n_rows, rng):
        valued: list[dict[int, int]] = [{} for _ in range(n_rows)]
        for k in rng.permutation(len(pairs)):  # each row's columns shuffled
            i, j = pairs[k]
            valued[i][j] = 1
        want = sorted(pivots_valued(valued), key=lambda ij: ij[1])
        for _ in range(2):
            shuffled = [pairs[k] for k in rng.permutation(len(pairs))]
            assert sorted(rankcore._pivots(shuffled), key=lambda ij: ij[1]) == want

    def test_random_matrices(self):
        rng = np.random.default_rng(21)
        count = 0
        for mat in _peel_reference_matrices():
            rows, cols = np.nonzero(mat)
            self._check(list(zip(rows.tolist(), cols.tolist())), len(mat), rng)
            count += 1
        assert count >= 2000

    @pytest.mark.parametrize("name", sorted(_REFERENCE_FAMILIES))
    def test_pixel_prefix_unfoldings(self, name):
        rng = np.random.default_rng(22)
        for unfolding in _prefix_unfoldings(_REFERENCE_FAMILIES[name]()):
            self._check(list(unfolding.entries), unfolding.shape[0], rng)


def _sparse_peel_inputs(count, seed):
    """count seeded sparse 0/1 matrices as shuffled (row, column) pairs
    over scattered row and column ids: 1 x k, k x 1 and empty ones among
    them, and half with rows and columns repeated."""
    rng = np.random.default_rng(seed)
    yield []
    for k in range(count - 1):
        shape = rng.integers(1, 13, size=2)
        if k % 10 == 1:
            shape[0] = 1
        elif k % 10 == 2:
            shape[1] = 1
        mat = rng.random(shape) < rng.choice((0.1, 0.25, 0.5, 0.8))
        if k % 10 >= 5:
            mat = mat[np.ix_(
                rng.integers(0, shape[0], size=rng.integers(1, 15)),
                rng.integers(0, shape[1], size=rng.integers(1, 15)),
            )]
        row_ids = rng.choice(1000, size=mat.shape[0], replace=False)
        col_ids = rng.choice(1000, size=mat.shape[1], replace=False)
        rows, cols = np.nonzero(mat)
        pairs = list(zip(row_ids[rows].tolist(), col_ids[cols].tolist()))
        yield [pairs[q] for q in rng.permutation(len(pairs))]


class TestPeelAgainstRounds:
    """The peel gives the pivots, sorted by column, of the peel written
    round by round (oracles.pivots_by_rounds), whatever the order of the
    pairs."""

    @staticmethod
    def _check(pairs, rng):
        want = sorted(pivots_by_rounds(pairs), key=lambda ij: ij[1])
        assert sorted(rankcore._pivots(pairs), key=lambda ij: ij[1]) == want
        shuffled = [pairs[q] for q in rng.permutation(len(pairs))]
        assert sorted(rankcore._pivots(shuffled), key=lambda ij: ij[1]) == want

    def test_random_sparse_matrices(self):
        rng = np.random.default_rng(31)
        count = 0
        for pairs in _sparse_peel_inputs(10_000, 30):
            self._check(pairs, rng)
            count += 1
        assert count == 10_000

    def test_every_node_of_the_rect8_train_and_tree(self, monkeypatch):
        inputs = []
        real = rankcore._pivots
        monkeypatch.setattr(rankcore, "_pivots", lambda r: real(inputs.append(list(r)) or inputs[-1]))
        family = gen_rectangle_outlines(8)
        _bond_dims(family)
        _layer_widths(family)
        monkeypatch.undo()
        inner = [
            node for layers in (_caterpillar(64), _layers(Tree(8)))
            for layer in layers for node in layer if node[2] is not None
        ]
        assert len(inputs) == len(inner) > 100
        rng = np.random.default_rng(32)
        for pairs in inputs:
            self._check(pairs, rng)


def _basis(bits, pixels):
    """A node's interpolative basis U at every configuration, read off the
    M whose nonzeros _interpolate gives when the first child's pivot rows are all of
    the node's configurations and the second child is the empty leaf."""
    idx, rows, b = _node_pivots(np.packbits(bits, axis=1), pixels)
    shape = (max(len(rows), 1), 1, len(b))
    first, second = (idx, np.arange(len(b))), (np.zeros_like(idx), np.arange(1))
    _, at, values = _interpolate(shape, idx, rows, b, first, second)
    m = np.zeros(shape)
    m.reshape(-1)[at] = values
    return idx, rows, b, m[:, 0].T


_TWO_BY_TWO = "0000 0001 0101 0110 1000 1010 1100 1101 1110".split()


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
        idx, rows, b, u = _basis(bits, pixels)
        keys = [row.tobytes() for row in bits[:, np.array(pixels) - 1]]
        configs = sorted(set(keys))
        assert idx.tolist() == [configs.index(key) for key in keys]
        unfolding = byte_ordered(unfold(fam, Bipartition.from_region(region)))
        assert u.shape == (len(configs), exact_rank(unfolding))
        # U interpolates on the pivot rows: U[I] = Id and U B[I, J] = B[:, J].
        assert np.array_equal(u[rows], np.eye(len(rows)))
        assert np.array_equal(u @ b[rows], b)
        # Its columns span every column of the biadjacency.
        dense = to_dense(unfolding)
        assert np.array_equal(u @ dense[rows], dense)

    def test_whole_grid_is_the_all_ones_row(self):
        bits = gen_rectangle_outlines(5).bit_matrix()
        idx, rows, b, u = _basis(bits, tuple(range(1, 26)))
        assert np.array_equal(u, np.ones((len(bits), 1)))
        assert sorted(idx.tolist()) == list(range(len(bits)))

    def test_repeated_rows_solved_once(self, monkeypatch):
        # Rows 1 and 4, and rows 2 and 0, repeat; rows 0 and 3 are I.
        b = np.array([[1, 0], [1, 1], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        idx = np.arange(len(b))
        solved = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, y: solved.append(y.shape) or real(a, y))
        shape = (2, 1, len(b))
        children = (idx, idx), (idx * 0, np.arange(1))
        _, at, values = _interpolate(shape, idx, np.array([0, 3]), b, *children)
        assert solved == [(2, 2)]  # the distinct non-pivot rows [1, 0] and [1, 1]
        m = np.zeros(shape)
        m.reshape(-1)[at] = values
        assert np.array_equal(m[:, 0].T, b)

    def test_empty_family_is_one_zero_channel(self):
        idx, rows, b, u = _basis(np.zeros((0, 16), dtype=np.uint8), (1, 2, 5, 6))
        assert idx.shape == rows.shape == (0,) and b.shape == (0, 0)
        assert u.shape == (0, 1)
        empty = ImageFamily(4, [], FamilyMeta("empty"))
        for net in (tt_from_family(empty), ht_from_family(empty)):
            assert all(not p.any() for p in dense_blocks(net).values())
        assert all(b.shape[0] == 1 for b in ht_from_family(empty).blocks.values())

    @pytest.mark.parametrize("name", sorted(_REFERENCE_FAMILIES))
    def test_networks_exact_with_unit_parameters(self, name):
        family = _REFERENCE_FAMILIES[name]()
        train, net = tt_from_family(family), ht_from_family(family)
        for network, evaluate, fam in (
            (train, tt_eval_batch, family), (net, ht_eval_batch, _padded(family))
        ):
            assert all(np.isin(p, (-1.0, 0.0, 1.0)).all() for p in dense_blocks(network).values())
            bits, truth = _members_and_probes(fam, 500, seed=1)
            assert np.max(np.abs(evaluate(network, bits) - truth)) == 0.0

    def test_non_integral_basis_kept(self):
        # At train node 2, B's rows are 00: [1,1,0], 01: [0,1,1], 10: [1,0,1]
        # and 11: [1,1,1]; the pivot rows are the first three, with det 2, so
        # row 11 is half of each.
        family = _family_of(2, _TWO_BY_TWO)
        *_, u = _basis(family.bit_matrix(), (1, 2))
        assert np.array_equal(u[3], [0.5, 0.5, 0.5])
        train = tt_from_family(family)
        assert 0.5 in train.blocks[2].values
        bits = np.array(list(itertools.product((0, 1), repeat=4)), dtype=np.uint8)
        truth = [float(BinaryImage(2, row.tobytes()) in family) for row in bits]
        assert np.array_equal(tt_eval_batch(train, bits), truth)
        assert np.array_equal(ht_eval_batch(ht_from_family(family), bits), truth)


_PLAN_FAMILIES = {
    **_REFERENCE_FAMILIES,
    "random7": lambda: gen_random_family(7, 225, seed=0),
    "two-by-two": lambda: _family_of(2, _TWO_BY_TWO),
}


class TestPlan:
    @pytest.mark.parametrize("name", sorted(_PLAN_FAMILIES))
    def test_packed_ids_and_collapsed_peel_match_the_reference(self, name, monkeypatch):
        """On every inner node of the tree and the caterpillar, the ids from
        packed keys are the gathered ones, for the pixels and their
        complement, and the peel over B's distinct columns returns the
        pivots of B's, in order."""
        ids, peeled = [], []
        real_ids, real_pivots = rankcore._packed_ids, rankcore._pivots
        monkeypatch.setattr(rankcore, "_packed_ids", lambda k: ids.append(real_ids(k)) or ids[-1])
        monkeypatch.setattr(rankcore, "_pivots", lambda r: peeled.append(real_pivots(r)) or peeled[-1])
        family = _PLAN_FAMILIES[name]()
        padded = _padded(family)
        for fam, layers in (
            (padded, _layers(Tree(padded.n))),
            (family, _caterpillar(family.n * family.n)),
        ):
            bits = fam.bit_matrix()
            packed = np.packbits(bits, axis=1)
            for key, pixels, first, _ in (node for layer in layers for node in layer):
                if first is None:
                    continue
                ids.clear()
                peeled.clear()
                _node_pivots(packed, pixels)
                comp = tuple(p for p in range(1, bits.shape[1] + 1) if p not in set(pixels))
                assert len(ids) == 2
                for (d, idx), want in zip(ids, (pixels, comp)):
                    want_d, want_idx = configuration_ids(bits, want)
                    assert d == want_d and np.array_equal(idx, want_idx), key
                assert peeled == [node_pivots_uncollapsed(bits, pixels)], key

    @pytest.mark.parametrize("name", sorted(_PLAN_FAMILIES))
    def test_plan_widths_are_the_built_ones(self, name):
        family = _PLAN_FAMILIES[name]()
        assert _layer_widths(family) == ht_from_family(family).layer_widths
        assert _bond_dims(family) == tt_from_family(family).bond_dims

    def test_rect16_tree_widths(self):
        """The exact layer widths of the rect n=16 tree network, as built."""
        widths = _layer_widths(gen_rectangle_outlines(16, 3))
        assert widths == [2, 4, 13, 40, 84, 168, 138, 212, 1]


class TestNodeRankStorage:
    @pytest.mark.parametrize(
        "family",
        [gen_rectangle_outlines(8, 3), gen_random_family(6, 60, seed=4), gen_stacked_outlines(5)],
        ids=["rect8", "random6", "stacked5"],
    )
    def test_params_at_node_ranks(self, family):
        net = ht_from_family(family)
        table = layer_rank_table(family)
        ranks = node_ranks(net)
        nbytes = 0
        dense = dense_blocks(net)
        for node, p in dense.items():
            first, second = net.tree.children(node)
            r, r2, r1 = ranks[node], ranks[second], ranks[first]
            assert p.shape == (r, r2, r1)
            assert ranks[node] == max(table[node], 1)
            nbytes += 8 * r * r1 * r2
        assert sum(p.nbytes for p in dense.values()) == nbytes
        assert any(p.shape[0] < net.layer_widths[node.i - 1] for node, p in dense.items())


class TestChunkedContraction:
    @pytest.mark.parametrize("form", ["train", "generalized", "diagonal"])
    def test_small_budget_splits_rows_same_values(self, form, monkeypatch):
        fam = gen_rectangle_outlines(4, 3)
        if form == "train":
            net, evaluate = tt_from_family(fam), tt_eval_batch
        else:
            net, evaluate = ht_from_family(fam), ht_eval_batch
            if form == "diagonal":
                net = diagonalize(net)
        rng = np.random.default_rng(6)
        probes = rng.integers(0, 2, size=(300 - len(fam), 16), dtype=np.uint8)
        bits = rng.permutation(np.vstack([fam.bit_matrix(), probes]))
        truth = [float(BinaryImage(4, row.tobytes()) in fam) for row in bits]
        chunks = []
        real = rankcore._kernel

        def counted(t1, t2, first, second, a, *args):
            chunks.append((len(first), len(a)))
            return real(t1, t2, first, second, a, *args)

        monkeypatch.setattr(rankcore, "_kernel", counted)
        whole = evaluate(net, bits)
        # One chunk per node that runs, or per leaf row of its second child.
        nodes = len(chunks)
        assert 0 < nodes <= 2 * len(net.blocks)
        assert np.array_equal(whole, truth)
        chunks.clear()
        monkeypatch.setattr(rankcore, "_EVAL_BYTES", 64)
        parts = evaluate(net, bits)
        # A chunk's (pairs x nonzeros) product fits the budget, or is one pair.
        assert len(chunks) > nodes
        assert all(8 * pairs * nonzeros <= 64 or pairs == 1 for pairs, nonzeros in chunks)
        assert np.array_equal(parts, whole)
        assert evaluate(net, bits[:0]).shape == (0,)

    def test_traced_peak_stays_near_the_budget(self, monkeypatch):
        # Unchunked, the pooled products of 1,000 rows on rect n=8 (a
        # 44 x 44 layer) take about 20 MiB.
        net = ht_from_family(gen_rectangle_outlines(8, 3))
        bits = np.random.default_rng(7).integers(0, 2, size=(1000, 64), dtype=np.uint8)
        budget = 1 << 20
        monkeypatch.setattr(rankcore, "_EVAL_BYTES", budget)
        tracemalloc.start()
        try:
            ht_eval_batch(net, bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * budget

    def test_each_chunk_holds_its_arrays_within_the_budget(self, monkeypatch):
        """A chunk's product, the second child's gathered factor and the sums
        together fit the budget; numpy's fancy indexing adds one fixed
        buffer of about 128 KiB.  A budget that counted the product alone
        held about twice the budget here."""
        fam = _padded(gen_rectangle_outlines(12, 3))
        net, bits = ht_from_family(fam), fam.bit_matrix()
        budget = 1 << 20
        monkeypatch.setattr(rankcore, "_EVAL_BYTES", budget)
        real = rankcore._kernel
        peaks = []

        def traced(*args):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            return out

        monkeypatch.setattr(rankcore, "_kernel", traced)
        tracemalloc.start()
        try:
            ht_eval_batch(net, bits)
        finally:
            tracemalloc.stop()
        assert budget // 2 < max(peaks) <= budget + (1 << 18)


_FAMILIES = {
    "rect4": lambda: gen_rectangle_outlines(4),
    "rect5": lambda: gen_rectangle_outlines(5),
    "rect8": lambda: gen_rectangle_outlines(8),
    "stacked5": lambda: gen_stacked_outlines(5),
    "random4": lambda: gen_random_family(4, 40, seed=3),
    "empty": lambda: ImageFamily(3, [], FamilyMeta("none")),
}


def _unpruned(net, bits):
    """The root's values by the reference contraction, which runs every
    channel, zero padding included."""
    diagonal = net.form == "diagonal"
    return contract_rows_unpruned(bits, net.layers, dense_blocks(net), diagonal)[:, 0]


_LIVE_ROW_FAMILIES = {**_FAMILIES, "two-by-two": lambda: _family_of(2, _TWO_BY_TWO)}


class TestLiveChannelContraction:
    @pytest.mark.parametrize("family", sorted(_LIVE_ROW_FAMILIES))
    @pytest.mark.parametrize("form", ["train", "generalized", "diagonal"])
    def test_matches_the_unpruned_contraction(self, form, family, tmp_path):
        """Exact networks, the 2x2 family's halves included, give the
        unpruned contraction's values and the truth, bit for bit."""
        fam = _LIVE_ROW_FAMILIES[family]()
        if form == "train":
            net, evaluate, save, load = tt_from_family(fam), tt_eval_batch, save_tt, load_tt
        else:
            fam = _padded(fam)
            net, evaluate, save, load = ht_from_family(fam), ht_eval_batch, save_ht, load_ht
            if form == "diagonal":
                net = diagonalize(net)
        bits, truth = _members_and_probes(fam, 300, seed=1)
        save(net, tmp_path / "net")
        for network in (net, load(tmp_path / "net")):
            for rows in (bits, bits[:0]):
                got, want = evaluate(network, rows), _unpruned(network, rows)
                assert got.shape == want.shape == (len(rows),)
                assert np.array_equal(got, want) and np.array_equal(got, truth[: len(rows)])

    @pytest.mark.parametrize("family", ["rect7", "random4", "empty"])
    @pytest.mark.parametrize("form", ["train", "generalized", "diagonal"])
    def test_live_nonzeros_match_the_sorting_plan(self, form, family):
        """The mask and bincount of _live_nonzeros give the plan that
        np.isin and np.unique give, array for array and dtype for dtype."""
        fam = gen_rectangle_outlines(7) if family == "rect7" else _FAMILIES[family]()
        net = _network(form, fam)[0]
        args = (net.layers, net.blocks, net.form == "diagonal")
        got, want = rankcore._live_nonzeros(*args), live_nonzeros_by_sorting(*args)
        assert got.keys() == want.keys()
        for key, plan in want.items():
            mine = got[key]
            if isinstance(plan, np.ndarray):  # a leaf's identity over its live channels
                plan, mine = (plan,), (mine,)
            else:  # an inner node's (q, s, a, values, live channel count)
                assert mine[4] == plan[4]
                plan, mine = plan[:4], mine[:4]
            for a, b in zip(mine, plan, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_zero_channels_change_no_bit(self, diagonal):
        fam = gen_rectangle_outlines(5)
        net = ht_from_family(_padded(fam))
        if diagonal:
            net = diagonalize(net)
        extra = 3
        top = net.tree.n_layers
        params = {}
        for node, p in dense_blocks(net).items():
            # Every layer but the leaves and the root gains zero channels.
            out = 0 if node.i == top else extra
            if diagonal:
                params[node] = np.pad(p, ((0, out), (0, extra if node.i > 2 else 0)))
            else:
                ins = extra if node.i > 2 else 0
                params[node] = np.pad(p, ((0, out), (0, ins), (0, ins)))
        widths = [w + extra for w in net.layer_widths]
        widths[0], widths[-1] = net.layer_widths[0], 1
        wide = with_blocks(net, params, widths)
        bits, _ = _members_and_probes(_padded(fam), 2000, seed=2)
        assert ht_eval_batch(wide, bits).tobytes() == ht_eval_batch(net, bits).tobytes()

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_zero_output_channel_read_with_a_nonzero_weight(self, diagonal):
        """A channel whose weights are all zero and that its parent reads
        with weight 1 is evaluated, and adds nothing."""
        fam = _padded(gen_rectangle_outlines(5))
        net = ht_from_family(fam)
        if diagonal:
            net = diagonalize(net)
        root = net.tree.root
        first, second = net.tree.children(root)
        params = dense_blocks(net)
        p = params[first]
        params[first] = np.pad(p, ((0, 1),) + ((0, 0),) * (p.ndim - 1))
        if diagonal:
            # The root pools channel by channel: the second child gains a
            # nonzero channel to pair with the first child's zero one.
            params[second] = np.vstack([params[second], params[second][:1]])
            params[root] = np.pad(params[root], ((0, 0), (0, 1)), constant_values=1.0)
        else:
            params[root] = np.pad(params[root], ((0, 0), (0, 0), (0, 1)), constant_values=1.0)
        widths = list(net.layer_widths)
        widths[-2] += 1
        wide = with_blocks(net, params, widths)
        bits, _ = _members_and_probes(fam, 2000, seed=3)
        got = ht_eval_batch(wide, bits)
        assert np.max(np.abs(got - _unpruned(wide, bits))) <= 1e-14
        assert np.max(np.abs(got - ht_eval_batch(net, bits))) <= 1e-14


def _network(form, fam):
    """The family's exact network of the given form, its evaluator and the
    family it evaluates on (padded for a tree network)."""
    if form == "train":
        return tt_from_family(fam), tt_eval_batch, fam
    fam = _padded(fam)
    net = ht_from_family(fam)
    return (diagonalize(net) if form == "diagonal" else net), ht_eval_batch, fam


def _with_params(net, seed):
    """The network with every parameter replaced by a seeded normal float."""
    rng = np.random.default_rng(seed)
    return with_blocks(net, {key: rng.standard_normal(b.shape) for key, b in net.blocks.items()})


class TestLiveRowContraction:
    """Each node runs once per distinct pair of its children's nonzero
    outputs, and a row where either is zero is an exact zero (exact
    networks: TestLiveChannelContraction)."""

    @pytest.mark.parametrize("family", ["rect5", "stacked5", "random4", "two-by-two"])
    @pytest.mark.parametrize("form", ["train", "generalized", "diagonal"])
    def test_random_parameters_match_the_unpruned_contraction(self, form, family):
        net, evaluate, fam = _network(form, _LIVE_ROW_FAMILIES[family]())
        net = _with_params(net, seed=9)
        bits, _ = _members_and_probes(fam, 500, seed=6)
        got, want = evaluate(net, bits), _unpruned(net, bits)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("form", ["train", "generalized", "diagonal"])
    def test_rows_off_the_family_are_zeros(self, form):
        net, evaluate, fam = _network(form, gen_rectangle_outlines(5))
        bits, truth = _members_and_probes(fam, 500, seed=7)
        off = bits[truth == 0]
        assert len(off) > 400
        assert np.array_equal(evaluate(net, off), np.zeros(len(off)))
        assert evaluate(net, bits[:0]).shape == (0,)

    @pytest.mark.parametrize("form", ["train", "generalized"])
    def test_root_sees_no_more_rows_than_members(self, form, monkeypatch):
        fam = gen_rectangle_outlines(8)
        net, evaluate, fam = _network(form, fam)
        bits, truth = _members_and_probes(fam, 2000, seed=8)
        rows = []
        real = rankcore._kernel

        def counted(t1, t2, first, *args):
            rows.append(len(first))
            return real(t1, t2, first, *args)

        monkeypatch.setattr(rankcore, "_kernel", counted)
        assert np.array_equal(evaluate(net, bits), truth)
        assert 0 < rows[-1] <= len(fam)  # the root is the last node
        assert sum(rows) < len(rows) * len(fam)


class TestDepthFirstWalk:
    """_eval_batch walks the tree children first, each subtree finished before
    its sibling's and a leaf made just before its parent, so it holds at
    most one node output per tree level, not a layer of them."""

    _NETWORKS = [("train", 1), ("train", 2), ("train", 8), ("tree", 2), ("tree", 4), ("tree", 8)]

    @staticmethod
    def _depth(layers):
        """The edges on the tree's longest root-to-leaf path."""
        height = {}
        for layer in layers:
            for key, _, first, second in layer:
                height[key] = 0 if first is None else 1 + max(height[first], height[second])
        return height[layers[-1][-1][0]]

    @staticmethod
    def _network(kind, n):
        """An exact network of the kind on a random family of side n, its
        layers, its evaluator and the family."""
        fam = gen_random_family(n, min(2 * n * n, 1 << (n * n)), seed=n)
        if kind == "train":
            net, evaluate = tt_from_family(fam), tt_eval_batch
        else:
            net, evaluate = ht_from_family(fam), ht_eval_batch
        return net, net.layers, evaluate, fam

    @pytest.mark.parametrize("kind, n", _NETWORKS)
    def test_children_first_and_the_root_last(self, kind, n):
        layers = self._network(kind, n)[1]
        order = rankcore._depth_first(layers)
        nodes = [node for layer in layers for node in layer]
        assert sorted(map(repr, order)) == sorted(map(repr, nodes))  # each node once
        assert order[-1] == layers[-1][-1]
        place = {key: i for i, (key, *_) in enumerate(order)}
        for key, _, first, second in nodes:
            if first is not None:
                assert place[first] < place[key] and place[second] < place[key]
        held = most = 0
        for _, _, first, _ in order:  # a node's children go as it is made
            held += 1 if first is None else -1
            most = max(most, held)
        assert most <= self._depth(layers) + 1

    @pytest.mark.parametrize("kind, n", _NETWORKS)
    def test_evaluation_holds_one_output_per_level(self, kind, n, monkeypatch):
        """Counted as each output is made and as it is let go, no more than
        depth + 1 node outputs are alive at once."""
        net, layers, evaluate, fam = self._network(kind, n)
        bits, truth = _members_and_probes(fam, 200, seed=n)
        alive = [0, 0]  # now, most
        real = rankcore._nonzero

        def gone():
            alive[0] -= 1

        def counted(table, index):
            out = real(table, index)
            alive[0] += 1
            alive[1] = max(alive)
            weakref.finalize(out[1], gone)
            return out

        monkeypatch.setattr(rankcore, "_nonzero", counted)
        assert np.array_equal(evaluate(net, bits), truth)
        assert alive[0] == 0 and 0 < alive[1] <= self._depth(layers) + 1

    def test_empty_family_evaluates_to_zeros(self):
        fam = gen_random_family(4, 0, seed=0)
        bits, truth = _members_and_probes(fam, 200, seed=0)
        assert not truth.any()
        assert np.array_equal(tt_eval_batch(tt_from_family(fam), bits), truth)
        assert np.array_equal(ht_eval_batch(ht_from_family(fam), bits), truth)


class TestOneNetworkType:
    """Trains and tree networks are one type: one evaluation, one writer and
    one reader serve both, and the tree's layers are made once per build or
    load, not per call."""

    def test_trains_and_trees_share_one_implementation(self, tmp_path):
        train = tt_from_family(gen_rectangle_outlines(4))
        net = ht_from_family(gen_rectangle_outlines(4))
        assert isinstance(train, rankcore._Network) and isinstance(net, rankcore._Network)
        assert tt.tt_eval is ht.ht_eval is rankcore._eval
        assert tt_eval_batch is ht_eval_batch is rankcore._eval_batch
        assert save_tt is save_ht is rankcore._save_network
        assert train.bond_dims == train.widths[:1] + train.widths[2:]
        assert net.layer_widths == net.widths
        assert diagonalize(net).layers is net.layers
        save_tt(train, tmp_path / "train")
        assert load_tt(tmp_path / "train").layers == train.layers

    @pytest.mark.parametrize("kind", ["train", "tree"])
    def test_layers_made_once_per_build_and_load(self, kind, tmp_path, monkeypatch):
        module, name = (tt, "_caterpillar") if kind == "train" else (ht, "_layers")
        build = tt_from_family if kind == "train" else ht_from_family
        load = load_tt if kind == "train" else load_ht
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
        fam = gen_rectangle_outlines(4)
        net = build(fam)
        assert len(calls) == 1
        bits, truth = _members_and_probes(fam, 100, seed=0)
        for _ in range(2):  # either kind's names serve either kind
            assert np.array_equal(tt_eval_batch(net, bits), truth)
            save_tt(net, tmp_path / "net")
        assert len(calls) == 1
        loaded = load(tmp_path / "net")
        assert np.array_equal(ht_eval_batch(loaded, bits), truth)
        assert len(calls) == 2


class TestNetworkFiles:
    """A network file holds each node at its own ranks, and loading it gives
    back the same blocks."""

    def test_saving_copies_no_block(self, tmp_path):
        """The nonzeros are found on each block as held, so saving allocates
        far less than the largest block (10 MB here) beyond the network; a
        copy of a block, or a mask over it, takes an eighth of it or more."""
        net = diagonalize(ht_from_family(gen_rectangle_outlines(8)))
        largest = max(8 * math.prod(b.shape) for b in net.blocks.values())
        tracemalloc.start()
        try:
            save_ht(net, tmp_path / "net")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < largest / 8

    @pytest.mark.parametrize("family", ["rect5", "stacked5", "random4", "empty"])
    @pytest.mark.parametrize("form", ["train", "generalized", "diagonal"])
    def test_node_rank_values_round_trip(self, form, family, tmp_path):
        net, evaluate, fam = _network(form, _FAMILIES[family]())
        save, load = (save_tt, load_tt) if form == "train" else (save_ht, load_ht)
        blocks = lambda network: list(dense_blocks(network).values())
        save(net, tmp_path / "net")
        body = (tmp_path / "net").read_text().splitlines()[6:]
        # Per node: "node <key> shape <dims> nonzeros <k>", k positions, k values.
        heads = [line.split() for line in body[::3]]
        assert all(h[0] == "node" and h[-2] == "nonzeros" for h in heads)
        sizes = [math.prod(map(int, h[h.index("shape") + 1 : -2])) for h in heads]
        assert sizes == [b.size for b in blocks(net)]
        counts = [int(h[-1]) for h in heads]
        assert counts == [np.count_nonzero(b.view(np.uint64)) for b in blocks(net)]
        assert [len(line.split()) for line in body[1::3]] == counts
        assert [len(line.split()) for line in body[2::3]] == counts
        assert (sum(counts) == 0) == (family == "empty")
        if form != "train":
            # The same network padded to the layer widths holds more values.
            padded = sum(
                net.layer_widths[node.i - 1] * net.layer_widths[node.i - 2] ** (len(b.shape) - 1)
                for node, b in net.blocks.items()
            )
            assert (sum(sizes) < padded) == (family != "empty")
        loaded = load(tmp_path / "net")
        assert [b.shape for b in blocks(loaded)] == [b.shape for b in blocks(net)]
        bits, _ = _members_and_probes(fam, 300, seed=4)
        assert evaluate(loaded, bits).tobytes() == evaluate(net, bits).tobytes()

    @pytest.mark.parametrize("form", ["train", "generalized", "diagonal"])
    def test_extreme_values_round_trip_bit_exactly(self, form, tmp_path):
        """-0.0 is a nonzero bit pattern, written "-0"; the smallest
        subnormal and +-1e300 keep every bit; a zero block writes nonzeros
        0 and two empty lines, and loads as zeros."""
        net = _network(form, gen_rectangle_outlines(4))[0]
        held = dense_blocks(net)
        first, second = list(held)[:2]
        held[first].reshape(-1)[:4] = [-0.0, 5e-324, 1e300, -1e300]
        held[second] = np.zeros_like(held[second])
        blocks = list(held.values())
        net = with_blocks(net, held)
        save, load = (save_tt, load_tt) if form == "train" else (save_ht, load_ht)
        save(net, tmp_path / "net")
        lines = (tmp_path / "net").read_text().splitlines()
        values = {v for line in lines[8::3] for v in line.split()}
        big = "%.17g" % 1e300
        assert {"-0", "4.9406564584124654e-324", big, "-" + big} <= values
        assert "0" not in values
        zero = [i for i, line in enumerate(lines) if line.endswith(" nonzeros 0")]
        assert zero and all(lines[i + 1] == lines[i + 2] == "" for i in zero)
        again = list(dense_blocks(load(tmp_path / "net")).values())
        assert [b.shape for b in again] == [b.shape for b in blocks]
        assert [b.tobytes() for b in again] == [b.tobytes() for b in blocks]

    @pytest.mark.parametrize(
        "first",
        [b"pixelrank-network 2\n", b"n=7 name=random seed=0\n", b"pixelrank-network 3" * 10**5],
        ids=["version-2", "family-file", "long-line"],
    )
    def test_line_1_checked_before_the_rest_is_read(self, first, tmp_path):
        """A file whose first line is not a version 3 magic fails at line 1
        after tracing far less than the 20 MB that follow it."""
        path = tmp_path / "big.ht"
        with open(path, "wb") as fh:
            fh.write(first)
            fh.write(b"0 1 2 3 4 5 6 7 8 9\n" * 10**6)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                load_ht(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value).startswith("line 1: ")
        assert "version 2" in str(err.value) or "not a network file" in str(err.value)
        assert peak < 1 << 20

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        path = tmp_path / "net"
        save_ht(ht_from_family(gen_rectangle_outlines(4)), path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3] + [b"original_n=\xc3\xa9\n"] + lines[4:]))
        with pytest.raises(ValueError, match="^line 4: non-ASCII byte$"):
            load_ht(path)


class TestMemoryByDesign:
    """Nodes are held, evaluated and diagonalized as their nonzeros, so no
    step allocates anything near the dense blocks."""

    def test_train_build_evaluation_and_file(self, tmp_path):
        family = gen_random_family(7, 225, seed=0)
        bits, truth = _members_and_probes(family, 2000, seed=0)
        tracemalloc.start()
        try:
            train = tt_from_family(family)
            values = tt_eval_batch(train, bits)
            save_tt(train, tmp_path / "net")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(values, truth)
        dense = 8 * sum(math.prod(b.shape) for b in train.blocks.values())  # about 26 MB
        assert peak < dense / 4

    def test_tree_build_and_diagonal_form(self):
        family = gen_rectangle_outlines(7)
        tracemalloc.start()
        try:
            net = diagonalize(ht_from_family(family))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense = 8 * sum(math.prod(b.shape) for b in net.blocks.values())  # about 9.3 MB
        assert peak < dense / 4

    def test_train_holds_one_node_pivots_at_a_time(self):
        """The train's bonds, and the train itself, are made from one
        caterpillar node's pivots at a time: their traced peaks stay below a
        quarter and a half of the bytes that every node's ids and B[:, J]
        (see _node_pivots) take together, about 13 MB on rect n=12."""
        family = gen_rectangle_outlines(12, 3)
        bits = family.bit_matrix()
        packed = np.packbits(bits, axis=1)
        every = 0
        for layer in _caterpillar(bits.shape[1]):
            for _, pixels, first, _ in layer:
                if first is not None:
                    idx, _, b = _node_pivots(packed, pixels)
                    every += idx.nbytes + b.nbytes
        peaks = []
        for build in (_bond_dims, tt_from_family):
            tracemalloc.start()
            try:
                build(family)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < every / 4 and peaks[1] < every / 2, (peaks, every)

    def test_evaluation_holds_no_layer_of_leaf_indices(self):
        """Networks are evaluated depth-first, one output per tree level: on
        rect n=8's members and 20,000 probes, the traced peaks of both
        evaluations stay below a quarter of the bytes that every leaf's
        int64 row index takes together, about 10.5 MB."""
        family = gen_rectangle_outlines(8)
        networks = ((tt_eval_batch, tt_from_family(family)), (ht_eval_batch, ht_from_family(family)))
        bits, truth = _members_and_probes(family, 20_000, seed=0)
        every_leaf = 8 * bits.shape[0] * bits.shape[1]
        for evaluate, net in networks:
            tracemalloc.start()
            try:
                values = evaluate(net, bits)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(values, truth)
            assert peak < every_leaf / 4, (evaluate.__name__, peak, every_leaf)
