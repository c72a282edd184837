"""Tests for tensor-train construction, evaluation, serialization, and the
pixel-prefix rank bounds."""

import itertools
import re

import numpy as np
import pytest

from pixelrank.images import (
    BinaryImage,
    FamilyMeta,
    ImageFamily,
    gen_random_family,
    gen_rectangle_outlines,
    gen_stacked_outlines,
    gen_vertical_bars,
)
from pixelrank.rankcore import exact_rank, fixed_row_unfolding, pixel_prefix_unfolding
from pixelrank.certify import row_configurations
from pixelrank.tt import (
    TensorTrain,
    block_partition_bound,
    load_tt,
    save_tt,
    tt_eval,
    tt_eval_batch,
    tt_from_family,
    tt_zero,
)

from oracles import dense_unfolding_oracle, family_dense_vector, tt_from_dense


def _single(n, text):
    return ImageFamily(n, [BinaryImage.from_text(n, text)], FamilyMeta("one"))


def _all_images(n):
    for bits in itertools.product((0, 1), repeat=n * n):
        yield BinaryImage(n, bytes(bits))


class TestConstruction:
    def test_single_member_all_bonds_one(self):
        train = tt_from_family(_single(3, "111101111"))
        assert train.bond_dims == [1] * 10

    def test_empty_family_zero_function(self):
        train = tt_from_family(ImageFamily(2, [], FamilyMeta("none")))
        for img in _all_images(2):
            assert tt_eval(train, img) == 0.0

    def test_exactness_exhaustive_n3(self):
        fam = gen_vertical_bars(3, 2)
        train = tt_from_family(fam)
        bits = np.array(
            [list(img.bits) for img in _all_images(3)], dtype=np.uint8
        )
        values = tt_eval_batch(train, bits)
        truth = np.array(
            [fam.indicator(BinaryImage(3, row.tobytes())) for row in bits]
        )
        assert np.max(np.abs(values - truth)) < 1e-6

    def test_exactness_exhaustive_n4(self):
        fam = gen_rectangle_outlines(4, 3)
        train = tt_from_family(fam)
        bits = np.array(
            [list(b) for b in itertools.product((0, 1), repeat=16)], dtype=np.uint8
        )
        values = tt_eval_batch(train, bits)
        truth = np.zeros(len(bits))
        truth[[int("".join(map(str, img.bits)), 2) for img in fam]] = 1.0
        assert np.max(np.abs(values - truth)) < 1e-6

    def test_minimal_bonds_equal_prefix_ranks_n4(self):
        fam = gen_rectangle_outlines(4, 3)
        train = tt_from_family(fam)
        expected = (
            [1]
            + [exact_rank(pixel_prefix_unfolding(fam, k)) for k in range(1, 16)]
            + [1]
        )
        assert train.bond_dims == expected

    @pytest.mark.parametrize(
        "family",
        [
            gen_rectangle_outlines(7, 3),
            gen_random_family(7, 225, seed=1),
            gen_random_family(7, 225, seed=16),
            gen_vertical_bars(8, 2),
            gen_stacked_outlines(6, 3),
        ],
        ids=["rect7", "random7-seed1", "random7-seed16", "bars8", "stacked6"],
    )
    def test_every_bond_equals_exact_prefix_rank(self, family):
        dims = tt_from_family(family).bond_dims
        n2 = family.n * family.n
        assert dims[0] == dims[-1] == 1
        assert dims[1:-1] == [
            exact_rank(pixel_prefix_unfolding(family, k)) for k in range(1, n2)
        ]


class TestSvdFallback:
    def test_family_whose_truncation_svd_failed(self):
        # With one BLAS thread, LAPACK's gesdd has failed to converge on a
        # 225 x 126 matrix built from this family; the train must still
        # come out whole.
        fam = gen_random_family(7, 225, seed=16)
        train = tt_from_family(fam)
        assert max(train.bond_dims) == 225
        assert np.allclose(tt_eval_batch(train, fam.bit_matrix()), 1.0, atol=1e-6)
        probes = np.random.default_rng(16).integers(0, 2, size=(2000, 49), dtype=np.uint8)
        truth = [fam.indicator(BinaryImage(7, row.tobytes())) for row in probes]
        assert np.allclose(tt_eval_batch(train, probes), truth, atol=1e-6)

    def test_every_node_svd_retried_on_the_transpose(self, flaky_svd):
        fam = gen_rectangle_outlines(4, 3)
        train = tt_from_family(fam)
        n2 = 16
        # One SVD per prefix node below the last, each failing once.
        assert len(flaky_svd) == 2 * (n2 - 1)
        assert all(b == a[::-1] for a, b in zip(flaky_svd[::2], flaky_svd[1::2]))
        assert train.bond_dims[1:-1] == [
            exact_rank(pixel_prefix_unfolding(fam, k)) for k in range(1, n2)
        ]
        bits = np.array(list(itertools.product((0, 1), repeat=n2)), dtype=np.uint8)
        truth = [fam.indicator(BinaryImage(4, row.tobytes())) for row in bits]
        assert np.allclose(tt_eval_batch(train, bits), truth, atol=1e-9)


class TestEval:
    def test_member_and_non_member_values(self):
        fam = gen_rectangle_outlines(4, 3)
        train = tt_from_family(fam)
        for img in fam:
            assert tt_eval(train, img) == pytest.approx(1.0, abs=1e-6)
        blank = BinaryImage(4, bytes(16))
        assert tt_eval(train, blank) == pytest.approx(0.0, abs=1e-6)

    def test_dimension_mismatch(self):
        train = tt_from_family(gen_rectangle_outlines(4, 3))
        with pytest.raises(ValueError):
            tt_eval(train, BinaryImage(3, bytes(9)))
        with pytest.raises(ValueError):
            tt_eval_batch(train, np.zeros((2, 9), dtype=np.uint8))


class TestDenseOracle:
    @pytest.mark.parametrize(
        "family",
        [
            gen_vertical_bars(3, 2),
            gen_random_family(3, 10, seed=8),
            gen_rectangle_outlines(3, 3),
        ],
        ids=["bars3", "random3", "rect3"],
    )
    def test_dense_tt_svd_matches_sparse_route(self, family):
        sparse = tt_from_family(family)
        dense = tt_from_dense(family_dense_vector(family))
        assert dense.bond_dims == sparse.bond_dims
        bits = np.array([list(img.bits) for img in _all_images(3)], dtype=np.uint8)
        assert np.max(np.abs(tt_eval_batch(dense, bits) - tt_eval_batch(sparse, bits))) < 1e-6

    def test_rounded_dims_equal_dense_oracle_ranks(self):
        from pixelrank.rankcore import Bipartition

        fam = gen_vertical_bars(3, 2)
        train = tt_from_family(fam)
        for k in range(1, 9):
            oracle = np.linalg.matrix_rank(
                dense_unfolding_oracle(fam, Bipartition.pixel_prefix(k, 3))
            )
            assert train.bond_dims[k] == oracle


class TestBlockPartitionBound:
    def test_row_boundary_cut_reduces_to_row_sum(self):
        fam = gen_rectangle_outlines(4, 3)
        for i in (1, 2, 3):
            expected = sum(
                exact_rank(fixed_row_unfolding(fam, i, y))
                for y in row_configurations(fam, i)
            )
            assert block_partition_bound(fam, i * 4) == expected

    def test_empty_family(self):
        assert block_partition_bound(ImageFamily(3, [], FamilyMeta("none")), 4) == 0

    def test_bounds_dominate_prefix_ranks(self):
        fam = gen_rectangle_outlines(4, 3)
        for k in range(1, 16):
            assert exact_rank(pixel_prefix_unfolding(fam, k)) <= block_partition_bound(fam, k)

    def test_specific_mid_row_cut(self):
        fam = gen_rectangle_outlines(4, 3)
        bound = block_partition_bound(fam, 6)
        assert bound >= exact_rank(pixel_prefix_unfolding(fam, 6))

    def test_out_of_range(self):
        fam = gen_rectangle_outlines(4, 3)
        with pytest.raises(ValueError):
            block_partition_bound(fam, 16)


class TestSerialization:
    def test_text_is_one_17_digit_value_per_entry(self, tmp_path):
        # Values whose shortest repr differs from their %.17g form.
        odd = [0.1, -0.0, 1 / 3, 5e-324, -2.5e17, 1.0, 1e-300, 2 / 3]
        cores = [np.array(odd[:4]).reshape(2, 1, 2), np.array(odd[4:]).reshape(2, 2, 1)]
        cores += [np.full((2, 1, 1), 0.7), np.full((2, 1, 1), -1.1)]
        train = TensorTrain(cores)
        path = tmp_path / "odd.tt"
        save_tt(train, path)
        expected = ["pixelrank-tt 1", "n=2", "bonds=1 2 1 1 1"]
        for core in train.cores:
            for b in (0, 1):
                expected.append(" ".join("%.17g" % v for v in core[b].reshape(-1)))
        assert path.read_text() == "\n".join(expected) + "\n"
        assert expected[3] == "0.10000000000000001 -0"
        assert expected[4] == "0.33333333333333331 4.9406564584124654e-324"

    def test_round_trip_bit_exact_eval(self, tmp_path):
        fam = gen_rectangle_outlines(4, 3)
        train = tt_from_family(fam)
        path = tmp_path / "rect4.tt"
        save_tt(train, path)
        loaded = load_tt(path)
        assert loaded.bond_dims == train.bond_dims
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(500, 16), dtype=np.uint8)
        a = tt_eval_batch(train, bits)
        b = tt_eval_batch(loaded, bits)
        assert np.array_equal(a, b)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.tt"
        path.write_text("not a train\n")
        with pytest.raises(ValueError):
            load_tt(path)

    def test_malformed_files_name_the_line(self, tmp_path):
        path = tmp_path / "rect4.tt"
        save_tt(tt_from_family(gen_rectangle_outlines(4, 3)), path)
        lines = path.read_text().splitlines(keepends=True)
        # lines: magic, n, bonds, then two lines per core; core 1 is 1 x 2.
        assert lines[2] == "bonds=1 2 3 3 4 5 5 5 6 5 5 5 4 3 3 2 1\n"
        cases = {
            "line 11: file ends early, expected core 4 bit 1": lines[:10],
            "line 4: core 1 bit 0: expected 2 values, got 1": (
                lines[:3] + ["0\n"] + lines[4:]
            ),
            "line 5: core 1 bit 1: bad number": lines[:4] + ["1 nan?\n"] + lines[5:],
            "line 3: expected 17 bonds values, got 16": (
                lines[:2] + ["bonds=1 2 3 3 4 5 5 5 6 5 5 5 4 3 3 2\n"] + lines[3:]
            ),
            "line 2: expected n=, got 'bonds=1'": lines[:1] + ["bonds=1\n"],
            f"line {len(lines) + 1}: unexpected content": lines + ["0\n"],
        }
        for message, content in cases.items():
            path.write_text("".join(content))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                load_tt(path)


class TestTrainValidation:
    def test_bond_chain_checked(self):
        good = tt_zero(2)
        assert good.bond_dims == [1, 1, 1, 1, 1]
        cores = [np.zeros((2, 1, 2)), np.zeros((2, 3, 1)), np.zeros((2, 1, 1)), np.zeros((2, 1, 1))]
        with pytest.raises(ValueError):
            TensorTrain(cores)

    def test_boundary_checked(self):
        cores = [np.zeros((2, 2, 1))] + [np.zeros((2, 1, 1))] * 3
        with pytest.raises(ValueError):
            TensorTrain(cores)

    def test_core_count_must_be_square(self):
        with pytest.raises(ValueError):
            TensorTrain([np.zeros((2, 1, 1))] * 3)
