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
from pixelrank.rankcore import Bipartition, exact_rank, unfold
from pixelrank.certify import block_partition_bound, row_configurations
from pixelrank.tt import (
    TensorTrain,
    load_tt,
    save_tt,
    tt_eval,
    tt_eval_batch,
    tt_from_family,
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
        assert train.bond_dims == [1] * 5
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
            [float(BinaryImage(3, row.tobytes()) in fam) for row in bits]
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
            + [exact_rank(unfold(fam, Bipartition.pixel_prefix(k, fam.n))) for k in range(1, 16)]
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
            exact_rank(unfold(family, Bipartition.pixel_prefix(k, family.n))) for k in range(1, n2)
        ]


class TestFullRankRandomFamily:
    def test_seed16_train_is_whole_at_full_rank(self):
        # An SVD-based build once failed on this family (LAPACK's gesdd did
        # not converge on a 225 x 126 matrix with one BLAS thread); the
        # train must come out whole, at full rank.
        fam = gen_random_family(7, 225, seed=16)
        train = tt_from_family(fam)
        assert max(train.bond_dims) == 225
        assert np.allclose(tt_eval_batch(train, fam.bit_matrix()), 1.0, atol=1e-6)
        probes = np.random.default_rng(16).integers(0, 2, size=(2000, 49), dtype=np.uint8)
        truth = [float(BinaryImage(7, row.tobytes()) in fam) for row in probes]
        assert np.allclose(tt_eval_batch(train, probes), truth, atol=1e-6)


class TestEval:
    def test_member_and_non_member_values(self):
        fam = gen_rectangle_outlines(4, 3)
        train = tt_from_family(fam)
        for img in fam:
            assert tt_eval(train, img) == pytest.approx(1.0, abs=1e-6)
        blank = BinaryImage(4, bytes(16))
        assert tt_eval(train, blank) == pytest.approx(0.0, abs=1e-6)

    def test_matches_left_to_right_product_of_random_cores(self):
        # Core k's first index is the value of pixel k: core[0] for a white
        # pixel, core[1] for a black one.
        rng = np.random.default_rng(12)
        bonds = [1, 3, 2, 4, 1]
        cores = [rng.standard_normal((2, p, q)) for p, q in zip(bonds, bonds[1:])]
        train = TensorTrain(cores)
        bits = np.array(list(itertools.product((0, 1), repeat=4)), dtype=np.uint8)
        expected = []
        for row in bits:
            vec = np.ones((1, 1))
            for core, b in zip(cores, row):
                vec = vec @ core[b]
            expected.append(vec[0, 0])
        assert np.allclose(tt_eval_batch(train, bits), expected, rtol=1e-12, atol=1e-12)

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
                exact_rank(unfold(fam, Bipartition.fixed_row(i, fam.n), y))
                for y in row_configurations(fam, i)
            )
            assert block_partition_bound(fam, i * 4) == expected

    def test_empty_family(self):
        assert block_partition_bound(ImageFamily(3, [], FamilyMeta("none")), 4) == 0

    def test_bounds_dominate_prefix_ranks(self):
        fam = gen_rectangle_outlines(4, 3)
        for k in range(1, 16):
            rank = exact_rank(unfold(fam, Bipartition.pixel_prefix(k, fam.n)))
            assert rank <= block_partition_bound(fam, k)

    def test_specific_mid_row_cut(self):
        fam = gen_rectangle_outlines(4, 3)
        bound = block_partition_bound(fam, 6)
        assert bound >= exact_rank(unfold(fam, Bipartition.pixel_prefix(6, fam.n)))

    def test_out_of_range(self):
        fam = gen_rectangle_outlines(4, 3)
        with pytest.raises(ValueError):
            block_partition_bound(fam, 16)


class TestSerialization:
    def test_text_holds_each_nonzero_with_17_digits(self, tmp_path):
        # Values whose shortest repr differs from their %.17g form, a -0.0
        # that is kept and a +0.0 that is not written.
        odd = [0.1, -0.0, 1 / 3, 5e-324, -2.5e17, 1.0, 1e-300, 2 / 3]
        cores = [np.array(odd[:4]).reshape(2, 1, 2), np.array(odd[4:]).reshape(2, 2, 1)]
        cores += [np.array([0.0, 0.7]).reshape(2, 1, 1), np.full((2, 1, 1), -1.1)]
        train = TensorTrain(cores)
        path = tmp_path / "odd.tt"
        save_tt(train, path)
        expected = [
            "pixelrank-network 3", "kind=train", "n=2", "original_n=2", "form=generalized",
            "widths=1 2 2 1 1 1",
        ]
        for k, core in enumerate(train.cores, 1):
            # Node k's block is (l_k, 2, l_{k-1}), entry (q, s, a) being
            # core[1 - s][a, q]: channel s of pixel k.
            l_prev, l_k = core.shape[1:]
            at, values = [], []
            for pos, (q, s, a) in enumerate(np.ndindex(l_k, 2, l_prev)):
                v = core[1 - s][a, q]
                if v != 0 or np.signbit(v):
                    at.append(str(pos))
                    values.append("%.17g" % v)
            expected.append(f"node {k} shape {l_k} 2 {l_prev} nonzeros {len(at)}")
            expected += [" ".join(at), " ".join(values)]
        assert path.read_text() == "\n".join(expected) + "\n"
        assert expected[6:9] == [
            "node 1 shape 2 2 1 nonzeros 4",
            "0 1 2 3",
            "0.33333333333333331 0.10000000000000001 4.9406564584124654e-324 -0",
        ]
        assert expected[12:15] == ["node 3 shape 1 2 1 nonzeros 1", "0", "0.69999999999999996"]
        loaded = load_tt(path)
        assert [c.tobytes() for c in loaded.cores] == [c.tobytes() for c in train.cores]

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
        # lines: magic, kind, n, original_n, form, widths, then per core a
        # node line, its positions and its values; core 1 is 2 x 1, core 2
        # is 3 x 2.
        assert lines[5] == "widths=1 2 2 3 3 4 5 5 5 6 5 5 5 4 3 3 2 1\n"
        assert lines[6:9] == ["node 1 shape 2 2 1 nonzeros 2\n", "1 2\n", "1 1\n"]
        assert lines[9] == "node 2 shape 3 2 2 nonzeros 3\n"
        cases = {
            "line 49: file ends early, expected 'node 15 shape'": lines[:48],
            "line 51: file ends early, expected node 15": lines[:50],
            # Three lines for each of the at least 15 inner nodes.
            "line 3: file too short for n=4": lines[:47],
            "line 8: node 1: expected 2 positions, got 1": lines[:7] + ["1\n"] + lines[8:],
            "line 9: node 1: expected 2 values, got 1": lines[:8] + ["1\n"] + lines[9:],
            "line 9: node 1: bad number": lines[:8] + ["1 nan?\n"] + lines[9:],
            "line 9: node 1: non-finite number 'nan'": lines[:8] + ["1 nan\n"] + lines[9:],
            "line 9: node 1: non-finite number 'inf'": lines[:8] + ["inf 1\n"] + lines[9:],
            "line 9: node 1: non-finite number '-Infinity'": (
                lines[:8] + ["1 -Infinity\n"] + lines[9:]
            ),
            "line 8: node 1: position 4 outside the block of 4 values": (
                lines[:7] + ["1 4\n"] + lines[8:]
            ),
            "line 7: node 1: bad nonzeros count 'two'": (
                lines[:6] + ["node 1 shape 2 2 1 nonzeros two\n"] + lines[7:]
            ),
            "line 7: node 1: no nonzeros count": lines[:6] + ["node 1 shape 2 2 1\n"] + lines[7:],
            "line 6: expected 18 widths values, got 17": (
                lines[:5] + ["widths=1 2 2 3 3 4 5 5 5 6 5 5 5 4 3 3 2\n"] + lines[6:]
            ),
            "line 3: expected n=, got 'widths=1'": lines[:2] + ["widths=1\n"],
            f"line {len(lines) + 1}: unexpected content after the last block": (
                lines + ["0\n"]
            ),
            "line 10: node 2: shape (3, 2, 1) does not fit its children's ranks (2, 2)": (
                lines[:9] + ["node 2 shape 3 2 1 nonzeros 3\n"] + lines[10:]
            ),
            "line 4: original_n=3 does not pad to n=4": (
                lines[:3] + ["original_n=3\n"] + lines[4:]
            ),
            "line 5: unknown form 'diagonal'": lines[:4] + ["form=diagonal\n"] + lines[5:],
            "line 6: leaf width must be 1, got 2": (
                lines[:5] + ["widths=2 2 2 3 3 4 5 5 5 6 5 5 5 4 3 3 2 1\n"] + lines[6:]
            ),
            "line 2: a 'tree' file, expected a train": lines[:1] + ["kind=tree\n"] + lines[2:],
            "line 1: a version 1 network file; write it again to read it": (
                ["pixelrank-tt 1\n"] + lines[1:]
            ),
            "line 1: a version 2 network file; write it again to read it": (
                ["pixelrank-network 2\n"] + lines[1:]
            ),
        }
        for message, content in cases.items():
            path.write_text("".join(content))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_tt(path)


class TestTrainValidation:
    def test_bond_chain_checked(self):
        good = TensorTrain([np.ones((2, 1, 1))] * 4)
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
