"""Tests for tensor-train construction, evaluation, serialization, and the
pixel-prefix rank bounds."""

import io
import itertools
import re
import tracemalloc

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
from pixelrank import rankcore
from pixelrank.rankcore import Bipartition, exact_rank, unfold, write_rows
from pixelrank.certify import block_partition_bound, row_configurations
from pixelrank.ht import diagonalize, ht_from_family
from pixelrank.tt import (
    TensorTrain,
    load_tt,
    save_tt,
    tt_eval,
    tt_eval_batch,
    tt_from_family,
)

from oracles import dense_unfolding_oracle, family_dense_vector, tt_from_dense, write_rows_per_row


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
    def test_text_is_one_17_digit_value_per_entry(self, tmp_path):
        # Values whose shortest repr differs from their %.17g form.
        odd = [0.1, -0.0, 1 / 3, 5e-324, -2.5e17, 1.0, 1e-300, 2 / 3]
        cores = [np.array(odd[:4]).reshape(2, 1, 2), np.array(odd[4:]).reshape(2, 2, 1)]
        cores += [np.full((2, 1, 1), 0.7), np.full((2, 1, 1), -1.1)]
        train = TensorTrain(cores)
        path = tmp_path / "odd.tt"
        save_tt(train, path)
        expected = [
            "pixelrank-network 2", "kind=train", "n=2", "original_n=2", "form=generalized",
            "widths=1 2 2 1 1 1",
        ]
        for k, core in enumerate(train.cores, 1):
            # Node k's matrices are (l_k, 2, l_{k-1}); line s is channel s
            # of pixel k, core 1 - s transposed.
            expected.append(f"node {k} shape {core.shape[2]} 2 {core.shape[1]}")
            for b in (1, 0):
                expected.append(" ".join("%.17g" % v for v in core[b].T.reshape(-1)))
        assert path.read_text() == "\n".join(expected) + "\n"
        assert expected[7] == "0.33333333333333331 4.9406564584124654e-324"
        assert expected[8] == "0.10000000000000001 -0"

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
        # node line and two value lines; core 1 is 2 x 1, core 2 is 3 x 2.
        assert lines[5] == "widths=1 2 2 3 3 4 5 5 5 6 5 5 5 4 3 3 2 1\n"
        assert lines[6] == "node 1 shape 2 2 1\n" and lines[9] == "node 2 shape 3 2 2\n"
        cases = {
            "line 40: file ends early, expected 'node 12 shape'": lines[:39],
            "line 42: file ends early, expected node 12": lines[:41],
            "line 3: file too short for n=4": lines[:16],
            "line 8: node 1: expected 2 values, got 1": lines[:7] + ["0\n"] + lines[8:],
            "line 9: node 1: bad number": lines[:8] + ["1 nan?\n"] + lines[9:],
            "line 9: node 1: non-finite number 'nan'": lines[:8] + ["1 nan\n"] + lines[9:],
            "line 8: node 1: non-finite number 'inf'": lines[:7] + ["inf 0\n"] + lines[8:],
            "line 8: node 1: non-finite number '-Infinity'": (
                lines[:7] + ["0 -Infinity\n"] + lines[8:]
            ),
            "line 6: expected 18 widths values, got 17": (
                lines[:5] + ["widths=1 2 2 3 3 4 5 5 5 6 5 5 5 4 3 3 2\n"] + lines[6:]
            ),
            "line 3: expected n=, got 'widths=1'": lines[:2] + ["widths=1\n"],
            f"line {len(lines) + 1}: unexpected content": lines + ["0\n"],
            "line 10: node 2: shape (3, 2, 1) does not fit its children's ranks (2, 2)": (
                lines[:9] + ["node 2 shape 3 2 1\n"] + lines[10:]
            ),
            "line 4: original_n=3 does not pad to n=4": (
                lines[:3] + ["original_n=3\n"] + lines[4:]
            ),
            "line 5: unknown form 'diagonal'": lines[:4] + ["form=diagonal\n"] + lines[5:],
            "line 6: leaf width must be 1, got 2": (
                lines[:5] + ["widths=2 2 2 3 3 4 5 5 5 6 5 5 5 4 3 3 2 1\n"] + lines[6:]
            ),
            "line 2: a 'tree' file, expected a train": lines[:1] + ["kind=tree\n"] + lines[2:],
            "line 1: a version 1 network file": ["pixelrank-tt 1\n"] + lines[1:],
        }
        for message, content in cases.items():
            path.write_text("".join(content))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                load_tt(path)


def _written(writer, rows) -> str:
    fh = io.StringIO()
    writer(fh, rows)
    return fh.getvalue()


class _TracedSink:
    """Discards the text; records the memory tracemalloc traces at each write."""

    def __init__(self):
        self.traced = []

    def write(self, text):
        self.traced.append(tracemalloc.get_traced_memory()[0])


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc (numpy's buffers included) while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriteRows:
    """write_rows formats each distinct row once and skips zeros; the text
    must stay that of tests/oracles.write_rows_per_row byte for byte."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_diagonal_node_blocks(self, n):
        net = diagonalize(ht_from_family(gen_rectangle_outlines(n, 3)))
        blocks = [p.reshape(len(p), -1) for p in net.params.values()]
        # The tiled and repeated blocks do repeat rows, and hold zeros.
        assert any(len(np.unique(b, axis=0)) < len(b) for b in blocks)
        assert any((b == 0).any() for b in blocks)
        for block in blocks:
            assert _written(write_rows, block) == _written(write_rows_per_row, block)

    def test_signed_zeros_are_different_rows(self):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, -0.0], [0.0, 0.0]])
        text = _written(write_rows, rows)
        assert text == _written(write_rows_per_row, rows)
        assert text == "0 1\n-0 1\n0 1\n-0 -0\n0 0\n"

    def test_extreme_values(self):
        vals = [5e-324, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 0.0, -0.0]
        rows = np.array([vals, vals[::-1], vals, [np.nan] * 8, vals[::-1]])
        text = _written(write_rows, rows)
        assert text == _written(write_rows_per_row, rows)
        assert text.splitlines()[0] == "4.9406564584124654e-324 inf -inf nan 1e-300 -1e-300 0 -0"

    @pytest.mark.parametrize(
        "rows",
        [
            np.zeros((4, 3)),
            np.array([[0.5], [0.0], [0.5], [-0.0], [0.5]]),
            np.arange(24.0).reshape(4, 6)[:, ::2].T,  # not contiguous
            np.zeros((3, 0)),
        ],
        ids=["all-zero", "one-column", "transposed", "no-columns"],
    )
    def test_small_blocks(self, rows):
        assert _written(write_rows, rows) == _written(write_rows_per_row, rows)

    def test_digest_hits_are_checked_on_the_bytes(self, monkeypatch):
        # With every line sharing one digest, only byte-equal rows reuse a line.
        monkeypatch.setattr(rankcore, "_digest", lambda row: b"")
        rows = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0], [1.0, 2.0], [-0.0, 0.0], [0.0, 0.0]])
        assert _written(write_rows, rows) == _written(write_rows_per_row, rows)

    def test_lines_of_a_three_axis_block(self):
        # Line s of a (3, 4, 5) block is block[s], row-major, read from a view.
        block = np.arange(60.0).reshape(4, 3, 5).swapaxes(0, 1) % 7
        text = _written(write_rows, block)
        assert text == _written(write_rows_per_row, block.reshape(3, -1))
        assert text.splitlines()[1] == " ".join(f"{v:.17g}" for v in block[1].ravel())

    def test_block_without_repeats_holds_about_one_line(self):
        # 200 distinct rows whose lines are about 12 KB each: held together
        # they would take 2.4 MB, three times the block.  The writer's keys
        # are a digest per line, and it copies one row at a time.
        rows = -np.random.default_rng(8).random((200, 500)) * 1e-100
        line = len(_written(write_rows_per_row, rows[:1]))
        sink = _TracedSink()
        assert _traced_peak(lambda: write_rows(sink, rows)) <= 12 * line
        assert len(sink.traced) == 200
        assert max(sink.traced) - sink.traced[0] <= 4 * line


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
