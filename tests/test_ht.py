"""Tests for the binary-tree product-pooling network: tree structure,
exact construction, evaluation forms, diagonalization, and cross-checks."""

import itertools
import re

import numpy as np
import pytest

from pixelrank.ht import (
    Tree,
    TreeIndex,
    diagonalize,
    ht_eval,
    ht_eval_batch,
    ht_from_family,
    layer_rank_table,
    load_ht,
    next_power_of_two,
    save_ht,
    tt_ht_cross_check,
)
from pixelrank.images import (
    BinaryImage,
    FamilyMeta,
    ImageFamily,
    gen_rectangle_outlines,
    gen_stacked_outlines,
    gen_vertical_bars,
    make_family,
)

from oracles import (
    node_output_diagonal,
    node_output_generalized,
    verify_support_properties,
)


def _single(n, text):
    return ImageFamily(n, [BinaryImage.from_text(n, text)], FamilyMeta("one"))


class TestTree:
    def test_layer_sizes(self):
        for n in (2, 4, 8, 16):
            tree = Tree(n)
            assert tree.n_layers == 2 * int(np.log2(n)) + 1
            for i in range(1, tree.n_layers + 1):
                assert len(tree.layers[i]) == n * n // (1 << (i - 1))

    def test_leaf_support_is_its_pixel(self):
        tree = Tree(4)
        for leaf in tree.layers[1]:
            region = tree.support(leaf)
            assert region.size == 1
            top, left, h, w = region.params
            assert (top, left) == (leaf.j, leaf.k)

    def test_even_layer_children_and_support(self):
        tree = Tree(4)
        node = TreeIndex(2, 1, 1)
        assert tree.children(node) == (TreeIndex(1, 1, 1), TreeIndex(1, 2, 1))
        assert tree.support(node).params == (1, 1, 2, 1)

    def test_odd_layer_children(self):
        tree = Tree(4)
        node = TreeIndex(3, 1, 1)
        assert tree.children(node) == (TreeIndex(2, 1, 1), TreeIndex(2, 1, 2))

    def test_root_covers_image(self):
        for n in (2, 4, 8):
            tree = Tree(n)
            assert tree.support(tree.root).params == (1, 1, n, n)

    def test_parent_sibling_consistency(self):
        tree = Tree(8)
        for i in range(1, tree.n_layers):
            for node in tree.layers[i]:
                parent = tree.parent(node)
                assert node in tree.children(parent)
                sib = tree.sibling(node)
                assert sib != node and tree.parent(sib) == parent

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_support_properties(self, n):
        props = verify_support_properties(Tree(n))
        assert all(props.values()), props

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            Tree(3)
        with pytest.raises(ValueError):
            Tree(1)


class TestBuild:
    def test_single_member_unit_widths(self):
        net = ht_from_family(_single(4, "1111100110011111"))
        assert net.layer_widths[0] == 2
        assert all(w == 1 for w in net.layer_widths[1:])

    def test_empty_family_zero_network(self):
        net = ht_from_family(ImageFamily(2, [], FamilyMeta("none")))
        for bits in itertools.product((0, 1), repeat=4):
            assert ht_eval(net, BinaryImage(2, bytes(bits))) == 0.0

    def test_exactness_exhaustive_n2(self):
        fam = gen_vertical_bars(2, 2)
        net = ht_from_family(fam)
        for bits in itertools.product((0, 1), repeat=4):
            img = BinaryImage(2, bytes(bits))
            assert ht_eval(net, img) == pytest.approx(fam.indicator(img), abs=1e-6)

    def test_exactness_exhaustive_n4(self):
        fam = gen_rectangle_outlines(4, 3)
        net = ht_from_family(fam)
        bits = np.array(
            [list(b) for b in itertools.product((0, 1), repeat=16)], dtype=np.uint8
        )
        values = ht_eval_batch(net, bits)
        truth = np.array([fam.indicator(BinaryImage(4, row.tobytes())) for row in bits])
        assert np.max(np.abs(values - truth)) < 1e-6

    def test_widths_equal_exact_region_ranks(self):
        fam = gen_rectangle_outlines(4, 3)
        net = ht_from_family(fam)
        table = layer_rank_table(fam)
        for i in range(1, net.tree.n_layers + 1):
            layer_max = max(table[node] for node in net.tree.layers[i])
            assert net.width(i) == layer_max

    def test_every_svd_retried_on_the_transpose(self, flaky_svd):
        fam = gen_rectangle_outlines(4, 3)
        net = ht_from_family(fam)
        table = layer_rank_table(fam)
        # One SVD per node below the root, each failing once.
        assert len(flaky_svd) == 2 * (8 + 4 + 2)
        assert all(net.node_ranks[node] == table[node] for node in table if node.i > 1)
        bits = np.array(list(itertools.product((0, 1), repeat=16)), dtype=np.uint8)
        truth = [fam.indicator(BinaryImage(4, row.tobytes())) for row in bits]
        assert np.allclose(ht_eval_batch(net, bits), truth, atol=1e-9)

    def test_svd_ranks_equal_exact_ranks_random_family(self):
        # The floating build route and the integer certificate route must
        # agree node by node, including on unstructured input.
        from pixelrank.images import gen_random_family

        fam = gen_random_family(4, 30, seed=17)
        net = ht_from_family(fam)
        table = layer_rank_table(fam)
        for node, exact in table.items():
            assert net.node_ranks[node] == exact

    def test_padding_non_power_of_two(self):
        fam = gen_vertical_bars(3, 2)
        net = ht_from_family(fam)
        assert net.n == 4 and net.original_n == 3
        from pixelrank.images import pad_family

        padded = pad_family(fam, 4)
        for img in padded:
            assert ht_eval(net, img) == pytest.approx(1.0, abs=1e-6)


class TestNodeFunctions:
    def test_two_channel_generalized_algebra(self):
        # v M u^T expands to a*v1*u1 + b*v1*u2 + c*v2*u1 + d*v2*u2.
        a, b, c, d = 2.0, 3.0, 5.0, 7.0
        u = np.array([11.0, 13.0])
        v = np.array([17.0, 19.0])
        mats = np.array([[[a, b], [c, d]]])
        out = node_output_generalized(mats, u, v)
        expected = a * v[0] * u[0] + b * v[0] * u[1] + c * v[1] * u[0] + d * v[1] * u[1]
        assert out[0] == pytest.approx(expected)

    def test_diagonal_matrix_reduces_to_elementwise_form(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.normal(size=4)
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            mats = np.array([np.diag(w)])
            general = node_output_generalized(mats, u, v)
            elementwise = node_output_diagonal(w[None, :], u, v)
            assert general[0] == pytest.approx(elementwise[0])


class TestDiagonalize:
    def test_two_channel_unit_case(self):
        # M = [[a,b],[c,d]] flattens to (a,b,c,d) acting on tiled u and
        # repeated v duplications.
        a, b, c, d = 2.0, 3.0, 5.0, 7.0
        u = np.array([11.0, 13.0])
        v = np.array([17.0, 19.0])
        mats = np.array([[[a, b], [c, d]]])
        vec = mats[0].reshape(-1)
        assert np.array_equal(vec, np.array([a, b, c, d]))
        u_dup = np.tile(u, 2)
        v_dup = np.repeat(v, 2)
        assert np.array_equal(u_dup, np.array([11.0, 13.0, 11.0, 13.0]))
        assert np.array_equal(v_dup, np.array([17.0, 17.0, 19.0, 19.0]))
        assert node_output_diagonal(vec[None, :], u_dup, v_dup)[0] == pytest.approx(
            node_output_generalized(mats, u, v)[0]
        )

    def test_widths_squared(self):
        fam = gen_rectangle_outlines(4, 3)
        net = ht_from_family(fam)
        diag = diagonalize(net)
        assert diag.layer_widths == [w * w for w in net.layer_widths]
        assert diag.layer_widths[-1] == 1

    def test_eval_agreement_on_random_images(self):
        fam = gen_rectangle_outlines(4, 3)
        net = ht_from_family(fam)
        diag = diagonalize(net)
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(1000, 16), dtype=np.uint8)
        dev = np.max(np.abs(ht_eval_batch(net, bits) - ht_eval_batch(diag, bits)))
        assert dev < 1e-6

    def test_unit_width_network_keeps_values(self):
        net = ht_from_family(_single(4, "1111100110011111"))
        diag = diagonalize(net)
        assert diag.layer_widths[1:] == net.layer_widths[1:]
        for node, mats in net.params.items():
            if net.tree.parent(node) is not None:
                assert np.array_equal(diag.params[node].reshape(-1), mats.reshape(-1))

    def test_double_diagonalization_rejected(self):
        net = ht_from_family(_single(4, "1111100110011111"))
        with pytest.raises(ValueError):
            diagonalize(diagonalize(net))


class TestChannelScalingReport:
    def test_layer_one_width_is_two(self):
        net = ht_from_family(make_family("rect", 4, min_side=3))
        assert net.layer_widths[0] == 2

    def test_random_needs_more_channels(self):
        fam = make_family("rect", 8, min_side=3)
        widths = ht_from_family(fam).layer_widths
        random_widths = ht_from_family(make_family("random", 8, m=len(fam), seed=0)).layer_widths
        assert max(random_widths) > max(widths)
        # At the top layers the random family's width saturates near its
        # member count (441 here).
        assert max(random_widths) >= 400


class TestCrossCheck:
    def test_empty_family(self):
        report = tt_ht_cross_check(ImageFamily(2, [], FamilyMeta("none")), n_probes=50)
        assert report.max_dev_tt_ht == 0.0

    def test_single_member(self):
        report = tt_ht_cross_check(_single(2, "1001"), n_probes=100)
        assert report.max_dev_tt_ht < 1e-9
        assert report.max_dev_f_tt < 1e-9

    def test_rect4(self):
        report = tt_ht_cross_check(gen_rectangle_outlines(4, 3), n_probes=1000)
        assert report.max_dev_tt_ht < 1e-6
        assert report.max_dev_f_ht < 1e-6

    def test_padded_family(self):
        report = tt_ht_cross_check(gen_stacked_outlines(5, 3), n_probes=300)
        assert report.max_dev_tt_ht < 1e-6


class TestSerialization:
    @pytest.mark.parametrize("form", ["generalized", "diagonal"])
    def test_text_is_one_17_digit_value_per_entry(self, form, tmp_path):
        net = ht_from_family(gen_rectangle_outlines(4, 3))
        if form == "diagonal":
            net = diagonalize(net)
        path = tmp_path / "net.ht"
        save_ht(net, path)
        expected = [
            "pixelrank-ht 1",
            "n=4",
            "original_n=4",
            f"form={form}",
            "widths=" + " ".join(str(w) for w in net.layer_widths),
        ]
        for node in sorted(net.params, key=lambda t: (t.i, t.j, t.k)):
            expected.append(f"node {node.i} {node.j} {node.k}")
            for row in net.params[node]:
                expected.append(" ".join("%.17g" % x for x in row.reshape(-1)))
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_generalized_round_trip(self, tmp_path):
        fam = gen_rectangle_outlines(4, 3)
        net = ht_from_family(fam)
        path = tmp_path / "net.ht"
        save_ht(net, path)
        loaded = load_ht(path)
        assert loaded.layer_widths == net.layer_widths
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(300, 16), dtype=np.uint8)
        assert np.array_equal(ht_eval_batch(net, bits), ht_eval_batch(loaded, bits))

    def test_diagonal_round_trip(self, tmp_path):
        net = diagonalize(ht_from_family(gen_vertical_bars(4, 2)))
        path = tmp_path / "net.htd"
        save_ht(net, path)
        loaded = load_ht(path)
        assert loaded.form == "diagonal"
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(300, 16), dtype=np.uint8)
        assert np.array_equal(ht_eval_batch(net, bits), ht_eval_batch(loaded, bits))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ht"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError):
            load_ht(path)

    @staticmethod
    def _saved_lines(tmp_path):
        path = tmp_path / "net.ht"
        save_ht(ht_from_family(gen_rectangle_outlines(4, 3)), path)
        return path, path.read_text().splitlines(keepends=True)

    def test_malformed_files_name_the_line(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        # magic, n, original_n, form, widths, then blocks of a node line and
        # one row per channel: layer 2 has 3 channels of 2 x 2 matrices.
        assert lines[4] == "widths=2 3 4 6 1\n"
        assert lines[5] == "node 2 1 1\n" and lines[9] == "node 2 1 2\n"
        cases = {
            "line 20: file ends early": lines[:19],
            "line 7: node 2 1 1: expected 4 values, got 3": (
                lines[:6] + [" ".join(lines[6].split()[:3]) + "\n"] + lines[7:]
            ),
            "line 7: node 2 1 1: expected 4 values, got 5": (
                lines[:6] + [lines[6].rstrip("\n") + " 0\n"] + lines[7:]
            ),
            "line 7: node 2 1 1: bad number": lines[:6] + ["1 2 x 4\n"] + lines[7:],
            "line 6: expected 'node 2 1 1', got 'node 2 1 2'": lines[:5] + lines[9:],
            "line 10: expected 'node 2 1 2', got 'node 2 1 1'": lines[:9] + lines[5:],
            f"line {len(lines) + 1}: unexpected content": lines + ["node 6 1 1\n"],
            "line 5: expected 5 widths values, got 4": (
                lines[:4] + ["widths=2 3 4 7\n"] + lines[5:]
            ),
            "line 2: side must be a power of two": lines[:1] + ["n=3\n"] + lines[2:],
            "line 2: file too short for n=4096": lines[:1] + ["n=4096\n"] + lines[2:],
            "line 4: unknown form 'dense'": lines[:3] + ["form=dense\n"] + lines[4:],
        }
        for message, content in cases.items():
            path.write_text("".join(content))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                load_ht(path)


class TestHelpers:
    def test_next_power_of_two(self):
        assert [next_power_of_two(v) for v in (1, 2, 3, 4, 5, 8, 9)] == [
            1, 2, 4, 4, 8, 8, 16,
        ]

    def test_eval_side_mismatch(self):
        net = ht_from_family(gen_vertical_bars(4, 2))
        with pytest.raises(ValueError):
            ht_eval(net, BinaryImage(2, bytes(4)))
