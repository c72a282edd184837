"""Tests for the binary-tree product-pooling network: tree structure,
exact construction, evaluation forms, diagonalization, and cross-checks."""

import itertools
import re

import numpy as np
import pytest

from pixelrank.cli import main
from pixelrank.ht import (
    HTNetwork,
    Tree,
    TreeIndex,
    diagonalize,
    ht_eval,
    ht_eval_batch,
    ht_from_family,
    load_ht,
    next_power_of_two,
    save_ht,
    tt_ht_cross_check,
)
from pixelrank.images import (
    BinaryImage,
    FamilyMeta,
    ImageFamily,
    _members_and_probes,
    gen_rectangle_outlines,
    gen_stacked_outlines,
    gen_vertical_bars,
    make_family,
    pad_family,
)

from oracles import (
    layer_rank_table,
    node_output_diagonal,
    node_output_generalized,
    node_ranks,
    parent_map,
    verify_support_properties,
)


def _single(n, text):
    return ImageFamily(n, [BinaryImage.from_text(n, text)], FamilyMeta("one"))


def _padded_copy(net):
    """The network with every node's matrices padded with zero channels to
    the layer widths, (l_i, l_{i-1}, l_{i-1})."""
    params = {}
    for node, p in net.params.items():
        shape = (net.layer_widths[node.i - 1],) + (net.layer_widths[node.i - 2],) * 2
        params[node] = np.pad(p, [(0, w - s) for w, s in zip(shape, p.shape)])
    return HTNetwork(net.n, net.form, net.layer_widths, params, original_n=net.original_n)


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
        assert net.layer_widths == [2, 1, 1]
        for bits in itertools.product((0, 1), repeat=4):
            assert ht_eval(net, BinaryImage(2, bytes(bits))) == 0.0

    def test_exactness_exhaustive_n2(self):
        fam = gen_vertical_bars(2, 2)
        net = ht_from_family(fam)
        for bits in itertools.product((0, 1), repeat=4):
            img = BinaryImage(2, bytes(bits))
            assert ht_eval(net, img) == pytest.approx(float(img in fam), abs=1e-6)

    def test_exactness_exhaustive_n4(self):
        fam = gen_rectangle_outlines(4, 3)
        net = ht_from_family(fam)
        bits = np.array(
            [list(b) for b in itertools.product((0, 1), repeat=16)], dtype=np.uint8
        )
        values = ht_eval_batch(net, bits)
        truth = np.array([float(BinaryImage(4, row.tobytes()) in fam) for row in bits])
        assert np.max(np.abs(values - truth)) < 1e-6

    def test_widths_equal_exact_region_ranks(self):
        fam = gen_rectangle_outlines(4, 3)
        net = ht_from_family(fam)
        table = layer_rank_table(fam)
        for i in range(1, net.tree.n_layers + 1):
            layer_max = max(table[node] for node in net.tree.layers[i])
            assert net.layer_widths[i - 1] == layer_max
        ranks = node_ranks(net)
        assert all(ranks[node] == table[node] for node in table if node.i > 1)

    def test_node_ranks_equal_exact_ranks_random_family(self):
        # The build's pivot counts and the integer region ranks must agree
        # node by node, including on unstructured input.
        from pixelrank.images import gen_random_family

        fam = gen_random_family(4, 30, seed=17)
        net = ht_from_family(fam)
        table = layer_rank_table(fam)
        ranks = node_ranks(net)
        for node, exact in table.items():
            assert ranks[node] == exact

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

    def test_random_parameters_match_node_oracle(self):
        # Leaves emit (1 0) for a black pixel and (0 1) for a white one; a
        # node's first child is u and its second v.
        rng = np.random.default_rng(13)
        tree = Tree(4)
        widths = [2, 3, 4, 3, 1]
        params = {
            node: rng.standard_normal((widths[i - 1], widths[i - 2], widths[i - 2]))
            for i in range(2, tree.n_layers + 1)
            for node in tree.layers[i]
        }
        net = HTNetwork(4, "generalized", widths, params)
        bits = rng.integers(0, 2, size=(200, 16), dtype=np.uint8)
        expected = []
        for row in bits:
            outs = {}
            for leaf in tree.layers[1]:
                (pixel,) = tree.support(leaf).pixels()
                outs[leaf] = np.array([1.0, 0.0]) if row[pixel - 1] else np.array([0.0, 1.0])
            for i in range(2, tree.n_layers + 1):
                for node in tree.layers[i]:
                    first, second = tree.children(node)
                    outs[node] = node_output_generalized(params[node], outs[first], outs[second])
            expected.append(outs[tree.root][0])
        assert np.allclose(ht_eval_batch(net, bits), expected, rtol=1e-12, atol=1e-12)


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
            if node != net.tree.root:
                assert np.array_equal(diag.params[node].reshape(-1), mats.reshape(-1))

    @pytest.mark.parametrize("family", ["stacked5", "rect5"])
    def test_node_ranks_evaluate_as_the_padded_copy(self, family):
        fam = {"stacked5": gen_stacked_outlines, "rect5": gen_rectangle_outlines}[family](5)
        net = ht_from_family(fam)
        diag, reference = diagonalize(net), diagonalize(_padded_copy(net))
        assert diag.layer_widths == reference.layer_widths
        bits, _ = _members_and_probes(pad_family(fam, 8), 300, seed=5)
        assert ht_eval_batch(diag, bits).tobytes() == ht_eval_batch(reference, bits).tobytes()
        # Each node is duplicated by its sibling's rank, not the layer width.
        parents = parent_map(net.tree)
        for node, p in diag.params.items():
            parent = parents.get(node)
            if parent is not None:
                sibling = next(c for c in net.tree.children(parent) if c != node)
                assert len(p) == len(net.params[node]) * len(net.params[sibling])
        if family == "stacked5":
            size = sum(p.size for p in diag.params.values())
            assert size < sum(p.size for p in reference.params.values())

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


_SHAPE = "node 2 1 1 shape 3 2 2"  # the first node line of rect n=4's tree, without its count


class TestSerialization:
    @pytest.mark.parametrize("form", ["generalized", "diagonal"])
    def test_text_holds_each_nonzero_with_17_digits(self, form, tmp_path):
        net = ht_from_family(gen_rectangle_outlines(4, 3))
        if form == "diagonal":
            net = diagonalize(net)
        path = tmp_path / "net.ht"
        save_ht(net, path)
        expected = [
            "pixelrank-network 3",
            "kind=tree",
            "n=4",
            "original_n=4",
            f"form={form}",
            "widths=" + " ".join(str(w) for w in net.layer_widths),
        ]
        for node in sorted(net.params, key=lambda t: (t.i, t.j, t.k)):
            p = net.params[node]
            at = [pos for pos, v in enumerate(p.reshape(-1)) if v != 0 or np.signbit(v)]
            expected.append(
                f"node {node.i} {node.j} {node.k} shape "
                + " ".join(map(str, p.shape))
                + f" nonzeros {len(at)}"
            )
            expected.append(" ".join(map(str, at)))
            expected.append(" ".join("%.17g" % p.reshape(-1)[pos] for pos in at))
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

    @staticmethod
    def _rejects(path, content, message, capsys):
        """load_ht raises the message for the content, and diag on it exits
        2 with the message and no traceback."""
        path.write_text("".join(content))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_ht(path)
        capsys.readouterr()
        assert main(["diag", "--network", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot load network {path}: {message}\n"

    def test_malformed_files_name_the_line(self, tmp_path, capsys):
        path, lines = self._saved_lines(tmp_path)
        # magic, kind, n, original_n, form, widths, then per node a node
        # line, its positions and its values: layer 2 has (3, 2, 2) blocks
        # of 3 nonzeros, layer 3 (4, 3, 3) blocks of 4.
        assert lines[5] == "widths=2 3 4 6 1\n"
        assert lines[6:9] == ["node 2 1 1 shape 3 2 2 nonzeros 3\n", "1 7 8\n", "1 1 1\n"]
        assert lines[9] == "node 2 1 2 shape 3 2 2 nonzeros 3\n"
        assert lines[30] == "node 3 1 1 shape 4 3 3 nonzeros 4\n"
        assert lines[48] == "node 5 1 1 shape 1 6 6 nonzeros 9\n" and len(lines) == 51
        cases = {
            "line 50: file ends early, expected node 5 1 1": lines[:49],
            "line 49: file ends early, expected 'node 5 1 1 shape'": lines[:48],
            "line 9: node 2 1 1: expected 3 values, got 2": lines[:8] + ["1 1\n"] + lines[9:],
            "line 9: node 2 1 1: expected 3 values, got 4": lines[:8] + ["1 1 1 0\n"] + lines[9:],
            "line 9: node 2 1 1: bad number": lines[:8] + ["1 x 1\n"] + lines[9:],
            "line 9: node 2 1 1: non-finite number 'nan'": lines[:8] + ["1 nan 1\n"] + lines[9:],
            "line 9: node 2 1 1: non-finite number '-inf'": lines[:8] + ["-inf 1 1\n"] + lines[9:],
            "line 12: node 2 1 2: non-finite number 'inf'": lines[:11] + ["inf 1 1\n"] + lines[12:],
            "line 7: expected 'node 2 1 1 shape', got 'node 2 1 2 shape 3 2 2 nonzeros 3'": (
                lines[:6] + lines[9:]
            ),
            "line 10: expected 'node 2 1 2 shape', got 'node 2 1 1 shape 3 2 2 nonzeros 3'": (
                lines[:9] + lines[6:]
            ),
            f"line {len(lines) + 1}: unexpected content after the last block": (
                lines + ["node 6 1 1 shape 1 1 1 nonzeros 0\n"]
            ),
            "line 6: expected 5 widths values, got 4": lines[:5] + ["widths=2 3 4 7\n"] + lines[6:],
            "line 3: side must be a power of two >= 2, got 3": lines[:2] + ["n=3\n"] + lines[3:],
            "line 3: file too short for n=4096": lines[:2] + ["n=4096\n"] + lines[3:],
            # Three lines for each of the 15 inner nodes.
            "line 3: file too short for n=4": lines[:47],
            "line 5: unknown form 'dense'": lines[:4] + ["form=dense\n"] + lines[5:],
            "line 4: original_n=99 does not pad to n=4": (
                lines[:3] + ["original_n=99\n"] + lines[4:]
            ),
            "line 4: original_n=2 does not pad to n=4": (
                lines[:3] + ["original_n=2\n"] + lines[4:]
            ),
            "line 6: leaf width must be 2, got 3": lines[:5] + ["widths=3 3 4 6 1\n"] + lines[6:],
            "line 6: leaf width must be 4, got 2": lines[:4] + ["form=diagonal\n"] + lines[5:],
            "line 6: root width must be 1, got 2": lines[:5] + ["widths=2 3 4 6 2\n"] + lines[6:],
            "line 31: node 3 1 1: shape (4, 2, 3) does not fit its children's ranks (3, 3)": (
                lines[:30] + ["node 3 1 1 shape 4 2 3 nonzeros 4\n"] + lines[31:]
            ),
            "line 7: node 2 1 1 shape values must be positive": (
                lines[:6] + ["node 2 1 1 shape 0 2 2 nonzeros 3\n"] + lines[7:]
            ),
            "line 7: expected 3 node 2 1 1 shape values, got 2": (
                lines[:6] + ["node 2 1 1 shape 3 2 nonzeros 3\n"] + lines[7:]
            ),
            "line 49: node 5 1 1: rank 2 above the layer width 1": (
                lines[:48] + ["node 5 1 1 shape 2 6 6 nonzeros 9\n"] + lines[49:]
            ),
            "line 31: node 3 1 1: rank 4 above the layer width 3": (
                lines[:5] + ["widths=2 3 3 6 1\n"] + lines[6:]
            ),
            "line 1: a version 1 network file; write it again to read it": (
                ["pixelrank-ht 1\n"] + lines[1:]
            ),
            "line 1: a version 2 network file; write it again to read it": (
                ["pixelrank-network 2\n"] + lines[1:]
            ),
            "line 1: not a network file": ["pixelrank-network 4\n"] + lines[1:],
            "line 2: a 'train' file, expected a tree": lines[:1] + ["kind=train\n"] + lines[2:],
        }
        for message, content in cases.items():
            self._rejects(path, content, message, capsys)

    @pytest.mark.parametrize(
        "line, at, message",
        [
            # The count, on the node line "node 2 1 1 shape 3 2 2 nonzeros 3".
            (_SHAPE, 6, "line 7: node 2 1 1: no nonzeros count"),
            (_SHAPE + " nonzeros", 6, "line 7: node 2 1 1: no nonzeros count"),
            (_SHAPE + " nonzeros ", 6, "line 7: node 2 1 1: bad nonzeros count ''"),
            (_SHAPE + " nonzeros x", 6, "line 7: node 2 1 1: bad nonzeros count 'x'"),
            (_SHAPE + " nonzeros 3.0", 6, "line 7: node 2 1 1: bad nonzeros count '3.0'"),
            (_SHAPE + " nonzeros -3", 6, "line 7: node 2 1 1: bad nonzeros count '-3'"),
            (_SHAPE + " nonzeros 2", 6, "line 8: node 2 1 1: expected 2 positions, got 3"),
            (_SHAPE + " nonzeros 4", 6, "line 8: node 2 1 1: expected 4 positions, got 3"),
            # The positions line.
            ("1 7", 7, "line 8: node 2 1 1: expected 3 positions, got 2"),
            ("1 7 8 9", 7, "line 8: node 2 1 1: expected 3 positions, got 4"),
            ("1 x 8", 7, "line 8: node 2 1 1: bad position"),
            ("1 7.0 8", 7, "line 8: node 2 1 1: bad position"),
            ("1 7 99999999999999999999", 7, "line 8: node 2 1 1: bad position"),
            ("-1 7 8", 7, "line 8: node 2 1 1: position -1 outside the block of 12 values"),
            ("1 7 12", 7, "line 8: node 2 1 1: position 12 outside the block of 12 values"),
            ("1 7 80", 7, "line 8: node 2 1 1: position 80 outside the block of 12 values"),
            ("1 7 7", 7, "line 8: node 2 1 1: positions not ascending, 7 after 7"),
            ("7 1 8", 7, "line 8: node 2 1 1: positions not ascending, 1 after 7"),
            # The values line.
            ("1 1", 8, "line 9: node 2 1 1: expected 3 values, got 2"),
            ("", 8, "line 9: node 2 1 1: expected 3 values, got 0"),
            ("1 1e400 1", 8, "line 9: node 2 1 1: non-finite number '1e400'"),
            ("1 0x1 1", 8, "line 9: node 2 1 1: bad number"),
        ],
        ids=[
            "count-missing", "count-word-only", "count-empty", "count-word", "count-float",
            "count-negative", "count-below", "count-above",
            "positions-short", "positions-long", "position-word", "position-float",
            "position-overflow", "position-negative", "position-at-size", "position-past-size",
            "position-repeated", "positions-out-of-order",
            "values-short", "values-empty", "value-overflow", "value-hex",
        ],
    )
    def test_malformed_nonzeros_name_the_line(self, line, at, message, tmp_path, capsys):
        path, lines = self._saved_lines(tmp_path)
        assert lines[6:9] == ["node 2 1 1 shape 3 2 2 nonzeros 3\n", "1 7 8\n", "1 1 1\n"]
        self._rejects(path, lines[:at] + [line + "\n"] + lines[at + 1 :], message, capsys)

    def test_malformed_diagonal_blocks_name_the_line(self, tmp_path, capsys):
        path = tmp_path / "net.ht"
        save_ht(diagonalize(ht_from_family(gen_rectangle_outlines(4, 3))), path)
        lines = path.read_text().splitlines(keepends=True)
        # Above the leaves a block takes the leaves' 2 * 2 channels, above
        # that the 3 * 3 each child emits.
        assert lines[6] == "node 2 1 1 shape 9 4 nonzeros 9\n"
        assert lines[30] == "node 3 1 1 shape 16 9 nonzeros 16\n"
        cases = {
            "line 7: node 2 1 1: shape (9, 2) does not fit its children's ranks (2, 2)": (
                lines[:6] + ["node 2 1 1 shape 9 2 nonzeros 9\n"] + lines[7:]
            ),
            "line 31: node 3 1 1: shape (16, 8) does not fit its children's ranks (9, 9)": (
                lines[:30] + ["node 3 1 1 shape 16 8 nonzeros 16\n"] + lines[31:]
            ),
            "line 31: node 3 1 1: shape (16, 9) does not fit its children's ranks (8, 9)": (
                lines[:9] + ["node 2 1 2 shape 8 4 nonzeros 0\n", "\n", "\n"] + lines[12:]
            ),
            "line 7: expected 2 node 2 1 1 shape values, got 3": (
                lines[:6] + ["node 2 1 1 shape 9 2 2 nonzeros 9\n"] + lines[7:]
            ),
            "line 8: node 2 1 1: position 36 outside the block of 36 values": (
                lines[:7] + [lines[7].replace(" 32\n", " 36\n")] + lines[8:]
            ),
        }
        assert lines[7].endswith(" 32\n")
        for message, content in cases.items():
            self._rejects(path, content, message, capsys)


class TestHelpers:
    def test_next_power_of_two(self):
        assert [next_power_of_two(v) for v in (1, 2, 3, 4, 5, 8, 9)] == [
            1, 2, 4, 4, 8, 8, 16,
        ]

    def test_eval_side_mismatch(self):
        net = ht_from_family(gen_vertical_bars(4, 2))
        with pytest.raises(ValueError):
            ht_eval(net, BinaryImage(2, bytes(4)))
