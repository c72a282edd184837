"""Binary-tree product-pooling network (hierarchical Tucker format) for a
family's indicator function.

The tree has 2*log2(n) + 1 layers; leaves emit the basis vector (1 0) for a
black pixel and (0 1) for a white one, and every non-leaf node combines its
children's output vectors u (first child) and v (second child).  In the
generalized form the m-th output entry is v @ M_m @ u; the diagonal form
restricts to element-wise pooling, V_m @ (u * v), and is reachable from the
generalized form by duplicating channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .images import (
    BinaryImage,
    ImageFamily,
    Region,
    _members_and_probes,
    pad_family,
)
from .rankcore import _node_basis, exact_rank, region_unfolding
from .tt import LineReader, tt_eval_batch, tt_from_family, write_rows

__all__ = [
    "TreeIndex",
    "Tree",
    "HTNetwork",
    "ht_from_family",
    "ht_eval",
    "ht_eval_batch",
    "diagonalize",
    "layer_rank_table",
    "tt_ht_cross_check",
    "save_ht",
    "load_ht",
    "next_power_of_two",
]


@dataclass(frozen=True)
class TreeIndex:
    """Node address: layer i (1 = leaves), and spatial indices j, k."""

    i: int
    j: int
    k: int


def next_power_of_two(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _padded(family: ImageFamily) -> ImageFamily:
    """The family padded with white pixels to the tree's side: the next
    power of two, at least 2."""
    target = next_power_of_two(max(family.n, 2))
    return pad_family(family, target) if target != family.n else family


class Tree:
    """The complete binary tree over an n-by-n grid, n a power of two.

    Layer i holds n^2 / 2^(i-1) nodes.  An even layer merges its children
    vertically, an odd layer (above the leaves) horizontally, so supports
    are squares on odd layers and 2:1 rectangles on even layers.
    """

    def __init__(self, n: int):
        if n < 2 or n & (n - 1):
            raise ValueError(f"side must be a power of two >= 2, got {n}")
        self.n = n
        self.n_layers = 2 * int(math.log2(n)) + 1
        self.layers: dict[int, list[TreeIndex]] = {}
        for i in range(1, self.n_layers + 1):
            jmax = n // (1 << (i // 2))
            kmax = n // (1 << ((i - 1) // 2))
            self.layers[i] = [
                TreeIndex(i, j, k)
                for j in range(1, jmax + 1)
                for k in range(1, kmax + 1)
            ]

    @property
    def root(self) -> TreeIndex:
        return TreeIndex(self.n_layers, 1, 1)

    def children(self, node: TreeIndex) -> tuple[TreeIndex, TreeIndex] | None:
        if node.i == 1:
            return None
        if node.i % 2 == 0:
            return (
                TreeIndex(node.i - 1, 2 * node.j - 1, node.k),
                TreeIndex(node.i - 1, 2 * node.j, node.k),
            )
        return (
            TreeIndex(node.i - 1, node.j, 2 * node.k - 1),
            TreeIndex(node.i - 1, node.j, 2 * node.k),
        )

    def parent(self, node: TreeIndex) -> TreeIndex | None:
        if node.i == self.n_layers:
            return None
        up = node.i + 1
        if up % 2 == 0:
            return TreeIndex(up, (node.j + 1) // 2, node.k)
        return TreeIndex(up, node.j, (node.k + 1) // 2)

    def sibling(self, node: TreeIndex) -> TreeIndex | None:
        parent = self.parent(node)
        if parent is None:
            return None
        first, second = self.children(parent)
        return second if node == first else first

    def is_first_child(self, node: TreeIndex) -> bool | None:
        """Whether the node is its parent's first input (None for the root)."""
        parent = self.parent(node)
        if parent is None:
            return None
        return self.children(parent)[0] == node

    def support(self, node: TreeIndex) -> Region:
        """The pixel rectangle covered by the node's leaf descendants."""
        height = 1 << (node.i // 2)
        width = 1 << ((node.i - 1) // 2)
        top = (node.j - 1) * height + 1
        left = (node.k - 1) * width + 1
        return Region.rectangle(top, left, height, width, self.n)


class HTNetwork:
    """Tree network with uniform per-layer channel counts.

    Generalized form: params[node] stacks matrices, shape
    (l_i, l_{i-1}, l_{i-1}), evaluated as out_m = v @ params[m] @ u.
    Diagonal form: params[node] stacks vectors, shape (l_i, l_{i-1}),
    evaluated as out_m = params[m] @ (u * v); every node's output is the
    channel-duplicated copy of its generalized counterpart.
    """

    def __init__(self, n, form, layer_widths, params, node_ranks=None, original_n=None):
        if form not in ("generalized", "diagonal"):
            raise ValueError(f"unknown form {form!r}")
        self.n = n
        self.form = form
        self.tree = Tree(n)
        self.layer_widths = list(layer_widths)
        if len(self.layer_widths) != self.tree.n_layers:
            raise ValueError("one width per layer required")
        self.params = dict(params)
        self.node_ranks = dict(node_ranks) if node_ranks else {}
        self.original_n = original_n if original_n is not None else n

    def width(self, layer: int) -> int:
        return self.layer_widths[layer - 1]

    def __repr__(self) -> str:
        return f"HTNetwork(n={self.n}, form={self.form}, widths={self.layer_widths})"


def ht_from_family(family: ImageFamily, tol: float = 1e-9) -> HTNetwork:
    """Exact generalized-form network for the family's indicator.

    Families whose side is not a power of two are padded with white pixels
    first.  The build walks leaves-to-root (the hierarchical SVD), at each
    node taking an orthonormal basis of the occupied configurations of the
    node's support-against-complement unfolding (the root's is the all-ones
    row), and writing it in the children's bases as the node's mixing
    matrices.  tt_from_family runs the same node step on the caterpillar
    tree of pixel prefixes.  Per-layer channel counts are the maximal node
    rank in the layer; narrower nodes are zero-padded.
    """
    original_n = family.n
    family = _padded(family)
    n = family.n
    tree = Tree(n)
    L = tree.n_layers
    m = len(family)

    if m == 0:
        widths = [2] + [1] * (L - 1)
        params = {}
        for i in range(2, L + 1):
            prev = widths[i - 2]
            for node in tree.layers[i]:
                params[node] = np.zeros((widths[i - 1], prev, prev))
        return HTNetwork(n, "generalized", widths, params, original_n=original_n)

    bits = family.bit_matrix()

    # Per-node state from the layer below: padded basis matrix (l_i x d),
    # per-member config index.
    phi: dict[TreeIndex, np.ndarray] = {}
    cfg_idx: dict[TreeIndex, np.ndarray] = {}
    node_ranks: dict[TreeIndex, int] = {}

    for leaf in tree.layers[1]:
        (pixel,) = tree.support(leaf).pixels()
        # Config order [black, white] so the basis is the identity.
        cfg_idx[leaf] = 1 - bits[:, pixel - 1]
        phi[leaf] = np.eye(2)
        node_ranks[leaf] = 2
    widths = [2]

    params: dict[TreeIndex, np.ndarray] = {}
    for i in range(2, L + 1):
        raw: dict[TreeIndex, np.ndarray] = {}
        for node in tree.layers[i]:
            raw[node], cfg_idx[node] = _node_basis(bits, tree.support(node).pixels(), tol)
            node_ranks[node] = raw[node].shape[0]
        l_i = max(node_ranks[node] for node in tree.layers[i])
        widths.append(l_i)
        prev = widths[i - 2]
        for node in tree.layers[i]:
            basis = raw[node]
            phi[node] = np.zeros((l_i, basis.shape[1]))
            phi[node][: basis.shape[0]] = basis
            child1, child2 = tree.children(node)
            phi1, phi2 = phi[child1], phi[child2]
            mats = np.zeros((l_i, prev, prev))
            for mm, row in enumerate(basis):
                # Each member's (child1, child2) configuration pair carries
                # the basis value of its node configuration.
                grid = np.zeros((phi1.shape[1], phi2.shape[1]))
                grid[cfg_idx[child1], cfg_idx[child2]] = row[cfg_idx[node]]
                mats[mm] = (phi1 @ grid @ phi2.T).T
            params[node] = mats
        # Children's bases are no longer needed.
        for node in tree.layers[i - 1]:
            del phi[node], cfg_idx[node]

    return HTNetwork(
        n, "generalized", widths, params, node_ranks=node_ranks, original_n=original_n
    )


def _leaf_basis_batch(bits_col: np.ndarray) -> np.ndarray:
    out = np.zeros((bits_col.shape[0], 2))
    out[bits_col == 1, 0] = 1.0
    out[bits_col == 0, 1] = 1.0
    return out


def ht_eval(net: HTNetwork, image: BinaryImage) -> float:
    """Bottom-up evaluation of one image; returns the root scalar."""
    if image.n != net.n:
        raise ValueError(f"image side {image.n} does not match network side {net.n}")
    bits = np.frombuffer(image.bits, dtype=np.uint8).reshape(1, -1)
    return float(ht_eval_batch(net, bits)[0])


def ht_eval_batch(net: HTNetwork, bits: np.ndarray) -> np.ndarray:
    """Evaluate many images; bits has one row per image in flat pixel order."""
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != net.n * net.n:
        raise ValueError("bit matrix shape does not match the network")
    tree = net.tree
    outs: dict[TreeIndex, np.ndarray] = {}
    for leaf in tree.layers[1]:
        col = bits[:, tree.support(leaf).pixels()[0] - 1]
        base = _leaf_basis_batch(col)
        if net.form == "diagonal":
            if tree.is_first_child(leaf):
                base = np.tile(base, 2)
            else:
                base = np.repeat(base, 2, axis=1)
        outs[leaf] = base
    for i in range(2, tree.n_layers + 1):
        for node in tree.layers[i]:
            child1, child2 = tree.children(node)
            u = outs.pop(child1)
            v = outs.pop(child2)
            p = net.params[node]
            if net.form == "generalized":
                # out[n, m] = sum_qp v[n,q] M[m,q,p] u[n,p]
                pooled = (v[:, :, None] * u[:, None, :]).reshape(bits.shape[0], -1)
                outs[node] = pooled @ p.reshape(p.shape[0], -1).T
            else:
                outs[node] = (u * v) @ p.T
    return outs[tree.root][:, 0]


def diagonalize(net: HTNetwork) -> HTNetwork:
    """Convert a generalized network to diagonal (element-wise pooling) form.

    Channel counts square in every layer.  Each node's matrices flatten
    row-major into vectors, and each node emits its own output duplicated in
    the order its parent expects: a first child tiles its channels, a second
    child repeats each entry.  The root keeps a single channel.
    """
    if net.form != "generalized":
        raise ValueError("network is already in diagonal form")
    tree = net.tree
    params: dict[TreeIndex, np.ndarray] = {}
    for i in range(2, tree.n_layers + 1):
        l_i = net.width(i)
        for node in tree.layers[i]:
            mats = net.params[node]
            first = tree.is_first_child(node)
            if first is None:
                # The root has a single channel and nobody above to feed.
                order = [0]
            elif first:
                order = [mp % l_i for mp in range(l_i * l_i)]
            else:
                order = [mp // l_i for mp in range(l_i * l_i)]
            params[node] = np.stack([mats[mm].reshape(-1) for mm in order])
    return HTNetwork(
        net.n,
        "diagonal",
        [w * w for w in net.layer_widths],
        params,
        node_ranks=net.node_ranks,
        original_n=net.original_n,
    )


def layer_rank_table(family: ImageFamily) -> dict[TreeIndex, int]:
    """Exact integer rank of the support-against-complement unfolding for
    every tree node; the independent counterpart of the network widths."""
    family = _padded(family)
    tree = Tree(family.n)
    table = {}
    for i in range(1, tree.n_layers + 1):
        for node in tree.layers[i]:
            region = tree.support(node)
            if region.size == family.n * family.n:
                table[node] = 1 if len(family) else 0
            else:
                table[node] = exact_rank(region_unfolding(family, region))
    return table


@dataclass
class CrossCheckReport:
    n_probes: int
    max_dev_tt_ht: float
    max_dev_f_tt: float
    max_dev_f_ht: float


def tt_ht_cross_check(
    family: ImageFamily, n_probes: int = 10_000, seed: int = 0, tol: float = 1e-9
) -> CrossCheckReport:
    """Both formats represent the same function; compare them against each
    other and against membership on all members plus random probes."""
    family = _padded(family)
    train = tt_from_family(family, tol=tol)
    net = ht_from_family(family, tol=tol)
    bits, truth = _members_and_probes(family, n_probes, seed)
    tt_vals = tt_eval_batch(train, bits) if len(bits) else np.zeros(0)
    ht_vals = ht_eval_batch(net, bits) if len(bits) else np.zeros(0)
    return CrossCheckReport(
        n_probes=len(bits),
        max_dev_tt_ht=float(np.max(np.abs(tt_vals - ht_vals), initial=0.0)),
        max_dev_f_tt=float(np.max(np.abs(tt_vals - truth), initial=0.0)),
        max_dev_f_ht=float(np.max(np.abs(ht_vals - truth), initial=0.0)),
    )


_HT_MAGIC = "pixelrank-ht 1"


def save_ht(net: HTNetwork, path) -> None:
    """Versioned text serialization; node blocks in (i, j, k) order, one
    row-major parameter line per output channel."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_HT_MAGIC + "\n")
        fh.write(f"n={net.n}\n")
        fh.write(f"original_n={net.original_n}\n")
        fh.write(f"form={net.form}\n")
        fh.write("widths=" + " ".join(str(w) for w in net.layer_widths) + "\n")
        for node in sorted(net.params, key=lambda t: (t.i, t.j, t.k)):
            fh.write(f"node {node.i} {node.j} {node.k}\n")
            block = net.params[node]
            write_rows(fh, block.reshape(block.shape[0], -1))


def load_ht(path) -> HTNetwork:
    """Read a file written by save_ht; malformed content, including a
    missing, repeated or out-of-order node block, raises ValueError naming
    the line."""
    reader = LineReader(path, _HT_MAGIC, "network")
    (n,) = reader.ints("n", 1)
    # Each of the n*n - 1 inner nodes has a block, so a file too short for
    # its n fails here rather than after Tree(n) allocates n*n leaves.
    if reader.left() < n * n - 1:
        raise reader.error(f"file too short for n={n}")
    try:
        tree = Tree(n)
    except ValueError as exc:
        raise reader.error(str(exc)) from None
    (original_n,) = reader.ints("original_n", 1)
    form = reader.field("form")
    if form not in ("generalized", "diagonal"):
        raise reader.error(f"unknown form {form!r}")
    widths = reader.ints("widths", tree.n_layers)
    params = {}
    for i in range(2, tree.n_layers + 1):
        l_i, prev = widths[i - 1], widths[i - 2]
        shape = (prev, prev) if form == "generalized" else (prev,)
        for node in tree.layers[i]:
            header = f"node {node.i} {node.j} {node.k}"
            line = reader.next(repr(header))
            if line != header:
                raise reader.error(f"expected {header!r}, got {line[:40]!r}")
            rows = [reader.floats(math.prod(shape), header) for _ in range(l_i)]
            params[node] = np.array(rows).reshape(l_i, *shape)
    reader.finish()
    return HTNetwork(n, form, widths, params, original_n=original_n)
