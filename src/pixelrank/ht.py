"""Binary-tree product-pooling network (hierarchical Tucker format) for a
family's indicator function.

The tree has 2*log2(n) + 1 layers; leaves emit the basis vector (1 0) for a
black pixel and (0 1) for a white one, and every non-leaf node combines its
children's output vectors u (first child) and v (second child).  In the
generalized form the m-th output entry is v @ M_m @ u; the diagonal form
restricts to element-wise pooling, V_m @ (u * v), and is reachable from the
generalized form by duplicating channels.  The build and the evaluation are
rankcore's, on the tree's layers; tt runs them on the caterpillar tree.
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
from .rankcore import _contract, _nested_bases
from .tt import LineReader, tt_eval_batch, tt_from_family, write_rows

__all__ = [
    "TreeIndex",
    "Tree",
    "HTNetwork",
    "ht_from_family",
    "ht_eval",
    "ht_eval_batch",
    "diagonalize",
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
    """Tree network with per-layer channel counts l_i, each layer's widest
    node.

    Generalized form: params[node] stacks matrices, out_m = v @ params[m] @
    u.  A built network stores them at the node's own ranks, (r, r2, r1):
    its rank and its second and first child's; a loaded one at the layer
    widths, (l_i, l_{i-1}, l_{i-1}), the missing channels being zero.  Any
    shape whose axes match the children's outputs evaluates the same.
    Diagonal form: params[node] stacks vectors, shape (l_i, l_{i-1}),
    evaluated as out_m = params[m] @ (u * v); every node's output is the
    channel-duplicated copy of its generalized counterpart, padded to the
    layer widths.  Evaluation runs over each node's live channels only, so
    zero channels cost nothing.
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


def _layers(tree: Tree) -> list:
    """The tree as rankcore's bottom-up (node, pixels, first, second) layers."""
    return [
        [(x, tree.support(x).pixels(), *(tree.children(x) or (None, None))) for x in layer]
        for layer in tree.layers.values()
    ]


def ht_from_family(family: ImageFamily) -> HTNetwork:
    """Exact generalized-form network for the family's indicator.

    Families whose side is not a power of two are padded with white pixels
    first.  The build walks leaves-to-root, at each node taking the pivot
    columns of the integer elimination of the node's
    support-against-complement unfolding, an orthonormal basis of their
    span (the root's is the all-ones row), and writing it in the children's
    bases as the node's mixing matrices.  tt_from_family runs the same
    build on the caterpillar tree of pixel prefixes.  Every node's rank is
    its unfolding's exact rank, each node's matrices are stored at its own
    ranks, and a layer's channel count is its maximal node rank.
    """
    original_n = family.n
    family = _padded(family)
    tree = Tree(family.n)
    ranks, widths, mats = _nested_bases(family.bit_matrix(), _layers(tree))
    return HTNetwork(
        family.n, "generalized", widths, mats, node_ranks=ranks, original_n=original_n
    )


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
    return _contract(bits, _layers(net.tree), net.params, net.form == "diagonal")[:, 0]


def diagonalize(net: HTNetwork) -> HTNetwork:
    """Convert a generalized network to diagonal (element-wise pooling) form.

    Channel counts square in every layer.  Each node's matrices, padded
    with zero channels to the layer widths, flatten row-major into vectors,
    and each node emits its own output duplicated in the order its parent
    expects: a first child tiles its channels, a second child repeats each
    entry.  The root keeps a single channel.

    A network whose diagonal parameters cannot be allocated raises
    MemoryError naming their size in bytes.
    """
    if net.form != "generalized":
        raise ValueError("network is already in diagonal form")
    tree = net.tree
    # A layer-i node holds l_i^2 rows of l_{i-1}^2 values (the root, l = 1, one row).
    nbytes = 8 * sum(
        len(tree.layers[i]) * (net.width(i) * net.width(i - 1)) ** 2
        for i in range(2, tree.n_layers + 1)
    )
    params: dict[TreeIndex, np.ndarray] = {}
    try:
        for i in range(2, tree.n_layers + 1):
            l_i = net.width(i)
            for node in tree.layers[i]:
                flat = _padded_block(net, node).reshape(l_i, -1)
                first = tree.is_first_child(node)
                if first is None:  # the root has a single channel and nobody above to feed
                    params[node] = flat
                elif first:
                    params[node] = np.tile(flat, (l_i, 1))
                else:
                    params[node] = np.repeat(flat, l_i, axis=0)
    except MemoryError:
        raise MemoryError(
            f"the diagonal network's parameters take {nbytes} bytes"
            f" ({nbytes / (1 << 30):.2f} GiB), more than can be allocated"
        ) from None
    return HTNetwork(
        net.n,
        "diagonal",
        [w * w for w in net.layer_widths],
        params,
        node_ranks=net.node_ranks,
        original_n=net.original_n,
    )


@dataclass
class CrossCheckReport:
    n_probes: int
    max_dev_tt_ht: float
    max_dev_f_tt: float
    max_dev_f_ht: float


def tt_ht_cross_check(
    family: ImageFamily, n_probes: int = 10_000, seed: int = 0
) -> CrossCheckReport:
    """Both formats represent the same function; compare them against each
    other and against membership on all members plus random probes."""
    family = _padded(family)
    train = tt_from_family(family)
    net = ht_from_family(family)
    bits, truth = _members_and_probes(family, n_probes, seed)
    tt_vals = tt_eval_batch(train, bits)
    ht_vals = ht_eval_batch(net, bits)
    return CrossCheckReport(
        n_probes=len(bits),
        max_dev_tt_ht=float(np.max(np.abs(tt_vals - ht_vals), initial=0.0)),
        max_dev_f_tt=float(np.max(np.abs(tt_vals - truth), initial=0.0)),
        max_dev_f_ht=float(np.max(np.abs(ht_vals - truth), initial=0.0)),
    )


def _padded_block(net: HTNetwork, node: TreeIndex) -> np.ndarray:
    """The node's parameters padded with zero channels to the layer widths:
    (l_i, l_{i-1}, l_{i-1}) in the generalized form, (l_i, l_{i-1}) in the
    diagonal one."""
    block = net.params[node]
    shape = (net.width(node.i),) + (net.width(node.i - 1),) * (block.ndim - 1)
    if block.shape == shape:
        return block
    return np.pad(block, [(0, w - s) for w, s in zip(shape, block.shape)])


_HT_MAGIC = "pixelrank-ht 1"


def save_ht(net: HTNetwork, path) -> None:
    """Versioned text serialization; node blocks in (i, j, k) order, one
    row-major parameter line per output channel of the layer width, each
    block padded with zero channels to the layer widths."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_HT_MAGIC + "\n")
        fh.write(f"n={net.n}\n")
        fh.write(f"original_n={net.original_n}\n")
        fh.write(f"form={net.form}\n")
        fh.write("widths=" + " ".join(str(w) for w in net.layer_widths) + "\n")
        for node in sorted(net.params, key=lambda t: (t.i, t.j, t.k)):
            fh.write(f"node {node.i} {node.j} {node.k}\n")
            block = _padded_block(net, node)
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
    if next_power_of_two(max(original_n, 2)) != n:
        raise reader.error(f"original_n={original_n} does not pad to n={n}")
    form = reader.field("form")
    if form not in ("generalized", "diagonal"):
        raise reader.error(f"unknown form {form!r}")
    widths = reader.ints("widths", tree.n_layers)
    # A leaf emits two channels, squared in the diagonal form; the root one.
    leaf = 2 if form == "generalized" else 4
    if widths[0] != leaf:
        raise reader.error(f"leaf width must be {leaf}, got {widths[0]}")
    if widths[-1] != 1:
        raise reader.error(f"root width must be 1, got {widths[-1]}")
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
