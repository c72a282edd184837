"""Binary-tree product-pooling network (hierarchical Tucker format) for a
family's indicator function.

The tree has 2*log2(n) + 1 layers; leaves emit the basis vector (1 0) for a
black pixel and (0 1) for a white one, and every non-leaf node combines its
children's output vectors u (first child) and v (second child).  In the
generalized form the m-th output entry is v @ M_m @ u; the diagonal form
restricts to element-wise pooling, V_m @ (u * v), and is reachable from the
generalized form by duplicating channels.  The build, the evaluation and
the network file are rankcore's, on the tree's layers; tt runs them on the
caterpillar tree.  Every node is held at its own ranks as its nonzeros, so
diagonalize is index arithmetic on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .images import (
    BinaryImage, ImageFamily, Region, _max_deviation, _members_and_probes, pad_family,
)
from .rankcore import (
    _Block, _contract, _load_network, _nested_bases, _plan, _save_network, _too_large,
)
from .tt import tt_eval_batch, tt_from_family

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

    def __str__(self) -> str:
        return f"{self.i} {self.j} {self.k}"


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

    params[node] holds an inner node's parameters at the node's own ranks,
    given dense or as a block (see rankcore._Block) and held as a block;
    the params attribute is a dense view built on access.  Generalized
    form: matrices of shape (r, r2, r1), the node's rank and its second and
    first child's, evaluated as out_q = v @ params[q] @ u.  Diagonal form: a
    (rows, r2 * r1) matrix, the generalized matrices flattened with each
    output channel duplicated in the order the parent pools them (see
    diagonalize), evaluated as out = params @ (u * v); above the leaves, u
    and v are the leaves' own two channels.  See rankcore._contract.
    """

    def __init__(self, n, form, layer_widths, params, original_n=None):
        if form not in ("generalized", "diagonal"):
            raise ValueError(f"unknown form {form!r}")
        self.n = n
        self.form = form
        self.tree = Tree(n)
        self.layer_widths = list(layer_widths)
        if len(self.layer_widths) != self.tree.n_layers:
            raise ValueError("one width per layer required")
        self._blocks = {x: p if isinstance(p, _Block) else _Block.of(p) for x, p in params.items()}
        self.original_n = original_n if original_n is not None else n

    @property
    def params(self) -> dict:
        return {node: block.dense() for node, block in self._blocks.items()}

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
    first.  The build walks leaves-to-root, at each node taking the pivots
    (rows I, columns J) of the integer elimination of the node's
    support-against-complement unfolding B, and its interpolative basis U =
    B[:, J] B[I, J]^-1 (the root's is the all-ones column).  The node's
    mixing matrices are U read at its children's pivot rows.
    tt_from_family runs the same build on the caterpillar tree of pixel
    prefixes.  Every node's rank is its unfolding's exact rank, each node's
    matrices are stored at its own ranks, and a layer's channel count is
    its maximal node rank.
    """
    original_n = family.n
    family = _padded(family)
    tree = Tree(family.n)
    widths, mats = _nested_bases(family.bit_matrix(), _layers(tree))
    return HTNetwork(family.n, "generalized", widths, mats, original_n=original_n)


def _layer_widths(family: ImageFamily) -> list[int]:
    """ht_from_family(family).layer_widths from the integer plan alone
    (see rankcore._plan): no node tensor is built."""
    family = _padded(family)
    return _plan(family.bit_matrix(), _layers(Tree(family.n)))


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
    return _contract(bits, _layers(net.tree), net._blocks, net.form == "diagonal")[:, 0]


def diagonalize(net: HTNetwork) -> HTNetwork:
    """Convert a generalized network to diagonal (element-wise pooling) form.

    Each node's (r, r2, r1) matrices flatten row-major into r vectors of
    r2 * r1 entries, and each node emits its own output duplicated in the
    order its parent pools them: a first child tiles its channels by its
    sibling's rank, a second child repeats each entry by its sibling's rank.
    The root keeps its single channel.  Layer widths are the squares of the
    generalized ones.  A node then holds its sibling's rank times its
    nonzeros; if they cannot be allocated, MemoryError names their bytes.
    """
    if net.form != "generalized":
        raise ValueError("network is already in diagonal form")
    blocks = net._blocks
    copies = {net.tree.root: (1, True)}  # each node's sibling's rank, and if it tiles
    for x in blocks:
        first, second = net.tree.children(x)
        if first in blocks:
            copies[first] = blocks[second].shape[0], True
            copies[second] = blocks[first].shape[0], False
    try:
        params = {x: _duplicated(blocks[x], *copies[x]) for x in blocks}
    except MemoryError:
        nbytes = 16 * sum(len(blocks[x].at) * times for x, (times, _) in copies.items())
        raise _too_large("the diagonal network's nonzeros", nbytes) from None
    return HTNetwork(
        net.n, "diagonal", [w * w for w in net.layer_widths], params, original_n=net.original_n
    )


def _duplicated(block: _Block, times: int, tiled: bool) -> _Block:
    """The block flattened to (rows, inputs), its rows tiled times over
    (copy t of row q is row t * rows + q) or each repeated times over (row
    q * times + t), with the positions sorted again."""
    inputs = math.prod(block.shape[1:])
    q, c = np.divmod(block.at, inputs)
    t = np.arange(times)[:, None]
    row = t * block.shape[0] + q if tiled else q * times + t
    at = (row * inputs + c).reshape(-1)
    order = np.argsort(at)
    values = np.tile(block.values, times)
    return _Block((times * block.shape[0], inputs), at[order], values[order])


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
        max_dev_tt_ht=_max_deviation(tt_vals, ht_vals),
        max_dev_f_tt=_max_deviation(tt_vals, truth),
        max_dev_f_ht=_max_deviation(ht_vals, truth),
    )


def save_ht(net: HTNetwork, path) -> None:
    """Write the network as a file of kind tree (see rankcore._save_network):
    each node's block at its own ranks as its nonzeros, with 17 significant
    digits, so every block, and so evaluation, round-trips bit-exactly."""
    _save_network(
        path, _layers(net.tree), net._blocks, "tree",
        net.n, net.original_n, net.form, net.layer_widths,
    )


def load_ht(path) -> HTNetwork:
    """Read a file written by save_ht; malformed content, including a
    missing, repeated or out-of-order node, raises ValueError naming the line."""
    n, original_n, form, widths, params = _load_network(
        path, "tree", lambda n: _layers(Tree(n)), lambda m: next_power_of_two(max(m, 2))
    )
    return HTNetwork(n, form, widths, params, original_n=original_n)
