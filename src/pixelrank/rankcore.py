"""Sparse unfoldings of a family's indicator function over pixel
bipartitions, exact matrix rank over the rationals, and the one network
type with its one build, evaluation, writer and reader: a dimension tree's
nested node bases, built leaves to root from the pivots of the integer
elimination, their depth-first contraction, and the one network file
format.  Trains (tt) and tree networks (ht) are this type on their own
trees.

A full unfolding of the indicator has a row per configuration of one pixel
set and a column per configuration of the complement.  Rows and columns of
configurations that never occur among members are zero, and occurring
configurations are pairwise distinct by construction, so compressing to the
occurring configurations, numbered in any order, preserves rank exactly.
unfold on a Bipartition is the one way to build an unfolding, numbered as
the members show their configurations: its constructors name the row cut,
the pixel prefix, the region against its complement and the pinned row.
A bipartition may also pin a third set, bipartition.fixed; unfold then
keeps only the members that show the pinned values there, which is how the
certificates pin a row to one of its configurations.  A pin finds those
members in the family's index of its members by their values on the
pinned set, one index per pinned set built on the set's first pin, so it
costs the members it keeps, not the family.  Every rank is the pivot count
of one exact elimination on the (row, column) pairs of a 0/1 matrix's 1s.

The network builders run the same elimination on each node's biadjacency
B and keep its pivots, rows I and columns J, so every node's rank, and
with it every width, is an integer count.  A build is one walk, leaves
to root, over the members' bit matrix packed eight pixels to a byte: a
node's configurations, and its complement's, are the packed rows with
the other pixels' bits cleared, which sort as the pixels' bytes do.
Each inner node's pivots are made, solved and let go before the next
node's; the widths-only walk (_plan) only counts them.  A node's basis
is interpolative, U = B[:, J] B[I, J]^-1, the identity on the rows I,
and its parameters are values of U read off the family: exact integers
whenever B[I, J]^-1 is integral.

Such a network is almost all zeros, so each node is held, evaluated and
written as its shape and its nonzeros' positions and values (_Block).
Evaluation walks the tree depth-first, so it holds one node output per
tree level, and runs one sparse kernel per node over the distinct pairs of
its children's outputs, in chunks of pairs x nonzeros, and never forms a
dense block.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .images import ImageFamily, Region

__all__ = [
    "Bipartition",
    "Unfolding",
    "unfold",
    "exact_rank",
]


@dataclass(frozen=True)
class Bipartition:
    """An ordered split of the n*n pixels into a left set, a right set and
    an optional pinned set; the three are disjoint and cover the grid."""

    n: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    fixed: tuple[int, ...] = ()

    def __post_init__(self):
        total = self.n * self.n
        for name, part in (("left", self.left), ("right", self.right), ("fixed", self.fixed)):
            if part and not (1 <= min(part) and max(part) <= total):
                raise ValueError(f"{name} pixel index out of range")
            if list(part) != sorted(part):
                raise ValueError(f"{name} pixels must be ascending")
        combined = set(self.left) | set(self.right) | set(self.fixed)
        if len(combined) != len(self.left) + len(self.right) + len(self.fixed):
            raise ValueError("pixel sets overlap")
        if combined != set(range(1, total + 1)):
            raise ValueError("pixel sets must cover the whole grid")

    @classmethod
    def from_region(cls, region: Region) -> "Bipartition":
        n = region.n
        inside = region.pixels()
        inset = set(inside)
        outside = tuple(k for k in range(1, n * n + 1) if k not in inset)
        return cls(n, inside, outside)

    @classmethod
    def row_prefix(cls, i: int, n: int) -> "Bipartition":
        return cls.from_region(Region.row_prefix(i, n))

    @classmethod
    def pixel_prefix(cls, k: int, n: int) -> "Bipartition":
        return cls.from_region(Region.pixel_prefix(k, n))

    @classmethod
    def fixed_row(cls, i: int, n: int) -> "Bipartition":
        """Rows above i on the left, rows below on the right, row i pinned."""
        if not 1 <= i <= n:
            raise ValueError(f"row {i} out of range for n={n}")
        left = tuple(range(1, (i - 1) * n + 1))
        fixed = tuple(range((i - 1) * n + 1, i * n + 1))
        right = tuple(range(i * n + 1, n * n + 1))
        return cls(n, left, right, fixed)


class Unfolding:
    """Compressed biadjacency of an indicator unfolding.

    left_configs / right_configs list the distinct occurring configurations
    in the order the members first show them; entries holds, in member
    order, one (row, col) pair per member whose pixels in bipartition.fixed
    read pinned (every member when nothing is pinned).
    """

    def __init__(self, bipartition, pinned, left_configs, right_configs, entries):
        self.bipartition = bipartition
        self.pinned = pinned
        self.left_configs = left_configs
        self.right_configs = right_configs
        self.entries = entries

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.left_configs), len(self.right_configs)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Unfolding(shape={self.shape}, nnz={self.nnz})"


def unfold(
    family: ImageFamily,
    bipartition: Bipartition,
    pinned: bytes | None = None,
) -> Unfolding:
    """Build the compressed unfolding of the family's indicator.

    pinned holds one 0 or 1 per pixel of bipartition.fixed, in its order,
    and is given exactly when that set is nonempty.  Members whose pinned
    pixels differ from it are excluded; each surviving member contributes
    exactly one unit entry.  The survivors are one group of the family's
    member index on the pinned set (_member_index), found by a dict lookup
    rather than a scan of every member.
    """
    if family.n != bipartition.n:
        raise ValueError("bipartition side does not match family side")
    if (pinned is None) != (not bipartition.fixed):
        raise ValueError("pinned values must be given exactly when the bipartition pins pixels")

    bits = family.bit_matrix()
    if pinned is not None:
        if len(pinned) != len(bipartition.fixed) or not set(pinned) <= {0, 1}:
            raise ValueError("pinned values must be one 0 or 1 per pinned pixel")
        groups, order, starts = _member_index(family, bipartition.fixed)
        g = groups.get(bytes(pinned))
        bits = bits[order[starts[g] : starts[g + 1]] if g is not None else order[:0]]
    left_keys = _configs(bits, bipartition.left).tolist()
    right_keys = _configs(bits, bipartition.right).tolist()
    lpos, rpos = {}, {}  # each side's configurations, numbered as first met
    entries = tuple([  # of a list: a third less time per member than a generator
        (lpos.setdefault(l, len(lpos)), rpos.setdefault(r, len(rpos)))
        for l, r in zip(left_keys, right_keys)
    ])
    if len(set(entries)) != len(entries):
        raise AssertionError("distinct members collided in the unfolding")
    return Unfolding(bipartition, pinned, tuple(lpos), tuple(rpos), entries)


def _member_index(family: ImageFamily, fixed: tuple[int, ...]) -> tuple:
    """The family's members grouped by their configuration on the pixel
    set fixed, (groups, order, starts): groups maps each occurring
    configuration, in ascending byte order, to its group g, whose members'
    rows of the bit matrix are order[starts[g]:starts[g + 1]], in member
    order.  The one place that finds a pinned set's configurations; the
    family keeps one such index per pinned set."""
    index = family._pin_index.get(fixed)
    if index is None:
        configs, ids = np.unique(_configs(family.bit_matrix(), fixed), return_inverse=True)
        starts = np.concatenate([[0], np.cumsum(np.bincount(ids, minlength=len(configs)))])
        order = np.argsort(ids, kind="stable").astype(np.int32)
        groups = dict(zip(configs.tolist(), range(len(configs))))
        index = family._pin_index[fixed] = (groups, order, starts)
    return index


def _configs(bits: np.ndarray, pixels: tuple[int, ...]) -> np.ndarray:
    """Each member's configuration on the given pixels as one numpy void
    value, which compares as its bytes and turns into bytes by tolist()."""
    if not pixels:
        return np.zeros(len(bits), dtype="V0")
    lo, hi = pixels[0] - 1, pixels[-1]
    if hi - lo == len(pixels):
        # Ascending distinct pixels spanning no more than their count: a
        # range, so a slice does the gather.
        cols = bits[:, lo:hi]
    else:
        cols = bits[:, np.array(pixels, dtype=np.intp) - 1]
    return np.ascontiguousarray(cols).view(f"V{len(pixels)}")[:, 0]


# ---------------------------------------------------------------------------
# Exact rank over the rationals.
#
# The matrices here are 0/1 and sparse, given by the (row, column) pairs
# of their 1s.  Before running dense fraction-free elimination we shrink
# one with three rank-preserving reductions on its rows' column sets:
# dropping duplicate rows/columns, and peeling rows or columns with a
# single 1 (whose Schur complement is just the submatrix, since the pivot
# row or column has no other entries).  Only the dense core holds numbers.


def exact_rank(unfolding: Unfolding) -> int:
    """Rank of the unfolding over the rationals, the pivot count of the
    elimination on its entries; no floating tolerance."""
    return len(_pivots(unfolding.entries))


def _pivots(entries) -> list[tuple[int, int]]:
    """The (row, column) pivots of one elimination over the rationals of
    the 0/1 matrix B whose 1s are at the (row, column) pairs of entries, in
    any order: with rows I and columns J, B[I, J] is nonsingular, and the
    pivots' count is the rank.  A singleton row's or column's entry is a
    pivot whose Schur complement is the rest; the dense core's pivots are
    Bareiss's.  Rows go in ascending id order, so the pivots depend on the
    set of entries only."""
    rows: dict[int, set[int]] = {}
    for i, c in entries:
        if i in rows:
            rows[i].add(c)
        else:
            rows[i] = {c}
    pivots: list[tuple[int, int]] = []
    # Every row in left is nonempty: a step that empties a row deletes it.
    left = {i: rows[i] for i in sorted(rows)}
    while left:
        progress = False

        # Duplicate rows are linearly dependent; keep the first of each.
        seen: set[frozenset] = set()
        for i in [*left]:
            key = frozenset(left[i])
            if key in seen:
                del left[i]
                progress = True
            else:
                seen.add(key)

        # Duplicate columns likewise; cols maps a column to its rows.
        cols: dict[int, list[int]] = {}
        for i, r in left.items():
            for c in r:
                if c in cols:
                    cols[c].append(i)
                else:
                    cols[c] = [i]
        seen_cols: set[tuple] = set()
        for c in sorted(cols):
            key = tuple(cols[c])
            if key in seen_cols:
                for i in cols.pop(c):
                    left[i].discard(c)
                progress = True
            else:
                seen_cols.add(key)

        # Rows with a single entry: the pivot eliminates only its column,
        # struck from the rows that hold it (no two share it: duplicates).
        singles = [(i, c) for i, r in left.items() if len(r) == 1 for c in r]
        if singles:
            pivots += singles
            for _, c in singles:
                for i in cols.pop(c):
                    if len(left[i]) == 1:
                        del left[i]
                    else:
                        left[i].discard(c)
            progress = True

        # Columns with a single entry: the pivot eliminates only its row.
        # After the duplicate-column pass no two columns share their rows
        # (the singles step takes whole columns), so no row has two such
        # columns, and column order within a row cannot change a pivot.
        drop = sorted((rs[0], c) for c, rs in cols.items() if len(rs) == 1)
        if drop:
            pivots += drop
            for i, _ in drop:
                del left[i]
            progress = True

        if not progress:
            break

    if left:
        ids = list(left)
        col_ids = sorted(set().union(*left.values()))
        pos = {c: j for j, c in enumerate(col_ids)}
        dense = [[0] * len(col_ids) for _ in ids]
        for row, r in zip(dense, left.values()):
            for c in r:
                row[pos[c]] = 1
        pivots.extend((ids[i], col_ids[j]) for i, j in _bareiss_pivots(dense))
    return pivots


def _bareiss_pivots(matrix: list[list[int]]) -> list[tuple[int, int]]:
    """Pivots, as (row, column) pairs, of one-step fraction-free elimination
    with row swaps; all divisions exact."""
    a = np.array(matrix, dtype=object)
    n_rows, n_cols = a.shape
    order = list(range(n_rows))
    pivots: list[tuple[int, int]] = []
    r = 0
    prev = 1
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if a[i, c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[[r, pivot_row]] = a[[pivot_row, r]]
            order[r], order[pivot_row] = order[pivot_row], order[r]
        pivot = a[r, c]
        if r + 1 < n_rows:
            block = a[r + 1 :, c:]
            a[r + 1 :, c:] = (pivot * block - np.outer(a[r + 1 :, c], a[r, c:])) // prev
        prev = pivot
        pivots.append((order[r], c))
        r += 1
        if r == n_rows:
            break
    return pivots


def _node_pivots(packed: np.ndarray, pixels: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """One node of a dimension tree: the pivots of the occupied
    configurations of the pixel set against its complement.

    packed is the members' bit matrix packed by np.packbits along its rows.
    B is the (d x d_c) 0/1 biadjacency of the d distinct member
    configurations on the pixels (sorted as bytes) against those on the
    complement.  Returns each member's configuration index, in the smallest
    unsigned dtype that holds d, the pivot rows I and B[:, J], a (d x r)
    uint8 array, the pivots (I[q], J[q]) of the integer elimination of B
    going in ascending column order and r being the rank of B.

    A configuration is a member's packed row with every bit off the pixel
    set cleared: the cleared bits are equal in every key, so the keys sort
    as the pixels' bytes would.  B is never formed.  The elimination takes
    the members' (configuration, complement configuration) id pairs as they
    are, over the lowest column of each set of equal columns only: dropping
    a column equal to a kept one is the elimination's own first step, so
    the pivots are those of B.  B[:, J] is set from the pairs in J.
    """
    inside = np.zeros(8 * packed.shape[1], dtype=bool)
    inside[np.array(pixels, dtype=np.intp) - 1] = True
    mask = np.packbits(inside)
    d, idx = _packed_ids(packed & mask)
    d_c, comp_idx = _packed_ids(packed & ~mask)
    # Each column's rows as packed bits; members are distinct (row, column)
    # pairs, so adding their bits sets them.
    width = d // 8 + 1
    column_bits = np.bincount(
        comp_idx * width + idx // 8, weights=1 << (7 - idx % 8), minlength=d_c * width
    )
    column_keys = column_bits.astype(np.uint8).reshape(d_c, width).view(f"V{width}")[:, 0]
    kept = np.zeros(d_c, dtype=bool)
    kept[np.unique(column_keys, return_index=True)[1]] = True
    on = kept[comp_idx]
    pairs = zip(idx[on].tolist(), comp_idx[on].tolist())
    pivots = np.array(sorted(_pivots(pairs), key=lambda ij: ij[1]), dtype=np.intp).reshape(-1, 2)
    col = np.full(d_c, -1)
    col[pivots[:, 1]] = np.arange(len(pivots))
    col = col[comp_idx]
    hit = col >= 0
    b = np.zeros((d, len(pivots)), dtype=np.uint8)
    b[idx[hit], col[hit]] = 1
    return idx.astype(np.min_scalar_type(d)), pivots[:, 0], b


def _packed_ids(keys: np.ndarray) -> tuple[int, np.ndarray]:
    """The number of distinct rows of a uint8 matrix and each row's index
    among them, sorted as bytes."""
    distinct, idx = np.unique(keys.view(f"V{keys.shape[1]}")[:, 0], return_inverse=True)
    return len(distinct), idx


# ---------------------------------------------------------------------------
# Dimension trees.  A train and a tree network are both given as bottom-up
# layers of nodes (key, pixels, first child, second child).  A leaf has no
# children and at most one pixel.  An inner node's q-th output is
# v @ M[q] @ u, with u and v its first and second child's outputs.


def _leaf(bits: np.ndarray, pixels: tuple[int, ...]) -> np.ndarray:
    """Each row's channel at a leaf, whose output is the identity over its
    channels: 0 for a black pixel and 1 for a white one, or the single
    channel 0 of the empty leaf."""
    if pixels:
        return 1 - bits[:, pixels[0] - 1].astype(np.intp)
    return np.zeros(len(bits), dtype=np.intp)


def _rank(packed: np.ndarray, pixels, first, number: int):
    """A node's rank and, for an inner node, its pivots (see _node_pivots):
    2 for a leaf, a channel per pixel value, or 1 for the empty leaf; for an
    inner node, its pivots' count, or 1, one zero channel, with no members.
    MemoryError in making the pivots names the tree layer, number."""
    if first is None:
        return (2 if pixels else 1), ()
    try:
        pivots = _node_pivots(packed, pixels)
    except MemoryError:
        raise _too_large(f"the node pivots of tree layer {number}") from None
    return max(len(pivots[1]), 1), pivots


def _too_large(what: str, nbytes: int | None = None) -> MemoryError:
    """The MemoryError of an allocation guard: what could not be allocated
    and, when known, its bytes."""
    size = "" if nbytes is None else f" {nbytes} bytes ({nbytes / (1 << 30):.2f} GiB),"
    return MemoryError(f"{what} take{size} more than can be allocated")


def _plan(bits: np.ndarray, layers) -> list[int]:
    """Every layer's width, its widest node's rank (see _rank), in the network
    of the indicator of the rows of bits; each node's pivots go once counted."""
    packed = np.packbits(bits, axis=1)
    return [
        max(_rank(packed, pixels, first, number)[0] for _, pixels, first, _ in layer)
        for number, layer in enumerate(layers, 1)
    ]


@dataclass(frozen=True, eq=False)
class _Block:
    """An inner node's block as held: its shape, the ascending row-major
    positions of its entries with a nonzero bit pattern, and their values.
    Networks hold every node so, built, loaded or diagonalized, and no
    dense block is made."""

    shape: tuple[int, ...]
    at: np.ndarray
    values: np.ndarray


def _nested_bases(bits: np.ndarray, layers):
    """Leaves-to-root build, one node at a time, of the network of the
    indicator of the rows of bits: each inner node outputs its interpolative
    basis (see _interpolate) on its configurations and 0 off them, so the
    root's one channel is the indicator.  Returns every layer's width and
    every inner node's block at its own ranks, (rank, second child's rank,
    first child's rank).  A node's pivots (see _rank) go once it is solved;
    a layer's blocks are made once its nonzeros are counted, or MemoryError
    names their bytes."""
    packed = np.packbits(bits, axis=1)
    ranks: dict = {}
    blocks: dict = {}
    live: dict = {}  # nodes whose parent is not built: config index, pivot places
    for number, layer in enumerate(layers, 1):
        solved = {}
        for key, pixels, first, second in layer:
            ranks[key], pivots = _rank(packed, pixels, first, number)
            if first is None:  # each channel is a configuration and a pivot
                live[key] = _leaf(bits, pixels), np.arange(ranks[key])
            else:
                shape = ranks[key], ranks[second], ranks[first]
                children = live.pop(first), live.pop(second)
                live[key], at, values = _interpolate(shape, *pivots, *children)
                solved[key] = shape, at, values
            del pivots  # one node's at a time
        try:
            for key, (shape, at, values) in solved.items():
                order = np.argsort(at)
                blocks[key] = _Block(shape, at[order], values[order])
        except MemoryError:
            nbytes = 16 * sum(len(at) for _, at, _ in solved.values())
            raise _too_large(f"the node nonzeros of tree layer {number}", nbytes) from None
    return [max(ranks[key] for key, *_ in layer) for layer in layers], blocks


def _interpolate(shape, idx, rows, b, first, second):
    """The nonzeros of a node's M of the given shape, (r, r2, r1), from its
    interpolative basis U = B[:, J] B[I, J]^-1, given idx, I as rows and
    B[:, J] as b (see _node_pivots) and the children's (config index, pivot
    place) pairs, a place being a configuration's position in I or -1.
    Returns the node's pair, and the nonzeros' row-major positions and
    values in no order.

    U[I] = Id, so every function in U's span is U times its values on I.
    Fixed off the node's pixels, the node's output lies in each child's
    span, so M[q, s, a] is U[c, q] at the configuration c whose parts are
    the first child's a-th pivot row and the second's s-th, or 0 where no
    member shows them.  Off I, U is solved in float64 at those c only, once
    per distinct row of b, and rounded only when the rounded rows satisfy
    U B[I, J] = B[:, J] exactly.
    """
    (idx1, place1), (idx2, place2) = first, second
    place = np.full(len(b), -1)
    place[rows] = np.arange(len(rows))
    a, s = np.empty((2, len(b)), dtype=np.intp)
    a[idx], s[idx] = place1[idx1], place2[idx2]
    on = np.flatnonzero((a >= 0) & (s >= 0))
    _, r2, r1 = shape
    cell = s[on] * r1 + a[on]  # (s, a)'s position in one channel's (r2, r1) slab
    q = place[on]
    pivot = q >= 0
    at, values = q[pivot] * (r2 * r1) + cell[pivot], np.ones(np.count_nonzero(pivot))
    if pivot.all():
        return (idx, place), at, values
    rest = b[on[~pivot]]
    distinct, inverse = np.unique(rest.view(f"V{len(rows)}")[:, 0], return_inverse=True)
    rhs = distinct.view(np.uint8).reshape(len(distinct), -1)
    core = b[rows]
    x = np.linalg.solve(core.T.astype(np.float64), rhs.T).T
    rounded = np.rint(x)
    if np.array_equal(rounded @ core, rhs):
        x = rounded
    # The nonzeros off I, found on a 0/1 mask no larger than b; -0.0 is a zero.
    row, col = np.nonzero((x != 0)[inverse])
    at = np.concatenate([at, col * (r2 * r1) + cell[~pivot][row]])
    values = np.concatenate([values, x[inverse[row], col]])
    return (idx, place), at, values


# ---------------------------------------------------------------------------
# Networks: one type for trains and tree networks alike, and its one
# evaluation.


@dataclass(repr=False, eq=False)
class _Network:
    """A network on a dimension tree: its side n, the side original_n of
    the family it was built for, its form ("generalized" or "diagonal"),
    every layer's width, the tree as bottom-up layers (see _eval_batch) and
    every inner node's block (see _Block), keyed as in the layers.

    A subclass names its file kind, a class attribute, and two static
    methods: _layers_of(n), the layers of side n (ValueError if there are
    none), and _side(original_n), the side an original_n pads to.
    """

    n: int
    original_n: int
    form: str
    widths: list
    layers: list
    blocks: dict

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, form={self.form}, widths={self.widths})"


def _eval(net: _Network, image) -> float:
    """Evaluate one image as a one-row batch."""
    if image.n != net.n:
        raise ValueError(f"image side {image.n} does not match {net.kind} side {net.n}")
    return float(_eval_batch(net, np.frombuffer(image.bits, dtype=np.uint8)[None])[0])


# Bytes of the (pairs x nonzeros) float arrays that one chunk of a node's
# pairs holds at once in _kernel: the product, and beside it the second
# child's gathered factor or the sums per channel, which are no larger.
_EVAL_BYTES = 64 << 20


def _eval_batch(net: _Network, bits: np.ndarray) -> np.ndarray:
    """The network's value on each row of bits, one image per row in flat
    pixel order, evaluated depth-first (see _depth_first), so at most one
    output per tree level is held at once.  Every node's output is a
    (table, index) pair: row i's output is table[index[i]], or exactly 0
    where index[i] is -1, and no row of the table is all zero.  A leaf's
    table is its identity over its live channels, indexed by the pixel.
    An inner node is bilinear in its children's outputs, so with finite
    parameters it outputs 0 (up to its sign) on every row where either is
    0; it is evaluated on the other rows only (see _inner).
    """
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != net.n * net.n:
        raise ValueError(f"bit matrix shape does not match the {net.kind}")
    plan = _live_nonzeros(net.layers, net.blocks, net.form == "diagonal")
    outs: dict = {}
    for key, pixels, first, second in _depth_first(net.layers):
        if first is None:
            outs[key] = _nonzero(plan.pop(key), _leaf(bits, pixels))
        else:  # the children's outputs go as soon as the node has run
            outs[key] = _nonzero(
                *_inner(outs.pop(first), outs.pop(second), plan.pop(key), second in net.blocks)
            )
    table, index = outs.pop(key)  # the last node is the root, with one live channel
    out = np.zeros(len(bits))
    live = index >= 0
    out[live] = table[index[live], 0]
    return out


def _depth_first(layers) -> list:
    """The nodes of bottom-up layers in evaluation order, the root last:
    children before their parent, each subtree finished before its
    sibling's, and a leaf just before its parent.  It is the reverse of a
    stack walk from the root that takes each node before its children."""
    nodes = [node for layer in layers for node in layer]
    by_key = {node[0]: node for node in nodes}
    order, stack = [], [nodes[-1]]  # the last node is the root
    while stack:
        order.append(stack.pop())
        _, _, first, second = order[-1]
        if first is not None:  # a leaf is pushed after an inner sibling
            first, second = by_key[first], by_key[second]
            swap = first[2] is None and second[2] is not None
            stack += (second, first) if swap else (first, second)
    return order[::-1]


def _inner(first, second, nonzeros, inner_second: bool):
    """An inner node's (table, index) from its children's (see _eval_batch)
    and its live nonzeros (see _live_nonzeros), evaluated once per distinct
    pair of its children's table rows among its live rows, or on every pair
    at once when there are no more pairs than such rows, in chunks of pairs
    whose two (pairs x nonzeros) arrays fit _EVAL_BYTES.  The pair of the
    first child's row i and the second's row j is j * len(t1) + i."""
    (t1, i1), (t2, i2) = first, second
    q, s, a, values, width = nonzeros
    live = np.flatnonzero((i1 >= 0) & (i2 >= 0))
    pair = i2[live] * len(t1) + i1[live]
    # An empty table leaves no live row and nothing to pair.
    if 0 < len(t1) * len(t2) <= len(live):
        pairs = np.arange(len(t1) * len(t2))
    else:
        pairs, pair = np.unique(pair, return_inverse=True)
    table = np.zeros((len(pairs), width))
    if inner_second:
        groups = [(t2, 0, len(pairs), np.arange(len(q)))]
    else:  # a leaf's table is an identity: the pairs with its row j, one
        # slice of the sorted pairs, read only the nonzeros with s = j, times 1
        ends = np.searchsorted(pairs, np.arange(len(t2) + 1) * len(t1))
        groups = [(None, ends[j], ends[j + 1], np.flatnonzero(s == j)) for j in range(len(t2))]
    for v, lo, hi, on in groups:
        starts = np.flatnonzero(np.diff(q[on], prepend=-1))  # each channel's run
        step = max(1, _EVAL_BYTES // (16 * max(len(on), 1)))
        for b in range(lo, hi if len(on) else lo, step):
            rows = np.arange(b, min(b + step, hi))
            g, f = np.divmod(pairs[rows], len(t1))
            sums = _kernel(t1, v, f, g, a[on], s[on], values[on], starts)
            table[np.ix_(rows, q[on][starts])] = sums
    index = np.full(len(i1), -1)
    index[live] = pair
    return table, index


def _live_nonzeros(layers, blocks: dict, diagonal: bool) -> dict:
    """Every node's live channels, top-down: the root's one channel, and a
    child's channels that a nonzero of its parent's live ones reads; any
    other channel only ever meets zero weights.  The nonzero at position p
    of a block is M[q, s, a], out[q] += M[q, s, a] u[a] v[s]: q and c are
    p's quotient and remainder by the block's row size, and (s, a) =
    divmod(c, r1), r1 the first child's rank, or s = a = c in the diagonal
    form above inner nodes.  Returns a leaf's identity over its live
    channels, and an inner node's live nonzeros as (q, s, a, values, live
    channel count), channels as their places among the live.
    """
    nodes = [node for layer in layers for node in layer]
    rank = {key: 2 if pixels else 1 for key, pixels, first, _ in nodes if first is None}
    rank.update((key, block.shape[0]) for key, block in blocks.items())
    plan = {}
    live = {nodes[-1][0]: np.zeros(1, dtype=np.intp)}  # the last node is the root
    for key, _, first, second in reversed(nodes):
        kept = live.pop(key)
        if first is None:
            plan[key] = np.eye(rank[key])[:, kept]
            continue
        block = blocks[key]
        q, c = np.divmod(block.at, math.prod(block.shape[1:]))
        s, a = (c, c) if diagonal and first in blocks else np.divmod(c, rank[first])
        # Channels are small ints: a mask and a bincount give np.isin's and
        # np.unique's answers without the sort that imports numpy.ma.
        on = np.zeros(rank[key], dtype=bool)
        on[kept] = True
        on = on[q]
        q, s, a = q[on], s[on], a[on]
        live[first] = np.flatnonzero(np.bincount(a))
        live[second] = np.flatnonzero(np.bincount(s))
        plan[key] = (
            np.searchsorted(kept, q), np.searchsorted(live[second], s),
            np.searchsorted(live[first], a), block.values[on], len(kept),
        )
    return plan


def _nonzero(table: np.ndarray, index: np.ndarray):
    """A (table, index) pair with the table's all-zero rows dropped; the
    rows that pointed at one now index -1."""
    kept = table.any(axis=1)
    if kept.all():
        return table, index
    place = np.where(kept, np.cumsum(kept) - 1, -1)
    return table[kept], np.where(index >= 0, place[index], -1)


def _kernel(t1, t2, first, second, a, s, values, starts) -> np.ndarray:
    """For each pair of rows u = t1[first[i]] and v = t2[second[i]], the
    sums of value * u[a] * v[s] over the nonzeros (a, s, value), one sum
    per run of nonzeros beginning at starts; v[s] is 1 when t2 is None."""
    w = t1[first[:, None], a]
    if t2 is not None:
        w *= t2[second[:, None], s]
    w *= values
    return np.add.reduceat(w, starts, axis=1) if len(starts) < len(values) else w


# ---------------------------------------------------------------------------
# Network files: one text format, and one writer and reader, for trains and
# tree networks alike.

_MAGIC = "pixelrank-network 3"


def _save_network(net: _Network, path) -> None:
    """Write a network as a version 3 file: a header (kind, sides, form and
    layer widths), then three lines per inner node in layer order.  The
    first is `node <key> shape <dims> nonzeros <k>`, the block being
    net.blocks[key] as held (see _Block): (r, r2, r1), or (rows, inputs)
    in the diagonal form.  The second holds the ascending row-major
    positions of its k entries with a nonzero bit pattern, and the third
    their values with 17 significant digits ("%.17g"), so every value,
    -0.0 too ("-0"), and so evaluation, reads back bit-exactly.

    A write that fails removes the partial file, which no reader would
    accept, and re-raises.
    """
    with open(path, "w", encoding="ascii") as fh:
        try:
            fh.write(f"{_MAGIC}\nkind={net.kind}\nn={net.n}\noriginal_n={net.original_n}\n")
            fh.write(f"form={net.form}\nwidths=" + " ".join(map(str, net.widths)) + "\n")
            for layer in net.layers:
                for key, _, first, _ in layer:
                    if first is not None:
                        b = net.blocks[key]
                        dims = " ".join(map(str, b.shape))
                        fh.write(f"node {key} shape {dims} nonzeros {len(b.at)}\n")
                        fh.write(" ".join(map(str, b.at.tolist())))
                        fh.write("\n" + " ".join(map("%.17g".__mod__, b.values.tolist())) + "\n")
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def _load_network(path, cls):
    """Read a version 3 file of cls's kind (see _save_network) and return
    the cls network it holds.

    A leaf's rank is 2, or 1 for the empty leaf, and an inner node's is its
    block's first axis, at most its layer's width (1 at the root).  A
    generalized block is (rank, second child's rank, first child's rank); a
    diagonal one (rank, inputs), the inputs being the leaves' rank product
    above leaves and otherwise the rank both children share.  A block holds
    the listed values whose bits are nonzero, so a listed +0.0 is dropped.
    Malformed content, an earlier version included, raises ValueError
    naming the line.
    """
    reader = LineReader(path)
    magic = reader.next(repr(_MAGIC))
    old = {"pixelrank-tt 1": 1, "pixelrank-ht 1": 1, "pixelrank-network 2": 2}.get(magic)
    if old:
        raise reader.error(f"a version {old} network file; write it again to read it")
    if magic != _MAGIC:
        raise reader.error("not a network file")
    found = reader.field("kind")
    if found != cls.kind:
        raise reader.error(f"a {found[:40]!r} file, expected a {cls.kind}")
    (n,) = reader.ints("n", 1)
    # Each of the at least n*n - 1 inner nodes takes three lines, so a file
    # too short for its n fails here rather than after the tree is built.
    if reader.left() < 3 * (n * n - 1):
        raise reader.error(f"file too short for n={n}")
    try:
        layers = cls._layers_of(n)
    except ValueError as exc:
        raise reader.error(str(exc)) from None
    (original_n,) = reader.ints("original_n", 1)
    if cls._side(original_n) != n:
        raise reader.error(f"original_n={original_n} does not pad to n={n}")
    form = reader.field("form")
    if form not in ("generalized", "diagonal") or (form == "diagonal" and cls.kind == "train"):
        raise reader.error(f"unknown form {form[:40]!r}")
    diagonal = form == "diagonal"
    widths = reader.ints("widths", len(layers))
    if widths[-1] != 1:
        raise reader.error(f"root width must be 1, got {widths[-1]}")
    ranks: dict = {}
    blocks: dict = {}
    for layer, width in zip(layers, widths):
        for key, pixels, first, second in layer:
            if first is None:
                ranks[key] = 2 if pixels else 1
                leaf = ranks[key] ** (2 if diagonal else 1)
                if width != leaf:
                    raise reader.error(f"leaf width must be {leaf}, got {width}")
                continue
            if not diagonal:
                want = [ranks[second], ranks[first]]
            elif first not in blocks:  # the children are leaves
                want = [ranks[second] * ranks[first]]
            else:  # both children emit the same pooled channels
                want = [ranks[first]] if ranks[first] == ranks[second] else None
            head = f"node {key} shape"
            line = reader.next(repr(head))
            if not line.startswith(head + " "):
                raise reader.error(f"expected {head!r}, got {line[:40]!r}")
            dims, found, count = line[len(head) + 1 :].rpartition(" nonzeros ")
            if not found:
                raise reader.error(f"node {key}: no nonzeros count")
            shape = reader.ints(head, 2 if diagonal else 3, dims)
            if shape[1:] != want:
                seen = ranks[second], ranks[first]
                raise reader.error(
                    f"node {key}: shape {tuple(shape)} does not fit its children's ranks {seen}"
                )
            if shape[0] > width:
                raise reader.error(f"node {key}: rank {shape[0]} above the layer width {width}")
            if not count.isdigit():
                raise reader.error(f"node {key}: bad nonzeros count {count[:40]!r}")
            ranks[key] = shape[0]
            at = reader.positions(int(count), math.prod(shape), f"node {key}")
            values = reader.floats(len(at), f"node {key}")
            kept = values.view(np.uint64) != 0
            blocks[key] = _Block(tuple(shape), at[kept], values[kept])
    reader.finish()
    return cls(n, original_n, form, widths, layers, blocks)


class LineReader:
    """Walks the lines of a network file in order; every error it raises
    is a ValueError that names the 1-based line at fault.  Line 1 is read
    alone, and at most 64 bytes of it (every magic line fits), so a file
    that is not a network file fails there unread."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            first = fh.readline(64)
            self._rest = fh.tell() if first.endswith(b"\n") else None  # else no magic
        self._path, self._lines, self.lineno = path, first.splitlines(), 0

    def error(self, message: str) -> ValueError:
        return ValueError(f"line {self.lineno}: {message}")

    def left(self) -> int:
        """Lines not read yet, once the rest of the file is read."""
        if self._rest is not None:
            with open(self._path, "rb") as fh:
                fh.seek(self._rest)
                self._lines += fh.read().splitlines()
            self._rest = None
        return len(self._lines) - self.lineno

    def next(self, expecting: str) -> str:
        self.lineno += 1
        if self.lineno > len(self._lines) and self.left() < 0:
            raise self.error(f"file ends early, expected {expecting}")
        try:
            return self._lines[self.lineno - 1].decode("ascii")
        except UnicodeDecodeError:
            raise self.error("non-ASCII byte") from None

    def field(self, key: str) -> str:
        """The value of a `key=value` line."""
        line = self.next(f"{key}=")
        if not line.startswith(key + "="):
            raise self.error(f"expected {key}=, got {line[:40]!r}")
        return line[len(key) + 1 :]

    def ints(self, key: str, count: int, text: str | None = None) -> list[int]:
        """count positive integers: the value of a `key=` line, or text."""
        if text is None:
            text = self.field(key)
        try:
            vals = [int(tok) for tok in text.split()]
        except ValueError:
            raise self.error(f"bad {key} value {text[:40]!r}") from None
        if len(vals) != count:
            raise self.error(f"expected {count} {key} values, got {len(vals)}")
        if any(v < 1 for v in vals):
            raise self.error(f"{key} values must be positive")
        return vals

    def positions(self, count: int, size: int, what: str) -> np.ndarray:
        """A line of exactly count integers, strictly ascending in [0, size)."""
        tokens = self.next(what).split()
        if len(tokens) != count:
            raise self.error(f"{what}: expected {count} positions, got {len(tokens)}")
        try:
            at = np.array(tokens, dtype=np.int64)
        except (ValueError, OverflowError):
            raise self.error(f"{what}: bad position") from None
        outside = (at < 0) | (at >= size)
        if outside.any():
            bad = at[np.argmax(outside)]
            raise self.error(f"{what}: position {bad} outside the block of {size} values")
        back = np.diff(at) <= 0
        if back.any():
            i = np.argmax(back)
            raise self.error(f"{what}: positions not ascending, {at[i + 1]} after {at[i]}")
        return at

    def floats(self, count: int, what: str) -> np.ndarray:
        """A line of exactly count finite numbers: an exact network has no
        nan or inf, and evaluation relies on 0 * x being 0."""
        tokens = self.next(what).split()
        if len(tokens) != count:
            raise self.error(f"{what}: expected {count} values, got {len(tokens)}")
        try:
            vals = np.array(tokens, dtype=np.float64)
        except ValueError:
            raise self.error(f"{what}: bad number") from None
        finite = np.isfinite(vals)
        if not finite.all():
            bad = tokens[int(np.argmin(finite))]
            raise self.error(f"{what}: non-finite number {bad[:40]!r}")
        return vals

    def finish(self) -> None:
        if self.lineno < len(self._lines):
            self.lineno += 1
            raise self.error("unexpected content after the last block")
