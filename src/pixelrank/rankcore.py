"""Sparse unfoldings of a family's indicator function over pixel
bipartitions, exact matrix rank over the rationals, and the one build and
one evaluation of the networks: a dimension tree's nested SVD bases, built
leaves to root, and its bottom-up contraction.  Trains (tt) and tree
networks (ht) call both on their own trees.

A full unfolding of the indicator has a row per configuration of one pixel
set and a column per configuration of the complement.  Rows and columns of
configurations that never occur among members are zero, and occurring
configurations are pairwise distinct by construction, so compressing to the
occurring configurations preserves rank exactly.  All rank certificates run
on the compressed biadjacency matrix with integer arithmetic; floating SVD
is used only where the network builders need explicit bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .images import ImageFamily, Region

__all__ = [
    "Bipartition",
    "FixedRowConstraint",
    "Unfolding",
    "unfold",
    "exact_rank",
    "fixed_row_unfolding",
    "row_prefix_unfolding",
    "pixel_prefix_unfolding",
    "region_unfolding",
]


@dataclass(frozen=True)
class FixedRowConstraint:
    """Pin row i of the image to the configuration y (n pixel values)."""

    i: int
    y: bytes

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.y):
            raise ValueError("row configuration values must be 0 or 1")

    @classmethod
    def from_text(cls, i: int, text: str) -> "FixedRowConstraint":
        return cls(i, bytes(int(c) for c in text))


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
    (lexicographically sorted); entries holds one (row, col) pair per member
    compatible with the constraint.
    """

    def __init__(self, bipartition, constraint, left_configs, right_configs, entries):
        self.bipartition = bipartition
        self.constraint = constraint
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
    constraint: FixedRowConstraint | None = None,
) -> Unfolding:
    """Build the compressed unfolding of the family's indicator.

    Members whose pinned row differs from the constraint are excluded; each
    surviving member contributes exactly one unit entry.
    """
    if family.n != bipartition.n:
        raise ValueError("bipartition side does not match family side")
    if constraint is not None:
        if len(constraint.y) != family.n:
            raise ValueError("constraint row length does not match family side")
        row_pixels = tuple(
            range((constraint.i - 1) * family.n + 1, constraint.i * family.n + 1)
        )
        if bipartition.fixed != row_pixels:
            raise ValueError("bipartition's pinned pixels must be the constrained row")
    elif bipartition.fixed:
        raise ValueError("bipartition pins pixels but no constraint was given")

    bits = family.bit_matrix()
    if constraint is not None:
        bits = bits[_configs(bits, bipartition.fixed) == np.void(constraint.y)]
    left_keys = _configs(bits, bipartition.left).tolist()
    right_keys = _configs(bits, bipartition.right).tolist()

    left_configs = tuple(sorted(set(left_keys)))
    right_configs = tuple(sorted(set(right_keys)))
    lpos = {cfg: p for p, cfg in enumerate(left_configs)}
    rpos = {cfg: q for q, cfg in enumerate(right_configs)}
    entries = tuple(sorted((lpos[l], rpos[r]) for l, r in zip(left_keys, right_keys)))
    if len(set(entries)) != len(entries):
        raise AssertionError("distinct members collided in the unfolding")
    return Unfolding(bipartition, constraint, left_configs, right_configs, entries)


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


def fixed_row_unfolding(family: ImageFamily, i: int, y) -> Unfolding:
    """Unfolding with row i pinned to y: rows above against rows below."""
    if isinstance(y, str):
        y = bytes(int(c) for c in y)
    return unfold(
        family,
        Bipartition.fixed_row(i, family.n),
        FixedRowConstraint(i, bytes(y)),
    )


def row_prefix_unfolding(family: ImageFamily, i: int) -> Unfolding:
    """Unfolding at the cut between rows i and i+1."""
    return unfold(family, Bipartition.row_prefix(i, family.n))


def pixel_prefix_unfolding(family: ImageFamily, k: int) -> Unfolding:
    """Unfolding at the cut after the first k pixels in flat order."""
    return unfold(family, Bipartition.pixel_prefix(k, family.n))


def region_unfolding(family: ImageFamily, region: Region) -> Unfolding:
    """Unfolding of a region against its complement."""
    return unfold(family, Bipartition.from_region(region))


# ---------------------------------------------------------------------------
# Exact rank over the rationals.
#
# The biadjacency matrices here are 0/1 and sparse, so before running dense
# fraction-free elimination we shrink the matrix with three rank-preserving
# reductions: dropping duplicate rows/columns, and peeling rows or columns
# with a single nonzero entry (whose Schur complement is just the submatrix,
# since the pivot row or column has no other entries).


def exact_rank(unfolding: Unfolding) -> int:
    """Rank of the unfolding over the rationals; no floating tolerance."""
    rows: dict[int, dict[int, int]] = {}
    for p, q in unfolding.entries:
        rows.setdefault(p, {})[q] = 1
    return _integer_rank(list(rows.values()))


def _integer_rank(rows: list[dict[int, int]]) -> int:
    rank = 0
    rows = [dict(r) for r in rows if r]
    while rows:
        progress = False

        # Duplicate rows are linearly dependent; keep the first of each.
        seen: set[tuple] = set()
        kept = []
        for r in rows:
            key = tuple(sorted(r.items()))
            if key in seen:
                progress = True
            else:
                seen.add(key)
                kept.append(r)
        rows = kept

        # Duplicate columns likewise.
        cols: dict[int, list[tuple[int, int]]] = {}
        for ri, r in enumerate(rows):
            for c, v in r.items():
                cols.setdefault(c, []).append((ri, v))
        seen_cols: dict[tuple, int] = {}
        for c, pattern in sorted(cols.items()):
            key = tuple(pattern)
            if key in seen_cols:
                for ri, _ in pattern:
                    del rows[ri][c]
                progress = True
            else:
                seen_cols[key] = c
        rows = [r for r in rows if r]

        # Rows with a single entry: the pivot eliminates only its column.
        singles = [r for r in rows if len(r) == 1]
        if singles:
            pivot_cols = {next(iter(r)) for r in singles}
            rank += len(pivot_cols)
            survivors = []
            for r in rows:
                if len(r) == 1 and next(iter(r)) in pivot_cols:
                    continue
                for c in pivot_cols:
                    r.pop(c, None)
                if r:
                    survivors.append(r)
            rows = survivors
            progress = True

        # Columns with a single entry: the pivot eliminates only its row.
        col_count: dict[int, int] = {}
        col_row: dict[int, int] = {}
        for ri, r in enumerate(rows):
            for c in r:
                col_count[c] = col_count.get(c, 0) + 1
                col_row[c] = ri
        single_rows = sorted({col_row[c] for c, cnt in col_count.items() if cnt == 1})
        if single_rows:
            rank += len(single_rows)
            drop = set(single_rows)
            rows = [r for ri, r in enumerate(rows) if ri not in drop]
            progress = True

        if not progress:
            break

    if rows:
        col_ids = sorted({c for r in rows for c in r})
        pos = {c: j for j, c in enumerate(col_ids)}
        dense = [[0] * len(col_ids) for _ in rows]
        for ri, r in enumerate(rows):
            for c, v in r.items():
                dense[ri][pos[c]] = v
        rank += _bareiss_rank(dense)
    return rank


def _bareiss_rank(matrix: list[list[int]]) -> int:
    """Rank by one-step fraction-free elimination; all divisions exact."""
    a = np.array(matrix, dtype=object)
    n_rows, n_cols = a.shape
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
        pivot = a[r, c]
        if r + 1 < n_rows:
            block = a[r + 1 :, c:]
            a[r + 1 :, c:] = (pivot * block - np.outer(a[r + 1 :, c], a[r, c:])) // prev
        prev = pivot
        r += 1
        if r == n_rows:
            break
    return r


def svd(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD, u @ diag(s) @ vt == mat.

    LAPACK's gesdd, behind np.linalg.svd, can fail to converge on finite
    matrices (seen on a 225 x 126 train core with one BLAS thread); the
    transpose then usually converges, and its factors swap back.
    """
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        u, s, vt = np.linalg.svd(mat.T, full_matrices=False)
        return vt.T, s, u.T


def _node_basis(
    bits: np.ndarray, pixels: tuple[int, ...], tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """One node of a dimension tree: an orthonormal basis of the occupied
    configurations of the pixel set against its complement.

    Returns the basis as an (r x d) array over the d distinct member
    configurations on the pixels (sorted as bytes) and each member's
    configuration index.  r counts the singular values of the (d x d_c)
    biadjacency above tol times the largest, and is at least 1.  When the
    pixels cover the grid the basis is the all-ones row: the indicator
    itself, not a normalized basis of it.  With no members the basis is
    one zero channel over no configurations, (1 x 0).
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    configs, idx = np.unique(_configs(bits, pixels), return_inverse=True)
    d = len(configs)
    if len(pixels) == bits.shape[1]:
        return np.ones((1, d)), idx
    if not d:
        return np.zeros((1, 0)), idx
    inside = set(pixels)
    comp = tuple(p for p in range(1, bits.shape[1] + 1) if p not in inside)
    _, comp_idx = np.unique(_configs(bits, comp), return_inverse=True)
    biadj = np.zeros((d, int(comp_idx.max()) + 1))
    biadj[idx, comp_idx] = 1.0
    u, s, _ = svd(biadj)
    r = max(int(np.count_nonzero(s > tol * s[0])), 1)
    return u[:, :r].T, idx


# ---------------------------------------------------------------------------
# Dimension trees.  A train and a tree network are both given as bottom-up
# layers of nodes (key, pixels, first child, second child).  A leaf has no
# children and at most one pixel.  An inner node's q-th output is
# v @ M[q] @ u, with u and v its first and second child's outputs.


def _leaf(bits: np.ndarray, pixels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A leaf's basis, the identity over its channels, and each row's
    channel: 0 for a black pixel and 1 for a white one, or the single
    channel 0 of the empty leaf."""
    if pixels:
        return np.eye(2), 1 - bits[:, pixels[0] - 1].astype(np.intp)
    return np.eye(1), np.zeros(len(bits), dtype=np.intp)


def _nested_bases(bits: np.ndarray, layers, tol: float):
    """Leaves-to-root build (the hierarchical SVD) of the network of the
    indicator of the rows of bits.

    Each inner node takes _node_basis of its pixels and writes it in its
    children's bases: M[q, s, t] sums basis[q, c] * phi2[s, c2] * phi1[t, c1]
    over the node's configurations c, with c1 and c2 the children's parts of
    c.  Returns every node's rank, every layer's width (its widest node) and
    every inner node's M, zero-padded to shape (width, second child's layer
    width, first child's layer width).
    """
    ranks: dict = {}
    widths: list[int] = []
    mats: dict = {}
    live: dict = {}  # nodes whose parent is not built: basis, config index, layer width
    for layer in layers:
        built = {
            key: _leaf(bits, pixels) if first is None else _node_basis(bits, pixels, tol)
            for key, pixels, first, _ in layer
        }
        width = max(len(basis) for basis, _ in built.values())
        widths.append(width)
        for key, _, first, second in layer:
            basis, idx = built[key]
            ranks[key] = len(basis)
            if first is not None:
                (phi1, idx1, w1), (phi2, idx2, w2) = live.pop(first), live.pop(second)
                c1, c2 = np.empty((2, basis.shape[1]), dtype=np.intp)
                c1[idx], c2[idx] = idx1, idx2
                x = phi1.T[c1]
                mats[key] = np.zeros((width, w2, w1))
                for s, y in enumerate(phi2[:, c2]):
                    # Zeros skipped: a pixel leaf's channel is one on half the c.
                    nz = np.flatnonzero(y)
                    mats[key][: len(basis), s, : len(phi1)] = (basis[:, nz] * y[nz]) @ x[nz]
            live[key] = basis, idx, width
    return ranks, widths, mats


# Bytes of the largest array (a pooled product, a table or a node output)
# that one chunk of rows builds in _contract.
_EVAL_BYTES = 64 << 20


def _contract(bits: np.ndarray, layers, params: dict, diagonal: bool = False) -> np.ndarray:
    """Bottom-up evaluation of a network on the rows of bits; returns the
    root's output, one row per image.

    params[key] is an inner node's M, in any shape that reshapes to (width,
    second child's width, first child's width).  In the diagonal form a node
    whose children are inner nodes outputs params[key] @ (u * v) instead,
    its children's outputs being duplicated to match.

    Evaluation runs over live channels only (see _live_params): channels
    that are zero on every input, or that no nonzero weight above reads,
    are sliced away once per call, so the zero padding of layers wider than
    a node costs nothing.  The rows go in chunks so that no array of a
    chunk exceeds _EVAL_BYTES.
    """
    plan = _live_params(layers, params, diagonal)
    widest = max(_row_floats(m) for m in plan.values())
    rows = max(1, _EVAL_BYTES // (8 * widest))
    chunks = [bits[a : a + rows] for a in range(0, max(len(bits), 1), rows)]
    return np.concatenate([_contract_rows(c, layers, plan) for c in chunks])


def _live_params(layers, params: dict, diagonal: bool) -> dict:
    """Every node's parameters sliced to its live channels.

    Bottom-up, a node's output channel is live when it has a nonzero
    weight on its children's live channels (a leaf's are all live); the
    others are exactly zero on every input.  Top-down, a child keeps the
    live channels that some nonzero weight of its parent's kept channels
    reads; the root keeps its one channel.  A dropped channel only ever
    meets zero weights or zero values, so with finite parameters slicing it
    away changes no value, up to summation order.

    Returns, for a leaf, its identity table's kept columns; for an inner
    node, its M sliced to (kept, second child's kept, first child's kept),
    or in the diagonal form above the leaves its matrix sliced to (kept,
    kept input channels), those being the same for both children.
    """
    nodes = [node for layer in layers for node in layer]
    width, live, mats, nonzero, inputs = {}, {}, {}, {}, {}
    for key, pixels, first, second in nodes:
        if first is None:
            width[key] = 2 if pixels else 1
            live[key] = np.ones(width[key], dtype=bool)
            continue
        p = params[key]
        width[key] = len(p)
        if diagonal and first in mats:
            m = p.reshape(len(p), -1)
            inputs[key] = live[first] & live[second]
        else:
            m = p.reshape(len(p), width[second], width[first])
            inputs[key] = np.outer(live[second], live[first])
        mats[key], nonzero[key] = m, m != 0
        live[key] = (nonzero[key] & inputs[key]).any(axis=tuple(range(1, m.ndim)))
    plan = {}
    keep = {nodes[-1][0]: np.ones(1, dtype=bool)}  # the last node is the root
    for key, _, first, second in reversed(nodes):
        kept = keep.pop(key)
        if first is None:
            plan[key] = np.eye(width[key])[:, kept]
            continue
        read = _take(nonzero[key], kept).any(axis=0) & inputs[key]
        if read.ndim == 1:
            keep[first] = keep[second] = read
            plan[key] = _take(mats[key], kept, read)
        else:
            keep[second], keep[first] = read.any(axis=1), read.any(axis=0)
            plan[key] = _take(mats[key], kept, keep[second], keep[first])
    return plan


def _take(m: np.ndarray, *masks) -> np.ndarray:
    """m's entries where each leading axis's mask is True, without a copy
    along axes that keep everything."""
    for axis, mask in enumerate(masks):
        if not mask.all():
            m = m[(slice(None),) * axis + (np.flatnonzero(mask),)]
    return m


def _row_floats(m: np.ndarray) -> int:
    """Floats per row of the widest array _node builds with m, at least 1."""
    if m.ndim == 2:
        return max(*m.shape, 1)
    r, r2, r1 = m.shape
    return max(r, r1, r2 * min(r, r1), 1)


def _contract_rows(bits: np.ndarray, layers, plan: dict) -> np.ndarray:
    """_contract on one chunk of rows.

    Each node's output is a (table, index) pair, row i of the output being
    table[index[i]], or a plain array with index None.  A leaf's table is
    its identity over the kept channels, indexed by the pixel.  While a
    node's children have no more pairs of table rows than there are rows,
    the node is evaluated once per pair; above that the tables are
    gathered to rows.
    """
    n = len(bits)
    leaves = set()
    outs: dict = {}
    for layer in layers:
        for key, pixels, first, second in layer:
            if first is None:
                leaves.add(key)
                outs[key] = plan[key], _leaf(bits, pixels)[1]
                continue
            m = plan[key]
            (t1, i1), (t2, i2) = outs.pop(first), outs.pop(second)
            if i1 is not None and i2 is not None and len(t1) * len(t2) <= n:
                outs[key] = _node(m, t1, t2, outer=True), i1 * len(t2) + i2
                continue
            u = t1 if i1 is None else t1[i1]
            if second in leaves and m.ndim == 3:
                # A leaf second input: each row takes its pixel's channel's
                # slice, or none if that channel was dropped.
                out = np.zeros((n, len(m)))
                for s in range(m.shape[1]):
                    rows = t2[i2, s] != 0
                    out[rows] = u[rows] @ m[:, s].T
            else:
                out = _node(m, u, t2 if i2 is None else t2[i2], outer=False)
            outs[key] = out, None
    table, index = outs[key]  # the last node is the root
    return table if index is None else table[index]


def _node(m: np.ndarray, u: np.ndarray, v: np.ndarray, outer: bool) -> np.ndarray:
    """A node's output on its children's outputs u (first) and v (second),
    paired row by row; with outer, on every pair of a row of u and a row of
    v, the pair (a, b) in row a * len(v) + b.

    m is (r, r2, r1), out[q] = v @ m[q] @ u, or in the diagonal form (r, c),
    out = m @ (u * v).  Paired, u goes into m first when r < r1, which never
    builds the pooled (rows x r2*r1) product of v and u; on every pair,
    each row of v goes into m first, and one product with u gives them all.
    """
    rows = len(u) * len(v) if outer else len(u)
    if m.ndim == 2:
        x = u[:, None, :] * v[None, :, :] if outer else u * v
        return x.reshape(rows, m.shape[1]) @ m.T
    r, r2, r1 = m.shape
    if outer:
        w = np.tensordot(v, m, axes=(1, 1))  # (len(v), r, r1)
        return (u @ w.reshape(len(v) * r, r1).T).reshape(rows, r)
    if r < r1:
        a = u @ m.transpose(2, 0, 1).reshape(r1, r * r2)
        return (a.reshape(rows, r, r2) @ v[:, :, None])[:, :, 0]
    pooled = (v[:, :, None] * u[:, None, :]).reshape(rows, r2 * r1)
    return pooled @ m.reshape(r, r2 * r1).T
