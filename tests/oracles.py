"""Test oracles: independent, brute-force counterparts of the library's
compressed routes, valid only on tiny inputs."""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np

from pixelrank.ht import Tree, TreeIndex, _padded
from pixelrank.images import ImageFamily, flat_index, random_probes
from pixelrank.rankcore import (
    Bipartition,
    Unfolding,
    _bareiss_pivots,
    _Block,
    _configs,
    _leaf,
    _pivots,
    exact_rank,
    unfold,
)
from pixelrank.tt import TensorTrain

DENSE_ORACLE_MAX_SIDE = 12


def integer_matrix_rank(matrix) -> int:
    """Exact rank of an integer matrix by fraction-free elimination alone,
    without the library's peel (utility for cross-checks)."""
    mat = np.asarray(matrix, dtype=object)
    return len(_bareiss_pivots(mat.tolist())) if mat.size else 0


def pivots(matrix) -> list[tuple[int, int]]:
    """The (row, column) pivots the library's integer elimination picks for
    a 0/1 matrix."""
    mat = np.asarray(matrix)
    if not np.isin(mat, (0, 1)).all():
        raise ValueError("the elimination takes 0/1 matrices only")
    return _pivots(zip(*np.nonzero(mat)))


def pivots_valued(rows: list[dict[int, int]]) -> list[tuple[int, int]]:
    """The (row, column) pivots of the elimination as it was when it
    carried each entry's value, the reference for the library's peel on
    pairs: row i of the matrix has the nonzero entries rows[i]."""
    pivots: list[tuple[int, int]] = []
    left = dict(enumerate(map(dict, rows)))
    while left := {i: r for i, r in left.items() if r}:
        progress = False

        # Duplicate rows are linearly dependent; keep the first of each.
        seen: set[tuple] = set()
        for i, r in list(left.items()):
            key = tuple(sorted(r.items()))
            if key in seen:
                del left[i]
                progress = True
            else:
                seen.add(key)

        # Duplicate columns likewise.
        cols: dict[int, list[tuple[int, int]]] = {}
        for i, r in left.items():
            for c, v in r.items():
                cols.setdefault(c, []).append((i, v))
        seen_cols: set[tuple] = set()
        for c, pattern in sorted(cols.items()):
            key = tuple(pattern)
            if key in seen_cols:
                for i, _ in pattern:
                    del left[i][c]
                progress = True
            else:
                seen_cols.add(key)

        # Rows with a single entry: the pivot eliminates only its column,
        # and any such row of that column is the pivot's.
        singles = {next(iter(r)): i for i, r in left.items() if len(r) == 1}
        if singles:
            pivots.extend((i, c) for c, i in singles.items())
            left = {i: {c: v for c, v in r.items() if c not in singles} for i, r in left.items()}
            progress = True

        # Columns with a single entry: the pivot eliminates only its row,
        # and one such column per row is that pivot's.
        col_count: dict[int, int] = {}
        col_row: dict[int, int] = {}
        for i, r in left.items():
            for c in r:
                col_count[c] = col_count.get(c, 0) + 1
                col_row[c] = i
        drop: dict[int, int] = {}
        for c, cnt in col_count.items():
            if cnt == 1:
                drop.setdefault(col_row[c], c)
        if drop:
            pivots.extend(drop.items())
            left = {i: r for i, r in left.items() if i not in drop}
            progress = True

        if not progress:
            break

    if left:
        ids = list(left)
        col_ids = sorted({c for r in left.values() for c in r})
        pos = {c: j for j, c in enumerate(col_ids)}
        dense = [[0] * len(col_ids) for _ in ids]
        for row, r in zip(dense, left.values()):
            for c, v in r.items():
                row[pos[c]] = v
        pivots.extend((ids[i], col_ids[j]) for i, j in _bareiss_pivots(dense))
    return pivots


def pivots_by_rounds(entries) -> list[tuple[int, int]]:
    """The library's peel as it was written round by round, the reference
    for its leaner form: every round rebuilds each row's column set,
    counts every entry to find single-entry columns, and drops emptied
    rows at the start of the next round."""
    rows: dict[int, set[int]] = {}
    for i, c in entries:
        rows.setdefault(i, set()).add(c)
    pivots: list[tuple[int, int]] = []
    left = {i: rows[i] for i in sorted(rows)}
    while left := {i: r for i, r in left.items() if r}:
        progress = False

        # Duplicate rows are linearly dependent; keep the first of each.
        seen: set[frozenset] = set()
        for i, r in list(left.items()):
            key = frozenset(r)
            if key in seen:
                del left[i]
                progress = True
            else:
                seen.add(key)

        # Duplicate columns likewise.
        cols: dict[int, list[int]] = {}
        for i, r in left.items():
            for c in r:
                cols.setdefault(c, []).append(i)
        seen_cols: set[tuple] = set()
        for c, pattern in sorted(cols.items()):
            key = tuple(pattern)
            if key in seen_cols:
                for i in pattern:
                    left[i].discard(c)
                progress = True
            else:
                seen_cols.add(key)

        # Rows with a single entry: the pivot eliminates only its column,
        # and any such row of that column is the pivot's.
        singles = {next(iter(r)): i for i, r in left.items() if len(r) == 1}
        if singles:
            pivots.extend((i, c) for c, i in singles.items())
            left = {i: r.difference(singles) for i, r in left.items()}
            progress = True

        # Columns with a single entry: the pivot eliminates only its row.
        count = Counter(c for r in left.values() for c in r)
        drop = {i: c for i, r in left.items() for c in r if count[c] == 1}
        if drop:
            pivots.extend(drop.items())
            left = {i: r for i, r in left.items() if i not in drop}
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


def pivot_columns(matrix) -> list[int]:
    """The pivot columns the library's integer elimination picks for an
    integer matrix."""
    return [j for _, j in pivots(matrix)]


def configuration_ids(bits: np.ndarray, pixels: tuple[int, ...]) -> tuple[int, np.ndarray]:
    """A node's configuration count and each member's configuration index,
    the gathered way: np.unique of the members' bytes on the pixels."""
    configs, idx = np.unique(_configs(bits, pixels), return_inverse=True)
    return len(configs), idx


def node_pivots_uncollapsed(bits: np.ndarray, pixels: tuple[int, ...]) -> list[tuple[int, int]]:
    """The pivots of the integer elimination of a node's biadjacency B, its
    configurations on the pixels against those on the complement, with
    every column of B handed to the elimination, equal ones included."""
    inside = set(pixels)
    comp = tuple(p for p in range(1, bits.shape[1] + 1) if p not in inside)
    idx = configuration_ids(bits, pixels)[1]
    comp_idx = configuration_ids(bits, comp)[1]
    return _pivots(zip(idx.tolist(), comp_idx.tolist()))


def kept_pairs_by_member_scan(family, bipartition, pinned=None) -> list[tuple[bytes, bytes]]:
    """Each kept member's (left, right) configuration, in member order, by
    a linear scan: every member in Python, kept when its pinned pixels read
    pinned."""
    left_idx = np.array(bipartition.left, dtype=np.intp) - 1
    right_idx = np.array(bipartition.right, dtype=np.intp) - 1
    fixed_idx = np.array(bipartition.fixed, dtype=np.intp) - 1
    pairs = []
    for img in family:
        arr = np.frombuffer(img.bits, dtype=np.uint8)
        if pinned is not None and arr[fixed_idx].tobytes() != pinned:
            continue
        pairs.append((arr[left_idx].tobytes(), arr[right_idx].tobytes()))
    return pairs


def unfold_by_member_scan(family, bipartition, pinned=None):
    """unfold's (left_configs, right_configs, entries) in byte order (see
    in_byte_order) by a linear scan of the members."""
    pairs = kept_pairs_by_member_scan(family, bipartition, pinned)
    left_configs = tuple(sorted({l for l, _ in pairs}))
    right_configs = tuple(sorted({r for _, r in pairs}))
    lpos = {cfg: p for p, cfg in enumerate(left_configs)}
    rpos = {cfg: q for q, cfg in enumerate(right_configs)}
    entries = tuple(sorted((lpos[l], rpos[r]) for l, r in pairs))
    return left_configs, right_configs, entries


def in_byte_order(unfolding: Unfolding) -> tuple:
    """The unfolding's (left_configs, right_configs, entries) with rows and
    columns relabeled to ascending byte order of their configurations and
    the entries sorted: the labeling of the network build's pivots, which
    unfold, numbering in member order, does not use."""
    left = tuple(sorted(unfolding.left_configs))
    right = tuple(sorted(unfolding.right_configs))
    lpos = {cfg: p for p, cfg in enumerate(left)}
    rpos = {cfg: q for q, cfg in enumerate(right)}
    rows = [lpos[cfg] for cfg in unfolding.left_configs]
    cols = [rpos[cfg] for cfg in unfolding.right_configs]
    return left, right, tuple(sorted((rows[p], cols[q]) for p, q in unfolding.entries))


def byte_ordered(unfolding: Unfolding) -> Unfolding:
    """The unfolding relabeled as in_byte_order gives it."""
    return Unfolding(unfolding.bipartition, unfolding.pinned, *in_byte_order(unfolding))


def pinned(text: str) -> bytes:
    """A pinned row's values, one 0 or 1 byte per character of text."""
    return bytes(int(c) for c in text)


def parent_map(tree: Tree) -> dict[TreeIndex, TreeIndex]:
    """Every node's parent but the root's, read off the tree's children."""
    return {
        child: node
        for layer in tree.layers.values()
        for node in layer
        for child in tree.children(node) or ()
    }


def layer_rank_table(family: ImageFamily) -> dict[TreeIndex, int]:
    """Exact integer rank of the support-against-complement unfolding for
    every tree node, by exact_rank on the unfoldings; the independent
    counterpart of the network widths."""
    family = _padded(family)
    tree = Tree(family.n)
    table = {}
    for i in range(1, tree.n_layers + 1):
        for node in tree.layers[i]:
            region = tree.support(node)
            if region.size == family.n * family.n:
                table[node] = 1 if len(family) else 0
            else:
                table[node] = exact_rank(unfold(family, Bipartition.from_region(region)))
    return table


def row_configurations_per_image(family: ImageFamily, i: int) -> tuple[bytes, ...]:
    """certify.row_configurations the plain way: row i of each member, one
    image at a time."""
    return tuple(sorted({img.row(i) for img in family}))


def dense_unfolding_oracle(family: ImageFamily, bipartition: Bipartition) -> np.ndarray:
    """Materialize the full 2^|A| x 2^|complement| unfolding matrix.

    Independent of the compressed path; guarded to at most 12 pixels per
    side.  Configurations index rows/columns as binary numbers, first pixel
    most significant.
    """
    if bipartition.fixed:
        raise ValueError("dense oracle does not support pinned rows")
    la, lb = len(bipartition.left), len(bipartition.right)
    if la > DENSE_ORACLE_MAX_SIDE or lb > DENSE_ORACLE_MAX_SIDE:
        raise ValueError(
            f"dense oracle limited to {DENSE_ORACLE_MAX_SIDE} pixels per side, "
            f"got {la} and {lb}"
        )
    mat = np.zeros((1 << la, 1 << lb), dtype=np.float64)
    left_idx = np.array(bipartition.left, dtype=np.intp) - 1
    right_idx = np.array(bipartition.right, dtype=np.intp) - 1
    for img in family:
        arr = np.frombuffer(img.bits, dtype=np.uint8)
        p = _bits_to_int(arr[left_idx])
        q = _bits_to_int(arr[right_idx])
        mat[p, q] = 1.0
    return mat


def to_dense(unfolding: Unfolding, dtype=np.float64) -> np.ndarray:
    """The compressed unfolding as a dense 0/1 matrix."""
    mat = np.zeros(unfolding.shape, dtype=dtype)
    for p, q in unfolding.entries:
        mat[p, q] = 1
    return mat


def transpose(unfolding: Unfolding) -> Unfolding:
    """The same unfolding with left and right swapped."""
    bip = unfolding.bipartition
    return Unfolding(
        Bipartition(bip.n, bip.right, bip.left, bip.fixed),
        unfolding.pinned,
        unfolding.right_configs,
        unfolding.left_configs,
        tuple((q, p) for p, q in unfolding.entries),
    )


def _bits_to_int(bits) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def _svd_cut(s: np.ndarray, tol: float) -> int:
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def block_of(dense) -> _Block:
    """The block (see rankcore._Block) of a dense array's entries with a
    nonzero bit pattern, found without a copy of it."""
    p = np.asarray(dense, dtype=np.float64)
    where = np.nonzero(p.view(np.uint64))
    return _Block(p.shape, np.ravel_multi_index(where, p.shape), p[where])


def dense_of(block: _Block) -> np.ndarray:
    """The block as a dense array."""
    out = np.zeros(block.shape)
    out.reshape(-1)[block.at] = block.values
    return out


def network_of(cls, n: int, widths, dense: dict, form="generalized", original_n=None):
    """The network of class cls (TensorTrain or HTNetwork) on side n with
    the given widths, each inner node's block given as a dense array keyed
    as in the layers; the dense constructor the library does without."""
    blocks = {key: block_of(p) for key, p in dense.items()}
    return cls(n, original_n or n, form, list(widths), cls._layers_of(n), blocks)


def dense_blocks(net) -> dict:
    """Every inner node's block as a dense array, keyed as held."""
    return {key: dense_of(block) for key, block in net.blocks.items()}


def with_blocks(net, dense: dict, widths=None):
    """The network with its blocks, and its widths when given, replaced."""
    widths = net.widths if widths is None else widths
    return network_of(type(net), net.n, widths, dense, net.form, net.original_n)


def train_of_cores(cores) -> TensorTrain:
    """The train whose core k is cores[k - 1], a (2, l_{k-1}, l_k) array
    whose first axis selects the pixel value: node k's block M has core[b]
    = M[:, 1 - b].T.  The chain of bonds is not checked."""
    cores = [np.asarray(c, dtype=np.float64) for c in cores]
    dense = {k: c[::-1].transpose(2, 0, 1) for k, c in enumerate(cores, 1)}
    widths = [1, 2] + [c.shape[2] for c in cores]
    return network_of(TensorTrain, math.isqrt(len(cores)), widths, dense)


def train_cores(train) -> list[np.ndarray]:
    """The train's cores (see train_of_cores), built from its blocks."""
    return [dense_of(block)[:, ::-1].transpose(1, 2, 0) for block in train.blocks.values()]


def node_ranks(net) -> dict:
    """Every node's channel count in a generalized tree network: 2 for a
    leaf, an inner node's first block axis."""
    ranks = {leaf: 2 for leaf in net.tree.layers[1]}
    ranks.update((node, block.shape[0]) for node, block in net.blocks.items())
    return ranks


def contract_rows_unpruned(bits: np.ndarray, layers, params: dict, diagonal: bool) -> np.ndarray:
    """rankcore._contract_rows the plain way: every channel of every node,
    zero padding included, with the pooled (rows x l*l) product of two
    dense inputs; all rows at once."""
    leaves: dict = {}
    outs: dict = {}
    for layer in layers:
        for key, pixels, first, second in layer:
            if first is None:
                leaves[key] = np.eye(2 if pixels else 1), _leaf(bits, pixels)
                continue
            p = params[key]
            if first in leaves:
                eye, ch = leaves.pop(first)
                u = eye[ch]
            else:
                u = outs.pop(first)
            if second in leaves:
                # A one-hot second input: each row takes its channel's slice.
                eye, ch = leaves.pop(second)
                m = p.reshape(len(p), len(eye), -1)
                out = np.empty((len(bits), len(p)))
                for s in range(len(eye)):
                    rows = ch == s
                    out[rows] = u[rows] @ m[:, s].T
            elif diagonal:
                out = (u * outs.pop(second)) @ p.T
            else:
                v = outs.pop(second)
                pooled = (v[:, :, None] * u[:, None, :]).reshape(len(bits), p[0].size)
                out = pooled @ p.reshape(len(p), -1).T
            outs[key] = out
    return out  # the last node is the root


def live_nonzeros_by_sorting(layers, blocks: dict, diagonal: bool) -> dict:
    """rankcore._live_nonzeros with np.isin for the nonzeros that a node's
    live channels read and np.unique for its children's live channels."""
    nodes = [node for layer in layers for node in layer]
    rank = {key: 2 if pixels else 1 for key, pixels, first, _ in nodes if first is None}
    rank.update((key, block.shape[0]) for key, block in blocks.items())
    plan = {}
    live = {nodes[-1][0]: np.zeros(1, dtype=np.intp)}
    for key, _, first, second in reversed(nodes):
        kept = live.pop(key)
        if first is None:
            plan[key] = np.eye(rank[key])[:, kept]
            continue
        block = blocks[key]
        q, c = np.divmod(block.at, math.prod(block.shape[1:]))
        s, a = (c, c) if diagonal and first in blocks else np.divmod(c, rank[first])
        on = np.isin(q, kept)
        q, s, a = q[on], s[on], a[on]
        live[first], live[second] = np.unique(a), np.unique(s)
        plan[key] = (
            np.searchsorted(kept, q), np.searchsorted(live[second], s),
            np.searchsorted(live[first], a), block.values[on], len(kept),
        )
    return plan


def _outline_pixels(top: int, left: int, h: int, w: int) -> set[tuple[int, int]]:
    """Pixel (row, col) set of a one-pixel rectangle border."""
    bottom, right = top + h - 1, left + w - 1
    pix = {(i, j) for i in (top, bottom) for j in range(left, right + 1)}
    return pix | {(i, j) for i in range(top, bottom + 1) for j in (left, right)}


def _image_bits(n: int, pix) -> bytes:
    buf = bytearray(n * n)
    for i, j in pix:
        buf[flat_index(i, j, n) - 1] = 1
    return bytes(buf)


def _pixel_sets(name: str, n: int, **params):
    """Each placement's pixel set, in the generator's enumeration order."""
    if name == "rect":
        s = params.get("min_side", 3)
        for top in range(1, n + 1):
            for left in range(1, n + 1):
                for h in range(s, n - top + 2):
                    for w in range(s, n - left + 2):
                        yield _outline_pixels(top, left, h, w)
    elif name == "bars":
        s = params.get("min_len", 2)
        for col in range(1, n + 1):
            for top in range(1, n + 1):
                for length in range(s, n - top + 2):
                    yield {(i, col) for i in range(top, top + length)}
    elif name == "stacked":
        s = params.get("min_side", 3)
        for top in range(1, n + 1):
            for h1 in range(s, n - top + 2):
                shared = top + h1 - 1
                for h2 in range(s, n - shared + 2):
                    for left1 in range(1, n + 1):
                        for w1 in range(s, n - left1 + 2):
                            for left2 in range(1, n + 1):
                                for w2 in range(s, n - left2 + 2):
                                    yield _outline_pixels(top, left1, h1, w1) | _outline_pixels(
                                        shared, left2, h2, w2
                                    )
    else:
        raise ValueError(f"no per-member generator {name!r}")


def members_per_image(name: str, n: int, **params) -> list[bytes]:
    """images.make_family's members the slow way, each image's bits made
    on its own from its pixel set (random: from its getrandbits draw) and
    kept where it first occurs."""
    if name == "random":
        nbits = n * n
        rng = random.Random(params["seed"])
        seen: dict[int, None] = {}
        while len(seen) < params["m"]:
            seen.setdefault(rng.getrandbits(nbits))
        images = (bytes((v >> (nbits - 1 - t)) & 1 for t in range(nbits)) for v in seen)
    else:
        images = (_image_bits(n, pix) for pix in _pixel_sets(name, n, **params))
    return list(dict.fromkeys(images))


def random_probes_per_pixel(n: int, count: int, seed: int) -> np.ndarray:
    """images.random_probes the slow way: one getrandbits(1) per pixel."""
    rng = random.Random(seed)
    n2 = n * n
    return np.array(
        [[rng.getrandbits(1) for _ in range(n2)] for _ in range(count)], dtype=np.uint8
    ).reshape(count, n2)


def members_and_probes_per_image(family: ImageFamily, n_probes: int, seed: int):
    """images._members_and_probes the slow way: one lookup per probe in a
    Python set of the members' bits."""
    probes = random_probes(family.n, n_probes, seed)
    bits = np.vstack([family.bit_matrix(), probes])
    members = {img.bits for img in family}
    truth = np.array([1.0] * len(family) + [float(row.tobytes() in members) for row in probes])
    return bits, truth


def family_dense_vector(family: ImageFamily) -> np.ndarray:
    """The indicator as a flat vector over all 2^(n*n) images, first pixel
    most significant; guarded to n <= 4."""
    if family.n > 4:
        raise ValueError("dense vectors limited to n <= 4")
    n2 = family.n * family.n
    vec = np.zeros(1 << n2)
    for img in family:
        idx = 0
        for b in img.bits:
            idx = (idx << 1) | b
        vec[idx] = 1.0
    return vec


def tt_from_dense(vec: np.ndarray, tol: float = 1e-12) -> TensorTrain:
    """Sequential-SVD train from a dense function vector (test oracle)."""
    size = vec.size
    n2 = size.bit_length() - 1
    if 1 << n2 != size:
        raise ValueError("vector length must be a power of 2")
    cores = []
    rest = np.asarray(vec, dtype=np.float64).reshape(1, size)
    prev = 1
    for k in range(n2 - 1):
        mat = rest.reshape(prev * 2, -1)
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        r = max(_svd_cut(s, tol), 1)
        cores.append(u[:, :r].reshape(prev, 2, r).transpose(1, 0, 2))
        rest = s[:r, None] * vt[:r]
        prev = r
    cores.append(rest.reshape(prev, 2, 1).transpose(1, 0, 2))
    return train_of_cores(cores)


def node_output_generalized(mats: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out_m = v @ mats[m] @ u."""
    return np.einsum("mqp,q,p->m", mats, v, u)


def node_output_diagonal(vecs: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out_m = vecs[m] @ (u * v)."""
    return vecs @ (u * v)


def verify_support_properties(tree: Tree) -> dict[str, bool]:
    """Re-verify the support properties by brute force: supports equal the
    leaf descendants' pixels, same-layer supports tile the grid disjointly,
    a parent's support is the union of its children's, and shapes alternate
    between squares (odd layers) and 2:1 rectangles (even layers)."""
    n = tree.n
    sizes_ok = all(
        len(tree.layers[i]) == n * n // (1 << (i - 1))
        for i in range(1, tree.n_layers + 1)
    )
    disjoint_ok = True
    union_ok = True
    shapes_ok = True
    descendants_ok = True
    full = set(range(1, n * n + 1))

    def leaf_pixels(node: TreeIndex) -> set[int]:
        kids = tree.children(node)
        if kids is None:
            return set(tree.support(node).pixels())
        return leaf_pixels(kids[0]) | leaf_pixels(kids[1])

    for i in range(1, tree.n_layers + 1):
        covered: set[int] = set()
        for node in tree.layers[i]:
            pix = set(tree.support(node).pixels())
            if covered & pix:
                disjoint_ok = False
            covered |= pix
            _, _, h, w = tree.support(node).params
            if i % 2 == 1 and h != w:
                shapes_ok = False
            if i % 2 == 0 and h != 2 * w:
                shapes_ok = False
            if leaf_pixels(node) != pix:
                descendants_ok = False
            kids = tree.children(node)
            if kids:
                merged = set(tree.support(kids[0]).pixels()) | set(
                    tree.support(kids[1]).pixels()
                )
                if merged != pix:
                    union_ok = False
        if covered != full:
            disjoint_ok = False
    return {
        "layer_sizes": sizes_ok,
        "leaf_descendants": descendants_ok,
        "disjoint": disjoint_ok,
        "parent_union": union_ok,
        "shapes": shapes_ok,
    }
