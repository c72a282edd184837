"""Test oracles: independent, brute-force counterparts of the library's
compressed routes, valid only on tiny inputs."""

from __future__ import annotations

import numpy as np

from pixelrank.ht import Tree, TreeIndex
from pixelrank.images import ImageFamily
from pixelrank.rankcore import Bipartition, Unfolding, _integer_rank
from pixelrank.tt import TensorTrain

DENSE_ORACLE_MAX_SIDE = 12


def integer_matrix_rank(matrix) -> int:
    """Exact rank of an integer matrix (utility for cross-checks)."""
    rows = []
    for row in np.asarray(matrix, dtype=object):
        entries = {j: int(v) for j, v in enumerate(row) if v != 0}
        rows.append(entries)
    return _integer_rank(rows)


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
        unfolding.constraint,
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
    return TensorTrain(cores)


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
