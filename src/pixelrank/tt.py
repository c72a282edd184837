"""Tensor-train (matrix product) representation of a family's indicator.

A train assigns each pixel k two matrices, one per pixel value; evaluating
an image multiplies the selected matrices left to right.  Boundary bond
dimensions are fixed to 1 so the product is a scalar.  A train is the tree
network (see ht) on the caterpillar tree of pixel prefixes, so rankcore
builds, evaluates, writes and reads it as one; its cores are the tree's
node matrices, held as their nonzeros, and every bond is the rank of its
pixel-prefix unfolding.
"""

from __future__ import annotations

import math

import numpy as np

from .images import BinaryImage, ImageFamily
from .rankcore import _Block, _contract, _load_network, _nested_bases, _plan, _save_network

__all__ = [
    "TensorTrain",
    "tt_from_family",
    "tt_eval",
    "tt_eval_batch",
    "save_tt",
    "load_tt",
]


class TensorTrain:
    """Cores indexed by pixel; core k is a (2, l_{k-1}, l_k) array whose
    first axis selects the pixel value.  The train holds node k's M, core[b]
    = M[:, 1 - b].T, as a block; cores is a dense view built on access."""

    def __init__(self, cores: list[np.ndarray]):
        if not cores:
            raise ValueError("a train needs at least one core")
        n = math.isqrt(len(cores))
        if n * n != len(cores):
            raise ValueError(f"{len(cores)} cores do not form a square image")
        cores = [np.asarray(c, dtype=np.float64) for c in cores]
        if cores[0].shape[1] != 1 or cores[-1].shape[2] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        for k, core in enumerate(cores):
            if core.ndim != 3 or core.shape[0] != 2:
                raise ValueError(f"core {k + 1} must have shape (2, l_prev, l_next)")
            if k and core.shape[1] != cores[k - 1].shape[2]:
                raise ValueError(f"bond mismatch between cores {k} and {k + 1}")
        self.n = n
        self._nodes = {k: _Block.of(c[::-1].transpose(2, 0, 1)) for k, c in enumerate(cores, 1)}

    @classmethod
    def _of_nodes(cls, nodes: dict) -> "TensorTrain":
        """A train holding the caterpillar nodes' blocks 1 .. n*n as given."""
        train = cls.__new__(cls)
        train.n = math.isqrt(len(nodes))
        train._nodes = nodes
        return train

    @property
    def cores(self) -> list[np.ndarray]:
        return [b.dense()[:, ::-1].transpose(1, 2, 0) for b in self._nodes.values()]

    @property
    def bond_dims(self) -> list[int]:
        """l_0 .. l_{n*n}, including both boundary 1s."""
        return [1] + [b.shape[0] for b in self._nodes.values()]

    def __repr__(self) -> str:
        return f"TensorTrain(n={self.n}, max_bond={max(self.bond_dims)})"


def _caterpillar(n2: int) -> list:
    """The train's dimension tree as bottom-up layers: the empty prefix
    (node 0), the pixels (keys -1 .. -n2), then node k = (node k-1, pixel k)."""
    return [[(0, (), None, None)], [(-k, (k,), None, None) for k in range(1, n2 + 1)]] + [
        [(k, tuple(range(1, k + 1)), k - 1, -k)] for k in range(1, n2 + 1)
    ]


def tt_from_family(family: ImageFamily) -> TensorTrain:
    """Exact train for the family's indicator with minimal bond dimensions.

    The caterpillar-tree case of ht_from_family: node k covers the first k
    pixels, and its children are node k-1 and pixel k.  Core k is node k's
    matrices with the pixel channel first, core[b] = M[:, 1 - b].T, since
    channel 0 is a black pixel.  Node k's basis interpolates on the pivots
    of the integer elimination of the pixel-prefix unfolding at cut k, so
    bond k is that unfolding's rank by construction.
    """
    n2 = family.n * family.n
    return TensorTrain._of_nodes(_nested_bases(family.bit_matrix(), _caterpillar(n2))[1])


def _bond_dims(family: ImageFamily) -> list[int]:
    """tt_from_family(family).bond_dims from the integer plan alone (see
    rankcore._plan): no core is built.  Bond k is node k's rank, the
    caterpillar's layer k + 2, and bond 0 is the empty prefix's."""
    widths = _plan(family.bit_matrix(), _caterpillar(family.n * family.n))
    return widths[:1] + widths[2:]


def tt_eval(tt: TensorTrain, image: BinaryImage) -> float:
    """Evaluate one image as a one-row batch."""
    if image.n != tt.n:
        raise ValueError(f"image side {image.n} does not match train side {tt.n}")
    bits = np.frombuffer(image.bits, dtype=np.uint8).reshape(1, -1)
    return float(tt_eval_batch(tt, bits)[0])


def tt_eval_batch(tt: TensorTrain, bits: np.ndarray) -> np.ndarray:
    """Evaluate many images at once; bits has one row per image, n*n
    columns in flat pixel order."""
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != tt.n * tt.n:
        raise ValueError("bit matrix shape does not match the train")
    return _contract(bits, _caterpillar(len(tt._nodes)), tt._nodes)[:, 0]


def save_tt(tt: TensorTrain, path) -> None:
    """Write the train's node matrices as a file of kind train (see
    rankcore._save_network): each node's (l_k, 2, l_{k-1}) block as its
    nonzeros, so every core, and so evaluation, round-trips bit-exactly."""
    widths = [1, 2] + tt.bond_dims[1:]
    layers = _caterpillar(len(tt._nodes))
    _save_network(path, layers, tt._nodes, "train", tt.n, tt.n, "generalized", widths)


def load_tt(path) -> TensorTrain:
    """Read a file written by save_tt; malformed content raises ValueError
    naming the line."""
    nodes = _load_network(path, "train", lambda n: _caterpillar(n * n), lambda n: n)[-1]
    return TensorTrain._of_nodes(nodes)
