"""Tensor-train (matrix product) representation of a family's indicator.

A train assigns each pixel k two matrices, one per pixel value; evaluating
an image multiplies the selected matrices left to right.  Boundary bond
dimensions are fixed to 1 so the product is a scalar.  A train is the tree
network (see ht) on the caterpillar tree of pixel prefixes, so it is
rankcore's one network type, built, evaluated, written and read as one;
its cores are the tree's node matrices, held as their nonzeros, and every
bond is the rank of its pixel-prefix unfolding.
"""

from __future__ import annotations

from .images import ImageFamily
from .rankcore import (
    _eval, _eval_batch, _load_network, _nested_bases, _Network, _plan, _save_network,
)

__all__ = [
    "TensorTrain",
    "tt_from_family",
    "tt_eval",
    "tt_eval_batch",
    "save_tt",
    "load_tt",
]


class TensorTrain(_Network):
    """A network on the caterpillar tree (see _caterpillar), always in the
    generalized form.  Node k's block is (l_k, 2, l_{k-1}), its entry
    (q, s, a) being core k's core[1 - s][a, q]: core[b] = M[:, 1 - b].T,
    since channel 0 is a black pixel."""

    kind = "train"

    @staticmethod
    def _layers_of(n: int) -> list:
        return _caterpillar(n * n)

    @staticmethod
    def _side(original_n: int) -> int:
        return original_n

    @property
    def bond_dims(self) -> list[int]:
        """l_0 .. l_{n*n}, including both boundary 1s: the empty prefix's
        width, then node k's (layer 2 holds the pixels)."""
        return self.widths[:1] + self.widths[2:]


def _caterpillar(n2: int) -> list:
    """The train's dimension tree as bottom-up layers: the empty prefix
    (node 0), the pixels (keys -1 .. -n2), then node k = (node k-1, pixel k)."""
    return [[(0, (), None, None)], [(-k, (k,), None, None) for k in range(1, n2 + 1)]] + [
        [(k, tuple(range(1, k + 1)), k - 1, -k)] for k in range(1, n2 + 1)
    ]


def tt_from_family(family: ImageFamily) -> TensorTrain:
    """Exact train for the family's indicator with minimal bond dimensions.

    The caterpillar-tree case of ht_from_family: node k covers the first k
    pixels, and its children are node k-1 and pixel k.  Node k's basis
    interpolates on the pivots of the integer elimination of the
    pixel-prefix unfolding at cut k, so bond k is that unfolding's rank by
    construction.
    """
    layers = _caterpillar(family.n * family.n)
    widths, blocks = _nested_bases(family.bit_matrix(), layers)
    return TensorTrain(family.n, family.n, "generalized", widths, layers, blocks)


def _bond_dims(family: ImageFamily) -> list[int]:
    """tt_from_family(family).bond_dims from the integer plan alone (see
    rankcore._plan): no core is built."""
    widths = _plan(family.bit_matrix(), _caterpillar(family.n * family.n))
    return widths[:1] + widths[2:]


# A train is evaluated and written as any network is (see rankcore).
tt_eval = _eval
tt_eval_batch = _eval_batch
save_tt = _save_network


def load_tt(path) -> TensorTrain:
    """Read a file written by save_tt; malformed content raises ValueError
    naming the line."""
    return _load_network(path, TensorTrain)
