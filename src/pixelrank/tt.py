"""Tensor-train (matrix product) representation of a family's indicator.

A train assigns each pixel k two matrices, one per pixel value; evaluating
an image multiplies the selected matrices left to right.  Boundary bond
dimensions are fixed to 1 so the product is a scalar.  A train is a tree
network on the caterpillar tree of pixel prefixes, so it is built like one
(see ht_from_family): one left-to-right pass takes a basis of each prefix's
occupied configurations and writes it in terms of the previous prefix's,
which leaves every bond at the rank of the corresponding pixel-prefix
unfolding.
"""

from __future__ import annotations

import math

import numpy as np

from .certify import row_configurations
from .images import BinaryImage, ImageFamily
from .rankcore import _node_basis, exact_rank, fixed_row_unfolding

__all__ = [
    "TensorTrain",
    "tt_zero",
    "tt_from_family",
    "tt_eval",
    "tt_eval_batch",
    "block_partition_bound",
    "save_tt",
    "load_tt",
]


class TensorTrain:
    """Cores indexed by pixel; core k is a (2, l_{k-1}, l_k) array whose
    first axis selects the pixel value."""

    def __init__(self, cores: list[np.ndarray]):
        if not cores:
            raise ValueError("a train needs at least one core")
        n = math.isqrt(len(cores))
        if n * n != len(cores):
            raise ValueError(f"{len(cores)} cores do not form a square image")
        self.n = n
        self.cores = [np.asarray(c, dtype=np.float64) for c in cores]
        if self.cores[0].shape[1] != 1 or self.cores[-1].shape[2] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        for k, core in enumerate(self.cores):
            if core.ndim != 3 or core.shape[0] != 2:
                raise ValueError(f"core {k + 1} must have shape (2, l_prev, l_next)")
            if k and core.shape[1] != self.cores[k - 1].shape[2]:
                raise ValueError(f"bond mismatch between cores {k} and {k + 1}")

    @property
    def bond_dims(self) -> list[int]:
        """l_0 .. l_{n*n}, including both boundary 1s."""
        return [1] + [c.shape[2] for c in self.cores]

    def __repr__(self) -> str:
        return f"TensorTrain(n={self.n}, max_bond={max(self.bond_dims)})"


def tt_zero(n: int) -> TensorTrain:
    """The identically-zero function as a train with all bonds 1."""
    return TensorTrain([np.zeros((2, 1, 1)) for _ in range(n * n)])


def tt_from_family(family: ImageFamily, tol: float = 1e-9) -> TensorTrain:
    """Exact train for the family's indicator with minimal bond dimensions.

    The caterpillar-tree case of ht_from_family, built in one left-to-right
    pass: node k covers the first k pixels, and its children are node k-1
    and pixel k.  Each node takes an orthonormal basis phi_k of the occupied
    configurations of its prefix-against-suffix unfolding (the last node's
    basis is the all-ones row), and core k writes phi_k in terms of
    phi_{k-1}: core[b] = phi_{k-1} @ grid_b, where row c of grid_b is the
    column of phi_k for prefix configuration c extended by pixel value b.
    Only numerically zero singular values are cut, so bond k is the rank of
    the pixel-prefix unfolding at cut k.
    """
    m = len(family)
    n2 = family.n * family.n
    if m == 0:
        return tt_zero(family.n)
    bits = family.bit_matrix()
    phi = np.ones((1, 1))
    prev_idx = np.zeros(m, dtype=np.intp)
    cores: list[np.ndarray] = []
    for k in range(1, n2 + 1):
        basis, idx = _node_basis(bits, tuple(range(1, k + 1)), tol)
        core = np.zeros((2, phi.shape[0], basis.shape[0]))
        for b in (0, 1):
            members = bits[:, k - 1] == b
            grid = np.zeros((phi.shape[1], basis.shape[0]))
            grid[prev_idx[members]] = basis[:, idx[members]].T
            core[b] = phi @ grid
        cores.append(core)
        phi, prev_idx = basis, idx
    return TensorTrain(cores)


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
    n_imgs = bits.shape[0]
    vec = np.ones((n_imgs, 1))
    for k, core in enumerate(tt.cores):
        nxt = np.empty((n_imgs, core.shape[2]))
        mask1 = bits[:, k] == 1
        nxt[~mask1] = vec[~mask1] @ core[0]
        nxt[mask1] = vec[mask1] @ core[1]
        vec = nxt
    return vec[:, 0]


def block_partition_bound(family: ImageFamily, k: int) -> int:
    """Upper bound on the rank of the pixel-prefix unfolding at cut k.

    The prefix cuts through row i = ceil(k / n); grouping matrix blocks by
    the configuration of that whole row bounds the rank by the sum of
    pinned-row ranks over occurring configurations of row i.
    """
    n = family.n
    if not 1 <= k <= n * n - 1:
        raise ValueError(f"cut {k} out of range for n={n}")
    if len(family) == 0:
        return 0
    i = (k - 1) // n + 1
    return sum(
        exact_rank(fixed_row_unfolding(family, i, y))
        for y in row_configurations(family, i)
    )


_TT_MAGIC = "pixelrank-tt 1"


def save_tt(tt: TensorTrain, path) -> None:
    """Versioned text serialization; floats are written with 17 significant
    digits so evaluation round-trips bit-exactly."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_TT_MAGIC + "\n")
        fh.write(f"n={tt.n}\n")
        fh.write("bonds=" + " ".join(str(d) for d in tt.bond_dims) + "\n")
        for core in tt.cores:
            write_rows(fh, core.reshape(2, -1))


def write_rows(fh, rows: np.ndarray) -> None:
    """Write each row of a 2-D array as one line of space-separated values
    with 17 significant digits ("%.17g"), so they read back bit-exactly.
    Each line is one % operation; only one row is held as text at a time."""
    fmt = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    for row in rows:
        fh.write(fmt % tuple(row.tolist()))


class LineReader:
    """Walks the lines of a network file in order; every error it raises
    is a ValueError that names the 1-based line at fault."""

    def __init__(self, path, magic: str, kind: str):
        with open(path, "r", encoding="ascii") as fh:
            self._lines = [ln.rstrip("\n") for ln in fh]
        if not self._lines or self._lines[0] != magic:
            raise ValueError(f"not a {kind} file")
        self.lineno = 1

    def error(self, message: str) -> ValueError:
        return ValueError(f"line {self.lineno}: {message}")

    def left(self) -> int:
        """Lines not read yet."""
        return len(self._lines) - self.lineno

    def next(self, expecting: str) -> str:
        self.lineno += 1
        if self.lineno > len(self._lines):
            raise self.error(f"file ends early, expected {expecting}")
        return self._lines[self.lineno - 1]

    def field(self, key: str) -> str:
        """The value of a `key=value` line."""
        line = self.next(f"{key}=")
        if not line.startswith(key + "="):
            raise self.error(f"expected {key}=, got {line[:40]!r}")
        return line[len(key) + 1 :]

    def ints(self, key: str, count: int) -> list[int]:
        """A `key=` line of count positive integers."""
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

    def floats(self, count: int, what: str) -> list[float]:
        """A line of exactly count numbers."""
        tokens = self.next(what).split()
        if len(tokens) != count:
            raise self.error(f"{what}: expected {count} values, got {len(tokens)}")
        try:
            return [float(tok) for tok in tokens]
        except ValueError:
            raise self.error(f"{what}: bad number") from None

    def finish(self) -> None:
        if self.lineno < len(self._lines):
            self.lineno += 1
            raise self.error("unexpected content after the last block")


def load_tt(path) -> TensorTrain:
    """Read a file written by save_tt; malformed content raises ValueError
    naming the line."""
    reader = LineReader(path, _TT_MAGIC, "train")
    (n,) = reader.ints("n", 1)
    bonds = reader.ints("bonds", n * n + 1)
    cores = []
    for k in range(n * n):
        p, q = bonds[k], bonds[k + 1]
        rows = [reader.floats(p * q, f"core {k + 1} bit {b}") for b in (0, 1)]
        cores.append(np.array(rows).reshape(2, p, q))
    reader.finish()
    return TensorTrain(cores)
