"""Tensor-train (matrix product) representation of a family's indicator.

A train assigns each pixel k two matrices, one per pixel value; evaluating
an image multiplies the selected matrices left to right.  Boundary bond
dimensions are fixed to 1 so the product is a scalar.  A train is the tree
network (see ht) on the caterpillar tree of pixel prefixes, so rankcore
builds and evaluates it as one; its cores are the tree's node matrices,
and every bond is the rank of its pixel-prefix unfolding.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .certify import row_configurations
from .images import BinaryImage, ImageFamily
from .rankcore import _contract, _nested_bases, exact_rank, fixed_row_unfolding

__all__ = [
    "TensorTrain",
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
    channel 0 is a black pixel.  Node k's basis spans the pivot columns of
    the integer elimination of the pixel-prefix unfolding at cut k, so bond
    k is that unfolding's rank by construction.
    """
    n2 = family.n * family.n
    _, _, mats = _nested_bases(family.bit_matrix(), _caterpillar(n2))
    return TensorTrain([mats[k][:, ::-1].transpose(1, 2, 0) for k in range(1, n2 + 1)])


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
    params = {k: core[::-1].transpose(2, 0, 1) for k, core in enumerate(tt.cores, 1)}
    return _contract(bits, _caterpillar(len(tt.cores)), params)[:, 0]


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

    Rows are keyed by their bytes (so 0.0 and -0.0 differ), and each
    distinct row is formatted once: only its entries with a nonzero bit
    pattern go through "%.17g", a +0.0 entry is written as "0".  Besides the
    keys, one bytes copy of the block, a line is held only while a later
    row repeats it, so a block without repeats holds one line at a time.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    keys = [row.tobytes() for row in rows]
    left = Counter(keys)
    held: dict[bytes, str] = {}
    for row, key in zip(rows, keys):
        line = held.pop(key, None)
        if line is None:
            nz = np.flatnonzero(row.view(np.uint64))
            # "0 " per zero entry and "%.17g " per other one, the last space
            # cut; a row with no entries gives an empty line.
            zeros = np.diff(nz, prepend=-1, append=len(row)) - 1
            fmt = "%.17g ".join(map("0 ".__mul__, zeros.tolist()))
            line = (fmt % tuple(row[nz].tolist()))[:-1] + "\n"
        left[key] -= 1
        if left[key]:
            held[key] = line
        fh.write(line)


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
        """A line of exactly count finite numbers: an exact network has no
        nan or inf, and evaluation relies on 0 * x being 0."""
        tokens = self.next(what).split()
        if len(tokens) != count:
            raise self.error(f"{what}: expected {count} values, got {len(tokens)}")
        try:
            vals = [float(tok) for tok in tokens]
        except ValueError:
            raise self.error(f"{what}: bad number") from None
        if not all(map(math.isfinite, vals)):
            bad = next(tok for tok, v in zip(tokens, vals) if not math.isfinite(v))
            raise self.error(f"{what}: non-finite number {bad[:40]!r}")
        return vals

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
