"""Tensor-train (matrix product) representation of a family's indicator.

A train assigns each pixel k two matrices, one per pixel value; evaluating
an image multiplies the selected matrices left to right.  Boundary bond
dimensions are fixed to 1 so the product is a scalar.  Trains are built as
the sum of one rank-1 elementary train per member followed by exact
rounding, which leaves every bond at the rank of the corresponding
pixel-prefix unfolding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import ScalingReport, fit_loglog, row_configurations
from .images import BinaryImage, ImageFamily, gen_random_family, make_family
from .rankcore import exact_rank, fixed_row_unfolding, svd

__all__ = [
    "TensorTrain",
    "tt_zero",
    "elementary_train",
    "tt_sum",
    "tt_scale",
    "tt_sum_of_members",
    "tt_from_family",
    "tt_round",
    "tt_eval",
    "tt_eval_batch",
    "family_dense_vector",
    "tt_from_dense",
    "block_partition_bound",
    "bond_scaling_report",
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

    def copy(self) -> "TensorTrain":
        return TensorTrain([c.copy() for c in self.cores])

    def __repr__(self) -> str:
        return f"TensorTrain(n={self.n}, max_bond={max(self.bond_dims)})"


def tt_zero(n: int) -> TensorTrain:
    """The identically-zero function as a train with all bonds 1."""
    return TensorTrain([np.zeros((2, 1, 1)) for _ in range(n * n)])


def elementary_train(image: BinaryImage) -> TensorTrain:
    """Rank-1 train evaluating to 1 on the image and 0 elsewhere."""
    cores = []
    for bit in image.bits:
        core = np.zeros((2, 1, 1))
        core[bit, 0, 0] = 1.0
        cores.append(core)
    return TensorTrain(cores)


def tt_sum(a: TensorTrain, b: TensorTrain) -> TensorTrain:
    """Direct sum of two trains; evaluates to the sum of the functions."""
    if a.n != b.n:
        raise ValueError("trains must share the image side")
    cores = []
    last = len(a.cores) - 1
    for k, (ca, cb) in enumerate(zip(a.cores, b.cores)):
        pa, qa = ca.shape[1:]
        pb, qb = cb.shape[1:]
        if k == 0:
            core = np.concatenate([ca, cb], axis=2)
        elif k == last:
            core = np.concatenate([ca, cb], axis=1)
        else:
            core = np.zeros((2, pa + pb, qa + qb))
            core[:, :pa, :qa] = ca
            core[:, pa:, qa:] = cb
        cores.append(core)
    return TensorTrain(cores)


def tt_scale(tt: TensorTrain, alpha: float) -> TensorTrain:
    out = tt.copy()
    out.cores[0] = out.cores[0] * alpha
    return out


def tt_sum_of_members(family: ImageFamily, max_members: int = 1500) -> TensorTrain:
    """The explicit sum of elementary member trains, bond dimension
    len(family) everywhere inside; unrounded."""
    m = len(family)
    if m == 0:
        return tt_zero(family.n)
    if m > max_members:
        raise ValueError(f"refusing to materialize {m} x {m} cores")
    bits = family.bit_matrix()
    n2 = family.n * family.n
    cores = []
    for k in range(n2):
        prev = 1 if k == 0 else m
        nxt = 1 if k == n2 - 1 else m
        core = np.zeros((2, prev, nxt))
        for t in range(m):
            core[bits[t, k], min(t, prev - 1), min(t, nxt - 1)] = 1.0
        cores.append(core)
    return TensorTrain(cores)


def _svd_cut(s: np.ndarray, tol: float) -> int:
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def tt_from_family(family: ImageFamily, tol: float = 1e-9) -> TensorTrain:
    """Exact train for the family's indicator with minimal bond dimensions.

    Algebraically this is the sum of one elementary train per member,
    left-orthogonalized (the sum train's cores are diagonal selectors, so
    the orthogonalization runs on (2 l, m) factors without materializing
    m x m cores) and then truncated right-to-left; only numerically zero
    singular values are cut.
    """
    m = len(family)
    n2 = family.n * family.n
    if m == 0:
        return tt_zero(family.n)
    bits = family.bit_matrix()
    carry = np.ones((1, m))
    cores: list[np.ndarray] = []
    for k in range(n2):
        prev = carry.shape[0]
        stacked = np.zeros((prev, 2, m))
        mask1 = bits[:, k] == 1
        stacked[:, 0, ~mask1] = carry[:, ~mask1]
        stacked[:, 1, mask1] = carry[:, mask1]
        u, s, vt = svd(stacked.reshape(prev * 2, m))
        r = max(_svd_cut(s, tol), 1)
        cores.append(u[:, :r].reshape(prev, 2, r).transpose(1, 0, 2))
        carry = s[:r, None] * vt[:r]
    # All member suffixes past the last pixel coincide, so the member axis
    # collapses to its sum.
    tail = carry.sum(axis=1).reshape(-1, 1)
    cores[-1] = np.einsum("bpr,rq->bpq", cores[-1], tail)
    return _truncate_right_to_left(TensorTrain(cores), tol)


def _truncate_right_to_left(tt: TensorTrain, tol: float) -> TensorTrain:
    """Truncation sweep assuming cores left of the current one are
    left-orthogonal; cuts singular values below tol relative to each bond's
    largest."""
    cores = [c.copy() for c in tt.cores]
    for k in range(len(cores) - 1, 0, -1):
        two, p, q = cores[k].shape
        mat = cores[k].transpose(1, 0, 2).reshape(p, 2 * q)
        u, s, vt = svd(mat)
        r = max(_svd_cut(s, tol), 1)
        cores[k] = vt[:r].reshape(r, 2, q).transpose(1, 0, 2)
        carry = u[:, :r] * s[:r]
        cores[k - 1] = np.einsum("bpr,rq->bpq", cores[k - 1], carry)
    return TensorTrain(cores)


def tt_round(tt: TensorTrain, tol: float = 1e-9) -> TensorTrain:
    """Round a train to minimal bond dimensions at the given relative
    truncation threshold; never increases any bond."""
    cores = [c.copy() for c in tt.cores]
    # Left-to-right orthogonalization (no truncation).
    for k in range(len(cores) - 1):
        two, p, q = cores[k].shape
        mat = cores[k].transpose(1, 0, 2).reshape(p * 2, q)
        qmat, rmat = np.linalg.qr(mat)
        r = qmat.shape[1]
        cores[k] = qmat.reshape(p, 2, r).transpose(1, 0, 2)
        cores[k + 1] = np.einsum("rq,bqs->brs", rmat, cores[k + 1])
    return _truncate_right_to_left(TensorTrain(cores), tol)


def tt_eval(tt: TensorTrain, image: BinaryImage) -> float:
    """Left-to-right matrix product for one image."""
    if image.n != tt.n:
        raise ValueError(f"image side {image.n} does not match train side {tt.n}")
    vec = np.ones(1)
    for k, bit in enumerate(image.bits):
        vec = vec @ tt.cores[k][bit]
    return float(vec[0])


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


@dataclass
class BondScalingReport:
    """Max bond dimension per image side with its log-log slope, per-cut
    bond/bound tables, and a size-matched random baseline."""

    scaling: ScalingReport
    bond_dims: dict[int, list[int]]
    block_bounds: dict[int, list[int]]
    random_max_bond: dict[int, int]


def bond_scaling_report(
    generator: str,
    ns: list[int],
    gen_params: dict | None = None,
    tol: float = 1e-9,
    random_seed: int = 1,
    with_block_bounds: bool = True,
) -> BondScalingReport:
    """Build trains for a structured generator across sizes and report how
    the maximal bond dimension scales, against a random family of equal
    member count."""
    params = dict(gen_params or {})
    bond_dims: dict[int, list[int]] = {}
    block_bounds: dict[int, list[int]] = {}
    random_max: dict[int, int] = {}
    points = []
    for n in ns:
        family = make_family(generator, n, **params)
        train = tt_from_family(family, tol=tol)
        dims = train.bond_dims
        bond_dims[n] = dims
        points.append((n, max(dims)))
        if with_block_bounds:
            row_sums = {}
            bounds = []
            for k in range(1, n * n):
                i = (k - 1) // n + 1
                if i not in row_sums:
                    row_sums[i] = block_partition_bound(family, k)
                bounds.append(row_sums[i])
            block_bounds[n] = bounds
        rnd = gen_random_family(n, len(family), seed=random_seed)
        random_max[n] = max(tt_from_family(rnd, tol=tol).bond_dims)
    scaling = fit_loglog(points, f"max_bond[{generator}]")
    return BondScalingReport(scaling, bond_dims, block_bounds, random_max)


_TT_MAGIC = "pixelrank-tt 1"


def save_tt(tt: TensorTrain, path) -> None:
    """Versioned text serialization; floats are written with 17 significant
    digits so evaluation round-trips bit-exactly."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_TT_MAGIC + "\n")
        fh.write(f"n={tt.n}\n")
        fh.write("bonds=" + " ".join(str(d) for d in tt.bond_dims) + "\n")
        for k, core in enumerate(tt.cores):
            for b in (0, 1):
                fh.write(" ".join("%.17g" % v for v in core[b].reshape(-1)) + "\n")


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
