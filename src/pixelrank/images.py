"""Binary images on an n-by-n pixel grid, structured synthetic families,
and the plain-text family file format.

Pixels are indexed 1-based: the pixel in row i, column j has flat index
k = (i - 1) * n + j, so flat order is row-major, and an image's pixel k is
bits[k - 1].  A Region names a pixel set; rankcore's Bipartition.from_region
splits the grid along it for unfold.

A family is its bit matrix, one read-only (members x n*n) uint8 array:
the generators, the family file reader and writer and pad_family work on
it alone and make no BinaryImage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinaryImage",
    "Region",
    "FamilyMeta",
    "ImageFamily",
    "FamilyFormatError",
    "flat_index",
    "gen_rectangle_outlines",
    "gen_vertical_bars",
    "gen_stacked_outlines",
    "gen_random_family",
    "random_probes",
    "make_family",
    "pad_image",
    "pad_family",
    "save_family",
    "load_family",
]


def flat_index(i: int, j: int, n: int) -> int:
    """1-based flat index of the pixel in row i, column j."""
    return (i - 1) * n + j


_TEXT_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")
# Most bytes of family file text that save_family makes at once.
_CHUNK_BYTES = 1 << 16


@dataclass(frozen=True)
class BinaryImage:
    """An n-by-n image with pixel values in {0, 1}, stored row-major.

    1 is black (ink), 0 is white (background).
    """

    n: int
    bits: bytes

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"side length must be positive, got {self.n}")
        if len(self.bits) != self.n * self.n:
            raise ValueError(
                f"expected {self.n * self.n} pixels, got {len(self.bits)}"
            )
        if self.bits.translate(None, b"\x00\x01"):
            raise ValueError("pixel values must be 0 or 1")

    @classmethod
    def from_text(cls, n: int, text: str) -> "BinaryImage":
        """Build from a row-major string of '0'/'1' characters."""
        # Non-ASCII characters encode as b"?", which the check rejects.
        raw = text.encode("ascii", "replace")
        if raw.translate(None, b"01"):
            raise ValueError("image text may contain only '0' and '1'")
        return cls(n, raw.translate(_TEXT_TO_BITS))

    @classmethod
    def from_array(cls, arr) -> "BinaryImage":
        a = np.asarray(arr, dtype=np.uint8)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square 2-d array, got shape {a.shape}")
        return cls(a.shape[0], a.reshape(-1).tobytes())

    def row(self, i: int) -> bytes:
        """The n pixel values of row i."""
        return self.bits[(i - 1) * self.n : i * self.n]

    def to_text(self) -> str:
        return self.bits.translate(_BITS_TO_TEXT).decode("ascii")

    def to_array(self) -> np.ndarray:
        return np.frombuffer(self.bits, dtype=np.uint8).reshape(self.n, self.n)

    def to_ascii(self) -> str:
        """Multi-line rendering with '#' for black and '.' for white."""
        rows = [self.row(i) for i in range(1, self.n + 1)]
        return "\n".join("".join(".#"[b] for b in r) for r in rows)


@dataclass(frozen=True)
class Region:
    """A pixel region: a row prefix, an axis-aligned rectangle, or a
    flat-order pixel prefix, inside an n-by-n grid."""

    kind: str
    n: int
    params: tuple[int, ...]

    _KINDS = ("row-prefix", "rectangle", "pixel-prefix")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        n = self.n
        p = self.params
        if self.kind == "row-prefix":
            (i,) = p
            if not 1 <= i <= n - 1:
                raise ValueError(f"row prefix index {i} out of range for n={n}")
        elif self.kind == "pixel-prefix":
            (k,) = p
            if not 1 <= k <= n * n - 1:
                raise ValueError(f"pixel prefix index {k} out of range for n={n}")
        else:
            top, left, height, width = p
            if height < 1 or width < 1:
                raise ValueError("rectangle must have positive size")
            if not (1 <= top and top + height - 1 <= n):
                raise ValueError("rectangle rows outside the grid")
            if not (1 <= left and left + width - 1 <= n):
                raise ValueError("rectangle columns outside the grid")

    @classmethod
    def row_prefix(cls, i: int, n: int) -> "Region":
        return cls("row-prefix", n, (i,))

    @classmethod
    def rectangle(cls, top: int, left: int, height: int, width: int, n: int) -> "Region":
        return cls("rectangle", n, (top, left, height, width))

    @classmethod
    def pixel_prefix(cls, k: int, n: int) -> "Region":
        return cls("pixel-prefix", n, (k,))

    @property
    def size(self) -> int:
        if self.kind == "row-prefix":
            return self.params[0] * self.n
        if self.kind == "pixel-prefix":
            return self.params[0]
        return self.params[2] * self.params[3]

    @property
    def boundary_length(self) -> int | None:
        """Perimeter of the region; None for pixel prefixes, which are not
        rectangular in general."""
        if self.kind == "row-prefix":
            return 2 * (self.params[0] + self.n)
        if self.kind == "rectangle":
            return 2 * (self.params[2] + self.params[3])
        return None

    def pixels(self) -> tuple[int, ...]:
        """Flat indices of the region's pixels, ascending."""
        n = self.n
        if self.kind == "row-prefix":
            return tuple(range(1, self.params[0] * n + 1))
        if self.kind == "pixel-prefix":
            return tuple(range(1, self.params[0] + 1))
        top, left, h, w = self.params
        return tuple(
            flat_index(i, j, n)
            for i in range(top, top + h)
            for j in range(left, left + w)
        )

    def describe(self) -> str:
        if self.kind == "row-prefix":
            return f"rows1..{self.params[0]}"
        if self.kind == "pixel-prefix":
            return f"pixels1..{self.params[0]}"
        t, l, h, w = self.params
        return f"rect[{t},{l},{h}x{w}]"


@dataclass(frozen=True)
class FamilyMeta:
    """How a family was produced: generator label (with parameters folded
    into it) plus the seed, if any."""

    name: str
    seed: int | None = None

    def __post_init__(self):
        if " " in self.name or not self.name:
            raise ValueError("family name must be nonempty and contain no spaces")


class ImageFamily:
    """An explicit finite set of same-sized binary images, held only as its
    bit matrix: a read-only (members x n*n) uint8 array, one row-major row
    of pixels per member.

    The family realizes the indicator function f with f(x) = 1 exactly for
    the stored members.  Member order is the (deterministic) order of first
    insertion; equality ignores order; `image in family` is f(image).
    BinaryImage objects are made only for members and iteration.
    """

    def __init__(self, n: int, members, meta: FamilyMeta):
        if n < 1:
            raise ValueError(f"side length must be positive, got {n}")
        self.n = n
        self.meta = meta
        uniq: dict[bytes, None] = {}
        for img in members:
            if img.n != n:
                raise ValueError(
                    f"member side {img.n} does not match family side {n}"
                )
            uniq.setdefault(img.bits)
        self._bits = np.frombuffer(b"".join(uniq), dtype=np.uint8).reshape(-1, n * n)
        # The members' rows as bytes, for `in` and ==; built on first use.
        self._rows: frozenset[bytes] | None = None
        # rankcore._member_index: one index per pinned set (a pin, or a
        # row's configurations), keyed by the set and built on the first
        # lookup of that set; the members grouped by their values on it.
        self._pin_index: dict[tuple[int, ...], tuple] = {}

    @classmethod
    def _of_bits(cls, n: int, bits: np.ndarray, meta: FamilyMeta) -> "ImageFamily":
        """The family whose members are the rows of bits, in order; the rows
        must be distinct, of n*n 0/1 pixels.  The family takes bits over."""
        family = cls(n, (), meta)
        family._bits = bits.reshape(-1, n * n)
        family._bits.flags.writeable = False
        return family

    def __getstate__(self):
        # The row set and the pin indexes are rebuilt on demand; leaving
        # them out keeps pickles small.
        return {**self.__dict__, "_rows": None, "_pin_index": {}}

    def __setstate__(self, state):
        self.__dict__.update(state)
        # An unpickled array is writeable.
        self._bits.flags.writeable = False

    @property
    def members(self) -> tuple[BinaryImage, ...]:
        return tuple(self)

    def bit_matrix(self) -> np.ndarray:
        """Member pixels as the read-only (len(family), n*n) uint8 array,
        row-major, that the family holds; the same array on every call."""
        return self._bits

    def _row_set(self) -> frozenset[bytes]:
        if self._rows is None:
            self._rows = frozenset(row.tobytes() for row in self._bits)
        return self._rows

    def __contains__(self, image) -> bool:
        return (
            isinstance(image, BinaryImage)
            and image.n == self.n
            and image.bits in self._row_set()
        )

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self):
        return (BinaryImage(self.n, row.tobytes()) for row in self._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImageFamily):
            return NotImplemented
        return (
            self.n == other.n
            and self._row_set() == other._row_set()
            and self.meta == other.meta
        )

    def __repr__(self) -> str:
        return f"ImageFamily(n={self.n}, members={len(self)}, meta={self.meta})"


def _fits(n: int, side: np.ndarray) -> np.ndarray:
    """fits[s - 1, j]: a run of length side[j] starting at s stays inside 1..n."""
    return np.arange(1, n + 1)[:, None] + side - 1 <= n


def _draw_outlines(out: np.ndarray, top, left, height, width) -> None:
    """Ink the one-pixel border of the k-th rectangle into out[k], an
    (m, n, n) uint8 array, one grid row at a time."""
    n = out.shape[1]
    cols = np.arange(1, n + 1)
    bottom, right = top + height - 1, left + width - 1
    edge = (left[:, None] <= cols) & (cols <= right[:, None])
    sides = (cols == left[:, None]) | (cols == right[:, None])
    for i in range(1, n + 1):
        on_edge = ((top == i) | (bottom == i))[:, None]
        inside = ((top < i) & (i < bottom))[:, None]
        out[:, i - 1] |= np.where(on_edge, edge, inside & sides)


def gen_rectangle_outlines(n: int, min_side: int = 3) -> ImageFamily:
    """All one-pixel rectangle borders with a white interior and exterior.

    Enumerates (top, left, height, width) lexicographically over every
    placement with height, width >= min_side.  min_side must be at least 3,
    which keeps the interior nonempty, so middle rows show two isolated
    black pixels rather than a solid run, and no two placements draw the
    same image.
    """
    if min_side < 3:
        raise ValueError(f"min_side must be at least 3, got {min_side}")
    if n < min_side:
        raise ValueError(f"no outline of side >= {min_side} fits in a {n}x{n} grid")
    side = np.arange(min_side, n + 1)
    fits = _fits(n, side)
    # Lexicographic (top, left, height, width) is C order over the 4-d grid.
    top, left, height, width = np.nonzero(fits[:, None, :, None] & fits[None, :, None, :])
    bits = np.zeros((len(top), n, n), dtype=np.uint8)
    _draw_outlines(bits, top + 1, left + 1, side[height], side[width])
    return ImageFamily._of_bits(n, bits, FamilyMeta(f"rect(min_side={min_side})"))


def gen_vertical_bars(n: int, min_len: int = 2) -> ImageFamily:
    """All single vertical segments of length >= min_len in one column;
    min_len must be at least 1.  Enumerates (column, top, length)
    lexicographically."""
    if min_len < 1:
        raise ValueError(f"min_len must be at least 1, got {min_len}")
    if n < min_len:
        raise ValueError(f"no bar of length >= {min_len} fits in a {n}x{n} grid")
    side = np.arange(min_len, n + 1)
    col, top, length = np.nonzero(np.broadcast_to(_fits(n, side), (n, n, len(side))))
    rows = np.arange(n)
    inked = (top[:, None] <= rows) & (rows < (top + side[length])[:, None])
    bits = np.zeros((len(col), n, n), dtype=np.uint8)
    bits[np.arange(len(col))[:, None], rows, col[:, None]] = inked
    return ImageFamily._of_bits(n, bits, FamilyMeta(f"bars(min_len={min_len})"))


def gen_stacked_outlines(n: int, min_side: int = 3) -> ImageFamily:
    """Two vertically stacked rectangle outlines sharing their middle
    horizontal edge row, like a figure eight.

    The upper outline's bottom edge row and the lower outline's top edge
    row coincide; horizontal placements and widths vary independently.
    min_side must be at least 1.  Enumerates (top, upper height, lower
    height, upper left, upper width, lower left, lower width)
    lexicographically, and keeps each image where it first occurs: with
    sides below 3, some placements draw the same image.
    """
    if min_side < 1:
        raise ValueError(f"min_side must be at least 1, got {min_side}")
    if n < 2 * min_side - 1:
        raise ValueError(
            f"two stacked outlines of side >= {min_side} need a grid of side >= {2 * min_side - 1}"
        )
    side = np.arange(min_side, n + 1)
    top = np.arange(1, n + 1)[:, None, None]
    shared = top + side[:, None] - 1
    top, h1, h2 = np.nonzero((shared <= n) & (shared + side - 1 <= n))
    top, h1, h2 = top + 1, side[h1], side[h2]
    left, width = np.nonzero(_fits(n, side))
    left, width = left + 1, side[width]
    # Each vertical triple t takes every (upper, lower) pair of placements.
    shape = (len(top), len(left), len(left))
    t, upper, lower = np.unravel_index(np.arange(np.prod(shape)), shape)
    bits = np.zeros((len(t), n, n), dtype=np.uint8)
    _draw_outlines(bits, top[t], left[upper], h1[t], width[upper])
    _draw_outlines(bits, top[t] + h1[t] - 1, left[lower], h2[t], width[lower])
    bits = bits.reshape(len(t), n * n)
    # A stable sort keeps equal images in member order, so in each run of
    # equal keys every image but the first repeats an earlier one.
    keys = bits.view(f"V{n * n}")[:, 0]
    order = np.argsort(keys, kind="stable")
    bits = np.delete(bits, order[1:][keys[order[1:]] == keys[order[:-1]]], axis=0)
    return ImageFamily._of_bits(n, bits, FamilyMeta(f"stacked(min_side={min_side})"))


def gen_random_family(n: int, m: int, seed: int) -> ImageFamily:
    """m distinct images sampled uniformly from all 2^(n*n) images: each a
    getrandbits(n*n) draw, its most significant bit the first pixel, kept
    where it first occurs."""
    total = 1 << (n * n)
    if m > total:
        raise ValueError(f"cannot draw {m} distinct images from {total}")
    rng = random.Random(seed)
    seen: dict[int, None] = {}
    nbits = n * n
    while len(seen) < m:
        seen.setdefault(rng.getrandbits(nbits))
    # Each draw as big-endian bytes; unpacked, its bits follow 8*size - nbits
    # leading zeros.
    size = (nbits + 7) // 8
    packed = np.frombuffer(b"".join(v.to_bytes(size, "big") for v in seen), dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(len(seen), size), axis=1)[:, 8 * size - nbits :]
    return ImageFamily._of_bits(
        n, np.ascontiguousarray(bits), FamilyMeta(f"random(m={m})", seed=seed)
    )


# Most Mersenne Twister words per getrandbits call in random_probes, about
# 256 KB of them: a piece's integer, its bytes and its shifted words are all
# that a draw holds beside its output.  A piece's bit count is a C int.
_DRAW_WORDS = (1 << 16) - 1


def random_probes(n: int, count: int, seed: int) -> np.ndarray:
    """count uniformly random n-by-n images as a (count, n*n) uint8 array:
    one getrandbits(1) per pixel, image by image in flat pixel order, from
    random.Random(seed).  That bit is the top bit of one 32-bit Mersenne
    Twister word, and getrandbits(32 * k) is k such words, first word least
    significant, so drawing whole images in pieces of at most _DRAW_WORDS
    words gives the same bits, in pieces as small as one image."""
    rng = random.Random(seed)
    n2 = n * n
    step = max(1, _DRAW_WORDS // max(n2, 1))
    out = np.empty((count, n2), dtype=np.uint8)
    for a in range(0, count, step):
        rows = min(step, count - a)
        draw = rng.getrandbits(32 * rows * n2).to_bytes(4 * rows * n2, "little")
        out[a : a + rows] = (np.frombuffer(draw, dtype="<u4") >> 31).reshape(rows, n2)
    return out


def _members_and_probes(family: ImageFamily, n_probes: int, seed: int):
    """The family's bit matrix stacked over random_probes(family.n,
    n_probes, seed), and the indicator on each of those rows."""
    probes = random_probes(family.n, n_probes, seed)
    members = family.bit_matrix()
    # Each image's bits as one void value, which compares as its bytes; a
    # probe hits if the sorted members hold it where it would be inserted.
    # (np.isin sorts through np.unique, which imports numpy.ma.)
    key = f"V{family.n * family.n}"
    keys, sought = np.sort(members.view(key)[:, 0]), probes.view(key)[:, 0]
    at = np.minimum(np.searchsorted(keys, sought), len(keys) - 1)
    hits = keys[at] == sought if len(keys) else np.zeros(len(sought), dtype=bool)
    return np.vstack([members, probes]), np.concatenate([np.ones(len(members)), hits])


def _max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| as a float: 0.0 over no rows, NaN if any difference is."""
    return float(np.max(np.abs(a - b), initial=0.0))


_GENERATORS = {
    "rect": gen_rectangle_outlines,
    "bars": gen_vertical_bars,
    "stacked": gen_stacked_outlines,
    "random": gen_random_family,
}


def make_family(name: str, n: int, **params) -> ImageFamily:
    """Dispatch to a named generator: rect, bars, stacked, or random."""
    try:
        gen = _GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown family generator {name!r}") from None
    return gen(n, **params)


def pad_image(image: BinaryImage, new_n: int) -> BinaryImage:
    """Embed an image in the top-left corner of a larger white grid."""
    if new_n < image.n:
        raise ValueError("can only pad to a larger side")
    if new_n == image.n:
        return image
    arr = np.zeros((new_n, new_n), dtype=np.uint8)
    arr[: image.n, : image.n] = image.to_array()
    return BinaryImage.from_array(arr)


def pad_family(family: ImageFamily, new_n: int) -> ImageFamily:
    """Pad every member with white pixels; the indicator is preserved on
    padded originals."""
    n = family.n
    if new_n < n:
        raise ValueError("can only pad to a larger side")
    meta = FamilyMeta(f"{family.meta.name}@pad{new_n}", seed=family.meta.seed)
    bits = np.zeros((len(family), new_n, new_n), dtype=np.uint8)
    bits[:, :n, :n] = family.bit_matrix().reshape(-1, n, n)
    return ImageFamily._of_bits(new_n, bits, meta)


class FamilyFormatError(ValueError):
    """Raised on malformed family files; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def save_family(family: ImageFamily, path) -> None:
    """Write a family file: a header line, then one member per line.

    Output is byte-reproducible: re-saving a loaded family gives the same
    bytes.
    """
    seed = family.meta.seed
    header = f"n={family.n} name={family.meta.name} seed={'none' if seed is None else seed}"
    bits = family.bit_matrix()
    width = bits.shape[1] + 1
    step = max(1, _CHUNK_BYTES // width)
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode("ascii"))
        # Each member row as its '0'/'1' characters and a newline.
        for a in range(0, len(bits), step):
            text = np.full((min(step, len(bits) - a), width), ord("\n"), dtype=np.uint8)
            np.add(bits[a : a + step], ord("0"), out=text[:, :-1])
            fh.write(text)


def load_family(path) -> ImageFamily:
    """Read a family file written by save_family.

    Lines starting with '#' and blank lines are ignored.  Raises
    FamilyFormatError (with the line number) on any malformed content.
    """
    n = None
    meta = None
    bits = bytearray()  # the members' pixels back to back
    seen: set[bytes] = set()
    # Undecodable bytes become lone surrogates, so a non-ASCII line reaches
    # the check below with its number instead of failing the whole read.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line.isascii():
                raise FamilyFormatError(lineno, "non-ASCII byte")
            if not line or line.startswith("#"):
                continue
            if n is None:
                n, meta = _parse_header(lineno, line)
                continue
            if len(line) != n * n:
                raise FamilyFormatError(
                    lineno, f"member has {len(line)} pixels, expected {n * n}"
                )
            member = line.encode("ascii")
            if member.translate(None, b"01"):
                raise FamilyFormatError(lineno, "image text may contain only '0' and '1'")
            member = member.translate(_TEXT_TO_BITS)
            if member in seen:
                raise FamilyFormatError(lineno, "duplicate member")
            seen.add(member)
            bits += member
    if n is None:
        raise FamilyFormatError(0, "missing header line")
    return ImageFamily._of_bits(n, np.frombuffer(bits, dtype=np.uint8), meta)


def _parse_header(lineno: int, line: str) -> tuple[int, FamilyMeta]:
    tokens = line.split()
    fields = {}
    for tok in tokens:
        if "=" not in tok:
            raise FamilyFormatError(lineno, f"bad header token {tok!r}")
        key, _, val = tok.partition("=")
        fields[key] = val
    if set(fields) != {"n", "name", "seed"}:
        raise FamilyFormatError(lineno, "header must define exactly n, name and seed")
    try:
        n = int(fields["n"])
    except ValueError:
        raise FamilyFormatError(lineno, f"bad n value {fields['n']!r}") from None
    if n < 1:
        raise FamilyFormatError(lineno, f"bad n value {n}")
    seed = None
    if fields["seed"] != "none":
        try:
            seed = int(fields["seed"])
        except ValueError:
            raise FamilyFormatError(lineno, f"bad seed value {fields['seed']!r}") from None
    try:
        return n, FamilyMeta(fields["name"], seed=seed)
    except ValueError as exc:
        raise FamilyFormatError(lineno, str(exc)) from None
