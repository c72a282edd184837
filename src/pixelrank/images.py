"""Binary images on an n-by-n pixel grid, structured synthetic families,
and the plain-text family file format.

Pixels are indexed 1-based: the pixel in row i, column j has flat index
k = (i - 1) * n + j, so flat order is row-major, and an image's pixel k is
bits[k - 1].  A Region names a pixel set; rankcore's Bipartition.from_region
splits the grid along it for unfold.
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
    """An explicit finite set of same-sized binary images.

    The family realizes the indicator function f with f(x) = 1 exactly for
    the stored members.  Member order is the (deterministic) order of first
    insertion; equality ignores order; `image in family` is f(image).
    """

    def __init__(self, n: int, members, meta: FamilyMeta):
        if n < 1:
            raise ValueError(f"side length must be positive, got {n}")
        self.n = n
        self.meta = meta
        uniq: dict[BinaryImage, None] = {}
        for img in members:
            if img.n != n:
                raise ValueError(
                    f"member side {img.n} does not match family side {n}"
                )
            uniq.setdefault(img)
        self._members: tuple[BinaryImage, ...] = tuple(uniq)
        self._member_set = frozenset(self._members)
        self._bit_matrix: np.ndarray | None = None
        # rankcore._member_index: the members grouped by their values on
        # the last pixel set looked up (a pin, or a row's configurations),
        # built on the first lookup of that set.
        self._pin_index: tuple | None = None

    def __getstate__(self):
        # The bit matrix and the pin index are rebuilt on demand: an
        # unpickled array would be writeable, and leaving them out keeps
        # pickles small.
        return {**self.__dict__, "_bit_matrix": None, "_pin_index": None}

    @property
    def members(self) -> tuple[BinaryImage, ...]:
        return self._members

    def bit_matrix(self) -> np.ndarray:
        """Member pixels as a read-only (len(family), n*n) uint8 array,
        row-major; built on the first call, the same array after that."""
        if self._bit_matrix is None:
            mat = np.frombuffer(
                b"".join(img.bits for img in self._members), dtype=np.uint8
            ).reshape(len(self._members), self.n * self.n)
            mat.flags.writeable = False
            self._bit_matrix = mat
        return self._bit_matrix

    def __contains__(self, image: BinaryImage) -> bool:
        return image in self._member_set

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImageFamily):
            return NotImplemented
        return (
            self.n == other.n
            and self._member_set == other._member_set
            and self.meta == other.meta
        )

    def __repr__(self) -> str:
        return f"ImageFamily(n={self.n}, members={len(self)}, meta={self.meta})"


def _outline_pixels(top: int, left: int, h: int, w: int) -> set[tuple[int, int]]:
    """Pixel (row, col) set of a one-pixel rectangle border."""
    bottom, right = top + h - 1, left + w - 1
    pix = {(i, j) for i in (top, bottom) for j in range(left, right + 1)}
    return pix | {(i, j) for i in range(top, bottom + 1) for j in (left, right)}


def _image_from_pixels(n: int, pix) -> BinaryImage:
    buf = bytearray(n * n)
    for i, j in pix:
        buf[flat_index(i, j, n) - 1] = 1
    return BinaryImage(n, bytes(buf))


def gen_rectangle_outlines(n: int, min_side: int = 3) -> ImageFamily:
    """All one-pixel rectangle borders with a white interior and exterior.

    Enumerates (top, left, height, width) lexicographically over every
    placement with height, width >= min_side.  min_side must be at least 3,
    which keeps the interior nonempty, so middle rows show two isolated
    black pixels rather than a solid run.
    """
    if min_side < 3:
        raise ValueError(f"min_side must be at least 3, got {min_side}")
    if n < min_side:
        raise ValueError(f"no outline of side >= {min_side} fits in a {n}x{n} grid")
    members = []
    for top in range(1, n + 1):
        for left in range(1, n + 1):
            for h in range(min_side, n - top + 2):
                for w in range(min_side, n - left + 2):
                    members.append(
                        _image_from_pixels(n, _outline_pixels(top, left, h, w))
                    )
    return ImageFamily(n, members, FamilyMeta(f"rect(min_side={min_side})"))


def gen_vertical_bars(n: int, min_len: int = 2) -> ImageFamily:
    """All single vertical segments of length >= min_len in one column;
    min_len must be at least 1."""
    if min_len < 1:
        raise ValueError(f"min_len must be at least 1, got {min_len}")
    if n < min_len:
        raise ValueError(f"no bar of length >= {min_len} fits in a {n}x{n} grid")
    members = []
    for col in range(1, n + 1):
        for top in range(1, n + 1):
            for length in range(min_len, n - top + 2):
                members.append(
                    _image_from_pixels(n, {(i, col) for i in range(top, top + length)})
                )
    return ImageFamily(n, members, FamilyMeta(f"bars(min_len={min_len})"))


def gen_stacked_outlines(n: int, min_side: int = 3) -> ImageFamily:
    """Two vertically stacked rectangle outlines sharing their middle
    horizontal edge row, like a figure eight.

    The upper outline's bottom edge row and the lower outline's top edge
    row coincide; horizontal placements and widths vary independently.
    min_side must be at least 1.
    """
    if min_side < 1:
        raise ValueError(f"min_side must be at least 1, got {min_side}")
    if n < 2 * min_side - 1:
        raise ValueError(
            f"two stacked outlines of side >= {min_side} need a grid of side >= {2 * min_side - 1}"
        )
    members = []
    for top in range(1, n + 1):
        for h1 in range(min_side, n - top + 2):
            shared = top + h1 - 1
            for h2 in range(min_side, n - shared + 2):
                for left1 in range(1, n + 1):
                    for w1 in range(min_side, n - left1 + 2):
                        for left2 in range(1, n + 1):
                            for w2 in range(min_side, n - left2 + 2):
                                pix = _outline_pixels(top, left1, h1, w1)
                                pix |= _outline_pixels(shared, left2, h2, w2)
                                members.append(_image_from_pixels(n, pix))
    return ImageFamily(n, members, FamilyMeta(f"stacked(min_side={min_side})"))


def gen_random_family(n: int, m: int, seed: int) -> ImageFamily:
    """m distinct images sampled uniformly from all 2^(n*n) images."""
    total = 1 << (n * n)
    if m > total:
        raise ValueError(f"cannot draw {m} distinct images from {total}")
    rng = random.Random(seed)
    seen: dict[int, None] = {}
    nbits = n * n
    while len(seen) < m:
        seen.setdefault(rng.getrandbits(nbits))
    members = [
        BinaryImage(n, bytes((v >> (nbits - 1 - t)) & 1 for t in range(nbits)))
        for v in seen
    ]
    return ImageFamily(n, members, FamilyMeta(f"random(m={m})", seed=seed))


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
    meta = FamilyMeta(f"{family.meta.name}@pad{new_n}", seed=family.meta.seed)
    return ImageFamily(new_n, (pad_image(img, new_n) for img in family), meta)


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
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for img in family:
            fh.write(img.to_text() + "\n")


def load_family(path) -> ImageFamily:
    """Read a family file written by save_family.

    Lines starting with '#' and blank lines are ignored.  Raises
    FamilyFormatError (with the line number) on any malformed content.
    """
    n = None
    meta = None
    members: list[BinaryImage] = []
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
                tokens = line.split()
                fields = {}
                for tok in tokens:
                    if "=" not in tok:
                        raise FamilyFormatError(lineno, f"bad header token {tok!r}")
                    key, _, val = tok.partition("=")
                    fields[key] = val
                if set(fields) != {"n", "name", "seed"}:
                    raise FamilyFormatError(
                        lineno, "header must define exactly n, name and seed"
                    )
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
                        raise FamilyFormatError(
                            lineno, f"bad seed value {fields['seed']!r}"
                        ) from None
                try:
                    meta = FamilyMeta(fields["name"], seed=seed)
                except ValueError as exc:
                    raise FamilyFormatError(lineno, str(exc)) from None
                continue
            if len(line) != n * n:
                raise FamilyFormatError(
                    lineno, f"member has {len(line)} pixels, expected {n * n}"
                )
            try:
                img = BinaryImage.from_text(n, line)
            except ValueError as exc:
                raise FamilyFormatError(lineno, str(exc)) from None
            if img.bits in seen:
                raise FamilyFormatError(lineno, "duplicate member")
            seen.add(img.bits)
            members.append(img)
    if n is None:
        raise FamilyFormatError(0, "missing header line")
    return ImageFamily(n, members, meta)
