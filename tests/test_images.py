"""Tests for image types, generators, and the family file format."""

import pickle
import random
import tracemalloc

import numpy as np
import pytest

from pixelrank import images
from pixelrank.images import (
    BinaryImage,
    _members_and_probes,
    FamilyFormatError,
    FamilyMeta,
    ImageFamily,
    Region,
    flat_index,
    gen_random_family,
    gen_rectangle_outlines,
    gen_stacked_outlines,
    gen_vertical_bars,
    load_family,
    make_family,
    pad_family,
    pad_image,
    random_probes,
    save_family,
)

from pixelrank.cli import main

from oracles import members_and_probes_per_image, members_per_image, random_probes_per_pixel


# Independent enumeration oracles (built from raw coordinate sets, not the
# generator internals).

def _outline_coords(top, left, h, w):
    return frozenset(
        (i, j)
        for i in range(top, top + h)
        for j in range(left, left + w)
        if i in (top, top + h - 1) or j in (left, left + w - 1)
    )


def _oracle_rect_images(n, min_side):
    out = set()
    for top in range(1, n + 1):
        for left in range(1, n + 1):
            for h in range(min_side, n - top + 2):
                for w in range(min_side, n - left + 2):
                    out.add(_outline_coords(top, left, h, w))
    return out


def _oracle_stacked_images(n, min_side):
    out = set()
    for top in range(1, n + 1):
        for h1 in range(min_side, n - top + 2):
            shared = top + h1 - 1
            for h2 in range(min_side, n - shared + 2):
                for l1 in range(1, n + 1):
                    for w1 in range(min_side, n - l1 + 2):
                        for l2 in range(1, n + 1):
                            for w2 in range(min_side, n - l2 + 2):
                                out.add(
                                    _outline_coords(top, l1, h1, w1)
                                    | _outline_coords(shared, l2, h2, w2)
                                )
    return out


def _black_coords(img):
    return frozenset(
        (i, j)
        for i in range(1, img.n + 1)
        for j in range(1, img.n + 1)
        if img.bits[flat_index(i, j, img.n) - 1]
    )


class TestBinaryImage:
    def test_flat_index_round_trip(self):
        for n in (1, 2, 3, 4, 7):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    k = flat_index(i, j, n)
                    assert 1 <= k <= n * n
                    assert divmod(k - 1, n) == (i - 1, j - 1)

    def test_pixel_access_matches_text(self):
        img = BinaryImage.from_text(2, "0110")
        assert img.bits[flat_index(1, 1, 2) - 1] == 0
        assert img.bits[flat_index(1, 2, 2) - 1] == 1
        assert img.bits[flat_index(2, 1, 2) - 1] == 1
        assert img.bits[flat_index(2, 2, 2) - 1] == 0
        assert img.bits[2 - 1] == 1
        assert img.to_text() == "0110"
        assert img.row(2) == bytes([1, 0])

    def test_array_round_trip(self):
        arr = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        img = BinaryImage.from_array(arr)
        assert np.array_equal(img.to_array(), arr)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="^pixel values must be 0 or 1$"):
            BinaryImage(2, bytes([0, 1, 2, 0]))
        with pytest.raises(ValueError, match="^expected 4 pixels, got 3$"):
            BinaryImage(2, bytes([0, 1, 0]))
        for text in ("01x0", "0120", "01\u00e90", "01\u20030"):
            with pytest.raises(ValueError, match="^image text may contain only '0' and '1'$"):
                BinaryImage.from_text(2, text)
        assert BinaryImage.from_text(2, "0110").bits == bytes([0, 1, 1, 0])
        assert BinaryImage.from_text(2, "0110").to_text() == "0110"


class TestRegion:
    def test_sizes_and_boundaries(self):
        r = Region.rectangle(2, 3, 2, 4, 8)
        assert r.size == 8
        assert r.boundary_length == 12
        assert Region.row_prefix(3, 8).size == 24
        assert Region.row_prefix(3, 8).boundary_length == 22
        assert Region.pixel_prefix(5, 4).size == 5
        assert Region.pixel_prefix(5, 4).boundary_length is None

    def test_pixels(self):
        assert Region.row_prefix(1, 3).pixels() == (1, 2, 3)
        assert Region.pixel_prefix(4, 3).pixels() == (1, 2, 3, 4)
        assert Region.rectangle(2, 2, 2, 2, 3).pixels() == (5, 6, 8, 9)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            Region.row_prefix(4, 4)
        with pytest.raises(ValueError):
            Region.pixel_prefix(16, 4)
        with pytest.raises(ValueError):
            Region.rectangle(3, 3, 3, 3, 4)


class TestRectangleOutlines:
    def test_count_n4(self):
        assert len(gen_rectangle_outlines(4, 3)) == 9

    def test_count_n3_single(self):
        fam = gen_rectangle_outlines(3, 3)
        assert len(fam) == 1
        assert fam.members[0].to_text() == "111101111"

    def test_count_n8_closed_form(self):
        expected = sum(
            (9 - h) * (9 - w) for h in range(3, 9) for w in range(3, 9)
        )
        assert expected == 441
        assert len(gen_rectangle_outlines(8, 3)) == expected

    def test_matches_oracle_enumeration(self):
        fam = gen_rectangle_outlines(6, 3)
        assert {_black_coords(img) for img in fam} == _oracle_rect_images(6, 3)

    def test_too_small_grid(self):
        with pytest.raises(ValueError):
            gen_rectangle_outlines(2, 3)

    def test_every_row_is_white_run_or_two_singletons(self):
        # Rows are all-white, one contiguous run, or two isolated pixels.
        for img in gen_rectangle_outlines(6, 3):
            for i in range(1, 7):
                row = img.row(i)
                runs = []
                j = 0
                while j < len(row):
                    if row[j]:
                        start = j
                        while j < len(row) and row[j]:
                            j += 1
                        runs.append(j - start)
                    else:
                        j += 1
                assert runs == [] or len(runs) == 1 or runs == [1, 1]

    def test_deterministic_order(self):
        a = gen_rectangle_outlines(5, 3)
        b = gen_rectangle_outlines(5, 3)
        assert a.members == b.members

    @pytest.mark.parametrize("min_side", [2, 1, 0, -1])
    def test_min_side_below_three_is_rejected(self, min_side):
        with pytest.raises(ValueError, match=f"min_side must be at least 3, got {min_side}"):
            gen_rectangle_outlines(6, min_side)


class TestVerticalBars:
    def test_count_n2(self):
        assert len(gen_vertical_bars(2, 2)) == 2

    def test_count_n4(self):
        expected = sum((5 - length) * 4 for length in range(2, 5))
        assert expected == 24
        assert len(gen_vertical_bars(4, 2)) == expected

    def test_min_len_too_large(self):
        with pytest.raises(ValueError):
            gen_vertical_bars(4, 5)

    @pytest.mark.parametrize("min_len", [0, -2])
    def test_min_len_below_one_is_rejected(self, min_len):
        # min_len 0 would add the all-white image.
        with pytest.raises(ValueError, match=f"min_len must be at least 1, got {min_len}"):
            gen_vertical_bars(4, min_len)

    def test_members_are_single_column_segments(self):
        for img in gen_vertical_bars(4, 2):
            arr = img.to_array()
            cols = np.nonzero(arr.any(axis=0))[0]
            assert len(cols) == 1
            rows = np.nonzero(arr[:, cols[0]])[0]
            assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))
            assert len(rows) >= 2


class TestStackedOutlines:
    def test_count_n5(self):
        # All width >= 3 placements of both boxes: 6 upper x 6 lower.
        fam = gen_stacked_outlines(5, 3)
        assert {_black_coords(img) for img in fam} == _oracle_stacked_images(5, 3)
        assert len(fam) == 36

    def test_count_n8_oracle(self):
        fam = gen_stacked_outlines(8, 3)
        oracle = _oracle_stacked_images(8, 3)
        assert len(fam) == len(oracle) == 8820

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_stacked_outlines(4, 3)

    @pytest.mark.parametrize("min_side", [0, -1])
    def test_min_side_below_one_is_rejected(self, min_side):
        # An upper outline of height 0 would start its bottom edge in row 0,
        # whose flat indices wrap into the last row.
        with pytest.raises(ValueError, match=f"min_side must be at least 1, got {min_side}"):
            gen_stacked_outlines(3, min_side)

    def test_min_side_one_stays_in_the_grid(self):
        fam = gen_stacked_outlines(3, 1)
        assert {_black_coords(img) for img in fam} == _oracle_stacked_images(3, 1)

    def test_shared_row_has_ink(self):
        for img in gen_stacked_outlines(5, 3):
            assert any(img.row(3))


class TestRandomFamily:
    def test_exhaustive_n2(self):
        fam = gen_random_family(2, 16, seed=0)
        assert len(fam) == 16
        assert len({img.bits for img in fam}) == 16

    def test_determinism(self):
        a = gen_random_family(4, 9, seed=7)
        b = gen_random_family(4, 9, seed=7)
        assert a.members == b.members

    def test_seed_changes_sample(self):
        a = gen_random_family(4, 9, seed=7)
        b = gen_random_family(4, 9, seed=8)
        assert {i.bits for i in a} != {i.bits for i in b}

    def test_m_too_large(self):
        with pytest.raises(ValueError):
            gen_random_family(2, 17, seed=0)


class TestGeneratorsMatchPerImage:
    """Each generator fills its bit matrix with numpy; the per-image
    reference draws one image at a time from its pixel set."""

    @pytest.mark.parametrize(
        "name, n, params",
        [
            ("rect", 3, {}),
            ("rect", 4, {}),
            ("rect", 7, {}),
            ("rect", 9, {"min_side": 4}),
            ("rect", 6, {"min_side": 6}),
            ("bars", 1, {"min_len": 1}),
            ("bars", 5, {"min_len": 1}),
            ("bars", 8, {}),
            ("bars", 6, {"min_len": 4}),
            ("stacked", 1, {"min_side": 1}),
            ("stacked", 3, {"min_side": 1}),
            ("stacked", 5, {}),
            ("stacked", 5, {"min_side": 1}),
            ("stacked", 5, {"min_side": 2}),
            ("stacked", 6, {"min_side": 1}),
            ("stacked", 7, {}),
            ("random", 1, {"m": 2, "seed": 0}),
            ("random", 2, {"m": 16, "seed": 3}),
            ("random", 3, {"m": 0, "seed": 0}),
            ("random", 3, {"m": 7, "seed": 5}),
            ("random", 5, {"m": 40, "seed": 16}),
            ("random", 7, {"m": 225, "seed": 1}),
        ],
    )
    def test_member_for_member_in_order(self, name, n, params):
        bits = make_family(name, n, **params).bit_matrix()
        assert bits.dtype == np.uint8 and bits.shape[1] == n * n and bits.flags.c_contiguous
        assert [row.tobytes() for row in bits] == members_per_image(name, n, **params)

    def test_stacked_small_sides_repeat_images(self):
        """Below side 3 some placements draw the same figure eight, so the
        stacked n=5 min_side=1 case above checks that each image is kept
        where it first occurs."""
        n = 5
        # (top, shared row, lower height) triples, and (left, width) pairs.
        triples = sum(n - shared + 1 for top in range(1, n + 1) for shared in range(top, n + 1))
        pairs = n * (n + 1) // 2
        assert len(gen_stacked_outlines(n, 1)) < triples * pairs**2


class TestRandomProbes:
    @pytest.mark.parametrize(
        "n, count, seed", [(8, 10000, 0), (7, 2000, 0), (3, 5, 9), (1, 1, 2), (4, 0, 1)]
    )
    def test_same_bits_as_one_draw_per_pixel(self, n, count, seed):
        probes = random_probes(n, count, seed)
        assert probes.dtype == np.uint8 and probes.shape == (count, n * n)
        assert np.array_equal(probes, random_probes_per_pixel(n, count, seed))

    @pytest.mark.parametrize("words", [1, 9, 20, 47, 63, 64, 65, images._DRAW_WORDS])
    def test_drawn_in_pieces_same_bits(self, words, monkeypatch):
        # Whole images go into each piece, at least one per piece.
        monkeypatch.setattr(images, "_DRAW_WORDS", words)
        for n, count, seed in ((3, 7, 1), (4, 5, 0), (1, 3, 2), (2, 0, 4), (8, 5, 3)):
            probes = random_probes(n, count, seed)
            assert np.array_equal(probes, random_probes_per_pixel(n, count, seed))

    def test_traced_peak_near_the_output(self):
        """Pieces of at most _DRAW_WORDS words keep the draw's own integer
        and bytes small beside the (count, n*n) output, 5.12 MB here."""
        tracemalloc.start()
        try:
            probes = random_probes(16, 20_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * probes.nbytes, (peak, probes.nbytes)


class TestMembersAndProbes:
    @pytest.mark.parametrize(
        "family, n_probes",
        [
            (gen_rectangle_outlines(5), 2000),
            # Among 10,000 probes of n=4, one is a member.
            (gen_random_family(4, 40, seed=0), 10_000),
            (pad_family(gen_vertical_bars(3, 2), 4), 2000),
            (ImageFamily(3, [], FamilyMeta("none")), 2000),
            # What `pixelrank gen --family random --n 3 --m 0` writes.
            (make_family("random", 3, m=0, seed=0), 2000),
            (gen_rectangle_outlines(5), 0),
        ],
        ids=["rect5", "random4", "padded", "empty", "gen-random-m0", "no-probes"],
    )
    def test_same_rows_and_truth_as_per_image_lookup(self, family, n_probes):
        bits, truth = _members_and_probes(family, n_probes, seed=0)
        want_bits, want_truth = members_and_probes_per_image(family, n_probes, seed=0)
        assert np.array_equal(bits, want_bits)
        assert truth.dtype == want_truth.dtype and np.array_equal(truth, want_truth)
        assert truth.shape == (len(family) + n_probes,)

    @pytest.mark.parametrize("m", [1, 7, 16])
    def test_duplicated_probes_that_hit(self, m):
        """n=2 has 16 images, so 500 probes repeat every one of them; at
        m=16 every probe is a member."""
        family = gen_random_family(2, m, seed=1)
        bits, truth = _members_and_probes(family, 500, seed=0)
        probes = {row.tobytes() for row in bits[m:]}
        assert len(probes) == 16
        hits = truth[m:].sum()
        assert 0 < hits <= 500 and (hits == 500) == (m == 16)
        _, want_truth = members_and_probes_per_image(family, 500, seed=0)
        assert np.array_equal(truth, want_truth)


class TestFamilyBehaviour:
    def test_membership_matches_linear_scan(self):
        fam = gen_rectangle_outlines(4, 3)
        rng = random.Random(123)
        member_bits = {img.bits for img in fam}
        for _ in range(10_000):
            probe = BinaryImage(4, bytes(rng.getrandbits(1) for _ in range(16)))
            assert (probe in fam) == (probe.bits in member_bits)

    def test_duplicates_collapse(self):
        img = BinaryImage.from_text(2, "1000")
        fam = ImageFamily(2, [img, img], FamilyMeta("dup"))
        assert len(fam) == 1

    def test_side_mismatch(self):
        with pytest.raises(ValueError):
            ImageFamily(3, [BinaryImage.from_text(2, "1000")], FamilyMeta("bad"))

    def test_make_family_dispatch(self):
        assert len(make_family("rect", 4, min_side=3)) == 9
        assert len(make_family("random", 3, m=5, seed=1)) == 5
        with pytest.raises(ValueError):
            make_family("blobs", 4)

    def test_bit_matrix_is_built_once_and_read_only(self):
        fam = gen_rectangle_outlines(4, 3)
        empty = ImageFamily(3, [], FamilyMeta("empty"))
        for family in (fam, empty):
            bits = family.bit_matrix()
            assert family.bit_matrix() is bits
            assert bits.dtype == np.uint8
            assert bits.shape == (len(family), family.n * family.n)
            assert not bits.flags.writeable
            with pytest.raises(ValueError):
                bits[..., 0] = 1
        assert [row.tobytes() for row in fam.bit_matrix()] == [img.bits for img in fam]

    def test_bit_matrix_read_only_after_pickling(self):
        fam = gen_rectangle_outlines(4, 3)
        fam.bit_matrix()
        copy = pickle.loads(pickle.dumps(fam))
        assert copy == fam
        assert not copy.bit_matrix().flags.writeable
        assert np.array_equal(copy.bit_matrix(), fam.bit_matrix())

    def test_pad_equals_padding_each_member(self):
        for fam, new_n in ((gen_vertical_bars(3, 2), 3), (gen_rectangle_outlines(5), 8)):
            padded = pad_family(fam, new_n)
            assert padded.members == tuple(pad_image(img, new_n) for img in fam)
            assert padded.meta == FamilyMeta(f"{fam.meta.name}@pad{new_n}")

    def test_pad_checks_the_side_with_no_members(self, tmp_path):
        """What `pixelrank gen --family random --n 3 --m 0` writes: the side
        is checked once for the family, not once per member."""
        path = tmp_path / "empty.fam"
        save_family(make_family("random", 3, m=0, seed=0), path)
        empty = load_family(path)
        for new_n in (2, 1, 0):
            with pytest.raises(ValueError, match="^can only pad to a larger side$"):
                pad_family(empty, new_n)
        padded = pad_family(empty, 4)
        assert padded.n == 4 and len(padded) == 0
        assert padded.bit_matrix().shape == (0, 16)

    def test_pad_preserves_content(self):
        fam = gen_vertical_bars(3, 2)
        padded = pad_family(fam, 4)
        assert padded.n == 4
        assert len(padded) == len(fam)
        for img in fam:
            assert pad_image(img, 4) in padded
            arr = pad_image(img, 4).to_array()
            assert arr[3, :].sum() == 0 and arr[:, 3].sum() == 0


class TestFamilyFiles:
    def test_round_trip_equality_and_bytes(self, tmp_path):
        fam = gen_rectangle_outlines(4, 3)
        path = tmp_path / "rect4.fam"
        save_family(fam, path)
        loaded = load_family(path)
        assert loaded == fam
        again = tmp_path / "again.fam"
        save_family(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_seed_round_trip(self, tmp_path):
        fam = gen_random_family(3, 4, seed=11)
        path = tmp_path / "r.fam"
        save_family(fam, path)
        loaded = load_family(path)
        assert loaded.meta.seed == 11
        assert loaded == fam

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "f.fam"
        path.write_text("# a comment\nn=2 name=tiny seed=none\n\n1000\n# another\n0100\n")
        fam = load_family(path)
        assert len(fam) == 2 and fam.n == 2

    def test_empty_member_section_is_valid(self, tmp_path):
        path = tmp_path / "e.fam"
        path.write_text("n=3 name=empty seed=none\n")
        fam = load_family(path)
        assert len(fam) == 0 and fam.n == 3

    def test_wrong_length_reports_line(self, tmp_path):
        path = tmp_path / "bad.fam"
        path.write_text("n=4 name=x seed=none\n" + "1" * 15 + "\n")
        with pytest.raises(FamilyFormatError) as err:
            load_family(path)
        assert err.value.line == 2

    def test_bad_character_reports_line(self, tmp_path):
        path = tmp_path / "bad.fam"
        for bad in ("10x0", "1020"):
            path.write_text(f"n=2 name=x seed=none\n1000\n{bad}\n")
            with pytest.raises(FamilyFormatError) as err:
                load_family(path)
            assert err.value.line == 3
            assert str(err.value) == "line 3: image text may contain only '0' and '1'"

    def test_non_ascii_byte_reports_line(self, tmp_path):
        path = tmp_path / "bad.fam"
        path.write_bytes(b"n=2 name=x seed=none\n1000\n10\xc3\xa90\n")
        with pytest.raises(FamilyFormatError) as err:
            load_family(path)
        assert err.value.line == 3
        assert str(err.value) == "line 3: non-ASCII byte"

    def test_duplicate_member_reports_line(self, tmp_path):
        path = tmp_path / "dup.fam"
        path.write_text("n=2 name=x seed=none\n1000\n1000\n")
        with pytest.raises(FamilyFormatError) as err:
            load_family(path)
        assert err.value.line == 3

    def test_duplicate_above_a_malformed_line_is_reported_first(self, tmp_path):
        path = tmp_path / "dup.fam"
        path.write_text("n=2 name=x seed=none\n1000\n0100\n0100\n1000\n10x0\n")
        with pytest.raises(FamilyFormatError) as err:
            load_family(path)
        assert str(err.value) == "line 4: duplicate member"
        path.write_text("n=2 name=x seed=none\n1000\n10x0\n1000\n")
        with pytest.raises(FamilyFormatError) as err:
            load_family(path)
        assert str(err.value) == "line 3: image text may contain only '0' and '1'"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.fam"
        path.write_text("n=2 name=x\n")
        with pytest.raises(FamilyFormatError):
            load_family(path)
        path.write_text("n=two name=x seed=none\n")
        with pytest.raises(FamilyFormatError):
            load_family(path)


class TestNoMemberObjects:
    """gen, load_family, pad_family, bit_matrix() and certify work on the
    family's bit matrix alone; a BinaryImage is made only for a caller who
    asks for members or iterates."""

    def test_paths_make_no_image_objects(self, tmp_path, monkeypatch):
        made = []
        post_init = BinaryImage.__post_init__

        def counting_post_init(self):
            made.append(self.n)
            post_init(self)

        monkeypatch.setattr(BinaryImage, "__post_init__", counting_post_init)
        gens = {
            "rect6": ["--family", "rect", "--n", 6],
            "bars5": ["--family", "bars", "--n", 5, "--min-len", 1],
            "stacked5": ["--family", "stacked", "--n", 5, "--min-side", 1],
            "random4": ["--family", "random", "--n", 4, "--m", 20, "--seed", 3],
            "empty": ["--family", "random", "--n", 3, "--m", 0],
        }
        for name, args in gens.items():
            assert main(["gen", *map(str, args), "--out", str(tmp_path / f"{name}.fam")]) == 0
            fam = load_family(tmp_path / f"{name}.fam")
            fam.bit_matrix()
            pad_family(fam, fam.n + 2).bit_matrix()
        report = tmp_path / "rect6.certify"
        assert main(["certify", "--family-file", str(tmp_path / "rect6.fam"), "--out", str(report)]) == 0
        assert made == []

        # What asks for members still gets them, as BinaryImages.
        fam = load_family(tmp_path / "rect6.fam")
        want = [BinaryImage(6, bits) for bits in members_per_image("rect", 6)]
        made.clear()
        assert fam.members == tuple(want)
        assert list(fam) == want
        assert len(made) == 2 * len(want)
        assert len(fam) == len(want) == 100
        assert all(img in fam for img in want)
        assert BinaryImage(6, bytes(36)) not in fam
        assert BinaryImage(5, want[0].bits[:25]) not in fam
        assert None not in fam and want[0].bits not in fam
        # Equality ignores order and compares sides and meta.
        assert ImageFamily(6, reversed(want), fam.meta) == fam
        assert ImageFamily(6, want[1:], fam.meta) != fam
        assert ImageFamily(6, want, FamilyMeta("other")) != fam
        assert pad_family(fam, 6) != fam and (fam == 6) is False
        copy = pickle.loads(pickle.dumps(fam))
        assert copy == fam and copy.members == fam.members
        assert not copy.bit_matrix().flags.writeable
