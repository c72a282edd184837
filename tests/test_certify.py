"""Tests for the certificate layer and its log-log fit."""

import numpy as np
import pytest

from pixelrank.certify import (
    row_config_counts,
    fixed_row_rank_table,
    fit_loglog,
    random_baseline_profile,
    region_rank_profile,
    verify_row_cut_subadditivity,
)
from pixelrank.images import (
    BinaryImage,
    FamilyMeta,
    ImageFamily,
    Region,
    gen_random_family,
    gen_rectangle_outlines,
    gen_stacked_outlines,
    gen_vertical_bars,
)
from pixelrank.rankcore import exact_rank, region_unfolding, row_prefix_unfolding

from oracles import to_dense


def _count_runs(y: str) -> int:
    runs, prev = 0, "0"
    for ch in y:
        if ch == "1" and prev == "0":
            runs += 1
        prev = ch
    return runs


class TestRowConfigCounts:
    def test_rect_n4_counts(self):
        counts = row_config_counts(gen_rectangle_outlines(4, 3))
        # Oracle: scan members directly.
        fam = gen_rectangle_outlines(4, 3)
        for i in range(1, 5):
            assert counts[i] == len({img.row(i) for img in fam})
        assert counts == {1: 4, 2: 6, 3: 6, 4: 4}

    def test_bars_counts_bounded(self):
        # One black segment per column: a row is all-white or has a single
        # black pixel, so at most n+1 configurations can occur.
        fam = gen_vertical_bars(5, 2)
        counts = row_config_counts(fam)
        assert all(c <= 6 for c in counts.values())

    def test_empty_family_zero_counts(self):
        fam = ImageFamily(3, [], FamilyMeta("none"))
        assert all(c == 0 for c in row_config_counts(fam).values())


class TestFixedRowRanks:
    def test_rect_max_rank_at_most_two(self):
        for n in range(4, 9):
            ranks = fixed_row_rank_table(gen_rectangle_outlines(n, 3))
            assert max(ranks.values()) <= 2

    def test_rect_n8_reaches_two(self):
        ranks = fixed_row_rank_table(gen_rectangle_outlines(8, 3))
        assert max(ranks.values()) == 2

    def test_stacked_two_run_rank_two_exists(self):
        ranks = fixed_row_rank_table(gen_stacked_outlines(8, 3))
        assert any(
            r == 2 and _count_runs(y) == 2 for (i, y), r in ranks.items()
        )

    def test_absent_config_rank_zero(self):
        from pixelrank.rankcore import fixed_row_unfolding

        fam = gen_rectangle_outlines(4, 3)
        # Two adjacent inner pixels never occur as a row of a width >= 3
        # outline.
        assert exact_rank(fixed_row_unfolding(fam, 2, "0110")) == 0

    def test_jobs_do_not_change_results(self):
        fam = gen_rectangle_outlines(5, 3)
        assert fixed_row_rank_table(fam, jobs=1) == fixed_row_rank_table(fam, jobs=2)


class TestSubadditivity:
    @pytest.mark.parametrize(
        "family",
        [
            gen_rectangle_outlines(4, 3),
            gen_rectangle_outlines(6, 3),
            gen_vertical_bars(5, 2),
            gen_stacked_outlines(5, 3),
            gen_random_family(4, 12, seed=9),
        ],
        ids=["rect4", "rect6", "bars5", "stacked5", "random4"],
    )
    def test_inequality_always_holds(self, family):
        assert all(row.holds for row in verify_row_cut_subadditivity(family))

    def test_single_member(self):
        fam = ImageFamily(
            3, [BinaryImage.from_text(3, "111101111")], FamilyMeta("one")
        )
        rows = verify_row_cut_subadditivity(fam)
        assert all(r.row_prefix_rank == 1 and r.fixed_row_rank_sum == 1 for r in rows)

    def test_rect4_middle_cut_values(self):
        rows = {r.i: r for r in verify_row_cut_subadditivity(gen_rectangle_outlines(4, 3))}
        # Both sides computed exactly; at i=2 the bound is tight here.
        assert rows[2].row_prefix_rank == 6
        assert rows[2].fixed_row_rank_sum == 6


class TestRegionRankProfile:
    def test_whole_image_rank_one(self):
        fam = gen_rectangle_outlines(4, 3)
        profile = region_rank_profile(fam, [Region.whole_image(4)])
        assert profile.rows[0].rank == 1

    def test_single_pixel_rank_at_most_two(self):
        fam = gen_rectangle_outlines(4, 3)
        profile = region_rank_profile(fam, [Region.rectangle(2, 2, 1, 1, 4)])
        assert profile.rows[0].rank <= 2

    def test_rect8_quadrant_rank(self):
        fam = gen_rectangle_outlines(8, 3)
        region = Region.rectangle(1, 1, 4, 4, 8)
        profile = region_rank_profile(fam, [region])
        # Exact integer rank, cross-checked against the floating rank of the
        # compressed unfolding.
        assert profile.rows[0].rank == 26
        dense = to_dense(region_unfolding(fam, region))
        assert np.linalg.matrix_rank(dense) == 26

    def test_boundary_mechanism_bound(self):
        # Rank at a row cut never exceeds (configs of the cut row) times
        # (max pinned-row rank): the subadditivity mechanism restated.
        fam = gen_rectangle_outlines(6, 3)
        counts = row_config_counts(fam)
        max_rank = max(fixed_row_rank_table(fam).values())
        for i in range(1, 6):
            lhs = exact_rank(row_prefix_unfolding(fam, i))
            assert lhs <= counts[i] * max_rank

    def test_rejects_non_rectangles(self):
        fam = gen_rectangle_outlines(4, 3)
        with pytest.raises(ValueError):
            region_rank_profile(fam, [Region.row_prefix(2, 4)])


class TestRandomBaseline:
    def test_single_member(self):
        result = random_baseline_profile(3, 1, seed=0, cut=Region.rectangle(1, 1, 1, 3, 3))
        assert result.rank == 1

    def test_rank_hits_member_count(self):
        result = random_baseline_profile(4, 9, seed=7, cut=Region.rectangle(1, 1, 2, 4, 4))
        assert result.cap == 9
        assert result.rank == 9
        # Strictly larger than the equally sized structured family's rank 6
        # at the same cut.
        fam = gen_rectangle_outlines(4, 3)
        structured = exact_rank(row_prefix_unfolding(fam, 2))
        assert structured == 6
        assert result.rank > structured

    def test_random_beats_structured_over_seeds(self):
        fam = gen_rectangle_outlines(4, 3)
        cut = Region.rectangle(1, 1, 2, 4, 4)
        structured = exact_rank(region_unfolding(fam, cut))
        wins = sum(
            random_baseline_profile(4, 9, seed=s, cut=cut).rank >= structured
            for s in range(100)
        )
        assert wins >= 99


class TestScaling:
    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog([(4, 9)], "too short")
