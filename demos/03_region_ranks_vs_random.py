"""Exact region-against-complement ranks: for structured families the rank
grows with the region boundary, while a random family of the same size
reaches the dimension cap at the half cut."""

from pixelrank import (
    Region,
    exact_rank,
    gen_rectangle_outlines,
    random_baseline_profile,
    region_rank_profile,
    region_unfolding,
)


def main():
    fam = gen_rectangle_outlines(8, 3)
    print(f"rectangle outlines, n=8: {len(fam)} members")

    regions = [
        Region.rectangle(1, 1, 2, 2, 8),
        Region.rectangle(1, 1, 2, 4, 8),
        Region.rectangle(1, 1, 4, 4, 8),
        Region.rectangle(1, 1, 4, 8, 8),
    ]
    profile = region_rank_profile(fam, regions)
    print("\nregion        area  boundary  rank")
    for row in profile.rows:
        print(f"{row.region.describe():14s} {row.area:4d}  {row.boundary:6d}  {row.rank:4d}")
    if profile.vs_boundary:
        print(f"log-log slope of rank vs boundary: {profile.vs_boundary.slope:.2f}")
    whole = region_rank_profile(fam, [Region.whole_image(8)]).rows[0]
    print(f"(whole image: rank {whole.rank}; the complement side is a single configuration)")

    # Same member count, no structure: the rank pegs at the cap.
    cut = Region.rectangle(1, 1, 4, 8, 8)
    structured = exact_rank(region_unfolding(fam, cut))
    baseline = random_baseline_profile(8, len(fam), seed=1, cut=cut)
    print(f"\nat the half cut {cut.describe()}:")
    print(f"  structured rank {structured}")
    print(f"  random rank     {baseline.rank} (cap {baseline.cap})")


if __name__ == "__main__":
    main()
