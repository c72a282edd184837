"""Certificates for the structural properties of image families: row
configuration counts, fixed-row unfolding ranks, the row-cut subadditivity
inequality, region rank profiles with log-log fits, and random baselines."""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

from .images import ImageFamily, Region, gen_random_family
from .rankcore import (
    exact_rank,
    fixed_row_unfolding,
    region_unfolding,
    row_prefix_unfolding,
)

__all__ = [
    "ScalingReport",
    "SubadditivityRow",
    "RegionRankRow",
    "RegionRankProfile",
    "BaselineResult",
    "row_configurations",
    "row_config_counts",
    "fixed_row_rank_table",
    "verify_row_cut_subadditivity",
    "region_rank_profile",
    "random_baseline_profile",
    "fit_loglog",
]


def _pmap(fn, items, jobs):
    """Ordered map, optionally over a process pool; results never depend on
    the degree of parallelism."""
    items = list(items)
    if jobs and jobs > 1 and len(items) > 1:
        with multiprocessing.Pool(processes=min(jobs, len(items))) as pool:
            return pool.map(fn, items)
    return [fn(x) for x in items]


def row_configurations(family: ImageFamily, i: int) -> tuple[bytes, ...]:
    """Distinct configurations of row i among the members, sorted."""
    return tuple(sorted({img.row(i) for img in family}))


def row_config_counts(family: ImageFamily) -> dict[int, int]:
    """Distinct row-configuration count per row index."""
    return {i: len(row_configurations(family, i)) for i in range(1, family.n + 1)}


def _fixed_row_ranks_for_row(args):
    family, i = args
    out = {}
    for y in row_configurations(family, i):
        out[(i, "".join("01"[b] for b in y))] = exact_rank(fixed_row_unfolding(family, i, y))
    return out


def fixed_row_rank_table(family: ImageFamily, jobs: int = 1) -> dict[tuple[int, str], int]:
    """Exact rank of the row-i-pinned unfolding, for every row i and every
    occurring configuration y."""
    ranks: dict[tuple[int, str], int] = {}
    for chunk in _pmap(
        _fixed_row_ranks_for_row,
        [(family, i) for i in range(1, family.n + 1)],
        jobs,
    ):
        ranks.update(chunk)
    return ranks


@dataclass
class SubadditivityRow:
    i: int
    row_prefix_rank: int
    fixed_row_rank_sum: int
    holds: bool


def _subadditivity_row(args):
    family, i = args
    lhs = exact_rank(row_prefix_unfolding(family, i))
    rhs = sum(
        exact_rank(fixed_row_unfolding(family, i, y))
        for y in row_configurations(family, i)
    )
    return SubadditivityRow(i, lhs, rhs, lhs <= rhs)


def verify_row_cut_subadditivity(family: ImageFamily, jobs: int = 1) -> list[SubadditivityRow]:
    """For every row cut i: rank of the row-prefix unfolding against the sum
    of pinned-row ranks over occurring configurations of row i.

    The inequality lhs <= rhs always holds; a False flag signals a bug.
    """
    if family.n < 2:
        return []
    return _pmap(_subadditivity_row, [(family, i) for i in range(1, family.n)], jobs)


@dataclass
class ScalingReport:
    """A measured series with its least-squares slope on log2/log2 axes."""

    label: str
    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float


def fit_loglog(points, label: str = "") -> ScalingReport:
    """Least-squares line through (log2 x, log2 y) for the positive points."""
    pts = [(float(x), float(y)) for x, y in points]
    pos = [(x, y) for x, y in pts if x > 0 and y > 0]
    if len(pos) < 2:
        raise ValueError("need at least 2 positive points to fit a slope")
    lx = np.log2([x for x, _ in pos])
    ly = np.log2([y for _, y in pos])
    slope, intercept = np.polyfit(lx, ly, 1)
    return ScalingReport(label, tuple(pts), float(slope), float(intercept))


@dataclass
class RegionRankRow:
    region: Region
    area: int
    boundary: int
    rank: int


@dataclass
class RegionRankProfile:
    rows: list[RegionRankRow]
    vs_boundary: ScalingReport | None
    vs_area: ScalingReport | None


def region_rank_profile(family: ImageFamily, regions: list[Region]) -> RegionRankProfile:
    """Exact region-against-complement ranks with fits of log rank against
    the region boundary length and against the region area."""
    for region in regions:
        if region.kind != "rectangle":
            raise ValueError("region rank profiles expect rectangular regions")
    rows = [
        RegionRankRow(r, r.size, r.boundary_length, exact_rank(region_unfolding(family, r)))
        for r in regions
    ]
    def _try_fit(points, label):
        try:
            return fit_loglog(points, label)
        except ValueError:
            return None
    vs_boundary = _try_fit([(row.boundary, row.rank) for row in rows], "rank vs boundary")
    vs_area = _try_fit([(row.area, row.rank) for row in rows], "rank vs area")
    return RegionRankProfile(rows, vs_boundary, vs_area)


@dataclass
class BaselineResult:
    n: int
    m: int
    seed: int
    cut: Region
    rank: int
    cap: int


def random_baseline_profile(n: int, m: int, seed: int, cut: Region) -> BaselineResult:
    """Exact rank of a uniformly random m-member family at the given cut,
    reported alongside the cap min(m, 2^|A|, 2^|complement|)."""
    if m < 1:
        raise ValueError("need at least one member")
    family = gen_random_family(n, m, seed)
    rank = exact_rank(region_unfolding(family, cut))
    inside = cut.size
    outside = n * n - inside
    cap = min(m, 1 << min(inside, 60), 1 << min(outside, 60))
    return BaselineResult(n, m, seed, cut, rank, cap)
