"""Certificates for the structural properties of image families: row
configuration counts, fixed-row unfolding ranks, the row-cut subadditivity
inequality and the block-partition bound at a pixel-prefix cut, region rank
profiles with log-log fits, and random baselines."""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .images import ImageFamily, Region, gen_random_family
from .rankcore import Bipartition, _member_index, exact_rank, unfold

__all__ = [
    "ScalingReport",
    "SubadditivityRow",
    "RegionRankRow",
    "RegionRankProfile",
    "BaselineResult",
    "row_configurations",
    "row_config_counts",
    "fixed_row_rank_table",
    "block_partition_bound",
    "verify_row_cut_subadditivity",
    "region_rank_profile",
    "random_baseline_profile",
    "fit_loglog",
]


# A pool worker's family, handed over once when the worker starts.
_worker_family: ImageFamily | None = None


def _adopt_family(family: ImageFamily) -> None:
    global _worker_family
    _worker_family = family


def _on_worker_family(fn, i):
    return fn(_worker_family, i)


def _pmap(fn, family: ImageFamily, rows, jobs):
    """[fn(family, i) for i in rows], optionally over a process pool of at
    most jobs workers, one per row and per CPU this process may use;
    results never depend on the degree of parallelism.

    Each worker receives the family once, when it starts, and its tasks are
    row indices.  Under fork the workers inherit the family, its bit matrix
    built here included, and nothing is pickled; under spawn or forkserver
    it is pickled once per worker.
    """
    rows = list(rows)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs or 1, len(rows), cpus)
    if workers > 1:
        import multiprocessing  # imported here: a run without a pool never needs it
        family.bit_matrix()
        with multiprocessing.Pool(workers, initializer=_adopt_family, initargs=(family,)) as pool:
            return pool.map(functools.partial(_on_worker_family, fn), rows)
    return [fn(family, i) for i in rows]


def row_configurations(family: ImageFamily, i: int) -> tuple[bytes, ...]:
    """Distinct configurations of row i among the members, sorted: the keys
    of the family's member index on the row, which pinning row i reuses."""
    return tuple(_member_index(family, Bipartition.fixed_row(i, family.n).fixed)[0])


def row_config_counts(family: ImageFamily) -> dict[int, int]:
    """Distinct row-configuration count per row index."""
    return {i: len(row_configurations(family, i)) for i in range(1, family.n + 1)}


def _pinned_row_ranks(family: ImageFamily, i: int) -> dict[bytes, int]:
    """{y: exact rank of the row-i-pinned unfolding} over the occurring
    configurations y of row i; their sum bounds the rank at row cut i."""
    bipartition = Bipartition.fixed_row(i, family.n)
    return {
        y: exact_rank(unfold(family, bipartition, y))
        for y in row_configurations(family, i)
    }


def fixed_row_rank_table(family: ImageFamily, jobs: int = 1) -> dict[tuple[int, str], int]:
    """Exact rank of the row-i-pinned unfolding, for every row i and every
    occurring configuration y, keyed (i, y as a string of 0s and 1s)."""
    rows = range(1, family.n + 1)
    return {
        (i, "".join("01"[b] for b in y)): r
        for i, ranks in zip(rows, _pmap(_pinned_row_ranks, family, rows, jobs))
        for y, r in ranks.items()
    }


def block_partition_bound(family: ImageFamily, k: int) -> int:
    """Upper bound on the rank of the pixel-prefix unfolding at cut k.

    The prefix cuts through row i = ceil(k / n); grouping matrix blocks by
    the configuration of that whole row bounds the rank by the sum of
    pinned-row ranks over occurring configurations of row i.
    """
    n = family.n
    if not 1 <= k <= n * n - 1:
        raise ValueError(f"cut {k} out of range for n={n}")
    return sum(_pinned_row_ranks(family, (k - 1) // n + 1).values())


@dataclass
class SubadditivityRow:
    i: int
    row_prefix_rank: int
    fixed_row_rank_sum: int
    holds: bool


def _subadditivity_row(family: ImageFamily, i: int) -> SubadditivityRow:
    lhs = exact_rank(unfold(family, Bipartition.row_prefix(i, family.n)))
    rhs = sum(_pinned_row_ranks(family, i).values())
    return SubadditivityRow(i, lhs, rhs, lhs <= rhs)


def verify_row_cut_subadditivity(family: ImageFamily, jobs: int = 1) -> list[SubadditivityRow]:
    """For every row cut i: rank of the row-prefix unfolding against the sum
    of pinned-row ranks over occurring configurations of row i.

    The inequality lhs <= rhs always holds; a False flag signals a bug.
    """
    return _pmap(_subadditivity_row, family, range(1, family.n), jobs)


@dataclass
class ScalingReport:
    """A measured series with its least-squares slope on log2/log2 axes."""

    label: str
    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float


def fit_loglog(points, label: str = "") -> ScalingReport:
    """Least-squares line through (log2 x, log2 y) for the positive points,
    which must hold at least 2 distinct x."""
    pts = [(float(x), float(y)) for x, y in points]
    pos = [(x, y) for x, y in pts if x > 0 and y > 0]
    if len({x for x, _ in pos}) < 2:
        raise ValueError("need positive points at 2 distinct x to fit a slope")
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
        RegionRankRow(
            r, r.size, r.boundary_length, exact_rank(unfold(family, Bipartition.from_region(r)))
        )
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
    rank = exact_rank(unfold(family, Bipartition.from_region(cut)))
    inside = cut.size
    outside = n * n - inside
    cap = min(m, 1 << min(inside, 60), 1 << min(outside, 60))
    return BaselineResult(n, m, seed, cut, rank, cap)
