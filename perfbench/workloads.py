"""Workload definitions and the pinned-output checker.

A workload is a fixed sequence of ``pixelrank`` CLI invocations.  Its
set-up steps (the ``gen`` calls) make the input families; its measured
steps are the subcommands a user waits for.  Every file name is relative
to the workload's scratch directory, which is the children's working
directory.

Each measured step carries a check on the report it wrote.  The checks pin
the integer tables (bond dimensions, layer widths, configuration counts,
ranks) to the values the seed code produces; float columns are left to the
CLI's own exit code.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# rect n=7 is padded to 8 for the tree network.
RECT7_WIDTHS = [2, 4, 13, 30, 26, 32, 1]


@dataclass(frozen=True)
class Step:
    """One CLI invocation.

    ``metric`` names the end-to-end time it adds to (``<metric>_s``);
    ``check`` takes the path of the report the step wrote and returns an
    error message when it does not match the pinned values.
    """

    metric: str
    argv: tuple[str, ...]
    check: Optional[Callable[[Path], Optional[str]]] = None

    @property
    def report(self) -> Optional[str]:
        """The report file: ``--report`` where the subcommand has both a
        network and a report output, else ``--out``."""
        for flag in ("--report", "--out"):
            if flag in self.argv:
                return self.argv[self.argv.index(flag) + 1]
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Step, ...]
    steps: tuple[Step, ...]


def parse_report(text: str) -> dict[str, list[dict[str, str]]]:
    """Tables of a CSV report, as lists of rows keyed by column name."""
    tables: dict[str, list[dict[str, str]]] = {}
    rows: Optional[list] = None
    header: Optional[list[str]] = None
    for line in text.splitlines():
        if line.startswith("# table "):
            rows = tables.setdefault(line.removeprefix("# table "), [])
            header = None
        elif line.startswith("#") or not line or rows is None:
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return tables


def column(tables, table: str, name: str) -> list[int]:
    return [int(row[name]) for row in tables.get(table, [])]


def _expect(label: str, got, want) -> Optional[str]:
    return None if got == want else f"{label}: got {got}, expected {want}"


def _tables(path: Path):
    return parse_report(path.read_text(encoding="ascii"))


def check_certify(max_configs: Optional[int], max_rank: Optional[int]):
    """Pinned maxima of a certify report, and every subadditivity row ok."""

    def check(path: Path) -> Optional[str]:
        tables = _tables(path)
        ok = column(tables, "subadditivity", "ok")
        if not ok or not all(ok):
            return f"{path.name}: subadditivity rows not all ok: {ok}"
        if max_configs is not None:
            err = _expect(f"{path.name} max config count",
                          max(column(tables, "row_configs", "config_count")), max_configs)
            if err:
                return err
        if max_rank is not None:
            return _expect(f"{path.name} max pinned-row rank",
                           max(column(tables, "fixed_row_ranks", "rank")), max_rank)
        return None

    return check


def check_same_bytes(reference: str):
    """The report equals another report in the same directory byte for
    byte (``--jobs`` must not change reports)."""

    def check(path: Path) -> Optional[str]:
        if path.read_bytes() != (path.parent / reference).read_bytes():
            return f"{path.name} differs from {reference}"
        return None

    return check


def check_max_bond(want: int):
    def check(path: Path) -> Optional[str]:
        return _expect(f"{path.name} max bond", max(column(_tables(path), "bond_dims", "l_k")), want)

    return check


def check_widths(want: list[int]):
    def check(path: Path) -> Optional[str]:
        return _expect(f"{path.name} widths", column(_tables(path), "layer_widths", "l_i"), want)

    return check


def check_diag(widths: list[int]):
    """Channel table: the generalized widths, and their squares below the root."""
    squared = [w * w for w in widths[:-1]] + [1]

    def check(path: Path) -> Optional[str]:
        tables = _tables(path)
        return _expect(f"{path.name} widths", column(tables, "channels", "l_i"), widths) or _expect(
            f"{path.name} diagonal widths", column(tables, "channels", "l_i_diag"), squared
        )

    return check


def check_probes(want: int):
    def check(path: Path) -> Optional[str]:
        return _expect(f"{path.name} probes", column(_tables(path), "crosscheck", "probes"), [want])

    return check


def check_scale_channels(n: int, structured: list[int], random_max: int):
    """Structured-family widths and the matched random family's widest
    layer at size n in an ``ht-channels`` scaling report."""

    def check(path: Path) -> Optional[str]:
        rows = [r for r in _tables(path).get("ht_channels", []) if int(r["n"]) == n]
        return _expect(f"{path.name} structured widths at n={n}",
                       [int(r["l_structured"]) for r in rows], structured) or _expect(
            f"{path.name} random max width at n={n}",
            max((int(r["l_random"]) for r in rows), default=0), random_max)

    return check


def gen(family: str, n: int, seed: int, out: str, *extra: str) -> Step:
    return Step("gen", ("gen", "--family", family, "--n", str(n), *extra,
                        "--seed", str(seed), "--out", out))


def workloads(seed: int) -> dict[str, Workload]:
    """The benchmark's workloads for one seed.  The seed reaches the
    program only as ``gen --seed`` and ``scale --seed``; the rectangle
    families do not depend on it.  Each workload runs its layers on a
    low-rank rectangle family and on a full-rank random family."""
    random7 = gen("random", 7, seed, "random7.fam", "--m", "225")
    certify = Workload(
        "certify",
        setup=(gen("rect", 12, seed, "rect12.fam"), random7),
        steps=(
            Step("certify", ("certify", "--family-file", "rect12.fam", "--jobs", "1",
                             "--out", "rect12-certify.csv"), check_certify(111, 2)),
            Step("certify_jobs2", ("certify", "--family-file", "rect12.fam", "--jobs", "2",
                                   "--out", "rect12-certify-jobs2.csv"),
                 check_same_bytes("rect12-certify.csv")),
            Step("certify", ("certify", "--family-file", "random7.fam", "--jobs", "1",
                             "--out", "random7-certify.csv"), check_certify(None, None)),
        ),
    )
    networks = Workload(
        "networks",
        setup=(gen("rect", 7, seed, "rect7.fam"), random7),
        steps=(
            Step("tt", ("tt", "--family-file", "rect7.fam", "--out", "rect7.tt",
                        "--report", "rect7-tt.csv"), check_max_bond(32)),
            Step("ht", ("ht", "--family-file", "rect7.fam", "--out", "rect7.ht",
                        "--report", "rect7-ht.csv"), check_widths(RECT7_WIDTHS)),
            Step("diag", ("diag", "--network", "rect7.ht", "--out", "rect7-diag.ht",
                          "--report", "rect7-diag.csv"), check_diag(RECT7_WIDTHS)),
            Step("crosscheck", ("crosscheck", "--family-file", "rect7.fam",
                                "--out", "rect7-crosscheck.csv"), check_probes(225 + 10_000)),
            Step("tt", ("tt", "--family-file", "random7.fam", "--out", "random7.tt",
                        "--report", "random7-tt.csv"), check_max_bond(225)),
            Step("scale", ("scale", "--family", "rect", "--quantity", "ht-channels",
                           "--n-list", "4,7", "--seed", str(seed), "--out", "scale.csv"),
                 check_scale_channels(7, RECT7_WIDTHS, 225)),
        ),
    )
    return {w.name: w for w in (certify, networks)}
