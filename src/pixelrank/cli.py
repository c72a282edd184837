"""Command-line driver: family generation, certification, tensor-network
construction, and scaling experiments with reproducible machine-readable
reports.

Exit codes: 0 success, 1 verification failure, 2 input error, an output
path that cannot be written, or out of memory.  Reports are CSV by default
(JSON behind --format json) and embed the tool version and the full run
configuration; repeated runs with the same configuration are byte-identical
regardless of --jobs, so timing is printed to the console rather than
written into report files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .certify import (
    row_config_counts,
    fixed_row_rank_table,
    fit_loglog,
    random_baseline_profile,
    verify_row_cut_subadditivity,
)
from .ht import (
    _layer_widths,
    diagonalize,
    ht_eval_batch,
    ht_from_family,
    load_ht,
    save_ht,
    tt_ht_cross_check,
)
from .images import (
    FamilyFormatError,
    ImageFamily,
    Region,
    _max_deviation,
    _members_and_probes,
    load_family,
    make_family,
    pad_family,
    random_probes,
    save_family,
)
from .rankcore import Bipartition, exact_rank, unfold
from .tt import _bond_dims, save_tt, tt_eval_batch, tt_from_family

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2

# A check fails when its deviation reaches this.
_EXACT = 1e-6
_EXACT_PROBES, _EXACT_SEED = 2000, 0  # the random probes that tt and ht check


@dataclass
class RunConfig:
    """Everything a run depends on; echoed into every report."""

    command: str
    options: dict = field(default_factory=dict)

    def canon(self) -> str:
        return json.dumps(
            {"command": self.command, **self.options}, sort_keys=True, separators=(",", ":")
        )


def _report_lines(config: RunConfig, tables: dict[str, tuple[list[str], list[list]]]):
    lines = [f"# pixelrank {__version__}", f"# config {config.canon()}"]
    for name, (header, rows) in tables.items():
        lines.append(f"# table {name}")
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
    return lines


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_report(path, fmt, config: RunConfig, tables: dict) -> None:
    if path is None:
        return
    if fmt == "csv":
        text = "\n".join(_report_lines(config, tables)) + "\n"
    else:
        doc = {
            "version": __version__,
            "config": json.loads(config.canon()),
            "tables": {
                name: {"header": header, "rows": rows}
                for name, (header, rows) in tables.items()
            },
        }
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _load_family_checked(path) -> ImageFamily:
    try:
        return load_family(path)
    except (FamilyFormatError, OSError) as exc:
        raise SystemExit(_fail_input(f"cannot load family file {path}: {exc}"))


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _gen_params(args) -> dict:
    """Generator parameters of a structured family from the command line."""
    if args.family in ("rect", "stacked"):
        return {"min_side": args.min_side}
    if args.family == "bars":
        return {"min_len": args.min_len}
    return {}


def _gen_family(args) -> ImageFamily:
    params = _gen_params(args)
    if args.family == "random":
        if args.m is None:
            raise SystemExit(_fail_input("--m is required for random families"))
        params = {"m": args.m, "seed": args.seed if args.seed is not None else 0}
    return make_family(args.family, args.n, **params)


def cmd_gen(args) -> int:
    try:
        family = _gen_family(args)
    except ValueError as exc:
        return _fail_input(str(exc))
    save_family(family, args.out)
    print(f"wrote {len(family)} members (n={family.n}) to {args.out}")
    return EXIT_OK


def cmd_certify(args) -> int:
    family = _load_family_checked(args.family_file)
    # --jobs never affects results, so it is not part of the echoed config.
    config = RunConfig("certify", {"family_file": os.path.basename(args.family_file)})
    counts = row_config_counts(family)
    ranks = fixed_row_rank_table(family, jobs=args.jobs)
    subadd = verify_row_cut_subadditivity(family, jobs=args.jobs)
    tables = {
        "row_configs": (
            ["i", "config_count"],
            [[i, c] for i, c in sorted(counts.items())],
        ),
        "fixed_row_ranks": (
            ["i", "y", "rank"],
            [[i, y, r] for (i, y), r in sorted(ranks.items())],
        ),
        "subadditivity": (
            ["i", "row_cut_rank", "bound", "ok"],
            [[row.i, row.row_prefix_rank, row.fixed_row_rank_sum, int(row.holds)] for row in subadd],
        ),
    }
    _write_report(args.out, args.format, config, tables)
    max_rank = max(ranks.values(), default=0)
    print(
        f"rows: max config count {max(counts.values(), default=0)}, "
        f"max pinned-row rank {max_rank}"
    )
    if any(not row.holds for row in subadd):
        print("subadditivity violated", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _exactness_probe(family: ImageFamily, values_fn):
    """Max |values - indicator| over members plus _EXACT_PROBES random probes."""
    bits, truth = _members_and_probes(family, _EXACT_PROBES, _EXACT_SEED)
    return _max_deviation(values_fn(bits), truth)


def _verdict(check: str, dev: float) -> int:
    """The exit code of a check whose deviation is dev; a NaN deviation
    fails."""
    if not dev < _EXACT:
        print(f"{check} check failed: deviation {dev:.3g}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_tt(args) -> int:
    family = _load_family_checked(args.family_file)
    config = RunConfig("tt", {"family_file": os.path.basename(args.family_file)})
    train = tt_from_family(family)
    dev = _exactness_probe(family, lambda bits: tt_eval_batch(train, bits))
    dims = train.bond_dims
    tables = {
        "bond_dims": (["k", "l_k"], [[k, d] for k, d in enumerate(dims)]),
    }
    _write_report(args.report, args.format, config, tables)
    if args.out:
        save_tt(train, args.out)
    print(f"max bond dimension {max(dims)}, max |eval - f| {dev:.3g}")
    return _verdict("exactness", dev)


def cmd_ht(args) -> int:
    family = _load_family_checked(args.family_file)
    config = RunConfig("ht", {"family_file": os.path.basename(args.family_file)})
    net = ht_from_family(family)
    padded = net.n != net.original_n
    eval_family = pad_family(family, net.n) if padded else family
    dev = _exactness_probe(eval_family, lambda bits: ht_eval_batch(net, bits))
    tables = {
        "layer_widths": (
            ["i", "l_i"],
            [[i + 1, w] for i, w in enumerate(net.layer_widths)],
        ),
    }
    if padded:
        tables["padding"] = (
            ["original_n", "padded_n"],
            [[net.original_n, net.n]],
        )
    _write_report(args.report, args.format, config, tables)
    if args.out:
        save_ht(net, args.out)
    note = f" (padded {net.original_n} -> {net.n})" if padded else ""
    print(f"layer widths {net.layer_widths}{note}, max |eval - f| {dev:.3g}")
    return _verdict("exactness", dev)


def cmd_diag(args) -> int:
    try:
        net = load_ht(args.network)
    except (OSError, ValueError) as exc:
        return _fail_input(f"cannot load network {args.network}: {exc}")
    config = RunConfig("diag", {"network": os.path.basename(args.network)})
    try:
        diag = diagonalize(net)
    except ValueError as exc:
        return _fail_input(str(exc))
    bits = random_probes(net.n, 1000, seed=0)
    dev = _max_deviation(ht_eval_batch(net, bits), ht_eval_batch(diag, bits))
    tables = {
        "channels": (
            ["i", "l_i", "l_i_diag"],
            [
                [i + 1, w, dw]
                for i, (w, dw) in enumerate(zip(net.layer_widths, diag.layer_widths))
            ],
        ),
    }
    _write_report(args.report, args.format, config, tables)
    if args.out:
        save_ht(diag, args.out)
    print(f"diagonal widths {diag.layer_widths}, max deviation {dev:.3g}")
    return _verdict("diagonalization", dev)


# The scalar quantities of `scale`: name -> fn(family).  The functions they
# call are looked up in this module at call time, so a tracer that rebinds
# one of these names sees the calls.  tt-bond reads the bonds off the
# integer plan (tt._bond_dims), so no train is built and a tracer of
# tt_from_family sees no call.
SCALAR_QUANTITIES = {
    "members": lambda fam: float(len(fam)),
    "row-configs": lambda fam: float(max(row_config_counts(fam).values(), default=0)),
    "fixed-row-rank": lambda fam: float(max(fixed_row_rank_table(fam).values(), default=0)),
    "middle-cut-rank": lambda fam: exact_rank(
        unfold(fam, Bipartition.row_prefix(max(1, fam.n // 2), fam.n))
    ),
    "tt-bond": lambda fam: max(_bond_dims(fam)),
}


def _slope_row(label: str, points) -> list:
    try:
        rep = fit_loglog(points, label)
        return [label, rep.slope, rep.intercept]
    except ValueError:
        return [label, float("nan"), float("nan")]


def cmd_scale(args) -> int:
    ns = args.n_list
    if len(set(ns)) < 2 and args.quantity != "ht-channels":
        return _fail_input("need at least 2 distinct n values to fit a slope")
    seed = args.seed if args.seed is not None else 0
    config = RunConfig(
        "scale",
        {
            "family": args.family,
            "quantity": args.quantity,
            "n_list": ns,
            "seed": seed,
        },
    )
    params = _gen_params(args)
    rows = []
    try:
        for n in ns:
            fam = make_family(args.family, n, **params)
            rnd = make_family("random", n, m=len(fam), seed=seed)
            if args.quantity == "ht-channels":
                widths, rnd_widths = _layer_widths(fam), _layer_widths(rnd)
                rows.extend(
                    [n, i, w, rw] for i, (w, rw) in enumerate(zip(widths, rnd_widths), start=1)
                )
            else:
                measure = SCALAR_QUANTITIES[args.quantity]
                rows.append([n, measure(fam), measure(rnd)])
    except ValueError as exc:
        return _fail_input(str(exc))
    if args.quantity == "ht-channels":
        tables = {"ht_channels": (["n", "layer", "l_structured", "l_random"], rows)}
    else:
        tables = {
            "scaling": (["n", "structured", "random"], rows),
            "slopes": (
                ["series", "slope", "intercept"],
                [
                    _slope_row("structured", [(n, vs) for n, vs, _ in rows]),
                    _slope_row("random", [(n, vr) for n, _, vr in rows]),
                ],
            ),
        }
    _write_report(args.out, args.format, config, tables)
    print(f"measured {args.quantity} for n in {ns}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    seed = args.seed if args.seed is not None else 0
    try:
        if args.cut_row is not None:
            cut = Region.row_prefix(args.cut_row, args.n)
        else:
            if args.rect is None:
                return _fail_input("provide --cut-row I or --rect TOP,LEFT,H,W")
            try:
                t, l, h, w = (int(x) for x in args.rect.split(","))
            except ValueError:
                return _fail_input(f"--rect takes TOP,LEFT,HEIGHT,WIDTH, got {args.rect[:40]!r}")
            cut = Region.rectangle(t, l, h, w, args.n)
    except ValueError as exc:
        return _fail_input(str(exc))
    config = RunConfig(
        "baseline",
        {"n": args.n, "m": args.m, "seed": seed, "cut": cut.describe()},
    )
    try:
        result = random_baseline_profile(args.n, args.m, seed, cut)
    except ValueError as exc:
        return _fail_input(str(exc))
    tables = {
        "baseline": (
            ["n", "m", "seed", "cut", "rank", "cap"],
            [[result.n, result.m, result.seed, cut.describe(), result.rank, result.cap]],
        )
    }
    _write_report(args.out, args.format, config, tables)
    print(f"random family rank {result.rank} at {cut.describe()} (cap {result.cap})")
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    family = _load_family_checked(args.family_file)
    config = RunConfig("crosscheck", {"family_file": os.path.basename(args.family_file)})
    report = tt_ht_cross_check(family, n_probes=args.probes, seed=0)
    tables = {
        "crosscheck": (
            ["probes", "max_dev_tt_ht", "max_dev_f_tt", "max_dev_f_ht"],
            [
                [
                    report.n_probes,
                    report.max_dev_tt_ht,
                    report.max_dev_f_tt,
                    report.max_dev_f_ht,
                ]
            ],
        )
    }
    _write_report(args.out, args.format, config, tables)
    print(
        f"max |tt - ht| = {report.max_dev_tt_ht:.3g} over {report.n_probes} probes"
    )
    return _verdict("tt-ht cross", report.max_dev_tt_ht)


def _int_at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _n_list(text: str) -> list[int]:
    """argparse type: comma-separated image sides; empty items are skipped."""
    ns = []
    for tok in text.split(","):
        if not tok:
            continue
        try:
            ns.append(int(tok))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid size {tok!r}") from None
    if not ns:
        raise argparse.ArgumentTypeError("no sizes given")
    return ns


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pixelrank",
        description="Rank certificates and tensor-network builders for binary-image families.",
    )
    parser.add_argument("--version", action="version", version=f"pixelrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # The options several subcommands share, each defined once.
    on_family = argparse.ArgumentParser(add_help=False)
    on_family.add_argument("--family-file", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("gen", help="generate a family file")
    p.add_argument("--family", choices=("rect", "bars", "stacked", "random"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-side", type=int, default=3)
    p.add_argument("--min-len", type=int, default=2)
    p.add_argument("--m", type=_int_at_least(0))
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "certify", help="row-structure and subadditivity certificates", parents=[on_family, report]
    )
    p.add_argument("--out")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("tt", help="build and verify a tensor train", parents=[on_family, report])
    p.add_argument("--out", help="network file path")
    p.add_argument("--report", help="bond-dimension table path")
    p.set_defaults(func=cmd_tt)

    p = sub.add_parser("ht", help="build and verify a tree network", parents=[on_family, report])
    p.add_argument("--out", help="network file path")
    p.add_argument("--report", help="layer-width table path")
    p.set_defaults(func=cmd_ht)

    p = sub.add_parser("diag", help="diagonalize a tree network", parents=[report])
    p.add_argument("--network", required=True)
    p.add_argument("--out", help="diagonal network file path")
    p.add_argument("--report", help="channel table path")
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("scale", help="scaling experiments over image sizes", parents=[report])
    p.add_argument("--family", choices=("rect", "bars", "stacked"), default="rect")
    p.add_argument(
        "--quantity",
        choices=(*SCALAR_QUANTITIES, "ht-channels"),
        required=True,
    )
    p.add_argument("--n-list", type=_n_list, required=True, help="comma-separated sizes")
    p.add_argument("--min-side", type=int, default=3)
    p.add_argument("--min-len", type=int, default=2)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("baseline", help="random-family rank baseline at a cut", parents=[report])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--cut-row", type=int)
    p.add_argument("--rect", help="TOP,LEFT,HEIGHT,WIDTH")
    p.add_argument("--out")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser(
        "crosscheck", help="compare tensor-train and tree evaluations", parents=[on_family, report]
    )
    p.add_argument("--probes", type=_int_at_least(0), default=10_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    except MemoryError as exc:  # a build guard's message names the bytes
        return _fail_input(str(exc) or "out of memory")
    except OSError as exc:  # an unwritable output path; the message names it
        return _fail_input(str(exc))
    elapsed = time.perf_counter() - start
    print(f"elapsed {elapsed:.2f}s")
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
