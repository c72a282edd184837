"""In-memory spans around the public calls of pixelrank's modules.

The tracer wraps functions from outside the package: each wrapper replaces
the original in every ``pixelrank`` module namespace that binds it, so
calls from one module into another (``certify`` into ``rankcore.unfold``,
``cli`` into ``ht.ht_eval_batch``) are timed as well.  Spans stay in
memory until the run ends.  Work done in pool worker processes
(``certify --jobs 2``) is not visible; it shows up as time inside the
parent's ``certify`` span.

Run as a script, it is the traced child of ``run.py --trace 1``:

    python3 spans.py STEPS.json OUT.json

STEPS.json is a list of ``[argv, report]`` pairs.  The child runs every
step once through ``pixelrank.cli.main`` in this one process with the
wrappers installed, and writes the exit codes, the step times, the spans,
the tracer's own time and the report sizes to OUT.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    sizes: dict = field(default_factory=dict)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _pooled_bytes(net, rows: int) -> int:
    """Bytes of the pooled tensors ht_eval_batch builds: one (rows x l^2)
    float64 array per node in generalized form, (rows x l) in diagonal form,
    where l is the child layer's width."""
    total = 0
    for i in range(2, net.tree.n_layers + 1):
        prev = net.layer_widths[i - 2]
        total += len(net.tree.layers[i]) * (prev * prev if net.form == "generalized" else prev)
    return rows * total * 8


# Traced functions as "module.name", with the sizes recorded for each call.
# Calls the CLI makes that no per-layer metric names (make_family,
# pad_family, row_config_counts) are traced too, so that cli.self_s holds
# only the CLI's own work: probe generation and report writing.
TRACED: dict[str, Optional[Callable]] = {
    "images.make_family": None,
    "images.save_family": lambda a, k, r: {"members": len(_arg(a, k, 0, "family"))},
    "images.load_family": lambda a, k, r: {"members": len(r)},
    "images.pad_family": None,
    "rankcore.unfold": lambda a, k, r: {"members_scanned": len(_arg(a, k, 0, "family")),
                                        "nnz": r.nnz},
    "rankcore.exact_rank": lambda a, k, r: {"nnz": _arg(a, k, 0, "unfolding").nnz},
    "certify.row_config_counts": None,
    "certify.fixed_row_rank_table": None,
    "certify.verify_row_cut_subadditivity": None,
    "tt.tt_from_family": lambda a, k, r: {"bond_sum": sum(r.bond_dims)},
    "tt.tt_eval_batch": lambda a, k, r: {"rows": len(_arg(a, k, 1, "bits"))},
    "tt.save_tt": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "ht.ht_from_family": lambda a, k, r: {"width_sum": sum(r.layer_widths)},
    "ht.ht_eval_batch": lambda a, k, r: {
        "rows": len(_arg(a, k, 1, "bits")),
        "pooled_bytes": _pooled_bytes(_arg(a, k, 0, "net"), len(_arg(a, k, 1, "bits"))),
    },
    "ht.save_ht": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "ht.load_ht": None,
    "ht.diagonalize": None,
    "ht.tt_ht_cross_check": None,
    "cli.main": None,
}

# Per-layer metrics a traced run reports: name, unit, better.
PER_LAYER = [
    ("rankcore.unfold.calls", "count", "lower"),
    ("rankcore.unfold.s", "s", "lower"),
    ("rankcore.unfold.members_scanned", "count", "lower"),
    ("rankcore.unfold.kept_ratio", "ratio", "higher"),
    ("rankcore.exact_rank.calls", "count", "lower"),
    ("rankcore.exact_rank.s", "s", "lower"),
    ("rankcore.exact_rank.nnz", "count", "lower"),
    ("certify.fixed_row_rank_table.s", "s", "lower"),
    ("certify.verify_row_cut_subadditivity.s", "s", "lower"),
    ("certify.self_s", "s", "lower"),
    ("images.load_family.s", "s", "lower"),
    ("images.save_family.s", "s", "lower"),
    ("images.members", "count", "lower"),
    ("tt.tt_from_family.s", "s", "lower"),
    ("tt.bond_sum", "count", "lower"),
    ("tt.tt_eval_batch.s", "s", "lower"),
    ("tt.tt_eval_batch.rows", "count", "lower"),
    ("tt.save_tt.s", "s", "lower"),
    ("tt.save_tt.bytes", "bytes", "lower"),
    ("ht.ht_from_family.s", "s", "lower"),
    ("ht.width_sum", "count", "lower"),
    ("ht.ht_eval_batch.s", "s", "lower"),
    ("ht.ht_eval_batch.rows", "count", "lower"),
    ("ht.ht_eval_batch.pooled_bytes", "bytes", "lower"),
    ("ht.save_ht.s", "s", "lower"),
    ("ht.save_ht.bytes", "bytes", "lower"),
    ("ht.load_ht.s", "s", "lower"),
    ("ht.diagonalize.s", "s", "lower"),
    ("ht.tt_ht_cross_check.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    """Records a span per call of each installed wrapper.

    ``overhead_s`` sums the time each wrapper spends outside the call it
    wraps (span bookkeeping and size callbacks), so the cost of tracing is
    measured in the traced run itself rather than by comparing two runs.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, sizes: Optional[Callable] = None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            span = Span(name, self._stack[-1] if self._stack else None, 0.0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if sizes is not None:
                span.sizes = sizes(args, kwargs, result)
            self.overhead_s += (span.start - entered) + (clock() - span.end)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each TRACED function in every pixelrank module that binds it."""
        # Import every traced module first, so that all their bindings are seen.
        for qualname in TRACED:
            importlib.import_module(f"pixelrank.{qualname.rsplit('.', 1)[0]}")
        modules = [m for key, m in sys.modules.items()
                   if key == "pixelrank" or key.startswith("pixelrank.")]
        for qualname, sizes in TRACED.items():
            module, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules[f"pixelrank.{module}"], attr)
            wrapper = self.wrap(qualname, original, sizes)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    The spans come from one thread's call stack, so children run one after
    another inside their parent."""
    out = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-function calls, seconds and summed sizes, plus each module's
    self time, keyed as in PER_LAYER (absent layers read 0)."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        module = span.name.split(".", 1)[0]
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.s"] += span.end - span.start
        totals[f"{module}.self_s"] += own
        for key, value in span.sizes.items():
            totals[f"{span.name}.{key}"] += value
    scanned = totals["rankcore.unfold.members_scanned"]
    out = {
        "rankcore.unfold.kept_ratio": totals["rankcore.unfold.nnz"] / scanned if scanned else 0.0,
        "images.members": totals["images.load_family.members"],
        "tt.bond_sum": totals["tt.tt_from_family.bond_sum"],
        "ht.width_sum": totals["ht.ht_from_family.width_sum"],
        "trace.spans": float(len(spans)),
    }
    for name, _, _ in PER_LAYER:
        out.setdefault(name, totals[name])
    return out


def _run_step(argv) -> tuple[int, float]:
    """Exit code and seconds of one ``cli.main(argv)`` call.  cli.main is
    looked up per call, so a traced call goes through its wrapper."""
    from pixelrank import cli

    start = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a counted failure, not the end of the run
        print(f"{argv[0]}: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    return code, time.perf_counter() - start


def run_traced(steps) -> dict:
    """Run each step once with the wrappers installed."""
    tracer = Tracer()
    tracer.install()
    try:
        codes, step_s = zip(*(_run_step(argv) for argv, _ in steps))
    finally:
        tracer.uninstall()
    report_bytes = sum(os.path.getsize(r) for _, r in steps if r and os.path.exists(r))
    return {
        "codes": codes,
        "step_s": step_s,
        "overhead_s": tracer.overhead_s,
        "report_bytes": report_bytes,
        "spans": [[s.name, s.parent, s.start, s.end, s.sizes] for s in tracer.spans],
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        result = run_traced(json.load(fh))
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
