"""End-to-end benchmark of the pixelrank CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``
as it stands, nothing is installed.  One client process runs the
workload's CLI invocations one at a time as subprocesses (a closed loop),
with one BLAS/OpenMP thread per child; the only parallelism is the
``certify --jobs 2`` step.  Each child runs under an address-space cap, so
a blow-up is a counted failure rather than an out-of-memory kill of the
machine.

``--trace 0``: passes repeat while another pass still fits in
``--seconds`` (at least one pass).  A pass runs the set-up steps (``gen``),
then the measured steps, once each.  Set-up is repeated in every pass, not
only at the start, so its samples are spread over the run as the others
are.  ``setup_s`` and ``peak_rss_mb`` are medians over the passes (a
pass's ``peak_rss_mb`` is the largest peak of its children).  ``wall_s``
is each measured invocation's fastest pass, summed: on a shared host,
other tenants slow a child down by up to 2x in spells of seconds, and
never speed it up, so the fastest of a run's passes repeats from run to
run where the median does not.  Medians and high percentiles of every
subcommand are printed as well.

``--trace 1``: one child process runs the set-up and measured steps
through ``pixelrank.cli.main``, with spans around the public calls of each
module (see ``spans.py``), and reports per-layer totals and the tracing
overhead.

Every report is checked against pinned values (``workloads.py``).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import spans
from workloads import Step, workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Address-space cap per child: ten times the largest child here (about
# 370 MB resident, scale on networks), and below the 3.5 GiB pooled tensor
# of ht on random-441, the known exclusion, so that fails rather than
# swapping the machine out of memory.
AS_CAP_BYTES = 4 << 30
# A run ends before this many seconds; children still running are killed.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:  # the group ended first
        pass


def run_child(cmd: list[str], workdir: Path, deadline: float):
    """Run one child; return (seconds, exit code, peak RSS in MB).

    The peak is the child's own high-water mark from wait4, so an earlier
    child's peak is not carried into later ones.
    """
    with open(workdir / "child.log", "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT, preexec_fn=_cap_address_space,
                                start_new_session=True)
        # At the deadline, kill the child's whole group: pool workers too.
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted (SIGTERM, ^C): end the child's group first
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def cli_cmd(step: Step) -> list[str]:
    return [sys.executable, "-m", "pixelrank.cli", *step.argv]


def check_step(step: Step, code: int, workdir: Path):
    """Error message for a failed invocation, or None."""
    if code != 0:
        return f"{' '.join(step.argv[:1])}: exit code {code}"
    if step.check is None:
        return None
    try:
        return step.check(workdir / step.report)
    except (OSError, ValueError, KeyError) as exc:
        return f"{step.report}: unreadable report: {exc}"


def high_percentile(values: list[float]):
    """(p, value) for the highest percentile with at least ten samples
    above it, or None when there are fewer than eleven samples."""
    k = len(values) - 10
    if k < 1:
        return None
    return 100.0 * k / len(values), sorted(values)[k - 1]


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pixelrank").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "child_address_space_cap_bytes": AS_CAP_BYTES,
    }


def measure(workload, seconds: int, workdir: Path, deadline: float):
    """Closed loop over the workload's invocations; returns the result dict."""
    attempted = failed = 0
    pass_rss = 0.0
    peak_rss: list[float] = []
    setup_s: list[float] = []
    step_s: list[list[float]] = [[] for _ in workload.steps]
    metric_s: dict[str, list[float]] = defaultdict(list)
    last_pass = 0.0

    def invoke(step: Step) -> float:
        nonlocal attempted, failed, pass_rss
        attempted += 1
        took, code, rss = run_child(cli_cmd(step), workdir, deadline)
        pass_rss = max(pass_rss, rss)
        error = check_step(step, code, workdir)
        if error:
            failed += 1
            print(f"FAIL {error}", file=sys.stderr)
        return took

    start = time.perf_counter()
    while not setup_s or time.perf_counter() - start + last_pass <= seconds:
        if time.monotonic() >= deadline:
            break
        pass_start = time.perf_counter()
        pass_rss = 0.0
        setup_s.append(sum(invoke(step) for step in workload.setup))
        per_metric: dict[str, float] = defaultdict(float)
        for step, times in zip(workload.steps, step_s):
            times.append(invoke(step))
            per_metric[f"{step.metric}_s"] += times[-1]
        for metric, took in per_metric.items():
            metric_s[metric].append(took)
        peak_rss.append(pass_rss)
        last_pass = time.perf_counter() - pass_start
    wall_s = sum(min(times) for times in step_s)
    pass_s = [sum(times) for times in zip(*step_s)]
    samples = {"setup_s": setup_s, "pass_s": pass_s, **metric_s, "peak_rss_mb": peak_rss}
    print("samples " + json.dumps({k: [round(x, 6) for x in v] for k, v in samples.items()}))
    print(f"{len(pass_s)} pass(es) in {time.perf_counter() - start:.2f} s; "
          f"{attempted} invocations, {failed} failed")
    print(f"{'metric':<18} {'unit':<5} {'min':>10} {'median':>10}  {'high percentile':<22} N")
    for name, values in samples.items():
        hi = high_percentile(values)
        hi_text = f"p{hi[0]:.0f} {hi[1]:.4f}" if hi else "n/a (N < 11)"
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(f"{name:<18} {unit:<5} {min(values):>10.4f} {statistics.median(values):>10.4f}  "
              f"{hi_text:<22} {len(values)}")
    print(f"{'fail_rate':<18} {'1':<5} {failed / attempted:>10.4f} {'':>10}  {'':<22} {attempted}")
    print(f"{'wall_s':<18} {'s':<5} {wall_s:>10.4f}  (each invocation's min, summed)")
    metrics = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(peak_rss), "unit": "MB"},
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def trace(workload, workdir: Path, deadline: float):
    """The traced run: one child runs every step in-process (see
    spans.run_traced); returns the result dict of its traced calls."""
    steps = [*workload.setup, *workload.steps]
    (workdir / "steps.json").write_text(json.dumps(
        [[s.argv, None] for s in workload.setup] + [[s.argv, s.report] for s in workload.steps]))
    cmd = [sys.executable, str(BENCH_DIR / "spans.py"), "steps.json", "trace.json"]
    took, code, _ = run_child(cmd, workdir, deadline)
    if code != 0:
        print(f"FAIL traced child: exit code {code}", file=sys.stderr)
        return {"correct": False, "attempted": len(steps), "failed": len(steps), "metrics": {}}
    result = json.loads((workdir / "trace.json").read_text())
    failed = 0
    for step, step_code in zip(steps, result["codes"]):
        error = check_step(step, step_code, workdir)
        if error:
            failed += 1
            print(f"FAIL {error}", file=sys.stderr)
    recorded = [spans.Span(*fields) for fields in result["spans"]]
    # Every step must have gone through the cli.main wrapper, once.
    toplevel = [s.name for s in recorded if s.parent is None]
    accounted = toplevel == ["cli.main"] * len(steps)
    if not accounted:
        print(f"FAIL top-level spans {toplevel} are not one cli.main per step", file=sys.stderr)
    layers = spans.layer_metrics(recorded)
    traced, overhead = sum(result["step_s"]), result["overhead_s"]
    layers["trace.overhead_pct"] = 100.0 * overhead / (traced - overhead)
    layers["cli.report_bytes"] = float(result["report_bytes"])
    print(f"traced child {took:.2f} s: steps {traced:.3f} s, of which tracer {overhead:.4f} s")
    print("spans inside pool workers (certify --jobs 2) are not recorded")
    for name, unit, _ in spans.PER_LAYER:
        print(f"{name:<40} {layers[name]:>16.6g} {unit}")
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in spans.PER_LAYER}
    return {"correct": failed == 0 and accounted, "attempted": len(steps), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "pixelrank" / "cli.py").is_file():
        print(f"error: no pixelrank sources under {SRC}", file=sys.stderr)
        return 2
    table = workloads(args.seed)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.workload, args.seed, args.seconds, args.trace),
                              sort_keys=True))
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            result = trace(table[args.workload], workdir, deadline)
        else:
            result = measure(table[args.workload], args.seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
