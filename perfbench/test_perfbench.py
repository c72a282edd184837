"""Self-tests of the benchmark: span arithmetic, the pinned-output checker,
and a smoke run on the rectangle family at n=4 (9 members).

    python3 -m pytest perfbench
"""

import json
import sys
import time

import pytest

import run
import spans
from spans import Span
from workloads import (
    Step,
    Workload,
    check_certify,
    check_diag,
    check_max_bond,
    check_probes,
    check_same_bytes,
    check_scale_channels,
    check_widths,
    parse_report,
    workloads,
)

sys.path.insert(0, str(run.SRC))

RECT4_WIDTHS = [2, 3, 4, 6, 1]


def test_self_time_subtracts_children():
    recorded = [
        Span("cli.main", None, 0.0, 10.0),
        Span("certify.fixed_row_rank_table", 0, 1.0, 6.0),
        Span("rankcore.unfold", 1, 2.0, 3.0),
        Span("rankcore.exact_rank", 1, 3.0, 5.0),
        Span("images.load_family", 0, 7.0, 8.5),
    ]
    assert spans.self_times(recorded) == pytest.approx([3.5, 2.0, 1.0, 2.0, 1.5])


def test_layer_metrics_sums_calls_sizes_and_self_times():
    recorded = [
        Span("cli.main", None, 0.0, 10.0),
        Span("certify.fixed_row_rank_table", 0, 1.0, 6.0),
        Span("rankcore.unfold", 1, 2.0, 3.0, {"members_scanned": 100, "nnz": 25}),
        Span("rankcore.unfold", 1, 3.0, 4.0, {"members_scanned": 100, "nnz": 15}),
        Span("rankcore.exact_rank", 1, 4.0, 5.0, {"nnz": 40}),
        Span("cli.main", None, 20.0, 21.0),
    ]
    layers = spans.layer_metrics(recorded)
    assert set(layers) == {name for name, _, _ in spans.PER_LAYER}
    assert layers["rankcore.unfold.calls"] == 2
    assert layers["rankcore.unfold.s"] == pytest.approx(2.0)
    assert layers["rankcore.unfold.kept_ratio"] == pytest.approx(0.2)
    assert layers["rankcore.exact_rank.nnz"] == 40
    assert layers["certify.self_s"] == pytest.approx(2.0)
    assert layers["cli.main.s"] == pytest.approx(11.0)
    assert layers["cli.self_s"] == pytest.approx(6.0)
    assert layers["tt.tt_from_family.s"] == 0.0


def test_high_percentile_needs_ten_samples_above():
    assert run.high_percentile([1.0] * 10) is None
    assert run.high_percentile([float(v) for v in range(20)]) == (50.0, 9.0)


def test_tracer_wraps_every_binding_and_restores():
    from pixelrank import certify, cli, ht, images, rankcore

    family = images.make_family("rect", 4, min_side=3)
    original = rankcore.exact_rank
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert certify.exact_rank is rankcore.exact_rank is not original
        assert cli.ht_eval_batch is ht.ht_eval_batch
        assert cli.ht_eval_batch.__wrapped__ is not None
        certify.fixed_row_rank_table(family)
    finally:
        tracer.uninstall()
    assert certify.exact_rank is rankcore.exact_rank is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "certify.fixed_row_rank_table"
    unfolds = [s for s in tracer.spans if s.name == "rankcore.unfold"]
    assert len(unfolds) == 20 and all(s.parent == 0 for s in unfolds)
    assert sum(s.sizes["nnz"] for s in unfolds) == 4 * len(family)
    total = tracer.spans[0].end - tracer.spans[0].start
    assert 0 < tracer.overhead_s < total


def _rect4_reports(tmp_path):
    from pixelrank import cli

    for argv in (
        ["gen", "--family", "rect", "--n", "4", "--out", "r4.fam"],
        ["certify", "--family-file", "r4.fam", "--jobs", "1", "--out", "c1.csv"],
        ["certify", "--family-file", "r4.fam", "--jobs", "2", "--out", "c2.csv"],
        ["tt", "--family-file", "r4.fam", "--out", "r4.tt", "--report", "tt.csv"],
        ["ht", "--family-file", "r4.fam", "--out", "r4.ht", "--report", "ht.csv"],
        ["diag", "--network", "r4.ht", "--report", "diag.csv"],
        ["crosscheck", "--family-file", "r4.fam", "--probes", "100", "--out", "x.csv"],
        ["scale", "--quantity", "ht-channels", "--n-list", "4", "--seed", "1", "--out", "s.csv"],
    ):
        assert cli.main(argv) == 0


def test_pinned_checker_accepts_seed_values_and_rejects_others(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _rect4_reports(tmp_path)
    assert parse_report((tmp_path / "ht.csv").read_text())["layer_widths"][0] == {"i": "1", "l_i": "2"}
    good = [
        ("c1.csv", check_certify(6, 1)),
        ("c2.csv", check_same_bytes("c1.csv")),
        ("tt.csv", check_max_bond(6)),
        ("ht.csv", check_widths(RECT4_WIDTHS)),
        ("diag.csv", check_diag(RECT4_WIDTHS)),
        ("x.csv", check_probes(9 + 100)),
        ("s.csv", check_scale_channels(4, RECT4_WIDTHS, 9)),
    ]
    assert [check(tmp_path / name) for name, check in good] == [None] * len(good)
    bad = [
        ("c1.csv", check_certify(7, 1)),
        ("c1.csv", check_certify(6, 2)),
        ("tt.csv", check_max_bond(5)),
        ("ht.csv", check_widths([2, 3, 4, 7, 1])),
        ("diag.csv", check_diag([2, 3, 4, 7, 1])),
        ("x.csv", check_probes(110)),
        ("s.csv", check_scale_channels(4, RECT4_WIDTHS, 8)),
    ]
    assert all(check(tmp_path / name) for name, check in bad)
    report = tmp_path / "c2.csv"
    report.write_text(report.read_text().replace("2,6,6,1", "2,6,6,0"))
    assert check_same_bytes("c1.csv")(report)
    assert check_certify(None, None)(report)


def test_smoke_run_counts_a_pinned_mismatch_as_failed(tmp_path, capsys):
    """One measured and one traced run on rect n=4, where the ht step pins
    a wrong root width on purpose."""
    smoke = Workload(
        "rect4-smoke",
        setup=(Step("gen", ("gen", "--family", "rect", "--n", "4", "--out", "r4.fam")),),
        steps=(
            Step("certify", ("certify", "--family-file", "r4.fam", "--jobs", "1",
                             "--out", "c.csv"), check_certify(6, 1)),
            Step("ht", ("ht", "--family-file", "r4.fam", "--out", "r4.ht",
                        "--report", "ht.csv"), check_widths([2, 3, 4, 6, 9])),
        ),
    )
    deadline = time.monotonic() + 60
    result = run.measure(smoke, 0, tmp_path, deadline)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run.trace(smoke, tmp_path, deadline)
    assert (traced["attempted"], traced["failed"]) == (3, 1)
    metrics = traced["metrics"]
    assert metrics["rankcore.unfold.calls"]["value"] == 20 + 3 + (4 + 6 + 6)
    assert metrics["ht.width_sum"]["value"] == 16
    assert metrics["images.members"]["value"] == 18
    assert metrics["cli.main.s"]["value"] >= metrics["cli.self_s"]["value"] > 0
    assert "FAIL ht.csv widths" in capsys.readouterr().err


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads(1))
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert all(w.steps and w.setup for w in workloads(1).values())
