"""Tests for the command-line driver: exit codes, report formats, and
byte-level reproducibility."""

import argparse
import json

import numpy as np
import pytest

from pixelrank.cli import build_parser, main
from pixelrank.images import load_family


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def rect4_file(tmp_path):
    path = tmp_path / "rect4.fam"
    assert run(["gen", "--family", "rect", "--n", 4, "--out", path]) == 0
    return path


class TestGen:
    def test_rect_count(self, rect4_file):
        assert len(load_family(rect4_file)) == 9

    def test_random_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.fam"
        b = tmp_path / "b.fam"
        for out in (a, b):
            assert (
                run(["gen", "--family", "random", "--n", 4, "--m", 9, "--seed", 7, "--out", out])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_family_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["gen", "--family", "blobs", "--n", 4, "--out", tmp_path / "x.fam"])
        assert err.value.code == 2

    def test_random_requires_m(self, tmp_path):
        assert (
            run(["gen", "--family", "random", "--n", 4, "--out", tmp_path / "x.fam"]) == 2
        )

    def test_impossible_family_is_input_error(self, tmp_path):
        assert (
            run(["gen", "--family", "rect", "--n", 2, "--out", tmp_path / "x.fam"]) == 2
        )


class TestParser:
    def test_option_set_of_each_subcommand(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        network = {"--family-file", "--out", "--report", "--tol", "--format"}
        assert options == {
            "gen": {"--family", "--n", "--min-side", "--min-len", "--m", "--seed", "--out"},
            "certify": {"--family-file", "--out", "--tol", "--format", "--jobs"},
            "tt": network,
            "ht": network,
            "diag": {"--network", "--out", "--report", "--format"},
            "scale": {
                "--family", "--quantity", "--n-list", "--min-side", "--min-len", "--seed",
                "--out", "--tol", "--format",
            },
            "baseline": {"--n", "--m", "--seed", "--cut-row", "--rect", "--out", "--format"},
            "crosscheck": {"--family-file", "--probes", "--out", "--tol", "--format"},
        }

    def test_diag_rejects_tol(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["diag", "--network", tmp_path / "x.ht", "--tol", "1e-9"])
        assert err.value.code == 2

    @pytest.mark.parametrize("tol", ["2", "1", "nan", "0", "-1e-9", "x"])
    def test_tol_outside_unit_interval_exit_2(self, tol, capsys):
        for command in ("certify", "tt", "ht", "scale", "crosscheck"):
            with pytest.raises(SystemExit) as err:
                build_parser().parse_args([command, f"--tol={tol}"])
            assert err.value.code == 2
            err_text = capsys.readouterr().err
            assert f"argument --tol: tolerance must lie in (0, 1), got '{tol}'" in err_text
            assert "Traceback" not in err_text

    def test_negative_probes_exit_2(self, rect4_file, capsys):
        with pytest.raises(SystemExit) as err:
            run(["crosscheck", "--family-file", rect4_file, "--probes", -5])
        assert err.value.code == 2
        assert "argument --probes: expected an integer >= 0, got '-5'" in capsys.readouterr().err

    def test_negative_member_count_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.fam"
        with pytest.raises(SystemExit) as err:
            run(["gen", "--family", "random", "--n", 4, "--m", -1, "--out", out])
        assert err.value.code == 2
        assert "argument --m: expected an integer >= 0, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_below_one_exit_2(self, jobs, rect4_file, capsys):
        with pytest.raises(SystemExit) as err:
            run(["certify", "--family-file", rect4_file, "--jobs", jobs])
        assert err.value.code == 2
        assert f"argument --jobs: expected an integer >= 1, got '{jobs}'" in capsys.readouterr().err

    def test_certify_jobs_defaults_to_one(self):
        assert build_parser().parse_args(["certify", "--family-file", "f.fam"]).jobs == 1


class TestCertify:
    def test_report_contents(self, rect4_file, tmp_path):
        out = tmp_path / "cert.csv"
        assert run(["certify", "--family-file", rect4_file, "--out", out]) == 0
        text = out.read_text()
        assert "# table row_configs" in text
        assert "# table subadditivity" in text
        assert "2,6" in text  # row 2 has six configurations

    def test_json_format(self, rect4_file, tmp_path):
        out = tmp_path / "cert.json"
        assert (
            run(["certify", "--family-file", rect4_file, "--out", out, "--format", "json"])
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["config"]["command"] == "certify"
        assert "fixed_row_ranks" in doc["tables"]

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["certify", "--family-file", tmp_path / "nope.fam"]) == 2

    def test_corrupt_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.fam"
        bad.write_text("n=4 name=x seed=none\n111\n")
        assert run(["certify", "--family-file", bad]) == 2

    def test_non_ascii_member_line_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.fam"
        bad.write_bytes(b"n=2 name=x seed=none\n1000\n10\xc3\xa90\n")
        assert run(["certify", "--family-file", bad]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot load family file {bad}: line 3: non-ASCII byte\n"

    def test_empty_family_exit_0(self, tmp_path):
        path = tmp_path / "empty.fam"
        path.write_text("n=3 name=empty seed=none\n")
        out = tmp_path / "r.csv"
        assert run(["certify", "--family-file", path, "--out", out]) == 0


class TestNetworks:
    def test_tt_pipeline(self, rect4_file, tmp_path):
        net = tmp_path / "rect4.tt"
        report = tmp_path / "tt.csv"
        assert (
            run(["tt", "--family-file", rect4_file, "--out", net, "--report", report]) == 0
        )
        assert "# table bond_dims" in report.read_text()

    def test_ht_diag_pipeline(self, rect4_file, tmp_path):
        net = tmp_path / "rect4.ht"
        assert run(["ht", "--family-file", rect4_file, "--out", net]) == 0
        diag_net = tmp_path / "rect4d.ht"
        report = tmp_path / "diag.csv"
        assert (
            run(["diag", "--network", net, "--out", diag_net, "--report", report]) == 0
        )
        text = report.read_text()
        assert "# table channels" in text
        assert "4,6,36" in text  # layer 4: width 6 squares to 36

    def test_ht_pads_and_notes(self, tmp_path):
        fam = tmp_path / "bars3.fam"
        assert run(["gen", "--family", "bars", "--n", 3, "--out", fam]) == 0
        report = tmp_path / "ht.csv"
        assert run(["ht", "--family-file", fam, "--report", report]) == 0
        assert "# table padding" in report.read_text()

    def test_diag_on_diagonal_network_errors(self, rect4_file, tmp_path):
        net = tmp_path / "n.ht"
        diag_net = tmp_path / "d.ht"
        assert run(["ht", "--family-file", rect4_file, "--out", net]) == 0
        assert run(["diag", "--network", net, "--out", diag_net]) == 0
        assert run(["diag", "--network", diag_net]) == 2

    def test_diag_on_malformed_network_is_input_error(self, rect4_file, tmp_path, capsys):
        net = tmp_path / "n.ht"
        assert run(["ht", "--family-file", rect4_file, "--out", net]) == 0
        text = net.read_text()
        lines = text.splitlines(keepends=True)
        bad = tmp_path / "bad.ht"
        wrong_width = lines[:6] + ["0 1 0\n"] + lines[7:]
        for content, message in (
            (text[: len(text) // 2], "line "),
            ("".join(wrong_width), "line 7: node 2 1 1: expected 4 values, got 3"),
        ):
            bad.write_text(content)
            capsys.readouterr()
            assert run(["diag", "--network", bad]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot load network {bad}: {message}")
            assert "Traceback" not in err

    def test_crosscheck(self, rect4_file, tmp_path):
        out = tmp_path / "cc.csv"
        assert (
            run(["crosscheck", "--family-file", rect4_file, "--probes", 300, "--out", out])
            == 0
        )
        assert "max_dev_tt_ht" in out.read_text()


def _scale_tables(tmp_path, quantity, ns):
    """Rows of the scaling table and the slope per series of a rect scale run."""
    out = tmp_path / f"{quantity}.json"
    n_list = ",".join(str(n) for n in ns)
    assert (
        run(
            [
                "scale", "--family", "rect", "--quantity", quantity, "--n-list", n_list,
                "--format", "json", "--out", out,
            ]
        )
        == 0
    )
    tables = json.loads(out.read_text())["tables"]
    slopes = {series: slope for series, slope, _ in tables["slopes"]["rows"]}
    return tables["scaling"]["rows"], slopes


class TestScaleAndBaseline:
    def test_scale_rows(self, tmp_path):
        out = tmp_path / "scale.csv"
        assert (
            run(
                [
                    "scale", "--family", "rect", "--quantity", "row-configs",
                    "--n-list", "4,8", "--out", out,
                ]
            )
            == 0
        )
        text = out.read_text()
        assert "# table scaling" in text and "# table slopes" in text

    def test_scale_needs_two_points(self, tmp_path):
        assert (
            run(["scale", "--family", "rect", "--quantity", "members", "--n-list", "4"])
            == 2
        )

    def test_malformed_n_list_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["scale", "--quantity", "members", "--n-list", "4,x"])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert "argument --n-list: invalid size 'x'" in err_text
        assert "Traceback" not in err_text

    def test_empty_n_list_exit_2(self, tmp_path, capsys):
        out = tmp_path / "channels.csv"
        with pytest.raises(SystemExit) as err:
            run(["scale", "--quantity", "ht-channels", "--n-list", "", "--out", out])
        assert err.value.code == 2
        assert "argument --n-list: no sizes given" in capsys.readouterr().err
        assert not out.exists()

    def test_member_count_closed_form(self, tmp_path):
        ns = [4, 8, 16]
        scaling, slopes = _scale_tables(tmp_path, "members", ns)
        # Oracle: ((n-2)(n-1)/2)^2 rectangle outlines of side >= 3.
        assert [row[1] for row in scaling] == [9.0, 441.0, 11025.0]
        assert [row[1] for row in scaling] == [
            float((((n - 2) * (n - 1)) // 2) ** 2) for n in ns
        ]
        expected = np.polyfit(np.log2(ns), np.log2([9, 441, 11025]), 1)[0]
        assert slopes["structured"] == pytest.approx(expected)
        # Growth is quartic up to finite-size effects.
        assert 4.0 <= slopes["structured"] <= 5.5

    def test_row_config_slope_matches_direct_fit(self, tmp_path):
        scaling, slopes = _scale_tables(tmp_path, "row-configs", [4, 8])
        assert [row[1] for row in scaling] == [6.0, 43.0]
        assert slopes["structured"] == pytest.approx(np.log2(43 / 6))

    def test_tt_bond_slope_and_random_contrast(self, tmp_path):
        scaling, slopes = _scale_tables(tmp_path, "tt-bond", [4, 8])
        assert slopes["structured"] <= 3.0
        assert all(random >= structured for _, structured, random in scaling)

    def test_ht_channels_row_count(self, tmp_path):
        out = tmp_path / "channels.csv"
        assert (
            run(
                [
                    "scale", "--family", "rect", "--quantity", "ht-channels",
                    "--n-list", "8", "--out", out,
                ]
            )
            == 0
        )
        rows = [
            [int(v) for v in line.split(",")]
            for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("n,")
        ]
        assert len(rows) == 7  # 2*log2(8) + 1 layers
        structured = [row[2] for row in rows]
        random = [row[3] for row in rows]
        assert structured[0] == 2
        assert max(random) > max(structured)
        # At the top layers the random family's width saturates near its
        # member count (441 here).
        assert max(random) >= 400

    def test_baseline(self, tmp_path):
        out = tmp_path / "base.csv"
        assert (
            run(["baseline", "--n", 4, "--m", 9, "--seed", 7, "--cut-row", 2, "--out", out])
            == 0
        )
        assert ",9," in out.read_text()

    def test_baseline_needs_cut(self):
        assert run(["baseline", "--n", 4, "--m", 9]) == 2


class TestReproducibility:
    def test_certify_bytes_independent_of_jobs(self, rect4_file, tmp_path):
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"cert{jobs}.csv"
            assert (
                run(["certify", "--family-file", rect4_file, "--out", out, "--jobs", jobs])
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_repeat_runs_byte_identical(self, rect4_file, tmp_path):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{tag}.csv"
            assert (
                run(
                    [
                        "scale", "--family", "rect", "--quantity", "members",
                        "--n-list", "4,8", "--seed", 3, "--out", out,
                    ]
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_json_reports_reproducible(self, rect4_file, tmp_path):
        outs = []
        for tag in ("p", "q"):
            out = tmp_path / f"{tag}.json"
            assert (
                run(
                    [
                        "certify", "--family-file", rect4_file, "--out", out,
                        "--format", "json",
                    ]
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
