"""Tests for the command-line driver: exit codes, report formats, and
byte-level reproducibility."""

import argparse
import errno
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pixelrank
from pixelrank import cli, ht, images, rankcore, tt
from pixelrank.cli import build_parser, main
from pixelrank.images import load_family, make_family

from oracles import dense_blocks, layer_rank_table, network_of


def run(args):
    return main([str(a) for a in args])


def _run_process(args, cap: int | None = None) -> subprocess.CompletedProcess:
    """`python -m pixelrank.cli` in a child process with one BLAS thread,
    its address space capped at cap bytes when cap is given."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(pixelrank.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pixelrank.cli", *map(str, args)],
        env=env,
        preexec_fn=None if cap is None else limit,
        capture_output=True,
        text=True,
        timeout=120,
    )


_GEN_ARGS = {
    "rect4": ["--family", "rect", "--n", 4],
    "rect7": ["--family", "rect", "--n", 7],
    "bars8": ["--family", "bars", "--n", 8],
    "random7": ["--family", "random", "--n", 7, "--m", 225, "--seed", 1],
    "rect12": ["--family", "rect", "--n", 12],
}


def _gen_file(tmp_path, name):
    path = tmp_path / f"{name}.fam"
    assert run(["gen", *_GEN_ARGS[name], "--out", path]) == 0
    return path


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
        out = tmp_path / "x.fam"
        assert run(["gen", "--family", "rect", "--n", 2, "--out", out]) == 2
        # A side below 1 is no family, even an empty one.
        for n in (0, -2):
            assert run(["gen", "--family", "random", "--n", n, "--m", 0, "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, option, value, low",
        [("stacked", "--min-side", 0, 1), ("bars", "--min-len", 0, 1), ("rect", "--min-side", 2, 3)],
    )
    def test_minimum_below_its_floor_is_input_error(
        self, family, option, value, low, tmp_path, capsys
    ):
        out = tmp_path / "x.fam"
        capsys.readouterr()
        assert run(["gen", "--family", family, "--n", 5, option, value, "--out", out]) == 2
        name = option[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be at least {low}, got {value}\n"
        assert not out.exists()
        args = ["scale", "--family", family, "--quantity", "members", "--n-list", "5,6"]
        assert run(args + [option, value]) == 2


# Each subcommand with the options that name a file it writes, and the rest
# of a command line that would succeed.
_WRITERS = [
    ("gen", "--out", ["--family", "rect", "--n", 4]),
    ("certify", "--out", ["--family-file", "{fam}"]),
    ("tt", "--out", ["--family-file", "{fam}"]),
    ("tt", "--report", ["--family-file", "{fam}"]),
    ("ht", "--out", ["--family-file", "{fam}"]),
    ("ht", "--report", ["--family-file", "{fam}"]),
    ("diag", "--out", ["--network", "{net}"]),
    ("diag", "--report", ["--network", "{net}"]),
    ("scale", "--out", ["--quantity", "members", "--n-list", "4,5"]),
    ("baseline", "--out", ["--n", 4, "--m", 3, "--cut-row", 2]),
    ("crosscheck", "--out", ["--family-file", "{fam}", "--probes", 10]),
]


class TestOutputPath:
    @pytest.mark.parametrize(
        "command, option, rest", _WRITERS, ids=[f"{c}{o}" for c, o, _ in _WRITERS]
    )
    def test_missing_directory_is_input_error(
        self, command, option, rest, rect4_file, tmp_path, capsys
    ):
        net = tmp_path / "rect4.ht"
        assert run(["ht", "--family-file", rect4_file, "--out", net]) == 0
        bad = tmp_path / "missing" / "x"
        rest = [str(a).format(fam=rect4_file, net=net) for a in rest]
        capsys.readouterr()
        assert run([command, *rest, option, bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and "Traceback" not in err


class TestParser:
    def test_option_set_of_each_subcommand(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        network = {"--family-file", "--out", "--report", "--format"}
        assert options == {
            "gen": {"--family", "--n", "--min-side", "--min-len", "--m", "--seed", "--out"},
            "certify": {"--family-file", "--out", "--format", "--jobs"},
            "tt": network,
            "ht": network,
            "diag": {"--network", "--out", "--report", "--format"},
            "scale": {
                "--family", "--quantity", "--n-list", "--min-side", "--min-len", "--seed",
                "--out", "--format",
            },
            "baseline": {"--n", "--m", "--seed", "--cut-row", "--rect", "--out", "--format"},
            "crosscheck": {"--family-file", "--probes", "--out", "--format"},
        }

    def test_diag_rejects_tol(self, rect4_file, tmp_path, capsys):
        # Every rank is exact, so no subcommand takes a tolerance.
        for args in (
            ["diag", "--network", tmp_path / "x.ht"],
            ["certify", "--family-file", rect4_file],
            ["tt", "--family-file", rect4_file],
            ["ht", "--family-file", rect4_file],
            ["scale", "--quantity", "members", "--n-list", "4,5"],
            ["crosscheck", "--family-file", rect4_file],
            ["gen", "--family", "rect", "--n", 4, "--out", tmp_path / "x.fam"],
            ["baseline", "--n", 4, "--m", 3, "--cut-row", 2],
        ):
            capsys.readouterr()
            with pytest.raises(SystemExit) as err:
                run(args + ["--tol", "1e-9"])
            assert err.value.code == 2
            assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["2", "1", "nan", "0", "-1e-9", "x"])
    def test_tol_outside_unit_interval_exit_2(self, tol, capsys):
        for args in (
            ["certify", "--family-file", "f.fam"],
            ["tt", "--family-file", "f.fam"],
            ["ht", "--family-file", "f.fam"],
            ["scale", "--quantity", "members", "--n-list", "4,5"],
            ["crosscheck", "--family-file", "f.fam"],
        ):
            with pytest.raises(SystemExit) as err:
                build_parser().parse_args(args + [f"--tol={tol}"])
            assert err.value.code == 2
            err_text = capsys.readouterr().err
            assert f"unrecognized arguments: --tol={tol}" in err_text
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

    def test_side_one_family_has_an_empty_subadditivity_table(self, tmp_path):
        path = tmp_path / "one.fam"
        path.write_text("n=1 name=one seed=none\n1\n")
        out = tmp_path / "r.csv"
        assert run(["certify", "--family-file", path, "--out", out, "--jobs", 2]) == 0
        text = out.read_text()
        assert text.endswith("# table subadditivity\ni,row_cut_rank,bound,ok\n")
        assert "# table fixed_row_ranks\ni,y,rank\n1,1,1\n" in text

    def test_import_leaves_multiprocessing_out(self):
        """The pool module is imported where a pool starts, so no command
        that runs serially pays for it."""
        src = str(Path(pixelrank.__file__).resolve().parent.parent)
        code = "import sys, pixelrank.cli; print('multiprocessing' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


class TestWholeProcess:
    """The command as a process: console_main freezes the collector's
    objects before it exits, and must still flush, exit with main's code
    and shut a pool down."""

    def test_exit_0_with_the_in_process_report(self, rect4_file, tmp_path, capsys):
        def timeless(stdout: str) -> list[str]:
            *lines, last = stdout.splitlines()
            assert last.startswith("elapsed ")
            return lines

        for command in ("certify", "tt"):
            flag = "--out" if command == "certify" else "--report"
            mine, theirs = tmp_path / f"{command}-in.csv", tmp_path / f"{command}-proc.csv"
            capsys.readouterr()
            assert run([command, "--family-file", rect4_file, flag, mine]) == 0
            proc = _run_process([command, "--family-file", rect4_file, flag, theirs])
            assert (proc.returncode, proc.stderr) == (0, "")
            assert theirs.read_bytes() == mine.read_bytes()
            assert timeless(proc.stdout) == timeless(capsys.readouterr().out)

    def test_malformed_family_exit_2_without_traceback(self, tmp_path):
        bad = tmp_path / "bad.fam"
        bad.write_text("n=4 name=x seed=none\n111\n")
        proc = _run_process(["tt", "--family-file", bad])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: cannot load family file {bad}: line 2: member has 3 pixels, expected 16\n"
        )

    def test_certify_pool_exits_with_the_serial_bytes(self, rect4_file, tmp_path):
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"cert{jobs}.csv"
            proc = _run_process(
                ["certify", "--family-file", rect4_file, "--jobs", jobs, "--out", out]
            )
            assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestNetworks:
    def test_network_commands_leave_numpy_ma_out(self, rect4_file, tmp_path):
        """Importing numpy.ma costs every process about 10 ms and 1.3 MB;
        plain np.unique and np.isin on void keys would import it.  Every
        subcommand runs in one process, which must not load it."""
        src = str(Path(pixelrank.__file__).resolve().parent.parent)
        net = tmp_path / "rect4.ht"
        runs = [
            ["gen", "--family", "stacked", "--n", 5, "--out", tmp_path / "stacked5.fam"],
            ["certify", "--family-file", rect4_file, "--jobs", 1, "--out", tmp_path / "c.csv"],
            *(
                ["scale", "--quantity", q, "--n-list", "4,5", "--out", tmp_path / f"{q}.csv"]
                for q in (*cli.SCALAR_QUANTITIES, "ht-channels")
            ),
            ["baseline", "--n", 4, "--m", 9, "--cut-row", 2, "--out", tmp_path / "b.csv"],
            ["tt", "--family-file", rect4_file, "--out", tmp_path / "rect4.tt"],
            ["ht", "--family-file", rect4_file, "--out", net],
            ["diag", "--network", net, "--out", tmp_path / "rect4-diag.ht"],
            ["crosscheck", "--family-file", rect4_file, "--out", tmp_path / "cc.csv"],
        ]
        code = (
            "import sys\n"
            "from pixelrank.cli import main\n"
            f"codes = [main(argv) for argv in {[[str(a) for a in argv] for argv in runs]!r}]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"{[0] * len(runs)} False", done.stdout

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

    def test_diag_nan_deviation_exits_1(self, tmp_path, capsys):
        """A valid n=2 network whose values are +-1e300 overflows to NaN in
        both forms; a NaN deviation fails the check."""
        tree = ht.Tree(2)
        widths = [2, 2, 1]
        params = {
            node: np.resize([1e300, -1e300], (widths[i - 1], widths[i - 2], widths[i - 2]))
            for i in range(2, tree.n_layers + 1)
            for node in tree.layers[i]
        }
        path = tmp_path / "huge.ht"
        ht.save_ht(network_of(ht.HTNetwork, 2, widths, params), path)
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["diag", "--network", path]) == 1
        out, err = capsys.readouterr()
        assert "max deviation nan" in out
        assert err == "diagonalization check failed: deviation nan\n"

    def test_diag_on_malformed_network_is_input_error(self, rect4_file, tmp_path, capsys):
        net = tmp_path / "n.ht"
        train = tmp_path / "n.tt"
        assert run(["ht", "--family-file", rect4_file, "--out", net]) == 0
        assert run(["tt", "--family-file", rect4_file, "--out", train]) == 0
        text = net.read_text()
        lines = text.splitlines(keepends=True)
        # Three lines per node: layer 2 blocks are (3, 2, 2) of 3 nonzeros,
        # layer 3 (4, 3, 3) of 4.
        assert lines[6:9] == ["node 2 1 1 shape 3 2 2 nonzeros 3\n", "1 7 8\n", "1 1 1\n"]
        assert lines[30] == "node 3 1 1 shape 4 3 3 nonzeros 4\n" and len(lines) == 51
        bad = tmp_path / "bad.ht"
        wrong_width = lines[:8] + ["0 1\n"] + lines[9:]
        far_original = lines[:3] + ["original_n=99\n"] + lines[4:]
        not_a_number = lines[:8] + ["0 nan 1\n"] + lines[9:]
        infinite = lines[:8] + ["1 1 -inf\n"] + lines[9:]
        wrong_shape = lines[:30] + ["node 3 1 1 shape 4 3 2 nonzeros 4\n"] + lines[31:]
        too_wide = lines[:5] + ["widths=2 2 4 6 1\n"] + lines[6:]
        backwards = lines[:7] + ["8 7 1\n"] + lines[8:]
        no_count = lines[:6] + ["node 2 1 1 shape 3 2 2\n"] + lines[7:]
        non_ascii = lines[:3] + ["original_n=\u00e9\n"] + lines[4:]
        for content, message in (
            ("".join(not_a_number), "line 9: node 2 1 1: non-finite number 'nan'"),
            ("".join(infinite), "line 9: node 2 1 1: non-finite number '-inf'"),
            (text[: len(text) // 2], "line "),
            ("".join(lines[:49]), "line 50: file ends early, expected node 5 1 1"),
            ("".join(wrong_width), "line 9: node 2 1 1: expected 3 values, got 2"),
            ("".join(far_original), "line 4: original_n=99 does not pad to n=4"),
            (_n2_network("3 1 1"), "line 6: leaf width must be 2, got 3"),
            (_n2_network("2 1 2"), "line 6: root width must be 1, got 2"),
            (
                "".join(wrong_shape),
                "line 31: node 3 1 1: shape (4, 3, 2) does not fit its children's ranks (3, 3)",
            ),
            (_n2_network("2 1 1", root=2), "line 13: node 3 1 1: rank 2 above the layer width 1"),
            ("".join(too_wide), "line 7: node 2 1 1: rank 3 above the layer width 2"),
            ("pixelrank-ht 1\n" + "".join(lines[1:]), "line 1: a version 1 network file"),
            ("pixelrank-network 2\n" + "".join(lines[1:]), "line 1: a version 2 network file"),
            (train.read_text(), "line 2: a 'train' file, expected a tree"),
            ("".join(backwards), "line 8: node 2 1 1: positions not ascending, 7 after 8"),
            ("".join(no_count), "line 7: node 2 1 1: no nonzeros count"),
            ("".join(non_ascii), "line 4: non-ASCII byte"),
        ):
            bad.write_bytes(content.encode("utf-8"))
            capsys.readouterr()
            assert run(["diag", "--network", bad]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot load network {bad}: {message}")
            assert "Traceback" not in err

    def test_diag_of_a_wide_zero_network_fits_the_cap(self, tmp_path):
        # A zero network on n=4 with widths 2 68 68 1 1: its diagonal form
        # would take 685 MB dense, above the child's 512 MiB address space,
        # but it has no nonzeros to hold.
        tree = ht.Tree(4)
        widths = [2, 68, 68, 1, 1]
        params = {
            node: np.zeros((widths[i - 1], widths[i - 2], widths[i - 2]))
            for i in range(2, tree.n_layers + 1)
            for node in tree.layers[i]
        }
        path = tmp_path / "wide.ht"
        ht.save_ht(network_of(ht.HTNetwork, 4, widths, params), path)
        dense = 8 * (8 * (68 * 2) ** 2 + 4 * (68 * 68) ** 2 + 2 * 68**2 + 1)
        cap = 512 << 20
        assert dense > cap

        proc = _run_process(["diag", "--network", path], cap)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.startswith("diagonal widths [4, 4624, 4624, 1, 1], max deviation 0\n")

    def test_build_of_a_full_rank_family_fits_the_cap(self, tmp_path):
        # random n=6 m=500, padded to 8: its node tensors would take 189 MiB
        # dense on layer 5 and 399 MiB on layer 6, beyond the child's 512
        # MiB address space; held as nonzeros they fit, and the widths are
        # the exact ranks.
        fam = tmp_path / "random6.fam"
        assert run(["gen", "--family", "random", "--n", 6, "--m", 500, "--out", fam]) == 0
        cap = 512 << 20

        proc = _run_process(["ht", "--family-file", fam], cap)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        match = re.match(
            r"layer widths \[([\d, ]+)\] \(padded 6 -> 8\), max \|eval - f\| 0\n", proc.stdout
        )
        assert match, proc.stdout
        ranks = layer_rank_table(load_family(fam))
        tree = ht.Tree(8)
        want = [max(max(ranks[node] for node in tree.layers[i]), 1) for i in tree.layers]
        assert [int(w) for w in match[1].split(", ")] == want

    def test_scale_widths_need_no_tensor_memory(self):
        # The widths come from the plan: the matched random n=8 m=441
        # family's node tensors would take 1,896 MiB, and layer 5's alone
        # 590 MiB, beyond the child's 512 MiB address space.
        proc = _run_process(
            ["scale", "--family", "rect", "--quantity", "ht-channels", "--n-list", 8], 512 << 20
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    @pytest.mark.parametrize("quantity", ["tt-bond", "ht-channels"])
    def test_scale_builds_no_tensor(self, quantity, tmp_path, monkeypatch):
        """scale reads bonds and widths off the plan: with _interpolate and
        the making of any node block failing, its report is unchanged."""
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        args = ["scale", "--quantity", quantity, "--n-list", "4,5"]
        assert run([*args, "--out", want]) == 0

        def no_memory(*_):
            raise MemoryError

        monkeypatch.setattr(rankcore, "_interpolate", no_memory)
        monkeypatch.setattr(rankcore, "_Block", no_memory)
        assert run([*args, "--out", got]) == 0
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("command", ["tt", "ht", "crosscheck"])
    def test_build_memory_error_exits_2(self, command, rect4_file, monkeypatch, capsys):
        """A layer whose blocks cannot be made names its nonzeros' bytes,
        8 for a position and 8 for a value each."""

        def no_memory(*args):
            raise MemoryError

        family = make_family("rect", 4, min_side=3)
        if command == "ht":
            # Tree layer 2 is the first to build: 16 nodes of (rank, 2, 2).
            params = dense_blocks(ht.ht_from_family(family))
            count = sum(np.count_nonzero(p) for node, p in params.items() if node.i == 2)
            first = f"layer 2 take {16 * count} bytes"
        else:
            # The train's layer 3, the first to build, is node 1: pixel 1.
            count = np.count_nonzero(dense_blocks(tt.tt_from_family(family))[1])
            first = f"layer 3 take {16 * count} bytes"
        monkeypatch.setattr(rankcore, "_Block", no_memory)
        capsys.readouterr()
        assert run([command, "--family-file", rect4_file]) == 2
        err = capsys.readouterr().err
        assert re.match(r"error: the node nonzeros of tree layer \d+ take \d+ bytes", err), err
        assert first in err

    @pytest.mark.parametrize(
        "args, layer",
        [
            # The train's layer 3 and the tree's layer 2 hold the first inner nodes.
            (["tt", "--family-file", "{fam}"], 3),
            (["ht", "--family-file", "{fam}"], 2),
            (["scale", "--quantity", "tt-bond", "--n-list", "4,5"], 3),
        ],
        ids=["tt", "ht", "scale"],
    )
    def test_pivots_memory_error_names_the_layer(
        self, args, layer, rect4_file, monkeypatch, capsys
    ):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(rankcore, "_node_pivots", no_memory)
        capsys.readouterr()
        assert run([a.format(fam=rect4_file) for a in args]) == 2
        message = f"the node pivots of tree layer {layer} take more than can be allocated"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_diag_memory_error_names_the_diagonal_bytes(self, tmp_path, monkeypatch, capsys):
        fam = tmp_path / "rect5.fam"
        net_path = tmp_path / "rect5.ht"
        assert run(["gen", "--family", "rect", "--n", 5, "--out", fam]) == 0
        assert run(["ht", "--family-file", fam, "--out", net_path]) == 0
        diagonal = dense_blocks(ht.diagonalize(ht.load_ht(net_path))).values()
        nbytes = 16 * sum(np.count_nonzero(p) for p in diagonal)

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(ht, "_duplicated", no_memory)
        capsys.readouterr()
        assert run(["diag", "--network", net_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: the diagonal network's nonzeros take {nbytes} bytes")

    @pytest.mark.parametrize("command", ["tt", "ht", "diag", "crosscheck"])
    @pytest.mark.parametrize("dev", [1e-6, np.nextafter(1e-6, 0), float("nan")])
    def test_deviation_from_one_millionth_exits_1(
        self, command, dev, rect4_file, tmp_path, monkeypatch, capsys
    ):
        """Each check's evaluator, patched to be exact on members and off by
        dev on every other row, fails at dev = 1e-6 and passes just below."""

        def exact(evaluate):
            return lambda net, bits: np.round(evaluate(net, bits))

        def off_by(evaluate):
            return lambda net, bits: np.where(np.round(evaluate(net, bits)) == 1, 1.0, dev)

        net = tmp_path / "rect4.ht"
        assert run(["ht", "--family-file", rect4_file, "--out", net]) == 0
        if command == "tt":
            monkeypatch.setattr(cli, "tt_eval_batch", off_by(tt.tt_eval_batch))
            args, check = ["tt", "--family-file", rect4_file], "exactness"
        elif command == "ht":
            monkeypatch.setattr(cli, "ht_eval_batch", off_by(ht.ht_eval_batch))
            args, check = ["ht", "--family-file", rect4_file], "exactness"
        elif command == "diag":
            real = ht.ht_eval_batch
            monkeypatch.setattr(
                cli,
                "ht_eval_batch",
                lambda net, bits: (off_by if net.form == "diagonal" else exact)(real)(net, bits),
            )
            args, check = ["diag", "--network", net], "diagonalization"
        else:
            monkeypatch.setattr(ht, "tt_eval_batch", exact(tt.tt_eval_batch))
            monkeypatch.setattr(ht, "ht_eval_batch", off_by(ht.ht_eval_batch))
            args, check = ["crosscheck", "--family-file", rect4_file], "tt-ht cross"
        capsys.readouterr()
        failed = not dev < 1e-6
        assert run(args) == (1 if failed else 0)
        err = capsys.readouterr().err
        assert err == (f"{check} check failed: deviation {dev:.3g}\n" if failed else "")

    @pytest.mark.parametrize("command", ["tt", "ht", "diag", "crosscheck"])
    @pytest.mark.parametrize("message", ["", "cannot allocate the probes"])
    def test_memory_error_after_the_build_exits_2(
        self, command, message, rect4_file, tmp_path, monkeypatch, capsys
    ):
        net = tmp_path / "rect4.ht"
        assert run(["ht", "--family-file", rect4_file, "--out", net]) == 0

        def no_memory(*args, **kwargs):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(images, "random_probes", no_memory)
        monkeypatch.setattr(cli, "random_probes", no_memory)
        if command == "diag":
            args = ["diag", "--network", net]
        else:
            args = [command, "--family-file", rect4_file]
        capsys.readouterr()
        assert run(args) == 2
        assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"

    @pytest.mark.parametrize("command", ["ht", "diag"])
    def test_failed_network_write_leaves_no_file(
        self, command, rect4_file, tmp_path, monkeypatch, capsys
    ):
        net, out = tmp_path / "rect4.ht", tmp_path / "out.ht"
        assert run(["ht", "--family-file", rect4_file, "--out", net]) == 0
        real_open, nodes = open, []

        def full_disk(path, mode="r", **kwargs):
            """open, but a file opened for writing runs out of space at its
            second node."""
            fh = real_open(path, mode, **kwargs)
            if "w" in mode:
                write = fh.write

                def write_until_full(text):
                    if text.startswith("node "):
                        nodes.append(text)
                        if len(nodes) == 2:
                            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                    return write(text)

                fh.write = write_until_full
            return fh

        monkeypatch.setattr(rankcore, "open", full_disk, raising=False)
        if command == "ht":
            args = ["ht", "--family-file", rect4_file, "--out", out]
        else:
            args = ["diag", "--network", net, "--out", out]
        capsys.readouterr()
        assert run(args) == 2
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert capsys.readouterr().err == f"error: {full}\n"
        assert len(nodes) == 2
        assert not out.exists()

    def test_crosscheck(self, rect4_file, tmp_path):
        out = tmp_path / "cc.csv"
        assert (
            run(["crosscheck", "--family-file", rect4_file, "--probes", 300, "--out", out])
            == 0
        )
        assert "max_dev_tt_ht" in out.read_text()


def _n2_network(widths: str, root: int = 1) -> str:
    """A generalized n=2 network file with the given widths line, layer-2
    nodes of rank l_2 and a root of the given rank, all values 1."""
    l1, l2, _ = (int(w) for w in widths.split())
    lines = [
        "pixelrank-network 3", "kind=tree", "n=2", "original_n=2", "form=generalized",
        "widths=" + widths,
    ]
    for node, (r, r2, r1) in (
        ("2 1 1", (l2, 2, 2)), ("2 1 2", (l2, 2, 2)), ("3 1 1", (root, l2, l2))
    ):
        size = r * r2 * r1
        lines += [f"node {node} shape {r} {r2} {r1} nonzeros {size}"]
        lines += [" ".join(map(str, range(size))), " ".join(["1"] * size)]
    return "\n".join(lines) + "\n"


# The network files of two random n=2 families, byte for byte: the train of
# `gen --family random --n 2 --m 6 --seed 24` (members 1011 0110 1101 1001
# 0010 0011), and the tree network of `--m 7 --seed 8` (members 0011 0101
# 1111 0110 0010 1011 0000) and its diagonal form.
_N2_FILES = {
    "train": (
        6, 24, "tt",
        """pixelrank-network 3
kind=train
n=2
original_n=2
form=generalized
widths=1 2 2 3 2 1
node 1 shape 2 2 1 nonzeros 2
0 3
1 1
node 2 shape 3 2 2 nonzeros 6
0 2 5 6 10 11
1 1 1 -1 1 1
node 3 shape 2 2 3 nonzeros 4
1 2 8 9
1 1 1 1
node 4 shape 1 2 2 nonzeros 2
1 2
1 1
""",
    ),
    "generalized": (
        7, 8, "ht",
        """pixelrank-network 3
kind=tree
n=2
original_n=2
form=generalized
widths=2 3 1
node 2 1 1 shape 3 2 2 nonzeros 3
3 4 9
1 1 1
node 2 1 2 shape 3 2 2 nonzeros 6
0 3 4 6 8 9
1 1 -2 1 1 1
node 3 1 1 shape 1 3 3 nonzeros 5
0 2 5 7 8
1 1 1 1 1
""",
    ),
    "diagonal": (
        7, 8, "diag",
        """pixelrank-network 3
kind=tree
n=2
original_n=2
form=diagonal
widths=4 9 1
node 2 1 1 shape 9 4 nonzeros 9
3 4 9 15 16 21 27 28 33
1 1 1 1 1 1 1 1 1
node 2 1 2 shape 9 4 nonzeros 18
0 3 4 7 8 11 12 14 16 18 20 22 24 25 28 29 32 33
1 1 1 1 1 1 -2 1 -2 1 -2 1 1 1 1 1 1 1
node 3 1 1 shape 1 9 nonzeros 5
0 2 5 7 8
1 1 1 1 1
""",
    ),
}


class TestNetworkFileBytes:
    @pytest.mark.parametrize("form", sorted(_N2_FILES))
    def test_file_text(self, form, tmp_path):
        m, seed, command, text = _N2_FILES[form]
        fam, net, out = tmp_path / "f.fam", tmp_path / "f.ht", tmp_path / "out"
        gen = ["gen", "--family", "random", "--n", 2, "--m", m, "--seed", seed]
        assert run([*gen, "--out", fam]) == 0
        if command == "diag":
            assert run(["ht", "--family-file", fam, "--out", net]) == 0
            assert run(["diag", "--network", net, "--out", out]) == 0
        else:
            assert run([command, "--family-file", fam, "--out", out]) == 0
        assert out.read_text() == text

    def test_saving_a_loaded_file_rewrites_it(self, tmp_path):
        """save(load(f)) writes f again byte for byte, for each network file
        `tt`, `ht` and `diag` write."""
        fam = tmp_path / "rect5.fam"
        assert run(["gen", "--family", "rect", "--n", 5, "--out", fam]) == 0
        train, net, diag = tmp_path / "rect5.tt", tmp_path / "rect5.ht", tmp_path / "rect5d.ht"
        assert run(["tt", "--family-file", fam, "--out", train]) == 0
        assert run(["ht", "--family-file", fam, "--out", net]) == 0
        assert run(["diag", "--network", net, "--out", diag]) == 0
        for path, load, save in (
            (train, tt.load_tt, tt.save_tt),
            (net, ht.load_ht, ht.save_ht),
            (diag, ht.load_ht, ht.save_ht),
        ):
            again = tmp_path / ("again-" + path.name)
            save(load(path), again)
            assert path.read_bytes() == again.read_bytes()


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


# sha256 of the files a command writes for a family generated as
# _GEN_ARGS[name] into {name}.fam.  A change of pivots, network format or
# report changes them, and must be declared where they are updated.
_GOLDEN_COMMANDS = ("tt", "ht", "certify", "diag", "crosscheck")

_GOLDEN_SHA256 = {
    ("rect7", "tt"): "963d48d7cb35f05fb702a82cc91be80acc8793e59e6d84dc93d198d69a891b61",
    ("rect7", "ht"): "680c13ac88aba2fa01105d86dea3e7ecc38c7bb8d27eb1ba9b0a99487822bd8f",
    ("rect7", "certify"): "c460f6f2fbe33f62dc15137a7a149653dd3f3820afd6e8874f0ab0c37dbf8528",
    ("rect7", "diag"): "04dbb9a0bb08db832b97034723505e74251aaffd32c178a79b34d6f636483568",
    ("rect7", "crosscheck"): "a7195791f97a0c29fc212df15a9334df71edc9f97a0150c2ef8e14b7283765d7",
    ("bars8", "tt"): "8859b96227e83c7a91ed1e1bf798c2b7a3dcce2023237864f0de2e82fe6ad8c2",
    ("bars8", "ht"): "524831ebfe5ce543b0cc7c72bca6cc1062758f9a3b711d3e9fe746628923394b",
    ("bars8", "certify"): "76cd0262dcc8030e8c89f1c24c38c0ca84d6e293a0495af7f4d8b03f4a0ebc98",
    ("bars8", "diag"): "c1a132018746a8e35e56a1e157cbd4fa24342719bea12388d93bba503e07c29f",
    ("bars8", "crosscheck"): "fe029554af963dcb8762c8b8624f00a1d29b509fa9b39dee310b428b14efa8ee",
    ("random7", "tt"): "46665f424086f6e93217f0d01858143dce6da90e5e73a72299c6eb3fe4b22226",
    ("random7", "ht"): "66f56674e39a90f34cfa13be780505c8d0746a0fed272a8eb7ee7d10c31a1202",
    ("random7", "certify"): "59864b7dbff3f831740b7230245b3af4e9fedac92ce5a555334f06ea827052e6",
    ("random7", "diag"): "7c374d9c1f3c0e0a61194beb26573f3260a80a4d1da709d57ba99d9adf1346f9",
    ("random7", "crosscheck"): "e5e650657021a2e9ba5aefedd450b333fb1385fe19a63f4fde5d6a64b9a38302",
}


class TestGoldenBytes:
    """The network files of tt, ht and diag and the certify and crosscheck
    reports, byte for byte; every parameter of these networks is an
    integer, so the bytes do not depend on floating-point rounding."""

    @pytest.mark.parametrize("name", ["rect7", "bars8", "random7"])
    def test_network_files_and_certify_report(self, name, tmp_path):
        family_file = _gen_file(tmp_path, name)
        out = {command: tmp_path / f"{name}.{command}" for command in _GOLDEN_COMMANDS}
        args = {
            "diag": ["--network", out["ht"]],
            "crosscheck": ["--family-file", family_file, "--probes", 500],
        }
        got = {}
        for command in _GOLDEN_COMMANDS:
            given = args.get(command, ["--family-file", family_file])
            assert run([command, *given, "--out", out[command]]) == 0
            got[name, command] = hashlib.sha256(out[command].read_bytes()).hexdigest()
        assert got == {key: h for key, h in _GOLDEN_SHA256.items() if key[0] == name}


# sha256 of the reports whose numbers pass through unfold and are not
# pinned above: certify on the benchmark's family (rect12), every
# unfolding quantity of scale and both cuts of baseline.
_CERTIFY_RECT12_SHA256 = "3ccd92d24ba61784457d6e78b105911edc3b7b3715dff5c2630082d17b67edd8"

_SCALE_SHA256 = {
    ("rect", "row-configs"): "dce3fbbf538072141563cfd273277959ddf04d731f2a6688c0861a76b48b2e9f",
    ("rect", "fixed-row-rank"): "3168cafc9ee804861bfc1e0dedadc4781662a76b5465bcebda29e055afe0d140",
    ("rect", "middle-cut-rank"): "9f5bdfb1d59687519b44a7a3f0e1174fab88b207f9b9eb891955892af1dcacf3",
    ("bars", "row-configs"): "e9ac91924275a7a13555fc28786e51eb9885301fcafa1a90c4b932a28417af46",
    ("bars", "fixed-row-rank"): "0c357e290d9c2f20a76f4e2f43dbf51b79abb68383d0f732ff28568617636cec",
    ("bars", "middle-cut-rank"): "482f9e83229cb3977541b0fa4c7554a1f05112fd28f3fdc3a472df6300657983",
    ("stacked", "row-configs"): "93177d432e31c56421e25aa0057f269ad773da6e0e3187a563aa8cf866987b3b",
    ("stacked", "fixed-row-rank"): "665ea1e85abdb2580d48d529fd81cebee6d89ed6cdacebaa182d21b7fcdc55d7",
    ("stacked", "middle-cut-rank"): "c1c1dfaf2e92b883586584a99aefdb5b842d90f17b04bf3b7360f8d396cf35a6",
}

_BASELINE_SHA256 = {
    "--cut-row": "ade7c1594b726d14dd595ed416f6126492eb06c8d49f56b3d05bad341f68e556",
    "--rect": "4d86b008dcc654b44aefb40952722d01cba79dce90f3e1f538541e0fdd84e0f3",
}


class TestUnfoldingReportBytes:
    """Reports built from exact ranks of unfoldings, byte for byte; a rank
    does not depend on how unfold numbers its rows and columns."""

    def test_certify_of_the_benchmark_family(self, tmp_path):
        out = tmp_path / "rect12.certify"
        family_file = _gen_file(tmp_path, "rect12")
        assert run(["certify", "--family-file", family_file, "--jobs", 1, "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _CERTIFY_RECT12_SHA256

    @pytest.mark.parametrize("family", ["rect", "bars", "stacked"])
    def test_scale(self, family, tmp_path):
        n_list = "5,7" if family == "stacked" else "4,7"
        got = {}
        for quantity in ("row-configs", "fixed-row-rank", "middle-cut-rank"):
            out = tmp_path / f"{quantity}.csv"
            args = ["--family", family, "--quantity", quantity, "--seed", 1, "--n-list", n_list]
            assert run(["scale", *args, "--out", out]) == 0
            got[family, quantity] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert got == {key: h for key, h in _SCALE_SHA256.items() if key[0] == family}

    @pytest.mark.parametrize("cut", [("--cut-row", 3), ("--rect", "2,2,3,3")])
    def test_baseline(self, cut, tmp_path):
        out = tmp_path / "base.csv"
        assert run(["baseline", "--n", 6, "--m", 40, "--seed", 1, *cut, "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _BASELINE_SHA256[cut[0]]


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

    def test_scale_needs_two_distinct_sizes(self, tmp_path, capsys):
        out = tmp_path / "scale.csv"
        args = ["scale", "--quantity", "members", "--out", out, "--n-list"]
        assert run(args + ["4,4"]) == 2
        assert "error: need at least 2 distinct n values" in capsys.readouterr().err
        assert not out.exists()
        assert run(args + ["4,5,4"]) == 0
        assert "structured," in out.read_text()

    def test_slope_row_of_one_size_is_nan(self):
        label, slope, intercept = cli._slope_row("structured", [(4, 9), (4, 9)])
        assert label == "structured" and np.isnan(slope) and np.isnan(intercept)

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

    @pytest.mark.parametrize("rect", ["1,1,2", "1,1,2,2,2", "1,1,x,2"])
    def test_baseline_rect_needs_four_integers(self, rect, capsys):
        assert run(["baseline", "--n", 4, "--m", 9, "--rect", rect]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --rect takes TOP,LEFT,HEIGHT,WIDTH, got {rect!r}\n"


class TestReproducibility:
    @pytest.mark.parametrize("name", ["rect4", "random7", "bars8"])
    def test_certify_bytes_independent_of_jobs(self, name, tmp_path):
        """--jobs 2 workers inherit the family's member indexes built
        before the pool starts; the report must not depend on it."""
        family_file = _gen_file(tmp_path, name)
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"cert{jobs}.csv"
            assert (
                run(["certify", "--family-file", family_file, "--out", out, "--jobs", jobs])
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
