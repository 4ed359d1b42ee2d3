import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from benenti.cli import build_parser, main
from benenti.pairfile import load_pair
from benenti.verify import VerifyConfig

QUICK = ["--points", "3", "--checks", "basic,connection,killing"]


def strip_timing(text: str) -> str:
    return re.sub(r"timing:\n(  .*\n)+", "", text)


def assert_describes_sampled_points(path, capsys):
    # describe at its defaults prints the points the sampler keeps, the
    # ones verify would check
    rc = main(["describe", str(path)])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    kept = load_pair(path).sample_point(np.random.default_rng(42), rows=3)
    assert re.findall(r"point \((.*)\):", out) == [
        ", ".join(f"{c:.4f}" for c in row) for row in kept]


def assert_unknown_name_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    # one unquoted error line, though the error is a KeyError
    assert err.startswith("error: unknown catalog entry 'zorp'; known: ")
    assert "dini" in err and err.count("\n") == 1


GOOD_FILE = """\
dim: 2
coords: [u, v]
g:
  - ["1"]
  - ["0", "1"]
gbar:
  - ["1"]
  - ["0", "1"]
domain:
  u: [0.1, 1.0]
  v: [0.1, 1.0]
name: flat-file
"""

BAD_FILE = """\
dim: 2
coords: [u, v]
g:
  - ["1"]
  - ["0", "1 + * u"]
gbar:
  - ["1"]
  - ["0", "1"]
domain:
  u: [0.1, 1.0]
  v: [0.1, 1.0]
"""

# g_11 is inf - inf + 1 = NaN everywhere in the domain
NAN_FILE = """\
dim: 2
coords: [x, y]
g:
  - ["(x*1e200)*(x*1e200) - (x*1e200)*(x*1e200) + 1", "0"]
  - ["0", "1"]
gbar:
  - ["2", "0"]
  - ["0", "3"]
domain:
  x: [1, 2]
  y: [1, 2]
"""

# ln(x + 0.5) is undefined on the part x <= -0.5 of the domain; the
# centre is fine, so the file loads
LN_FILE = """\
dim: 2
coords: [x, y]
g:
  - ["1 + ln(x + 0.5)^2"]
  - ["0", "1"]
gbar:
  - ["1 + ln(x + 0.5)^2"]
  - ["0", "1"]
domain:
  x: [-1.0, 1.0]
  y: [0.0, 1.0]
"""


class TestVerifyCommand:
    def test_equivalent_entry_exits_zero(self, capsys):
        rc = main(["verify", "dini", *QUICK])
        out = capsys.readouterr().out
        assert rc == 0
        doc = yaml.safe_load(out)
        assert doc["summary"]["verdict"] == "pass"

    def test_control_entry_exits_one_with_flagged_basics(self, capsys):
        rc = main(["verify", "control_nonequiv", *QUICK])
        out = capsys.readouterr().out
        assert rc == 1
        doc = yaml.safe_load(out)
        assert doc["summary"]["verdict"] == "fail"
        basics = [r for r in doc["records"] if r["check"] == "basic"]
        assert basics and all(r["verdict"] == "fail" for r in basics)
        assert all(r["residual"] > 1e-2 for r in basics)

    def test_trivial_commutator_subset(self, capsys):
        rc = main(["verify", "trivial", "--checks", "commutator", "--points", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = yaml.safe_load(out)
        assert all(r["residual"] <= 1e-11 for r in doc["records"])

    def test_multiple_pairs_stream_and_worst_exit(self, capsys):
        rc = main(["verify", "dini", "control_nonequiv", *QUICK])
        out = capsys.readouterr().out
        assert rc == 1
        docs = list(yaml.safe_load_all(out))
        assert [d["pair"] for d in docs] == ["dini", "control_nonequiv"]
        assert [d["summary"]["verdict"] for d in docs] == ["pass", "fail"]

    def test_file_path_input(self, tmp_path, capsys):
        path = tmp_path / "flat.yaml"
        path.write_text(GOOD_FILE)
        rc = main(["verify", str(path), *QUICK])
        out = capsys.readouterr().out
        assert rc == 0
        doc = yaml.safe_load(out)
        assert doc["pair"] == "flat-file"
        assert doc["source"] == str(path)
        assert "expected_equivalent" not in doc

    def test_malformed_file_exits_two_with_position(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(BAD_FILE)
        rc = main(["verify", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 5" in err and "column" in err
        assert "g[1][1]" in err

    def test_unknown_keys_of_mixed_types_exit_two(self, tmp_path, capsys):
        path = tmp_path / "mixed.yaml"
        path.write_text("name: t\nfoo: 1\n1: 1\n")
        rc = main(["verify", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown key 'foo'" in err and "line 2, column 1" in err

    def test_draws_off_an_expression_domain_are_rejected(self, tmp_path, capsys):
        path = tmp_path / "ln.yaml"
        path.write_text(LN_FILE)
        rc = main(["verify", str(path), "--points", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        points = [r["point"] for r in yaml.safe_load(out)["records"]]
        assert points and all(p[0] > -0.5 for p in points)

    def test_missing_file_exits_two(self, capsys):
        rc = main(["verify", "no/such/file.yaml"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "cannot read" in err

    def test_unknown_name_exits_two(self, capsys):
        assert_unknown_name_error(main(["verify", "zorp"]), capsys)

    def test_no_pairs_exits_two(self, capsys):
        rc = main(["verify"])
        assert rc == 2
        assert "no pairs" in capsys.readouterr().err

    def test_report_file_and_summary_lines(self, tmp_path, capsys):
        report = tmp_path / "report.yaml"
        rc = main(["verify", "scaled", *QUICK, "--report", str(report)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scaled: pass" in out
        doc = yaml.safe_load(report.read_text())
        assert doc["pair"] == "scaled"

    def test_determinism_modulo_timing(self, capsys):
        main(["verify", "beltrami", *QUICK])
        first = capsys.readouterr().out
        main(["verify", "beltrami", *QUICK])
        second = capsys.readouterr().out
        assert strip_timing(first) == strip_timing(second)

    def test_jobs_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "dini", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_unwritable_report_exits_two(self, tmp_path, capsys):
        path = tmp_path / "no" / "such" / "dir" / "out.yaml"
        rc = main(["verify", "dini", *QUICK, "--report", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: cannot write {path}")
        assert "Traceback" not in err

    def test_t_grid_flag(self, capsys):
        rc = main(["verify", "dini", "--points", "2", "--checks", "killing",
                   "--t-grid", "0.0,7.5"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = yaml.safe_load(out)
        assert doc["configuration"]["t_grid"] == [0.0, 7.5]
        assert all(r["params"]["t"] in (0.0, 7.5) for r in doc["records"])

    def test_one_value_t_grid_exits_two_for_pairwise_checks(self, capsys):
        # with t = s for every candidate, a control would read 0.0 and pass
        rc = main(["verify", "control_nonequiv", "--points", "3", "--t-grid", "5",
                   "--checks", "poisson,commutator,decompose"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "t_grid" in captured.err
        rc = main(["verify", "dini", "--points", "2", "--checks", "killing",
                   "--t-grid", "5"])
        assert rc == 0
        assert yaml.safe_load(capsys.readouterr().out)["configuration"]["t_grid"] == [5.0]

    def test_tol_flag(self, capsys):
        rc = main(["verify", "control_nonequiv", *QUICK, "--tol", "1e6"])
        assert rc == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["configuration"]["tol"] == 1e6

    def test_bad_flag_value_exits_two(self, capsys):
        rc = main(["verify", "dini", "--points", "0", "--checks", "basic"])
        assert rc == 2
        assert "points" in capsys.readouterr().err

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_empty_check_list_cannot_pass_a_control(self, checks, capsys):
        # an empty list would run no check and give the control a pass
        with pytest.raises(SystemExit) as exc:
            main(["verify", "control_nonequiv", "--points", "2", "--checks", checks])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--checks" in captured.err and "no check ids" in captured.err

    @pytest.mark.parametrize("flags, word", [
        (["--checks", "killing", "--t-grid", ""], "t_grid"),
        (["--checks", "poisson,commutator", "--t-grid", ""], "t_grid"),
        (["--checks", "killing", "--t-grid", "0,1e400"], "t_grid"),
        (["--checks", "basic", "--seed", "-1"], "seed"),
        (["--checks", "basic,killing", "--tol", "inf"], "tol"),
        (["--checks", "basic,killing", "--tol", "nan"], "tol"),
        (["--checks", "basic,killing", "--tol", "-1"], "tol"),
        (["--checks", "basic,basic"], "checks"),
    ])
    def test_invalid_config_exits_two(self, flags, word, capsys):
        rc = main(["verify", "dini", "--points", "2", *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and word in err

    def test_nan_drift_fails(self, capsys):
        # S(t) overflows at t = 1e200; the NaN invariant must not read as 0
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["verify", "control_nonequiv_curved", "--checks", "drift",
                       "--points", "2", "--t-grid", "1e200"])
        doc = yaml.safe_load(capsys.readouterr().out)
        assert rc == 1
        assert len(doc["records"]) == 2
        for record in doc["records"]:
            assert math.isnan(record["residual"]) and record["verdict"] == "fail"
        assert math.isnan(doc["summary"]["max_residual"]["drift"])

    def test_nan_drift_prints_no_warning(self):
        # the overflow of S(t) at t = 1e200 shows as failed records only
        proc = subprocess.run(
            [sys.executable, "-m", "benenti", "verify", "control_nonequiv_curved",
             "--checks", "drift", "--points", "2", "--t-grid", "1e200"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        records = yaml.safe_load(proc.stdout)["records"]
        assert len(records) == 2
        for record in records:
            assert math.isnan(record["residual"]) and record["verdict"] == "fail"
        assert "RuntimeWarning" not in proc.stderr

    def test_non_finite_metric_exits_two_with_position(self, tmp_path, capsys):
        path = tmp_path / "nan.yaml"
        path.write_text(NAN_FILE)
        rc = main(["verify", str(path), "--points", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "g cannot be evaluated anywhere in the domain" in err
        assert "not finite" in err and "(line 4, column 3)" in err

    @pytest.mark.parametrize("old, new, where", [
        ("dim: 2", "dim: true", "dim must be a positive integer (line 1, column 6)"),
        ("u: [0.1, 1.0]", "u: [false, true]", "domain[u] must be [lo, hi]"),
    ])
    def test_yaml_booleans_exit_two_with_position(self, tmp_path, capsys,
                                                  old, new, where):
        path = tmp_path / "bool.yaml"
        path.write_text(GOOD_FILE.replace(old, new))
        rc = main(["verify", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err and "line" in err

    def test_defaults_come_from_the_config(self):
        args = build_parser().parse_args(["verify", "dini"])
        assert (args.points, args.seed) == (VerifyConfig().points, VerifyConfig().seed)

    def test_order_flag_is_rejected(self, capsys):
        # every frame check runs at the one order the commutator needs
        with pytest.raises(SystemExit) as exc:
            main(["verify", "dini", "--order", "4"])
        assert exc.value.code == 2
        assert "--order" in capsys.readouterr().err


class TestOtherCommands:
    def test_list_shows_catalog(self, capsys):
        rc = main(["list"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert any(line.startswith("dini") for line in lines)
        assert any("control" in line for line in lines)

    def test_describe_reports_structure_eigenvalues(self, capsys):
        rc = main(["describe", "dini", "--samples", "2", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dimension: 2" in out
        assert "riemannian" in out
        assert out.count("    L is diagonalizable\n") == 2
        # eigenvalues of the dini structure tensor are the coordinates
        pts = re.findall(r"point \(([-\d.]+), ([-\d.]+)\)", out)
        eigs = re.findall(r"L eigenvalues: ([-\d.]+), ([-\d.]+)", out)
        assert len(pts) == 2 and len(eigs) == 2
        for (x, y), (e1, e2) in zip(pts, eigs):
            assert sorted(map(float, (x, y))) == pytest.approx(
                sorted(map(float, (e1, e2))), abs=1e-4
            )

    def test_describe_unknown_pair(self, capsys):
        assert_unknown_name_error(main(["describe", "zorp"]), capsys)

    def test_describe_negative_seed_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["describe", "dini", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_describe_samples_below_one_exits_two(self, capsys):
        for samples in ("0", "-2"):
            with pytest.raises(SystemExit) as exc:
                main(["describe", "dini", "--samples", samples])
            assert exc.value.code == 2
            assert "--samples" in capsys.readouterr().err

    def test_describe_reads_only_points_where_the_metrics_can_be_read(self, tmp_path,
                                                                      capsys):
        # some draws fall where ln(x + 0.5) is undefined
        path = tmp_path / "ln.yaml"
        path.write_text(LN_FILE)
        assert_describes_sampled_points(path, capsys)

    def test_describe_file_path(self, tmp_path, capsys):
        path = tmp_path / "flat.yaml"
        path.write_text(GOOD_FILE)
        rc = main(["describe", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flat-file" in out


# Pair files on the edge of what can be read, as (g, gbar, domain): each
# once ended in a traceback or printed numpy warnings.
CORPUS = {
    # a well-conditioned gbar (|det| is 0.71 of Hadamard's bound) whose
    # |det| and row norms overflow
    "huge-corner": ("[['1'], ['0', '1']]", "[['1'], ['1e200', '1e200']]",
                    "{x: [0, 1], y: [0, 1]}"),
    # dini with a gbar_00 so small that L is not finite
    "tiny-gbar": ("[['x - y'], ['0', 'x - y']]",
                  "[['(1/y - 1/x) / -1e308'], ['0', '(1/y - 1/x) / y']]",
                  "{x: [1.05, 2.95], y: [0.05, 0.95]}"),
    # drift stages at points that are not finite
    "fast-wiggle": ("[['1'], ['0', '2 + cos(1e20 * x)']]",
                    "[['1'], ['0', '2 + cos(1e20 * x)']]", "{x: [1, 2], y: [0, 1]}"),
    # a Taylor coefficient of |det|^(-1/3) beyond the float range
    "scaled-flat": ("[['1e-50'], ['0', '1e-50']]", "[['1'], ['0', '1']]",
                    "{x: [0, 1], y: [0, 1]}"),
}


COMMANDS = {"verify": ["--points", "2"], "describe": ["--samples", "2"]}


def corpus_run(tmp_path, capsys, name, command):
    """(exit code, stderr) of a COMMANDS entry on a CORPUS file or a
    catalog name, with warnings raised as errors."""
    spec = name
    if name in CORPUS:
        g, gbar, domain = CORPUS[name]
        spec = tmp_path / f"{name}.yaml"
        spec.write_text(f"dim: 2\ncoords: [x, y]\ng: {g}\ngbar: {gbar}\n"
                        f"domain: {domain}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, str(spec), *COMMANDS[command]])
    return rc, capsys.readouterr().err


class TestInputCorpus:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("name", [*CORPUS, "dini"])
    def test_exits_with_a_code_and_no_traceback_or_warning(self, tmp_path, capsys,
                                                           name, command):
        rc, err = corpus_run(tmp_path, capsys, name, command)
        if rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert rc in (0, 1) and err == ""

    @pytest.mark.parametrize("name, command", [("huge-corner", "verify"),
                                               ("huge-corner", "describe"),
                                               ("scaled-flat", "verify")])
    def test_an_L_that_cannot_be_formed_is_named_with_its_point(self, tmp_path, capsys,
                                                                name, command):
        rc, err = corpus_run(tmp_path, capsys, name, command)
        assert rc == 2 and err.count("\n") == 1
        assert err.startswith("error: L cannot be formed at (")

    def test_unknown_check_id_is_one_error_line(self, capsys):
        rc = main(["verify", "dini", "--checks", "basic,frobnicate"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: unknown checks ['frobnicate']") and err.count("\n") == 1


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "benenti", "list"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "dini" in proc.stdout

    def test_argparse_rejects_unknown_check(self):
        proc = subprocess.run(
            [sys.executable, "-m", "benenti", "verify", "dini",
             "--checks", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "frobnicate" in proc.stderr


class ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [["list"], ["describe", "dini"],
                                      ["verify", "trivial", *QUICK]], ids=" ".join)
    def test_exits_141_quietly(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        rc = main(argv)
        # later writes and the interpreter's final flush go to devnull
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert rc == 141
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [["list"], ["describe", "dini"]], ids=" ".join)
    def test_closed_pipe_prints_no_traceback(self, argv):
        read, write = os.pipe()
        os.close(read)  # before the child starts, so its first write fails
        try:
            proc = subprocess.run([sys.executable, "-m", "benenti", *argv],
                                  stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert proc.returncode == 141
        assert proc.stderr == ""
