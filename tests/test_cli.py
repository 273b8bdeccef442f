import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arcqk
import arcqk.cli as cli
from arcqk.cli import main
from arcqk.problems import SmoothProblem


def run_cli(*args):
    return main(list(args))


class TestSolve:
    def test_solve_rosenbrock(self, capsys):
        assert run_cli("solve", "--problem", "rosenbrock",
                       "--solver", "arcqk") == 0
        out = capsys.readouterr().out
        assert "status: success" in out
        assert "neval_hvp:" in out

    def test_solve_with_params(self, capsys):
        assert run_cli("solve", "--problem", "sphere", "--solver", "st",
                       "--param", "delta0=2.0", "--param",
                       "max_outer_iter=50") == 0
        assert "status: success" in capsys.readouterr().out

    def test_solver_failure_is_data(self, capsys):
        # tiny iteration budget: run completes, reports a non-success status
        assert run_cli("solve", "--problem", "rosenbrock",
                       "--param", "max_outer_iter=2") == 0
        assert "status: other" in capsys.readouterr().out

    def test_unknown_problem(self, capsys):
        assert run_cli("solve", "--problem", "nope") == 2
        assert "unknown problem" in capsys.readouterr().err

    def test_bad_param(self, capsys):
        assert run_cli("solve", "--problem", "sphere",
                       "--param", "alpha0") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "expected key=value" in err

    def test_non_numeric_param(self, capsys):
        assert run_cli("solve", "--problem", "sphere",
                       "--param", "alpha0=x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be numeric" in err

    def test_ambiguous_problem(self, capsys):
        assert run_cli("solve", "--problem", "*ls") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "matched 4" in err

    def test_unknown_param_name(self, capsys):
        assert run_cli("solve", "--problem", "sphere",
                       "--param", "bogus=1") == 2
        assert "unknown parameter" in capsys.readouterr().err
        assert run_cli("solve", "--problem", "sphere",
                       "--param", "grid=5") == 2
        assert "error:" in capsys.readouterr().err

    def test_least_squares_dispatch(self, capsys):
        assert run_cli("solve", "--problem", "expfitls") == 0
        assert run_cli("solve", "--problem", "expfitls", "--solver", "st") == 0


class TestBenchAndProfile:
    def test_full_pipeline(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run_cli("bench", "--suite", "sphere", "--solvers", "arcqk,st",
                       "--out", str(out)) == 0
        assert (out / "records.json").exists()
        assert (out / "records_arcqk.csv").exists()
        assert (out / "records_st.csv").exists()
        payload = json.loads((out / "records.json").read_text())
        assert set(payload) == {"arcqk", "st"}

        svg = tmp_path / "profile.svg"
        assert run_cli("profile", "--in", str(out / "records.json"),
                       "--metric", "neval_hvp", "--out", str(svg)) == 0
        assert "<polyline" in svg.read_text()

        csv_out = tmp_path / "profile.csv"
        assert run_cli("profile", "--in", str(out / "records.json"),
                       "--metric", "time", "--out", str(csv_out)) == 0
        assert csv_out.read_text().startswith("tau,")

    def test_bench_glob_and_size(self, tmp_path):
        out = tmp_path / "b"
        assert run_cli("bench", "--suite", "*", "--size", "1:5",
                       "--solvers", "arcqk", "--out", str(out)) == 0
        payload = json.loads((out / "records.json").read_text())
        assert all(r["nvar"] <= 5 for r in payload["arcqk"])

    def test_bench_seed_changes_start(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli("bench", "--suite", "sphere", "--solvers", "arcqk",
                "--out", str(out1), "--seed", "3")
        run_cli("bench", "--suite", "sphere", "--solvers", "arcqk",
                "--out", str(out2), "--seed", "4")
        r1 = json.loads((out1 / "records.json").read_text())["arcqk"][0]
        r2 = json.loads((out2 / "records.json").read_text())["arcqk"][0]
        assert r1["f"] != r2["f"]

    def test_bench_empty_size_exits_2(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run_cli("bench", "--size", "7", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--size 7" in err
        assert not out.exists()

    @pytest.mark.parametrize("param", ["xi=2", "xi=nan"])
    def test_bench_bad_param_exits_2(self, tmp_path, capsys, param):
        out = tmp_path / "b"
        assert run_cli("bench", "--suite", "sphere", "--param", param,
                       "--out", str(out)) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_profile_bad_extension(self, tmp_path, capsys):
        out = tmp_path / "b"
        run_cli("bench", "--suite", "sphere", "--solvers", "arcqk",
                "--out", str(out))
        assert run_cli("profile", "--in", str(out / "records.json"),
                       "--out", str(tmp_path / "x.png")) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.png").exists()

    @pytest.mark.parametrize("payload, match", [
        ({"A": [], "B": []}, "no problem left"),
        ({"A": [{"name": "p1"}]}, "lacks field"),
        ([], "solver-keyed record table"),
    ], ids=["empty", "row-missing-fields", "flat-list"])
    def test_profile_bad_records_exit_2(self, tmp_path, capsys, payload,
                                        match):
        path = tmp_path / "records.json"
        path.write_text(json.dumps(payload))
        csv_out = tmp_path / "p.csv"
        assert run_cli("profile", "--in", str(path),
                       "--out", str(csv_out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and match in err
        assert not csv_out.exists()

    def test_profile_missing_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert run_cli("profile", "--in", str(path),
                       "--out", str(tmp_path / "p.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err


class TestCheck:
    def test_check_problem(self, capsys):
        assert run_cli("check", "--problem", "trigonometric") == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out

    def test_check_least_squares(self, capsys):
        assert run_cli("check", "--problem", "rosenbrockls") == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        # f = x'x with the gradient x, half the true one
        broken = SmoothProblem("broken", 2, [1.0, 1.0], f=lambda x: x @ x,
                               grad=lambda x: x, hvp=lambda x, v: 2.0 * v)
        monkeypatch.setattr(cli, "suite_problems", lambda **kw: [broken])
        assert run_cli("check", "--problem", "broken") == 1
        assert "verdict: FAIL" in capsys.readouterr().out


def test_module_entry_point():
    # the child imports the same arcqk as the tests, installed or not
    src = str(Path(arcqk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "arcqk", "solve", "--problem", "sphere"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "status: success" in proc.stdout
