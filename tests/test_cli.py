import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arcqk
from arcqk.cli import main


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

    def test_bad_param(self):
        with pytest.raises(SystemExit):
            run_cli("solve", "--problem", "sphere", "--param", "alpha0")

    def test_unknown_param_name(self, capsys):
        assert run_cli("solve", "--problem", "sphere",
                       "--param", "bogus=1") == 2
        assert "unknown parameter" in capsys.readouterr().err

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

    def test_profile_bad_extension(self, tmp_path):
        out = tmp_path / "b"
        run_cli("bench", "--suite", "sphere", "--solvers", "arcqk",
                "--out", str(out))
        with pytest.raises(SystemExit):
            run_cli("profile", "--in", str(out / "records.json"),
                    "--out", str(tmp_path / "x.png"))


class TestCheck:
    def test_check_problem(self, capsys):
        assert run_cli("check", "--problem", "trigonometric") == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out

    def test_check_least_squares(self, capsys):
        assert run_cli("check", "--problem", "rosenbrockls") == 0
        assert "verdict: pass" in capsys.readouterr().out


def test_module_entry_point():
    # the child imports the same arcqk as the tests, installed or not
    src = str(Path(arcqk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "arcqk", "solve", "--problem", "sphere"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "status: success" in proc.stdout
