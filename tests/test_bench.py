import json
import re
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcqk.bench import (performance_profile, read_records_csv,
                         read_records_json, run_matrix, write_profile,
                         write_records_csv, write_records_json)
from arcqk.problems import SmoothProblem, suite_problems
from arcqk.records import BENCH_FIELDS, BenchRecord, record_from_dict
from arcqk.shifted_cg import ShiftGrid


def rec(name, solver_time=1.0, status="success", **kw):
    fields = dict(name=name, nvar=2, f=0.0, grad_norm=1e-9, iter=3,
                  neval_f=4, neval_grad=4, neval_hvp=10,
                  elapsed_seconds=solver_time, status=status)
    fields.update(kw)
    return BenchRecord(**fields)


def hand_example():
    """times A={1,2,fail}, B={2,1,4}."""
    return {
        "A": [rec("p1", 1.0), rec("p2", 2.0), rec("p3", 9.0, status="other")],
        "B": [rec("p1", 2.0), rec("p2", 1.0), rec("p3", 4.0)],
    }


class TestRunMatrix:
    def test_cardinality(self):
        problems = suite_problems("sphere") + suite_problems("beale")
        out = run_matrix(problems, ["arcqk", "st"])
        assert set(out) == {"arcqk", "st"}
        assert sum(len(v) for v in out.values()) == 4
        for rows in out.values():
            assert [r.name for r in rows] == ["beale", "sphere"]
            assert all(r.status == "success" for r in rows)

    def test_exception_isolated(self):
        def boom(x):
            raise RuntimeError("boom")

        raising = SmoothProblem("boom", 2, [1.0, 1.0], f=boom,
                                grad=lambda x: 2.0 * x,
                                hvp=lambda x, v: 2.0 * v)
        problems = [raising] + suite_problems("beale")
        out = run_matrix(problems, ["arcqk", "st"])
        for rows in out.values():
            by_name = {r.name: r for r in rows}
            assert by_name["boom"].status == "exception"
            assert by_name["boom"].detail == "RuntimeError: boom"
            assert (by_name["boom"].nvar, by_name["boom"].iter) == (2, 0)
            assert by_name["beale"].status == "success"
            assert by_name["beale"].detail == "first_order_stationary"

    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            run_matrix(suite_problems("sphere"), ["nope"])

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            run_matrix([], ["arcqk"])

    @pytest.mark.parametrize("overrides, match", [
        ({"xi": 2.0}, "unknown parameter.*TrParams: xi"),
        ({"xi": float("nan")}, "xi must be positive and finite"),
    ], ids=["xi=2", "xi=nan"])
    def test_bad_override_raises_before_any_run(self, overrides, match):
        # xi is an ArcParams field only, and NaN is no valid value for it:
        # both are configuration errors, not solver failures.
        problems = suite_problems("sphere")
        with pytest.raises(ValueError, match=match):
            run_matrix(problems, ["arcqk", "st"], overrides=overrides)
        assert not any(problems[0].counters.snapshot().values())

    def test_budget_and_overrides_forwarded(self):
        out = run_matrix(suite_problems("rosenbrock"), ["arcqk"],
                         overrides={"max_outer_iter": 2})
        assert out["arcqk"][0].status == "other"
        assert out["arcqk"][0].iter == 2

    def test_detail_keeps_fine_status(self):
        # max_iter and grid_exhausted both read "other" in status
        out = run_matrix(suite_problems("rosenbrock"), ["arcqk", "st"],
                         overrides={"max_outer_iter": 2})
        assert [(r.status, r.detail) for r in out["arcqk"] + out["st"]] == [
            ("other", "max_iter")] * 2
        (p,) = suite_problems("himmelblau")
        out = run_matrix([p], ["arcqk"], overrides={
            "grid": ShiftGrid([1.0, 10.0])})
        assert (out["arcqk"][0].status, out["arcqk"][0].detail) == (
            "other", "hessian_too_indefinite")


class TestPerformanceProfile:
    def test_hand_example(self):
        curves = {c.solver: c for c in performance_profile(hand_example())}
        a, b = curves["A"], curves["B"]
        assert_allclose(a.ratios, [1.0, 2.0, np.inf])
        assert_allclose(b.ratios, [1.0, 1.0, 2.0])
        assert a.rho_at(1.0) == pytest.approx(1 / 3)
        assert a.rho_at(2.0) == pytest.approx(2 / 3)
        assert b.rho_at(1.0) == pytest.approx(2 / 3)
        assert b.rho_at(2.0) == pytest.approx(1.0)
        assert_allclose(a.taus, [1.0, 2.0])
        assert a.fraction_solved == pytest.approx(2 / 3)

    def test_single_solver(self):
        (c,) = performance_profile({"A": hand_example()["B"]})
        assert c.rho_at(1.0) == 1.0
        assert_allclose(c.ratios, 1.0)

    def test_identical_solvers(self):
        recs = hand_example()["B"]
        c1, c2 = performance_profile({"A": recs, "B": list(recs)})
        assert_allclose(c1.ratios, c2.ratios)
        assert_allclose(c1.rhos, c2.rhos)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        base = performance_profile(hand_example())
        for _ in range(100):
            shuffled = {s: list(rows) for s, rows in hand_example().items()}
            for rows in shuffled.values():
                rng.shuffle(rows)
            curves = performance_profile(shuffled)
            for c0, c1 in zip(base, curves):
                assert np.array_equal(c0.ratios, c1.ratios)
                assert np.array_equal(c0.taus, c1.taus)
                assert np.array_equal(c0.rhos, c1.rhos)

    def test_dominated_solver_leaves_others_unchanged(self):
        table = hand_example()
        base = {c.solver: c for c in performance_profile(table)}
        # strictly dominated: never the per-problem minimizer
        table["C"] = [rec("p1", 5.0), rec("p2", 5.0), rec("p3", 50.0)]
        curves = {c.solver: c for c in performance_profile(table)}
        for s in ("A", "B"):
            assert np.array_equal(base[s].ratios, curves[s].ratios)
            for tau in base[s].taus:
                assert base[s].rho_at(tau) == curves[s].rho_at(tau)

    def test_all_zero_metric_dropped(self):
        table = {
            "A": [rec("p1", 1.0, neval_hvp=0), rec("p2", 2.0)],
            "B": [rec("p1", 1.0, neval_hvp=0), rec("p2", 1.0)],
        }
        with pytest.warns(UserWarning, match="dropping problem"):
            curves = performance_profile(table, metric="neval_hvp")
        assert curves[0].n_problems == 1

    def test_metrics(self):
        table = {"A": [rec("p1", neval_f=10, neval_grad=2)],
                 "B": [rec("p1", neval_f=4, neval_grad=4)]}
        curves = performance_profile(table, metric="neval_f_plus_3g")
        ratios = {c.solver: c.ratios[0] for c in curves}
        assert ratios["A"] == pytest.approx(1.0)
        assert ratios["B"] == pytest.approx(1.0)
        with pytest.raises(ValueError, match="unknown metric"):
            performance_profile(table, metric="nope")

    def test_empty_table_raises(self):
        with pytest.raises(ValueError, match="no problem left"):
            performance_profile({"A": [], "B": []})

    def test_every_problem_dropped_raises(self):
        table = {"A": [rec("p1", neval_hvp=0)], "B": [rec("p1", neval_hvp=0)]}
        with pytest.warns(UserWarning, match="dropping problem"):
            with pytest.raises(ValueError, match="no problem left"):
                performance_profile(table, metric="neval_hvp")

    def test_mismatched_problem_sets(self):
        table = {"A": [rec("p1")], "B": [rec("p2")]}
        with pytest.raises(ValueError, match="identical problem sets"):
            performance_profile(table)


class TestEmit:
    def test_csv_single_record(self, tmp_path):
        path = tmp_path / "one.csv"
        write_records_csv([rec("p1", 1.5)], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(BENCH_FIELDS)
        assert lines[1].startswith("p1,2,")

    def test_json_round_trip(self, tmp_path):
        table = {"A": [rec("p1", 1.2345678901234567),
                       rec("p2", 2.0, status="other")]}
        path = tmp_path / "r.json"
        write_records_json(table, path)
        back = read_records_json(path)
        assert back == table

    def test_solver_keyed_json_round_trip(self, tmp_path):
        table = hand_example()
        path = tmp_path / "r.json"
        write_records_json(table, path)
        back = read_records_json(path)
        assert back == table

    def test_csv_json_csv_round_trip(self, tmp_path):
        records = [rec("p1", np.pi), rec("p2", 1e-17)]
        p1, p2, p3 = (tmp_path / n for n in ("a.csv", "b.json", "c.csv"))
        write_records_csv(records, p1)
        write_records_json({"A": read_records_csv(p1)}, p2)
        write_records_csv(read_records_json(p2)["A"], p3)
        assert p1.read_bytes() == p3.read_bytes()

    def test_detail_round_trip(self, tmp_path):
        records = [rec("p1", detail="max_iter"),
                   rec("p2", status="exception", detail="ValueError: a, b")]
        write_records_csv(records, tmp_path / "r.csv")
        assert read_records_csv(tmp_path / "r.csv") == records
        write_records_json({"A": records}, tmp_path / "r.json")
        assert read_records_json(tmp_path / "r.json") == {"A": records}

    def test_rows_without_detail_read_back(self, tmp_path):
        # rows written before the field existed
        old = {f: v for f, v in asdict(rec("p1")).items() if f != "detail"}
        assert record_from_dict(old) == rec("p1")
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"A": [old]}))
        assert read_records_json(path) == {"A": [rec("p1")]}
        path = tmp_path / "old.csv"
        path.write_text(",".join(old) + "\n"
                        + ",".join(str(v) for v in old.values()) + "\n")
        assert read_records_csv(path) == [rec("p1")]
        assert rec("p1").detail == ""

    def test_missing_field_is_named(self, tmp_path):
        row = {f: v for f, v in asdict(rec("p1")).items()
               if f not in ("nvar", "status")}
        with pytest.raises(ValueError, match="lacks field.*nvar, status"):
            record_from_dict(row)
        path = tmp_path / "short.csv"
        path.write_text("name,nvar\np1\n")
        with pytest.raises(ValueError, match="lacks field.*nvar, f,"):
            read_records_csv(path)

    @pytest.mark.parametrize("payload", [
        [asdict(rec("p1"))], {"A": asdict(rec("p1"))}, {"A": [[1, 2]]}, 3,
    ], ids=["flat-list", "row-not-list", "row-not-dict", "number"])
    def test_json_other_than_the_table_rejected(self, tmp_path, payload):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="solver-keyed record table"):
            read_records_json(path)

    def test_seventeen_digit_floats(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records_csv([rec("p1", 1.0 / 3.0)], path)
        assert "0.33333333333333331" in path.read_text()

    def test_profile_svg(self, tmp_path):
        curves = performance_profile(hand_example())
        path = tmp_path / "p.svg"
        write_profile(curves, path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<svg")
        assert "log2" in text
        assert "performance profile</text>" in text

    def test_profile_csv_and_json(self, tmp_path):
        curves = performance_profile(hand_example())
        cpath = tmp_path / "p.csv"
        write_profile(curves, cpath)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == "tau,A,B"
        assert len(lines) == 1 + len(curves[0].taus)
        write_profile(curves, tmp_path / "p.JSON")
        payload = json.loads((tmp_path / "p.JSON").read_text())
        assert [c["solver"] for c in payload] == ["A", "B"]

    def test_bad_path_reports_context(self, tmp_path):
        path = tmp_path / "nodir" / "x.csv"
        with pytest.raises(OSError, match=re.escape(str(path))):
            write_records_csv([rec("p1")], path)

    def test_unknown_format(self, tmp_path):
        curves = performance_profile(hand_example())
        for name in ("x.yaml", "x.png", "x"):
            with pytest.raises(ValueError, match=".csv, .json or .svg"):
                write_profile(curves, tmp_path / name)
        assert not any(tmp_path.iterdir())
