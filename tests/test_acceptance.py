"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import time

import numpy as np
import pytest

from arcqk.arc import ArcParams, arcqk_minimize
from arcqk.bench import performance_profile
from arcqk.problems import LeastSquaresProblem, SmoothProblem, suite_problems
from arcqk.records import BenchRecord
from arcqk.shifted_cg import (CONVERGED, INDEFINITE, ShiftGrid, multishift_cg)
from arcqk.shifted_cgls import multishift_cgls
from arcqk.steihaug import TrParams, st_minimize

from audits import (StepLog, accepted_gradient_path, audit_accepted_steps,
                    audit_alpha_dynamics, audit_model_decrease,
                    audit_trace_contract, cg_iterate_norms)

ARC_PARAMS = ArcParams()
# the baseline carries no iteration criterion of its own; give it room on
# valley problems so every run ends at the stopping test
ST_PARAMS = TrParams(max_outer_iter=2000)


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# Each run is (problem, state, record, steps): the records keep scalars
# only, and ``steps`` holds every trial's step as the callback received it.
@pytest.fixture(scope="module")
def arc_runs():
    runs = {}
    for p in suite_problems():
        steps = StepLog()
        state, record = arcqk_minimize(p, ARC_PARAMS, callback=steps)
        runs[p.name] = (p, state, record, steps)
    return runs


@pytest.fixture(scope="module")
def st_runs():
    runs = {}
    for p in suite_problems():
        target = p.as_smooth() if isinstance(p, LeastSquaresProblem) else p
        steps = StepLog()
        state, record = st_minimize(target, ST_PARAMS, callback=steps)
        runs[p.name] = (target, state, record, steps)
    return runs


def test_criterion_01_multishift_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 51))
        A = rng.standard_normal((n, n))
        M = A @ A.T + (0.1 + rng.uniform()) * np.eye(n)
        b = rng.standard_normal(n)
        lams = np.sort(10.0 ** rng.uniform(-3, 3, size=int(rng.integers(3, 8))))
        sol = multishift_cg(lambda v: M @ v, b, ShiftGrid(lams),
                            tol=1e-10 * max(1.0, np.linalg.norm(b)))
        for i, lam in enumerate(lams):
            if sol.statuses[i] != CONVERGED:
                continue
            exact = np.linalg.solve(M + lam * np.eye(n), b)
            err = np.linalg.norm(sol.direction(i) - exact) / np.linalg.norm(exact)
            worst = max(worst, err)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 5.0 and checked >= 150
    _report(1, ok, f"{checked} converged systems, worst relative error "
                   f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_single_product_guarantee():
    rng = np.random.default_rng(102)
    A = rng.standard_normal((24, 24))
    M = A @ A.T + np.eye(24)
    b = rng.standard_normal(24)
    grids = {1: [1e-15], 3: [1e-15, 1.0, 1e15],
             31: list(np.logspace(-15, 15, 31))}
    counts = {}
    ok = True
    for size, lams in grids.items():
        calls = {"n": 0}

        def op(v):
            calls["n"] += 1
            return M @ v

        sol = multishift_cg(op, b, ShiftGrid(lams), tol=1e-9)
        ok &= calls["n"] == int(np.max(sol.iterations))
        ok &= calls["n"] == sol.total_iterations
        counts[size] = calls["n"]
    ok &= counts[1] == counts[3] == counts[31]
    _report(2, ok, f"operator products = max iterations; counts across "
                   f"grid sizes 1/3/31: {counts[1]}/{counts[3]}/{counts[31]}")


def test_criterion_03_curvature_flag_oracle():
    rng = np.random.default_rng(103)
    flags_checked = 0
    ok = True
    for _ in range(50):
        n = int(rng.integers(5, 51))
        eigs = np.concatenate([
            rng.uniform(-3.0, -0.5, size=max(1, n // 5)),
            rng.uniform(0.5, 4.0, size=n - max(1, n // 5))])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = Q @ np.diag(eigs) @ Q.T
        lam_min = eigs.min()
        mag = abs(lam_min)
        lams = np.sort(np.unique([0.3 * mag, 0.8 * mag, 1.5 * mag, 5.0 * mag]))
        b = rng.standard_normal(n)
        sol = multishift_cg(lambda v: M @ v, b, ShiftGrid(lams),
                            tol=1e-10 * np.linalg.norm(b))
        for i, lam in enumerate(lams):
            should_flag = lam_min + lam < -1e-10
            flagged = sol.statuses[i] == INDEFINITE
            if flagged != should_flag:
                ok = False
            if flagged:
                flags_checked += 1
                if sol.iterations[i] > n:
                    ok = False
    # zero false flags on definitely positive systems
    false_flags = 0
    for _ in range(50):
        n = int(rng.integers(5, 51))
        A = rng.standard_normal((n, n))
        M = A @ A.T + 0.2 * np.eye(n)
        b = rng.standard_normal(n)
        sol = multishift_cg(lambda v: M @ v, b, ShiftGrid([0.1, 1.0, 10.0]),
                            tol=1e-10 * np.linalg.norm(b))
        false_flags += sum(s == INDEFINITE for s in sol.statuses)
    ok &= false_flags == 0
    _report(3, ok, f"{flags_checked} indefinite flags matched the "
                   f"eigendecomposition oracle, {false_flags} false flags on "
                   "definite systems")


def test_criterion_04_cgls_oracle_equivalence():
    rng = np.random.default_rng(104)
    worst = 0.0
    for trial in range(30):
        m, n = (20, 10) if trial % 2 == 0 else (10, 20)
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        lams = np.sort(10.0 ** rng.uniform(-2, 2, size=3))
        sol = multishift_cgls(lambda v: A @ v, lambda u: A.T @ u, b,
                              ShiftGrid(lams),
                              tol=1e-11 * max(1.0, np.linalg.norm(A.T @ b)))
        gram = A.T @ A
        atb = A.T @ b
        for i, lam in enumerate(lams):
            exact = np.linalg.solve(gram + lam * np.eye(n), atb)
            err = np.linalg.norm(sol.direction(i) - exact) / np.linalg.norm(exact)
            worst = max(worst, err)
    _report(4, worst <= 1e-7,
            f"30 rectangular systems, worst relative error {worst:.2e}")


def test_criterion_05_arc_convergence_suite(arc_runs):
    failures = []
    for name, (p, state, record, _) in arc_runs.items():
        if not isinstance(p, SmoothProblem) or p.n > 100:
            continue
        threshold = ARC_PARAMS.eps_abs + ARC_PARAMS.eps_rel * state.g0_norm
        if state.status != "first_order_stationary":
            failures.append(f"{name}: {state.status}")
        elif state.grad_norm > threshold:
            failures.append(f"{name}: final gradient above threshold")
        elif state.k > 500:
            failures.append(f"{name}: {state.k} iterations")
        elif record.elapsed_seconds > 60.0:
            failures.append(f"{name}: {record.elapsed_seconds:.1f}s")
    _, ros_state, _, _ = arc_runs["rosenbrock"]
    if np.linalg.norm(ros_state.x - [1.0, 1.0]) > 1e-4:
        failures.append("rosenbrock endpoint off the minimizer")
    n_smooth = sum(isinstance(p, SmoothProblem)
                   for p, *_ in arc_runs.values())
    _report(5, not failures,
            f"{n_smooth} smooth problems at the stated tolerances "
            f"within 500 iterations and 60s" +
            (f"; failures: {failures}" if failures else ""))


def test_criterion_06_step_quality_invariants(arc_runs):
    violations = []
    for name, (p, state, _, steps) in arc_runs.items():
        violations += [f"{name}: {v}" for v in
                       audit_accepted_steps(p, state, ARC_PARAMS, steps)]
    n_steps = sum(sum(r.success for r in state.trace)
                  for _, state, _, _ in arc_runs.values())
    _report(6, not violations,
            f"first-order/curvature/decrease/orthogonality checked at "
            f"{n_steps} accepted "
            f"steps, {len(violations)} violations" +
            (f": {violations[:4]}" if violations else ""))


def test_criterion_07_alpha_dynamics(arc_runs):
    violations = []
    for name, (p, state, _, _) in arc_runs.items():
        violations += [f"{name}: {v}"
                       for v in audit_alpha_dynamics(state, ARC_PARAMS)]
    n_trials = sum(len(state.trace) for _, state, _, _ in arc_runs.values())
    _report(7, not violations,
            f"regularization updates audited over {n_trials} trials, "
            f"{len(violations)} violations" +
            (f": {violations[:4]}" if violations else ""))


def test_criterion_08_superlinear_tail(arc_runs):
    bad = []
    for name in ("sphere", "diagquad", "convexquartic"):
        _, state, _, _ = arc_runs[name]
        gs = accepted_gradient_path(state)
        pairs = [(a, b) for a, b in zip(gs[-4:-1], gs[-3:]) if a <= 1e-2]
        if not pairs or any(b > a ** 1.2 for a, b in pairs):
            bad.append(name)
    _report(8, not bad, "final iterations contract superlinearly on "
                        "sphere/diagquad/convexquartic" +
                        (f"; failed: {bad}" if bad else ""))


def test_criterion_09_steihaug_baseline(st_runs):
    failures = []
    for name, (p, state, record, steps) in st_runs.items():
        if state.status != "first_order_stationary":
            failures.append(f"{name}: {state.status}")
        for rec in state.trace:
            if rec.exit in ("boundary", "negative_curvature"):
                if abs(rec.step_norm - rec.delta) > 1e-12 * rec.delta:
                    failures.append(f"{name}: boundary step off the sphere")
                    break
        failures += [f"{name}: {v}"
                     for v in audit_model_decrease(p, state, steps)]
    # Steihaug property on seeded instances with n <= 50
    rng = np.random.default_rng(109)
    for _ in range(20):
        n = int(rng.integers(3, 51))
        A = rng.standard_normal((n, n))
        H = A @ A.T + 0.5 * np.eye(n)
        g = rng.standard_normal(n)
        norms = cg_iterate_norms(lambda v: H @ v, g, 1e6, 1e-10)
        if any(b < a * (1.0 - 1e-6) for a, b in zip(norms, norms[1:])):
            failures.append("inner iterate norms not monotone")
            break
    n_steps = sum(sum(r.success for r in state.trace)
                  for _, state, _, _ in st_runs.values())
    _report(9, not failures,
            f"baseline solved all {len(st_runs)} problems with exact "
            f"boundary steps, monotone inner iterates and the oracle's "
            f"model decrease at {n_steps} accepted steps" +
            (f"; failures: {failures}" if failures else ""))


def test_criterion_10_hessian_product_advantage(arc_runs, st_runs):
    arc_total = st_total = 0
    rows = []
    for name, (p, state, record, _) in arc_runs.items():
        if not isinstance(p, SmoothProblem) or p.n < 100:
            continue
        st_record = st_runs[name][2]
        arc_total += record.neval_hvp
        st_total += st_record.neval_hvp
        rows.append(f"{name} {record.neval_hvp}/{st_record.neval_hvp}")
    _report(10, arc_total <= st_total and rows,
            f"n>=100 suite total #Hv arcqk {arc_total} <= steihaug "
            f"{st_total} ({', '.join(rows)})")


def test_criterion_11_performance_profile_correctness():
    def rec(name, t, status="success"):
        return BenchRecord(name=name, nvar=2, f=0.0, grad_norm=0.0, iter=1,
                           neval_f=1, neval_grad=1, neval_hvp=1,
                           elapsed_seconds=t, status=status)

    table = {"A": [rec("p1", 1.0), rec("p2", 2.0),
                   rec("p3", 9.0, status="other")],
             "B": [rec("p1", 2.0), rec("p2", 1.0), rec("p3", 4.0)]}
    curves = {c.solver: c for c in performance_profile(table)}
    exact = (curves["A"].rho_at(1.0) == 1.0 / 3.0
             and curves["A"].rho_at(2.0) == 2.0 / 3.0
             and curves["B"].rho_at(1.0) == 2.0 / 3.0
             and curves["B"].rho_at(2.0) == 1.0)
    rng = np.random.default_rng(111)
    base = performance_profile(table)
    invariant = True
    for _ in range(100):
        shuffled = {s: list(rows) for s, rows in table.items()}
        for rows in shuffled.values():
            rng.shuffle(rows)
        for c0, c1 in zip(base, performance_profile(shuffled)):
            invariant &= (np.array_equal(c0.ratios, c1.ratios)
                          and np.array_equal(c0.taus, c1.taus)
                          and np.array_equal(c0.rhos, c1.rhos))
    _report(11, exact and invariant,
            "hand-example fractions exact and curves bitwise invariant "
            "under 100 shuffles")


def test_criterion_12_gauss_newton_path(arc_runs):
    failures = []
    p, state, _, _ = arc_runs["linearls"]
    a = np.column_stack([p._jprod(p.x0, e) for e in np.eye(p.n)])
    b = a @ p.x0 - p._residual(p.x0)
    oracle = np.linalg.solve(a.T @ a, a.T @ b)
    if state.k > 3:
        failures.append(f"linearls took {state.k} iterations")
    if np.linalg.norm(state.x - oracle) / np.linalg.norm(oracle) > 1e-6:
        failures.append("linearls missed the normal-equations solution")
    for name in ("expfitls", "quadfitls"):
        _, st_fit, _, _ = arc_runs[name]
        if st_fit.f_val > 1e-12:
            failures.append(f"{name} misfit {st_fit.f_val:.2e}")
    _report(12, not failures,
            "linear least squares hits the oracle in <= 3 iterations and "
            "zero-residual fits reach f <= 1e-12" +
            (f"; failures: {failures}" if failures else ""))


def test_trace_contract_both_solvers(arc_runs, st_runs):
    violations = []
    for solver, runs in (("arcqk", arc_runs), ("st", st_runs)):
        for name, (_, state, record, _) in runs.items():
            violations += [f"{solver}/{name}: {v}"
                           for v in audit_trace_contract(state, record)]
    assert violations == []


def test_callback_steps_replay_the_run(arc_runs, st_runs):
    # x0 plus the accepted steps the callback received, in order, is the
    # final iterate bitwise: ARC, ARC Gauss-Newton and ST on every problem
    mismatched = []
    for solver, runs in (("arcqk", arc_runs), ("st", st_runs)):
        for name, (p, state, _, steps) in runs.items():
            x = p.x0.copy()
            for rec, d in zip(state.trace, steps, strict=True):
                if rec.success:
                    x = x + d
            if not np.array_equal(x, state.x):
                mismatched.append(f"{solver}/{name}")
    assert mismatched == []
