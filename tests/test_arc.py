import time
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import arcqk.arc as arc_mod
from arcqk.arc import (AllShiftsIndefinite, ArcParams, GridExhausted,
                       acceptance_ratio, advance_shift_on_failure,
                       arcqk_minimize, arcqk_minimize_gauss_newton,
                       cubic_model_eval, inner_tolerance, per_shift_tolerance,
                       select_step)
from arcqk.problems import (SmoothProblem, make_diagquad, make_himmelblau,
                            make_rosenbrock, make_sphere, suite_problems)
from arcqk.shifted_cg import ShiftGrid, multishift_cg

from audits import (accepted_gradient_path, audit_accepted_steps,
                    audit_alpha_dynamics, audit_trace_contract)


def seeded_sphere(n=5, seed=42):
    p = make_sphere(n)
    p.x0 = np.random.default_rng(seed).standard_normal(n)
    return p


class TestPerShiftTolerance:
    def test_power_of_one(self):
        assert per_shift_tolerance(1.0, 0.5) == pytest.approx(1.0)

    def test_three_halves_power(self):
        assert per_shift_tolerance(1e-4, 0.5) == pytest.approx(1e-6)

    def test_floor_dominates(self):
        tol = per_shift_tolerance(1e-10, 0.5)
        assert tol == pytest.approx(1e-12, rel=1e-6)

    def test_requires_positive_gradient(self):
        with pytest.raises(ValueError):
            per_shift_tolerance(0.0, 0.5)

    def test_inner_tolerance_caps_loose_regime(self):
        # far from stationarity the kernel must improve on the zero step
        assert inner_tolerance(100.0, 0.5) == pytest.approx(90.0)
        # the cap is inactive in the local regime
        assert inner_tolerance(1e-4, 0.5) == pytest.approx(1e-6)


class TestParams:
    def test_defaults(self):
        p = ArcParams()
        assert (p.eta1, p.eta2, p.gamma1, p.gamma2) == (0.1, 0.75, 0.1, 5.0)
        assert (p.zeta, p.xi, p.alpha0) == (0.5, 1.0, 1.0)
        assert (p.eps_abs, p.eps_rel) == (1e-5, 1e-6)
        assert len(p.grid) == 31

    @pytest.mark.parametrize("kwargs", [
        {"eta1": 0.8, "eta2": 0.5}, {"eta1": 0.0}, {"eta2": 1.0},
        {"gamma1": 1.5}, {"gamma2": 0.5}, {"zeta": 0.0}, {"zeta": 1.5},
        {"alpha0": -1.0}, {"max_outer_iter": 0}, {"time_budget": -1.0},
        {"eps_abs": np.nan}, {"eps_rel": np.nan}, {"time_budget": np.nan},
        {"alpha0": np.nan}, {"alpha0": np.inf}, {"xi": np.nan},
        {"xi": np.inf}, {"max_outer_iter": 2.5},
        {"grid": 5}, {"gamma2": np.inf},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ArcParams(**kwargs)


class TestCubicModel:
    def test_consistency_with_direct_evaluation(self):
        rng = np.random.default_rng(0)
        n = 6
        H = rng.standard_normal((n, n))
        H = H + H.T
        g = rng.standard_normal(n)
        d = rng.standard_normal(n)
        f_x, alpha = 2.5, 0.7
        ev = cubic_model_eval(f_x, g, H @ d, d, alpha)
        dn = np.linalg.norm(d)
        q = f_x + g @ d + 0.5 * d @ H @ d
        assert ev.delta_q == pytest.approx(f_x - q)
        assert ev.cubic_value == pytest.approx(q + dn ** 3 / (3 * alpha))
        assert_allclose(ev.cubic_gradient, g + H @ d + (dn / alpha) * d,
                        rtol=1e-12)


def shifted_step(problem, x, grid, pick=0, tol=1e-12):
    """A real multishift solve at x: (lambda, d, g) for one converged shift.

    ``pick`` indexes the converged shifts in increasing order.
    """
    g = problem.eval_grad(x)
    sol = multishift_cg(lambda v: problem.eval_hvp(x, v), -g,
                        ShiftGrid(grid), tol=tol)
    converged = [i for i, s in enumerate(sol.statuses) if s == "converged"]
    i = converged[pick]
    return float(sol.lambdas[i]), sol.direction(i), g


class TestAcceptanceRatio:
    def test_exact_quadratic_gives_one(self):
        p = make_diagquad(6)
        x = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.0])
        f = p.eval_f(x)
        for pick in range(3):
            lam, d, g = shifted_step(p, x, [0.1, 1.0, 10.0], pick)
            ev = acceptance_ratio(f, g, d, lam,
                                  lambda: (p.eval_f(x + d), None))
            # the product-free decrease equals the oracle's model decrease
            oracle = -float(g @ d) - 0.5 * float(d @ p.eval_hvp(x, d))
            assert ev.delta_q == pytest.approx(oracle, rel=1e-12)
            assert ev.rho == pytest.approx(1.0, abs=1e-10)

    def test_no_progress_is_unsuccessful(self):
        # objective flat along the step, model decrease strictly positive:
        # the Hessian oracle claims curvature 2 in x[0], f ignores x[0]
        p = SmoothProblem("flat", 2, [1.0, 0.0],
                          f=lambda x: float(x[1] ** 2),
                          grad=lambda x: np.array([1.0, 2.0 * x[1]]),
                          hvp=lambda x, v: np.array([2.0 * v[0], 2.0 * v[1]]))
        x = np.array([1.0, 0.0])
        lam, d, g = shifted_step(p, x, [1.0])
        assert_allclose(d, [-1.0 / 3.0, 0.0], rtol=1e-14)
        ev = acceptance_ratio(p.eval_f(x), g, d, lam,
                              lambda: (p.eval_f(x + d), None))
        assert ev.delta_q > 0.0
        assert ev.rho == pytest.approx(0.0)
        assert ev.rho < 0.1

    def test_degenerate_decrease_forced_unsuccessful(self):
        # a tiny gradient against the largest shift: delta_q ~ 1e-35
        p = make_sphere(2)
        x = np.array([1e-10, 1e-10])
        lam, d, g = shifted_step(p, x, [1e15])
        calls = []
        ev = acceptance_ratio(p.eval_f(x), g, d, lam,
                              lambda: calls.append(1) or (0.0, None))
        assert np.linalg.norm(d) > 0.0
        assert ev.degenerate
        assert ev.rho == -np.inf
        assert ev.f_trial is None
        assert calls == []

    def test_exactly_one_objective_evaluation(self):
        p = seeded_sphere()
        x = p.x0
        f = p.eval_f(x)
        lam, d, g = shifted_step(p, x, [0.1, 1.0])
        before = p.counters.snapshot()
        acceptance_ratio(f, g, d, lam, lambda: (p.eval_f(x + d), None))
        after = p.counters.snapshot()
        assert after["neval_f"] == before["neval_f"] + 1
        assert after["neval_hvp"] == before["neval_hvp"]
        assert after["neval_grad"] == before["neval_grad"]


def solution_for(H, g, grid, tol=1e-12):
    return multishift_cg(lambda v: H @ v, -np.asarray(g, float),
                         ShiftGrid(grid), tol=tol)


class TestSelectStep:
    def test_hand_example(self):
        H = np.eye(2)
        sol = solution_for(H, [1.0, 0.0], [0.1, 1.0, 10.0])
        scores = np.abs(1.0 * sol.lambdas - sol.step_norms)
        assert_allclose(scores, [0.809, 0.5, 9.909], atol=1e-3)
        i_plus, j, d = select_step(sol, 1.0)
        assert (i_plus, j) == (0, 1)
        assert_allclose(d, [-0.5, 0.0], rtol=1e-10)

    def test_all_indefinite_raises(self):
        sol = solution_for(-2.0 * np.eye(2), [1.0, 1.0], [0.5, 1.0])
        assert set(sol.statuses) == {"indefinite"}
        with pytest.raises(AllShiftsIndefinite):
            select_step(sol, 1.0)

    def test_restricted_argmin_after_flag(self):
        H = np.diag([-2.0, 3.0])
        sol = solution_for(H, [1.0, 1.0], [1.0, 4.0, 10.0])
        # eigendecomposition oracle: only the lambda=1 system is indefinite
        eigs = np.linalg.eigvalsh(H)
        assert eigs[0] + 1.0 < 0 < eigs[0] + 4.0
        i_plus, j, _ = select_step(sol, 0.1)
        assert i_plus == 1
        assert sol.statuses[0] == "indefinite"
        norms = sol.step_norms
        scores = np.abs(0.1 * sol.lambdas[1:] - norms[1:])
        assert j == 1 + int(np.argmin(scores))

    def test_ties_break_to_smaller_shift(self):
        from arcqk.shifted_cg import MultishiftSolution
        sol = MultishiftSolution(
            lambdas=np.array([1.0, 2.0]),
            X=np.array([[2.0, 0.0], [4.0, 0.0]]),
            W=np.empty((0, 2)), Y=np.zeros((2, 1)),
            residual_norms=np.zeros(2), statuses=("converged", "converged"),
            iterations=np.array([1, 1]), tolerances=np.full(2, 1e-8),
            operator_products=2, total_iterations=1)
        # scores |1*1 - 2| = 1 and |1*2 - 4| = 2 -> argmin unique; make a tie
        sol.directions[0, 1] = 3.0   # scores 1 and 1
        _, j, _ = select_step(sol, 1.0)
        assert j == 0


def fabricated_solution(lambdas, norms, statuses=None, tol=1e-8):
    from arcqk.shifted_cg import MultishiftSolution
    lambdas = np.asarray(lambdas, float)
    m1 = lambdas.size
    directions = np.zeros((2, m1))
    directions[0, :] = np.asarray(norms, float)
    return MultishiftSolution(
        lambdas=lambdas, X=directions.T,
        W=np.empty((0, 2)), Y=np.zeros((m1, 1)),
        residual_norms=np.zeros(m1),
        statuses=tuple(statuses or ["converged"] * m1),
        iterations=np.ones(m1, dtype=int), tolerances=np.full(m1, tol),
        operator_products=m1, total_iterations=1)


class TestAdvanceShift:
    def test_hand_example_single_advance(self):
        lams = [1.0, 10.0, 100.0]
        sol = fabricated_solution(lams, [1.0 / (1.0 + l) for l in lams])
        j_next, alpha_next = advance_shift_on_failure(sol, 0, 1.0, 0.1)
        assert j_next == 1
        assert alpha_next == pytest.approx(1.0 / 110.0)
        assert alpha_next <= 0.1 * 1.0

    def test_exhaustion(self):
        sol = fabricated_solution([1.0, 10.0], [3.0, 20.0])
        # candidate alpha = 20/10 = 2 > 0.1 and the grid ends
        with pytest.raises(GridExhausted):
            advance_shift_on_failure(sol, 0, 1.0, 0.1)

    def test_multiple_advances(self):
        lams = [1.0, 2.0, 4.0, 100.0]
        sol = fabricated_solution(lams, [1.0, 1.9, 3.8, 0.5])
        # alphas: 0.95, 0.95, 0.005 -> walks to the last shift
        j_next, alpha_next = advance_shift_on_failure(sol, 0, 1.0, 0.1)
        assert j_next == 3
        assert alpha_next == pytest.approx(0.005)

    def test_skips_unusable_shifts(self):
        lams = [1.0, 2.0, 100.0]
        sol = fabricated_solution(lams, [1.0, 1.0, 0.5],
                                  statuses=["converged", "indefinite",
                                            "converged"])
        j_next, _ = advance_shift_on_failure(sol, 0, 1.0, 0.1)
        assert j_next == 2


class TestArcMinimize:
    def test_sphere(self):
        st, rec = arcqk_minimize(seeded_sphere())
        assert st.status == "first_order_stationary"
        assert st.f_val <= 1e-12
        assert st.k <= 10
        assert rec.status == "success"

    def test_rosenbrock(self):
        st, rec = arcqk_minimize(make_rosenbrock())
        assert st.status == "first_order_stationary"
        assert np.linalg.norm(st.x - [1.0, 1.0]) <= 1e-4
        assert st.f_val <= 1e-8
        # reference-run snapshot: deterministic given the fixed start
        assert st.k == 52
        assert st.trace[0].rho == pytest.approx(1.08935311059227, rel=1e-9)
        assert st.trace[0].shift == pytest.approx(0.1)

    def test_diagquad_product_budget(self):
        p = make_diagquad(100)
        st, rec = arcqk_minimize(p)
        assert st.status == "first_order_stationary"
        assert rec.neval_hvp / st.k <= 2 * p.n

    def test_himmelblau_indefinite_start(self):
        st, rec = arcqk_minimize(make_himmelblau())
        assert st.status == "first_order_stationary"
        # the start-point Hessian is indefinite: small shifts must be flagged
        assert "indefinite" in st.trace[0].shift_statuses
        assert np.linalg.norm(st.x - [3.0, 2.0]) <= 1e-4

    def test_hessian_too_indefinite(self):
        st, rec = arcqk_minimize(make_himmelblau(),
                                 ArcParams(grid=ShiftGrid([1.0, 10.0])))
        assert st.status == "hessian_too_indefinite"
        assert rec.status == "other"

    def test_grid_exhausted(self):
        st, _ = arcqk_minimize(make_rosenbrock(),
                               ArcParams(grid=ShiftGrid([0.9, 1.0])))
        assert st.status == "grid_exhausted"

    def test_unbounded_below(self):
        # concave bowl whose objective evaluates to -inf past a cliff
        def f(x):
            s = float(x @ x)
            return -np.inf if s > 1e4 else -0.5 * s

        p = SmoothProblem("cliff", 2, [50.0, 0.0], f,
                          grad=lambda x: -x, hvp=lambda x, v: -v)
        st, rec = arcqk_minimize(p)
        assert st.status == "unbounded_below"
        assert rec.status == "other"
        assert audit_trace_contract(st, rec) == []

    def test_too_indefinite_when_hessian_outgrows_grid(self):
        # the Hessian of -exp(|x|^2) eventually has negative eigenvalues
        # larger in magnitude than the largest allowed shift
        def f(x):
            return -float(np.exp(x @ x))

        def grad(x):
            return -2.0 * x * np.exp(x @ x)

        def hvp(x, v):
            s = float(x @ x)
            return -np.exp(s) * (2.0 * v + 4.0 * float(x @ v) * x)

        p = SmoothProblem("blowup", 2, [1.0, 0.5], f, grad, hvp)
        with np.errstate(over="ignore"):
            st, rec = arcqk_minimize(p)
        assert st.status == "hessian_too_indefinite"

    def test_time_budget(self):
        p = make_diagquad(50)
        slow_f = p._f

        def f(x):
            time.sleep(0.02)
            return slow_f(x)

        slow = SmoothProblem("slow", p.n, p.x0, f, p._grad, p._hvp)
        st, rec = arcqk_minimize(slow, ArcParams(time_budget=0.01))
        assert st.status == "time_exceeded"
        assert rec.status == "time_exceeded"

    def test_time_budget_checked_after_rejected_trial(self, monkeypatch):
        # the clock jumps past the budget during the first rejected trial, so
        # the run must stop before the shift walk makes another trial
        offset = [0.0]
        real = time.perf_counter
        monkeypatch.setattr(arc_mod, "time", SimpleNamespace(
            perf_counter=lambda: real() + offset[0]))

        def jump_on_rejection(rec, state):
            if not rec.success:
                offset[0] = 1e6

        st, rec = arcqk_minimize(make_rosenbrock(),
                                 ArcParams(time_budget=1e3),
                                 callback=jump_on_rejection)
        assert st.status == rec.status == "time_exceeded"
        assert [r.success for r in st.trace].count(False) == 1
        assert not st.trace[-1].success
        assert audit_trace_contract(st, rec) == []

    def test_max_iter(self):
        st, _ = arcqk_minimize(make_rosenbrock(), ArcParams(max_outer_iter=3))
        assert st.status == "max_iter"
        assert st.k == 3

    def test_callback_per_iteration(self):
        seen = []
        st, _ = arcqk_minimize(seeded_sphere(),
                               callback=lambda rec, state: seen.append(rec.k))
        assert seen == list(range(st.k))

    def test_one_solve_per_outer_group(self):
        st, _ = arcqk_minimize(make_rosenbrock())
        # a fresh solve happens exactly on the trial after each success
        solves = {rec.solve_index for rec in st.trace}
        assert len(solves) == st.n_solves
        n_success = sum(rec.success for rec in st.trace)
        assert st.n_solves == n_success if st.trace[-1].success else n_success + 1

    def test_trace_and_counters_faithful(self):
        p = make_rosenbrock()
        st, rec = arcqk_minimize(p)
        assert rec.iter == st.k == len(st.trace)
        # one objective evaluation per non-degenerate trial plus the initial
        assert rec.neval_f == st.k + 1
        # one gradient per accepted step plus the initial one
        assert rec.neval_grad == sum(r.success for r in st.trace) + 1
        assert rec.neval_hvp == p.counters.neval_hvp

    def test_alpha_dynamics(self):
        params = ArcParams()
        st, _ = arcqk_minimize(make_rosenbrock(), params)
        assert audit_alpha_dynamics(st, params) == []
        assert any(not r.success for r in st.trace)

    def test_step_quality_invariants(self):
        params = ArcParams()
        for name in ("rosenbrock", "himmelblau", "wood"):
            (p,) = suite_problems(name)
            st, _ = arcqk_minimize(p, params)
            assert audit_accepted_steps(p, st, params) == [], name

    def test_audit_flags_model_decrease_drift(self):
        params = ArcParams()
        (p,) = suite_problems("rosenbrock")
        st, _ = arcqk_minimize(p, params)
        assert audit_accepted_steps(p, st, params) == []
        k = next(rec.k for rec in st.trace if rec.success)
        st.trace[k].delta_q *= 1.0 + 1e-2
        assert [v for v in audit_accepted_steps(p, st, params)
                if "drifted" in v] != []

    def test_shift_step_soft_bracket(self):
        # grid quantization keeps alpha*lambda within a factor beta^2 = 10
        # of the step norm for most accepted steps
        st, _ = arcqk_minimize(make_rosenbrock())
        ratios = [r.alpha * r.shift / r.step_norm
                  for r in st.trace if r.success and r.step_norm > 0]
        inside = [0.1 <= q <= 10.0 for q in ratios]
        assert sum(inside) >= 0.9 * len(inside)

    def test_superlinear_tail(self):
        st, _ = arcqk_minimize(seeded_sphere())
        gs = accepted_gradient_path(st)
        tail = list(zip(gs[-4:-1], gs[-3:]))
        checked = [(a, b) for a, b in tail if a <= 1e-2]
        assert checked and all(b <= a ** 1.2 for a, b in checked)

    def test_max_alpha_logged(self):
        st, _ = arcqk_minimize(seeded_sphere())
        assert st.max_alpha >= max(r.alpha for r in st.trace)

    def test_sufficient_decrease_and_positive_alpha(self):
        params = ArcParams()
        st, _ = arcqk_minimize(make_rosenbrock(), params)
        assert all(r.alpha > 0 for r in st.trace)
        f_path = [r.f_before for r in st.trace] + [st.f_val]
        for rec, f_next in zip(st.trace, f_path[1:]):
            if rec.success:
                slack = 1e-12 * (1.0 + abs(rec.f_before))
                assert f_next <= rec.f_before - params.eta1 * rec.delta_q + slack


class TestGaussNewton:
    def test_linear_least_squares_oracle(self):
        (p,) = suite_problems("linearls")
        st, rec = arcqk_minimize_gauss_newton(p)
        assert st.status == "first_order_stationary"
        assert st.k <= 3
        # dense normal-equations oracle
        a, b = _linearls_matrices(p)
        x_opt = np.linalg.solve(a.T @ a, a.T @ b)
        assert np.linalg.norm(st.x - x_opt) / np.linalg.norm(x_opt) <= 1e-6

    def test_zero_residual_fit(self):
        (p,) = suite_problems("expfitls")
        st, rec = arcqk_minimize_gauss_newton(p)
        assert st.status == "first_order_stationary"
        assert st.f_val <= 1e-12

    def test_consistent_quadratic_fit(self):
        (p,) = suite_problems("quadfitls")
        st, _ = arcqk_minimize_gauss_newton(p)
        assert st.f_val <= 1e-12

    def test_rosenbrock_as_least_squares(self):
        (p,) = suite_problems("rosenbrockls")
        st, rec = arcqk_minimize_gauss_newton(p)
        assert st.status == "first_order_stationary"
        assert np.linalg.norm(st.x - [1.0, 1.0]) <= 1e-4

    def test_no_indefinite_statuses(self):
        (p,) = suite_problems("rosenbrockls")
        st, _ = arcqk_minimize_gauss_newton(p)
        for rec in st.trace:
            assert "indefinite" not in rec.shift_statuses

    def test_counters_mapped_to_products(self):
        (p,) = suite_problems("expfitls")
        st, rec = arcqk_minimize_gauss_newton(p)
        c = p.counters
        assert rec.neval_f == c.neval_residual
        assert rec.neval_grad == c.neval_jtprod
        assert rec.neval_hvp == c.neval_jprod

    def test_step_quality_invariants(self):
        params = ArcParams()
        (p,) = suite_problems("rosenbrockls")
        st, _ = arcqk_minimize_gauss_newton(p, params)
        assert audit_accepted_steps(p, st, params) == []


def _linearls_matrices(problem):
    # recover A and b through the public operators
    n, m = problem.n, problem.m_res
    a = np.column_stack([problem._jprod(problem.x0, e)
                         for e in np.eye(n)])
    b = a @ problem.x0 - problem._residual(problem.x0)
    return a, b
