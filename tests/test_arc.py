import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import arcqk.arc as arc_mod
from arcqk.arc import (MAX_ALPHA, AllShiftsIndefinite, ArcParams,
                       GridExhausted, acceptance_ratio, advance_shift_on_failure,
                       arcqk_minimize, arcqk_minimize_gauss_newton,
                       inner_tolerance, select_step)
from arcqk.problems import (SmoothProblem, make_diagquad, make_himmelblau,
                            make_rosenbrock, make_sphere, suite_problems)
from arcqk.shifted_cg import ShiftGrid, multishift_cg
from arcqk.steihaug import TrParams, st_minimize

from audits import (StepLog, accepted_gradient_path, audit_accepted_steps,
                    audit_alpha_dynamics, audit_trace_contract)
from kernel_systems import hand_built


def slow_quadratic(hvp_seconds, n=60):
    """The quadratic 0.5 x'Ax - b'x with the spectrum of A spread over
    [1e-4, 1e4], seeded, from x0 = 0; every HVP sleeps ``hvp_seconds``."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (q * np.logspace(-4, 4, n)) @ q.T
    b = 1e-4 * rng.standard_normal(n) / np.sqrt(n)

    def hvp(x, v):
        time.sleep(hvp_seconds)
        return A @ v

    return SmoothProblem("quad", n, np.zeros(n),
                         lambda x: 0.5 * x @ A @ x - b @ x,
                         lambda x: A @ x - b, hvp)


def seeded_sphere(n=5, seed=42):
    p = make_sphere(n)
    p.x0 = np.random.default_rng(seed).standard_normal(n)
    return p


class TestPerShiftTolerance:
    """``inner_tolerance``: the power rule's values are taken below
    ||g|| = 0.81, where the 0.9 ||g|| cap is inactive."""

    def test_power_of_one(self):
        # zeta = 1, the top of its range, squares ||g||; xi scales the rule
        assert inner_tolerance(0.5, 1.0) == pytest.approx(0.25)
        assert inner_tolerance(0.5, 1.0, xi=1.5) == pytest.approx(0.375)

    def test_three_halves_power(self):
        assert inner_tolerance(1e-4, 0.5) == pytest.approx(1e-6)
        assert inner_tolerance(0.64, 0.5) == pytest.approx(0.512)

    def test_floor_dominates(self):
        tol = inner_tolerance(1e-10, 0.5)
        assert tol == pytest.approx(1e-12, rel=1e-6)

    def test_requires_positive_gradient(self):
        with pytest.raises(ValueError):
            inner_tolerance(0.0, 0.5)

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

    def test_alpha0_up_to_the_cap(self):
        assert ArcParams(alpha0=MAX_ALPHA).alpha0 == MAX_ALPHA
        with pytest.raises(ValueError, match="alpha0"):
            ArcParams(alpha0=np.nextafter(MAX_ALPHA, np.inf))


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
                                  lambda: p.eval_f(x + d))
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
                              lambda: p.eval_f(x + d))
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
                              lambda: calls.append(1) or 0.0)
        assert np.linalg.norm(d) > 0.0
        assert ev.rho == -np.inf
        assert ev.f_trial is None
        assert calls == []

    def test_exactly_one_objective_evaluation(self):
        p = seeded_sphere()
        x = p.x0
        f = p.eval_f(x)
        lam, d, g = shifted_step(p, x, [0.1, 1.0])
        before = p.counters.snapshot()
        acceptance_ratio(f, g, d, lam, lambda: p.eval_f(x + d))
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
        sol = hand_built([1.0, 2.0], [2.0, 3.0])
        # scores |1*1 - 2| = 1 and |1*2 - 3| = 1: a tie
        _, j, _ = select_step(sol, 1.0)
        assert j == 0


class TestAdvanceShift:
    def test_hand_example_single_advance(self):
        lams = [1.0, 10.0, 100.0]
        sol = hand_built(lams, [1.0 / (1.0 + l) for l in lams])
        j_next, alpha_next = advance_shift_on_failure(sol, 0, 1.0, 0.1)
        assert j_next == 1
        assert alpha_next == pytest.approx(1.0 / 110.0)
        assert alpha_next <= 0.1 * 1.0

    def test_exhaustion(self):
        sol = hand_built([1.0, 10.0], [3.0, 20.0])
        # candidate alpha = 20/10 = 2 > 0.1 and the grid ends
        with pytest.raises(GridExhausted):
            advance_shift_on_failure(sol, 0, 1.0, 0.1)

    def test_multiple_advances(self):
        lams = [1.0, 2.0, 4.0, 100.0]
        sol = hand_built(lams, [1.0, 1.9, 3.8, 0.5])
        # alphas: 0.95, 0.95, 0.005 -> walks to the last shift
        j_next, alpha_next = advance_shift_on_failure(sol, 0, 1.0, 0.1)
        assert j_next == 3
        assert alpha_next == pytest.approx(0.005)

    def test_stops_on_an_exact_tie(self):
        # alpha of shift 1: 1/2, exactly gamma1 times the old alpha
        sol = hand_built([1.0, 2.0], [1.0, 1.0])
        assert advance_shift_on_failure(sol, 0, 1.0, 0.5) == (1, 0.5)

    def test_skips_unusable_shifts(self):
        lams = [1.0, 2.0, 100.0]
        sol = hand_built(lams, [1.0, 1.0, 0.5],
                         statuses=["converged", "indefinite", "converged"])
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

    @pytest.mark.parametrize("solve", [arcqk_minimize, st_minimize],
                             ids=["arc", "st"])
    def test_nan_trial_is_rejected(self, solve):
        # f = x - log x is NaN for x < 0: a trial that crosses zero is a
        # failed step, not evidence that f is unbounded below
        def f(x):
            with np.errstate(invalid="ignore", divide="ignore"):
                return float(x[0] - np.log(x[0]))

        nan_trials = 0
        for x0 in (5.0, 10.0, 20.0, 50.0, 100.0, 1000.0):
            p = SmoothProblem("xlogx", 1, [x0], f,
                              grad=lambda x: 1.0 - 1.0 / x,
                              hvp=lambda x, v: v / x ** 2, x_star=[1.0])
            st, rec = solve(p)
            assert st.status == "first_order_stationary", x0
            assert st.x[0] == pytest.approx(1.0, rel=1e-4)
            assert audit_trace_contract(st, rec) == []
            nan_trials += sum(np.isnan(r.rho) for r in st.trace)
        assert nan_trials > 0

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

    def test_time_budget_ends_a_running_solve(self):
        """A budget shorter than one multishift solve ends the run inside it.

        The first solve of this quadratic runs to its 2n = 120 cap, and each
        HVP sleeps 2 ms, so the kernel passes the 20 ms deadline within a
        few joint iterations and the run ends before its first trial.
        """
        n = 60
        _, full = arcqk_minimize(slow_quadratic(0.0),
                                 ArcParams(max_outer_iter=1))
        assert full.neval_hvp == 2 * n
        st, rec = arcqk_minimize(slow_quadratic(0.002),
                                 ArcParams(time_budget=0.02))
        assert st.status == rec.status == rec.detail == "time_exceeded"
        assert st.trace == [] and st.n_solves == 0      # no solve finished
        assert 1 <= rec.neval_hvp < full.neval_hvp

    def test_st_time_budget_ends_a_running_truncated_cg(self):
        """ST's truncated CG ends at the same deadline.

        With a radius of 1e6 the first truncated CG on the quadratic runs
        to its 2n = 120 cap; at 2 ms per HVP, the 20 ms budget has passed
        after 10 of them, so the run ends within its first trial.
        """
        _, full = st_minimize(slow_quadratic(0.0),
                              TrParams(max_outer_iter=1, delta0=1e6))
        assert full.neval_hvp == 120
        st, rec = st_minimize(slow_quadratic(0.002),
                              TrParams(time_budget=0.02, delta0=1e6))
        assert st.status == rec.status == rec.detail == "time_exceeded"
        assert st.trace == []
        assert 1 <= rec.neval_hvp <= 15

    def test_time_budget_checked_after_rejected_trial(self, monkeypatch):
        # the clock jumps past the budget during the first rejected trial, so
        # the run must stop before the shift walk makes another trial
        offset = [0.0]
        real = time.perf_counter
        monkeypatch.setattr(arc_mod, "time", SimpleNamespace(
            perf_counter=lambda: real() + offset[0]))

        def jump_on_rejection(rec, state, d):
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
        st, _ = arcqk_minimize(
            seeded_sphere(), callback=lambda rec, state, d: seen.append(rec.k))
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

    def test_alpha_capped_on_unbounded_linear(self):
        # f = -x_1 with a zero Hessian: every trial has rho = 1, so alpha
        # grows by gamma2 per trial; uncapped it overflowed to inf, with a
        # RuntimeWarning, after about 440 trials
        p = SmoothProblem("neglinear", 2, [0.0, 0.0],
                          lambda x: -float(x[0]),
                          grad=lambda x: np.array([-1.0, 0.0]),
                          hvp=lambda x, v: np.zeros(2))
        params = ArcParams()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st, rec = arcqk_minimize(p, params)
        assert st.status == "max_iter"
        assert audit_trace_contract(st, rec) == []
        assert audit_alpha_dynamics(st, params) == []
        assert all(r.alpha <= MAX_ALPHA for r in st.trace)
        assert st.trace[-1].alpha == MAX_ALPHA

    def test_audit_rejects_uncapped_alpha(self):
        params = ArcParams()

        def trace(*alphas):
            return SimpleNamespace(status="max_iter", trace=[
                SimpleNamespace(k=k, alpha=a, success=True, rho=1.0)
                for k, a in enumerate(alphas)])

        assert audit_alpha_dynamics(trace(MAX_ALPHA / 2, MAX_ALPHA),
                                    params) == []
        assert audit_alpha_dynamics(trace(MAX_ALPHA, MAX_ALPHA), params) == []
        assert len(audit_alpha_dynamics(trace(MAX_ALPHA, 5.0 * MAX_ALPHA),
                                        params)) == 2
        assert audit_alpha_dynamics(trace(1.0, np.inf), params)
        assert audit_alpha_dynamics(trace(np.nan), params)

    def test_step_quality_invariants(self):
        params = ArcParams()
        for name in ("rosenbrock", "himmelblau", "wood"):
            (p,) = suite_problems(name)
            steps = StepLog()
            st, _ = arcqk_minimize(p, params, callback=steps)
            assert audit_accepted_steps(p, st, params, steps) == [], name

    def test_audit_flags_model_decrease_drift(self):
        params = ArcParams()
        (p,) = suite_problems("rosenbrock")
        steps = StepLog()
        st, _ = arcqk_minimize(p, params, callback=steps)
        assert audit_accepted_steps(p, st, params, steps) == []
        k = next(rec.k for rec in st.trace if rec.success)
        st.trace[k].delta_q *= 1.0 + 1e-2
        assert [v for v in audit_accepted_steps(p, st, params, steps)
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

    def test_one_jt_product_per_joint_iteration(self, monkeypatch):
        # each solve takes A'b = -g from the loop, so the J' products are
        # the gradients (the start and one per accepted step) plus one per
        # joint CGLS iteration
        sols = []
        cgls = arc_mod.multishift_cgls

        def spy(*args, **kwargs):
            sols.append(cgls(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(arc_mod, "multishift_cgls", spy)
        for name in ("linearls", "rosenbrockls", "expfitls", "quadfitls"):
            (p,) = suite_problems(name)
            sols.clear()
            st, rec = arcqk_minimize_gauss_newton(p)
            assert len(sols) == st.n_solves >= 1, name
            accepted = sum(r.success for r in st.trace)
            assert rec.neval_grad == 1 + accepted + sum(
                sol.total_iterations for sol in sols), name

    def test_step_quality_invariants(self):
        params = ArcParams()
        (p,) = suite_problems("rosenbrockls")
        steps = StepLog()
        st, _ = arcqk_minimize_gauss_newton(p, params, callback=steps)
        assert audit_accepted_steps(p, st, params, steps) == []


def _linearls_matrices(problem):
    # recover A and b through the public operators
    n, m = problem.n, problem.m_res
    a = np.column_stack([problem._jprod(problem.x0, e)
                         for e in np.eye(n)])
    b = a @ problem.x0 - problem._residual(problem.x0)
    return a, b
