import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcqk.arc import model_decrease
from arcqk.problems import (SmoothProblem, make_diagquad, make_extrosenbrock,
                            make_rosenbrock, make_sphere, make_trigonometric,
                            suite_problems)
from arcqk.steihaug import (EXIT_BOUNDARY, EXIT_CAPPED, EXIT_INTERIOR,
                            EXIT_NEGATIVE_CURVATURE, MAX_RADIUS, TrParams,
                            st_minimize, truncated_cg)

from audits import (StepLog, audit_model_decrease, audit_trace_contract,
                    cg_iterate_norms)


class TestTruncatedCg:
    def test_interior_newton_step(self):
        res = truncated_cg(lambda v: v, np.array([1.0, 0.0]), 2.0, 1e-10)
        assert res.exit == EXIT_INTERIOR
        assert_allclose(res.d, [-1.0, 0.0], rtol=1e-12)
        assert np.linalg.norm(res.d) < 2.0

    def test_boundary_clipped_step(self):
        res = truncated_cg(lambda v: v, np.array([1.0, 0.0]), 0.5, 1e-10)
        assert res.exit == EXIT_BOUNDARY
        assert_allclose(res.d, [-0.5, 0.0], rtol=1e-12)

    def test_negative_curvature_exit(self):
        H = np.diag([-1.0, 1.0])
        res = truncated_cg(lambda v: H @ v, np.array([1.0, 1.0]), 1.0, 1e-10)
        assert res.exit == EXIT_NEGATIVE_CURVATURE
        assert np.linalg.norm(res.d) == pytest.approx(1.0, rel=1e-12)
        # hand trace: p0 = -(1,1), p0'Hp0 = 0 <= 0, step to the boundary
        assert_allclose(res.d, [-np.sqrt(0.5), -np.sqrt(0.5)], rtol=1e-10)

    def test_boundary_exits_sit_on_the_sphere(self):
        rng = np.random.default_rng(31)
        for trial in range(25):
            n = int(rng.integers(2, 30))
            A = rng.standard_normal((n, n))
            H = A + A.T            # typically indefinite
            g = rng.standard_normal(n)
            delta = float(rng.uniform(0.05, 2.0))
            res = truncated_cg(lambda v: H @ v, g, delta, 1e-10)
            if res.exit in (EXIT_BOUNDARY, EXIT_NEGATIVE_CURVATURE):
                assert abs(np.linalg.norm(res.d) - delta) <= 1e-12 * delta
            else:
                assert np.linalg.norm(res.d) <= delta

    def test_iterate_norms_increase(self):
        rng = np.random.default_rng(32)
        for trial in range(20):
            n = int(rng.integers(3, 50))
            A = rng.standard_normal((n, n))
            H = A @ A.T + 0.5 * np.eye(n)
            g = rng.standard_normal(n)
            norms = cg_iterate_norms(lambda v: H @ v, g, 1e6, 1e-12)
            # exact-arithmetic monotonicity; rounding wobble scales with the
            # conditioning, keep the usual 1e-6 slack
            assert all(b >= a * (1.0 - 1e-6) for a, b in zip(norms, norms[1:]))

    def test_interior_residual_below_tol(self):
        rng = np.random.default_rng(33)
        A = rng.standard_normal((12, 12))
        H = A @ A.T + np.eye(12)
        g = rng.standard_normal(12)
        res = truncated_cg(lambda v: H @ v, g, 1e9, 1e-8)
        assert res.exit == EXIT_INTERIOR
        assert np.linalg.norm(H @ res.d + g) <= 1e-8 * (1 + np.linalg.norm(g))

    def test_model_decrease_at_every_exit(self):
        # dr prices -g'd - d'Hd/2 without a product at each of the four
        # exits; the boundary ones stop after more than one iteration, so
        # the conjugacy of d_prev and p is exercised
        rng = np.random.default_rng(35)
        n = 12
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spd = np.arange(1.0, n + 1)
        indefinite = np.r_[-0.5, np.arange(1.0, n)]
        g = rng.standard_normal(n)
        newton = np.linalg.norm(np.linalg.solve(Q @ np.diag(spd) @ Q.T, g))
        cases = ((EXIT_INTERIOR, spd, 1e9, 1e-8, None),
                 (EXIT_CAPPED, spd, 1e9, 1e-14, 3),
                 (EXIT_BOUNDARY, spd, 0.9 * newton, 1e-10, None),
                 (EXIT_NEGATIVE_CURVATURE, indefinite, 1e3, 1e-10, None))
        for exit_, eigs, delta, tol, max_iter in cases:
            H = Q @ np.diag(eigs) @ Q.T
            res = truncated_cg(lambda v: H @ v, g, delta, tol,
                               max_iter=max_iter)
            assert res.exit == exit_
            assert res.iterations > 1
            d = res.d
            oracle = -float(g @ d) - 0.5 * float(d @ (H @ d))
            assert model_decrease(float(g @ d), res.dr) == pytest.approx(
                oracle, rel=1e-12), exit_

    def test_capped(self):
        rng = np.random.default_rng(34)
        A = rng.standard_normal((40, 40))
        H = A @ A.T + 1e-4 * np.eye(40)
        g = rng.standard_normal(40)
        res = truncated_cg(lambda v: H @ v, g, 1e9, 1e-14, max_iter=3)
        assert res.exit == EXIT_CAPPED
        assert res.iterations == 3

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            truncated_cg(lambda v: v, np.ones(2), 0.0, 1e-8)

    def test_nan_delta(self):
        with pytest.raises(ValueError, match="delta"):
            truncated_cg(lambda v: v, np.ones(2), np.nan, 1e-8)

    def test_infinite_radius_rejected(self):
        # ST caps its radius at MAX_RADIUS, so no caller passes inf; at a
        # negative-curvature exit the boundary root would be NaN
        for H in (lambda v: v, lambda v: -v):
            with pytest.raises(ValueError, match="finite"):
                truncated_cg(H, np.ones(2), np.inf, 1e-8)

    def test_negative_tol(self):
        with pytest.raises(ValueError, match="tol"):
            truncated_cg(lambda v: v, np.ones(2), 1.0, -1e-8)

    def test_nan_tol(self):
        with pytest.raises(ValueError, match="tol"):
            truncated_cg(lambda v: v, np.ones(2), 1.0, np.nan)

    def test_zero_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            truncated_cg(lambda v: v, np.ones(2), 1.0, 1e-8, max_iter=0)

    @pytest.mark.filterwarnings("ignore:.*encountered in matmul")
    def test_nonfinite_operator(self):
        with pytest.raises(ValueError, match="non-finite"):
            truncated_cg(lambda v: v * np.inf, np.ones(2), 1.0, 1e-8)
        # p = -g is 0 where Hp is bad, so kappa = p'Hp is NaN, not inf
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                truncated_cg(lambda v: np.array([v[0], bad]),
                             np.array([1.0, 0.0]), 1.0, 1e-8)
        # kappa = p'Hp = 2e350 overflows; Hp = -1e200 is finite: no raise
        res = truncated_cg(lambda v: 1e50 * v, np.full(2, 1e150), 1.0, 0.0,
                           max_iter=3)
        assert res.exit == EXIT_CAPPED and np.all(res.d == 0.0)


class TestStMinimize:
    def test_sphere_two_iterations(self):
        st, rec = st_minimize(make_sphere(5))
        assert st.status == "first_order_stationary"
        assert st.k <= 2
        assert rec.status == "success"

    def test_rosenbrock(self):
        st, rec = st_minimize(make_rosenbrock())
        assert st.status == "first_order_stationary"
        assert np.linalg.norm(st.x - [1.0, 1.0]) <= 1e-3

    def test_extended_rosenbrock_within_budget(self):
        st, rec = st_minimize(make_extrosenbrock(100),
                              TrParams(max_outer_iter=2000))
        assert st.status == "first_order_stationary"
        assert rec.neval_f == st.k + 1
        assert rec.neval_hvp > 0

    def test_objective_never_increases_on_accepted(self):
        st, _ = st_minimize(make_rosenbrock())
        f = st.trace[0].f_before
        for rec in st.trace:
            if rec.success:
                assert rec.f_before <= f + 1e-12
                f = rec.f_before

    def test_model_decrease_audit(self):
        (p,) = suite_problems("rosenbrock")
        steps = StepLog()
        st, _ = st_minimize(p, callback=steps)
        assert audit_model_decrease(p, st, steps) == []
        k = next(rec.k for rec in st.trace if rec.success)
        st.trace[k].delta_q *= 1.0 + 1e-2
        assert audit_model_decrease(p, st, steps) != []

    @pytest.mark.parametrize("problem", [
        *suite_problems(), make_diagquad(1000), make_trigonometric(100)],
        ids=lambda p: f"{p.name}-{p.n}")
    def test_trace_accounts_for_every_hvp(self, problem):
        # every truncated-CG iteration forms one product and no product is
        # formed outside it, least squares passed to st_minimize directly
        st, rec = st_minimize(problem, TrParams(max_outer_iter=2000))
        assert st.k >= 1
        assert sum(r.inner_iterations for r in st.trace) == rec.neval_hvp

    def test_radius_update_rules(self):
        params = TrParams()
        st, _ = st_minimize(make_rosenbrock(), params)
        for prev, nxt in zip(st.trace, st.trace[1:]):
            if not prev.success:
                assert nxt.delta == pytest.approx(params.gamma1 * prev.delta)
            elif prev.rho > params.eta2:
                assert nxt.delta == pytest.approx(params.gamma2 * prev.delta)
            else:
                assert nxt.delta == pytest.approx(prev.delta)

    def test_steps_respect_radius(self):
        st, _ = st_minimize(make_rosenbrock())
        for rec in st.trace:
            assert rec.step_norm <= rec.delta * (1 + 1e-12)

    def test_unbounded_below(self):
        def f(x):
            s = float(x @ x)
            return -np.inf if s > 1e4 else -0.5 * s

        p = SmoothProblem("cliff", 2, [50.0, 0.0], f,
                          grad=lambda x: -x, hvp=lambda x, v: -v)
        st, rec = st_minimize(p)
        assert st.status == "unbounded_below"
        assert audit_trace_contract(st, rec) == []

    def test_radius_capped_on_unbounded_linear(self):
        # f = -x_1 with a zero Hessian: every trial steps to the boundary
        # along negative curvature with rho = 1, so the radius grows by
        # gamma2 per trial; uncapped it overflowed inside _boundary_tau
        p = SmoothProblem("neglinear", 2, [0.0, 0.0],
                          lambda x: -float(x[0]),
                          grad=lambda x: np.array([-1.0, 0.0]),
                          hvp=lambda x, v: np.zeros(2))
        st, rec = st_minimize(p)
        assert st.status == "max_iter"
        assert audit_trace_contract(st, rec) == []
        for r in st.trace:
            assert np.isfinite(r.rho) and np.isfinite(r.step_norm)
            assert r.exit == EXIT_NEGATIVE_CURVATURE
            assert r.delta <= MAX_RADIUS
        assert st.trace[-1].delta == MAX_RADIUS

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TrParams(delta0=0.0)
        TrParams(delta0=MAX_RADIUS)
        with pytest.raises(ValueError, match="delta0"):
            TrParams(delta0=2.0 * MAX_RADIUS)
        with pytest.raises(ValueError):
            TrParams(eta1=0.9, eta2=0.5)
        for kwargs in ({"delta0": np.nan}, {"delta0": np.inf},
                       {"eps_abs": np.nan}, {"time_budget": np.nan},
                       {"max_outer_iter": 2.5}, {"gamma2": np.inf}):
            with pytest.raises(ValueError):
                TrParams(**kwargs)

    @pytest.mark.parametrize("name", ["eps_abs", "eps_rel"])
    def test_infinite_tolerance_rejected(self, name):
        with pytest.raises(ValueError, match="finite"):
            TrParams(**{name: np.inf})

    def test_same_result_schema_as_arc(self):
        from arcqk.records import BENCH_FIELDS
        _, rec = st_minimize(make_sphere(4))
        for field in BENCH_FIELDS:
            assert hasattr(rec, field)
