import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcqk.problems import (DerivativeReport, LeastSquaresProblem,
                            SmoothProblem, check_derivatives, fd_gradient,
                            make_beale, make_extrosenbrock, make_rosenbrock,
                            make_sphere, suite_problems, SUITE_NAMES)

REQUIRED = {"sphere", "diagquad", "rosenbrock", "extrosenbrock",
            "powellsingular", "wood", "beale", "himmelblau", "penalty",
            "trigonometric", "linearls", "rosenbrockls", "expfitls"}


def smooth_suite():
    return [p for p in suite_problems() if isinstance(p, SmoothProblem)]


def ls_suite():
    return [p for p in suite_problems() if isinstance(p, LeastSquaresProblem)]


class TestSuite:
    def test_required_names_present(self):
        assert REQUIRED <= set(SUITE_NAMES)

    def test_rosenbrock_instance(self):
        (p,) = suite_problems("rosenbrock")
        assert p.n == 2
        assert_allclose(p.x0, [-1.2, 1.0])
        assert p.eval_f(p.x0) == pytest.approx(24.2)

    def test_sphere_gradient_is_identity(self):
        (p,) = suite_problems("sphere")
        assert p.n == 5
        assert_allclose(p.eval_grad(p.x0), p.x0)
        x = np.array([2.0, -1.0, 0.5, 0.0, 3.0])
        assert p.eval_f(x) == pytest.approx(0.5 * x @ x)

    def test_sphere_oracles_exact(self):
        # sphere shares the diagonal-quadratic builder with d = 1, which
        # must leave every value bitwise equal to 0.5 x'x, x and v
        rng = np.random.default_rng(29)
        p = make_sphere(7)
        for _ in range(20):
            x, v = rng.standard_normal((2, 7)) * 10.0 ** rng.integers(-8, 9)
            assert p.eval_f(x) == 0.5 * float(x @ x)
            assert np.array_equal(p.eval_grad(x), x)
            assert np.array_equal(p.eval_hvp(x, v), v)

    def test_size_filter_includes_extended_rosenbrock(self):
        probs = suite_problems(size=100)
        names = {p.name for p in probs}
        assert "extrosenbrock" in names
        ext = next(p for p in probs if p.name == "extrosenbrock")
        assert ext.n == 100
        assert ext.eval_f(np.ones(100)) == 0.0

    def test_size_range_filter(self):
        probs = suite_problems(size=(1, 10))
        assert all(1 <= p.n <= 10 for p in probs)
        assert any(p.name == "sphere" for p in probs)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown problem.*available"):
            suite_problems("nosuchproblem")

    def test_glob_pattern(self):
        names = {p.name for p in suite_problems("*ls")}
        assert {"linearls", "rosenbrockls", "expfitls", "quadfitls"} == names
        with pytest.raises(ValueError, match="no suite problem matches"):
            suite_problems("zz*")

    def test_seeded_start_perturbation(self):
        (a,) = suite_problems("rosenbrock")
        (b,) = suite_problems("rosenbrock", rng_seed=7)
        (c,) = suite_problems("rosenbrock", rng_seed=7)
        assert not np.allclose(a.x0, b.x0)
        assert_allclose(b.x0, c.x0)

    def test_fresh_instances_per_call(self):
        (a,) = suite_problems("sphere")
        (b,) = suite_problems("sphere")
        a.eval_f(a.x0)
        assert b.counters.neval_f == 0


class TestCounters:
    def test_exact_increments(self):
        p = make_sphere(3)
        for k in range(1, 6):
            p.eval_f(p.x0)
            assert p.counters.neval_f == k
        p.eval_grad(p.x0)
        p.eval_hvp(p.x0, np.ones(3))
        assert (p.counters.neval_grad, p.counters.neval_hvp) == (1, 1)
        p.reset_counters()
        assert p.counters.neval_f == 0

    def test_ls_counters(self):
        (p,) = suite_problems("rosenbrockls")
        p.eval_residual(p.x0)
        p.eval_jprod(p.x0, np.ones(2))
        p.eval_jprod(p.x0, np.ones(2))
        p.eval_jtprod(p.x0, np.ones(2))
        c = p.counters
        assert (c.neval_residual, c.neval_jprod, c.neval_jtprod) == (1, 2, 1)


class TestDerivativeChecks:
    def test_sphere_gradient_exact(self):
        rng = np.random.default_rng(3)
        p = make_sphere(6)
        report = check_derivatives(p, rng.standard_normal(6))
        assert report.grad_error <= 1e-8
        assert report.passed

    def test_rosenbrock_passes(self):
        assert check_derivatives(make_rosenbrock()).passed

    def test_broken_gradient_flagged(self):
        p = SmoothProblem("broken", 2, [1.0, 1.0],
                          f=lambda x: float(x @ x),
                          grad=lambda x: 3.0 * x,   # wrong on purpose
                          hvp=lambda x, v: 2.0 * v)
        report = check_derivatives(p)
        assert not report.passed
        assert report.grad_error > 1e-4

    def test_nonfinite_evaluation_reports_location(self):
        p = SmoothProblem("bad", 1, [1.0],
                          f=lambda x: float("nan"),
                          grad=lambda x: x,
                          hvp=lambda x, v: v)
        with pytest.raises(ValueError, match="objective.*non-finite"):
            check_derivatives(p)

    def test_nonfinite_first_hvp_raises(self):
        # A NaN first HVP makes the operator error NaN, which must not pass.
        calls = []

        def hvp(x, v):
            calls.append(1)
            return np.full_like(v, np.nan) if len(calls) == 1 else 2.0 * v

        p = SmoothProblem("nanhvp", 2, [1.0, 1.0], f=lambda x: float(x @ x),
                          grad=lambda x: 2.0 * x, hvp=hvp)
        with pytest.raises(ValueError, match="hvp.*non-finite"):
            check_derivatives(p)

    def test_nonfinite_jprod_raises(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])
        p = LeastSquaresProblem("nanjprod", 2, 3, [1.0, 1.0],
                                residual=lambda x: a @ x - 1.0,
                                jprod=lambda x, v: np.full(3, np.nan),
                                jtprod=lambda x, u: a.T @ u)
        with pytest.raises(ValueError, match="jprod.*non-finite"):
            check_derivatives(p)

    @pytest.mark.parametrize("errors", [(0.0, np.nan), (np.nan, 0.0)])
    def test_nan_error_fails(self, errors):
        assert not DerivativeReport("nan", *errors).passed

    @pytest.mark.parametrize("problem", smooth_suite(), ids=lambda p: p.name)
    def test_suite_gradients_match_fd(self, problem):
        # at x0 and at 5 seeded perturbations
        rng = np.random.default_rng(11)
        pts = [problem.x0] + [
            problem.x0 + 0.05 * rng.standard_normal(problem.n)
            for _ in range(5)]
        for x in pts:
            g = problem.eval_grad(x)
            g_fd = fd_gradient(problem._f, x)
            err = np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g_fd))
            assert err <= 1e-5, f"{problem.name} at {x}"

    @pytest.mark.parametrize("problem", smooth_suite(), ids=lambda p: p.name)
    def test_hvp_linear_and_symmetric(self, problem):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = problem.x0 + 0.1 * rng.standard_normal(problem.n)
            u = rng.standard_normal(problem.n)
            v = rng.standard_normal(problem.n)
            hu = problem.eval_hvp(x, u)
            hv = problem.eval_hvp(x, v)
            mix = problem.eval_hvp(x, 0.3 * u - 2.0 * v)
            scale = 1.0 + np.linalg.norm(hu) + np.linalg.norm(hv)
            assert np.linalg.norm(mix - 0.3 * hu + 2.0 * hv) / scale <= 1e-10
            assert abs(u @ hv - v @ hu) / (1.0 + abs(u @ hv)) <= 1e-10

    @pytest.mark.parametrize("problem",
                             [p for p in smooth_suite() if p.x_star is not None],
                             ids=lambda p: p.name)
    def test_gradient_vanishes_at_minimizer(self, problem):
        assert np.linalg.norm(problem.eval_grad(problem.x_star)) <= 1e-8

    @pytest.mark.parametrize("problem", ls_suite(), ids=lambda p: p.name)
    def test_ls_consistency(self, problem):
        report = check_derivatives(problem)
        assert report.grad_error <= 1e-5
        assert report.hvp_error <= 1e-10

    @pytest.mark.parametrize("problem", ls_suite(), ids=lambda p: p.name)
    def test_ls_adjoint_identity(self, problem):
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = problem.x0 + 0.1 * rng.standard_normal(problem.n)
            u = rng.standard_normal(problem.m_res)
            v = rng.standard_normal(problem.n)
            lhs = u @ problem.eval_jprod(x, v)
            rhs = problem.eval_jtprod(x, u) @ v
            assert abs(lhs - rhs) / (1.0 + abs(lhs)) <= 1e-10


class TestWrappers:
    def test_as_smooth_gauss_newton_view(self):
        (p,) = suite_problems("rosenbrockls")
        s = p.as_smooth()
        x = np.array([0.5, -0.3])
        r = p._residual(x)
        assert s.eval_f(x) == pytest.approx(0.5 * r @ r)
        g = s.eval_grad(x)
        assert_allclose(g, p._jtprod(x, r), rtol=1e-14)
        v = np.array([1.0, 2.0])
        assert_allclose(s.eval_hvp(x, v), p._jtprod(x, p._jprod(x, v)),
                        rtol=1e-14)

    def test_x0_shape_validated(self):
        with pytest.raises(ValueError, match="x0 must have shape"):
            SmoothProblem("bad", 3, [1.0, 2.0], f=lambda x: 0.0,
                          grad=lambda x: x, hvp=lambda x, v: v)
