import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcqk.shifted_cg import (_CONVERGED, CAPPED, CONVERGED, INDEFINITE,
                              ShiftGrid, _freeze)
from arcqk.shifted_cgls import CglsState, multishift_cgls


def ops(A):
    calls = {"A": 0, "At": 0}

    def apply_A(v):
        calls["A"] += 1
        return A @ v

    def apply_At(u):
        calls["At"] += 1
        return A.T @ u

    return apply_A, apply_At, calls


def dense_solutions(A, b, lambdas):
    n = A.shape[1]
    gram = A.T @ A
    atb = A.T @ b
    return [np.linalg.solve(gram + lam * np.eye(n), atb) for lam in lambdas]


class TestMultishiftCgls:
    def test_identity(self):
        A = np.eye(2)
        apply_A, apply_At, _ = ops(A)
        sol = multishift_cgls(apply_A, apply_At, np.array([1.0, 1.0]),
                              ShiftGrid([1.0]), tol=1e-12)
        assert_allclose(sol.direction(0), [0.5, 0.5], rtol=1e-12)
        assert sol.statuses == (CONVERGED,)

    def test_scalar_column(self):
        # A = [[1],[1]]: normal equation (2 + lam) x = 2
        A = np.array([[1.0], [1.0]])
        apply_A, apply_At, _ = ops(A)
        sol = multishift_cgls(apply_A, apply_At, np.array([1.0, 1.0]),
                              ShiftGrid([1e-15, 2.0]), tol=1e-12)
        assert sol.direction(0)[0] == pytest.approx(1.0, rel=1e-12)
        assert sol.direction(1)[0] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("shape", [(20, 10), (10, 20)])
    def test_random_matches_dense_normal_equations(self, shape):
        rng = np.random.default_rng(21)
        A = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        grid = ShiftGrid([1e-2, 1.0, 1e2])
        apply_A, apply_At, _ = ops(A)
        sol = multishift_cgls(apply_A, apply_At, b, grid, tol=1e-11)
        for i, exact in enumerate(dense_solutions(A, b, grid.lambdas)):
            err = np.linalg.norm(sol.direction(i) - exact) / np.linalg.norm(exact)
            assert err <= 1e-7

    @pytest.mark.parametrize("alpha", [None, 1.0])
    def test_supplied_atb_saves_one_product(self, alpha):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((30, 12))
        b = rng.standard_normal(30)
        grid = ShiftGrid([1e-2, 1e-1, 1.0, 1e1, 1e2])
        apply_A, apply_At, calls = ops(A)
        ref = multishift_cgls(apply_A, apply_At, b, grid, tol=1e-10,
                              alpha=alpha)
        before = dict(calls)
        calls.update(A=0, At=0)
        sol = multishift_cgls(apply_A, apply_At, b, grid, tol=1e-10,
                              alpha=alpha, atb=A.T @ b)
        assert calls == {"A": before["A"], "At": before["At"] - 1}
        assert sol.statuses == ref.statuses
        assert np.array_equal(sol.iterations, ref.iterations)
        assert np.array_equal(sol.directions, ref.directions)
        with pytest.raises(ValueError, match="non-finite"):
            multishift_cgls(apply_A, apply_At, b, grid,
                            atb=np.full(12, np.nan))

    def test_large_shift_limit(self):
        rng = np.random.default_rng(22)
        for trial in range(5):
            A = rng.standard_normal((15, 8))
            b = rng.standard_normal(15)
            apply_A, apply_At, _ = ops(A)
            sol = multishift_cgls(apply_A, apply_At, b, ShiftGrid([1e6]),
                                  tol=1e-10)
            expected = A.T @ b / 1e6
            err = np.linalg.norm(sol.direction(0) - expected) / np.linalg.norm(expected)
            assert err <= 1e-3

    def test_norms_decrease_with_shift(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((25, 12))
        b = rng.standard_normal(25)
        grid = ShiftGrid(np.logspace(-2, 4, 7))
        apply_A, apply_At, _ = ops(A)
        sol = multishift_cgls(apply_A, apply_At, b, grid, tol=1e-11)
        norms = sol.step_norms
        for i in range(len(grid) - 1):
            assert norms[i + 1] <= norms[i] + 1e-8

    def test_product_counters(self):
        rng = np.random.default_rng(24)
        A = rng.standard_normal((20, 10))
        b = rng.standard_normal(20)
        for lams in ([1.0], [1e-2, 1.0, 1e2]):
            apply_A, apply_At, calls = ops(A)
            sol = multishift_cgls(apply_A, apply_At, b, ShiftGrid(lams),
                                  tol=1e-10)
            assert calls["A"] == sol.total_iterations
            assert calls["At"] == sol.total_iterations + 1
            assert sol.total_iterations == int(np.max(sol.iterations))

    def test_never_indefinite(self):
        rng = np.random.default_rng(25)
        for trial in range(20):
            m, n = rng.integers(5, 25), rng.integers(3, 15)
            A = rng.standard_normal((int(m), int(n)))
            b = rng.standard_normal(int(m))
            apply_A, apply_At, _ = ops(A)
            sol = multishift_cgls(apply_A, apply_At, b,
                                  ShiftGrid([1e-8, 1e-2, 10.0]), tol=1e-9)
            assert INDEFINITE not in sol.statuses

    def test_unit_lanczos_vectors(self):
        rng = np.random.default_rng(26)
        A = rng.standard_normal((30, 12))
        b = rng.standard_normal(30)
        state = CglsState(lambda v: A @ v, lambda u: A.T @ u, b,
                          ShiftGrid([0.1]), 1e-12, 24)
        while not state.done:
            state.step()
            # the newest Lanczos vector the pass copied into the window
            assert abs(np.linalg.norm(state.W[state.kw - 1]) - 1.0) <= 1e-12

    def test_sigma_tracks_shifted_optimality_residual(self):
        rng = np.random.default_rng(27)
        A = rng.standard_normal((12, 6))
        b = rng.standard_normal(12)
        grid = ShiftGrid([0.05, 1.0])
        gram = A.T @ A
        atb = A.T @ b
        state = CglsState(lambda v: A @ v, lambda u: A.T @ u, b, grid,
                          1e-12, 12)
        while not state.done:
            state.step()
            for i, lam in enumerate(grid.lambdas):
                if state.statuses[i] == CAPPED:
                    continue
                r = atb - (gram + lam * np.eye(6)) @ state.direction(i)
                scale = max(1.0, np.linalg.norm(atb))
                assert abs(abs(state.sigma[i]) - np.linalg.norm(r)) <= 1e-6 * scale

    def test_frozen_middle_shift_between_running_ones(self):
        # shift 1 is frozen by hand right after the first flush, while
        # shifts 0 and 2 still run: its row is then its flushed row alone,
        # which the passes around the gap must keep bitwise
        rng = np.random.default_rng(30)
        A = rng.standard_normal((30, 15))
        b = 10.0 * rng.standard_normal(30)
        grid = ShiftGrid([0.1, 1.0, 10.0])
        state = CglsState(lambda v: A @ v, lambda u: A.T @ u, b, grid,
                          1e-12, 30)
        frozen = None
        split_steps = 0
        while not state.done:
            state.step()
            if frozen is None and state.kw == 1:
                _freeze(state, [1], _CONVERGED)
                frozen = (state.direction(1), state.sigma[1],
                          state.iterations[1])
            elif frozen is not None:
                x, sig, it = frozen
                assert np.array_equal(state.direction(1), x)
                assert state.sigma[1] == sig
                assert state.iterations[1] == it
            split_steps += tuple(state.statuses) == ("running", CONVERGED,
                                                     "running")
        assert split_steps > 0
        exact = dense_solutions(A, b, grid.lambdas)
        for i in (0, 2):
            assert state.statuses[i] == CONVERGED
            assert_allclose(state.direction(i), exact[i], rtol=1e-8)

    def test_zero_normal_rhs(self):
        # b orthogonal to range(A): A'b = 0, zero is the solution
        A = np.array([[1.0], [0.0]])
        apply_A, apply_At, calls = ops(A)
        for alpha in (None, 1.0):
            sol = multishift_cgls(apply_A, apply_At, np.array([0.0, 5.0]),
                                  ShiftGrid([0.1, 1.0, 10.0]), tol=1e-10,
                                  alpha=alpha)
            assert sol.statuses == (CONVERGED,) * 3
            assert sol.total_iterations == 0
            assert calls["A"] == 0
            assert np.all(sol.step_norms == 0.0)
            for i in range(3):
                assert np.all(sol.direction(i) == 0.0)
            assert sol.directions.shape == (1, 3)
            assert np.all(sol.directions == 0.0)

    @pytest.mark.filterwarnings("ignore:.*encountered in matmul")
    def test_nonfinite_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            multishift_cgls(lambda v: v * np.nan, lambda u: u, np.ones(3),
                            ShiftGrid([1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            multishift_cgls(lambda v: np.array([np.inf, *v[1:]]),
                            lambda u: u, np.ones(3), ShiftGrid([1.0]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                multishift_cgls(lambda v: v,
                                lambda u: np.array([bad, *u[1:]]),
                                np.ones(3), ShiftGrid([1.0]))
        # ||A v_0||^2 overflows with every entry finite: no raise
        state = CglsState(lambda v: 1e200 * v, lambda u: u, np.ones(4),
                          ShiftGrid([1.0]), 1e-8, None)
        assert np.isfinite(state.q).all() and state.q @ state.q == np.inf
