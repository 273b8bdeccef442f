import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcqk.shifted_cg import (CAPPED, CONVERGED, INDEFINITE, MultishiftState,
                              ShiftGrid, curvature_certificate, multishift_cg)


def counting_op(M):
    calls = {"n": 0}

    def apply(v):
        calls["n"] += 1
        return M @ v

    return apply, calls


def random_spd(n, rng, shift=1.0):
    A = rng.standard_normal((n, n))
    return A @ A.T + shift * np.eye(n)


class TestShiftGrid:
    def test_default_grid(self):
        grid = ShiftGrid.default()
        assert len(grid) == 31
        assert grid[0] == pytest.approx(1e-15)
        assert grid[30] == pytest.approx(1e15)
        assert grid.beta == pytest.approx(np.sqrt(10.0))
        ratios = grid.lambdas[1:] / grid.lambdas[:-1]
        assert_allclose(ratios, 10.0, rtol=1e-12)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="must lie in"):
            ShiftGrid([0.0, 1.0])
        with pytest.raises(ValueError, match="must lie in"):
            ShiftGrid([1.0, 1e16])
        with pytest.raises(ValueError, match="strictly increasing"):
            ShiftGrid([1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            ShiftGrid([1.0, np.inf])

    def test_beta_inferred(self):
        assert ShiftGrid([1.0, 4.0]).beta == pytest.approx(2.0)
        with pytest.raises(ValueError, match="beta"):
            ShiftGrid([1.0, 2.0], beta=0.5)


class TestMultishiftCg:
    def test_identity_two_shifts(self):
        sol = multishift_cg(lambda v: v, np.array([1.0, 0.0]),
                            ShiftGrid([1e-15, 1.0]), tol=1e-10)
        assert_allclose(sol.direction(0), [1.0, 0.0], rtol=1e-12)
        assert_allclose(sol.direction(1), [0.5, 0.0], rtol=1e-12)
        assert sol.statuses == (CONVERGED, CONVERGED)
        assert list(sol.iterations) == [1, 1]

    def test_indefinite_diagonal(self):
        # eigenvalue -2 + 1 < 0 flags the first shift; the second system is
        # diag(2, 7) with solution (1/2, 1/7)
        M = np.diag([-2.0, 3.0])
        sol = multishift_cg(lambda v: M @ v, np.array([1.0, 1.0]),
                            ShiftGrid([1.0, 4.0]), tol=1e-12)
        assert sol.statuses[0] == INDEFINITE
        assert sol.iterations[0] <= 2
        assert sol.statuses[1] == CONVERGED
        assert_allclose(sol.direction(1), [0.5, 1.0 / 7.0], rtol=1e-12)
        # dense eigendecomposition oracle for the flag
        eigs = np.linalg.eigvalsh(M)
        assert eigs[0] + 1.0 < 0
        assert eigs[0] + 4.0 > 0

    def test_random_spd_matches_dense_solve(self):
        rng = np.random.default_rng(42)
        M = random_spd(10, rng)
        b = rng.standard_normal(10)
        grid = ShiftGrid([0.1, 1.0, 10.0])
        sol = multishift_cg(lambda v: M @ v, b, grid, tol=1e-12)
        for i, lam in enumerate(grid.lambdas):
            exact = np.linalg.solve(M + lam * np.eye(10), b)
            err = np.linalg.norm(sol.direction(i) - exact) / np.linalg.norm(exact)
            assert err <= 1e-8, f"shift {lam}"

    def test_zero_rhs_trivial(self):
        sol = multishift_cg(lambda v: v, np.zeros(4), ShiftGrid([1.0]), tol=1e-8)
        assert sol.statuses == (CONVERGED,)
        assert sol.operator_products == 0
        assert_allclose(sol.directions, 0.0)

    def test_nonfinite_operator_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            multishift_cg(lambda v: v * np.nan, np.ones(3), ShiftGrid([1.0]))

    def test_breakdown_treated_as_exhaustion(self):
        # identity: Krylov space is one-dimensional, solutions exact there
        sol = multishift_cg(lambda v: v, np.ones(6), ShiftGrid([1e-15, 1.0]),
                            tol=0.0)
        assert sol.statuses == (CONVERGED, CONVERGED)
        assert_allclose(sol.direction(1), np.full(6, 0.5), rtol=1e-12)

    def test_capped_status(self):
        rng = np.random.default_rng(1)
        M = random_spd(30, rng, shift=0.01)
        b = rng.standard_normal(30)
        sol = multishift_cg(lambda v: M @ v, b, ShiftGrid([1e-6]), tol=1e-14,
                            max_iter=3)
        assert sol.statuses == (CAPPED,)
        assert sol.iterations[0] == 3

    def test_per_shift_tol_array(self):
        rng = np.random.default_rng(2)
        M = random_spd(8, rng)
        b = rng.standard_normal(8)
        grid = ShiftGrid([0.5, 5.0])
        sol = multishift_cg(lambda v: M @ v, b, grid, tol=[1e-12, 1e-2])
        assert sol.statuses == (CONVERGED, CONVERGED)
        assert sol.iterations[1] <= sol.iterations[0]
        with pytest.raises(ValueError, match="entries"):
            multishift_cg(lambda v: M @ v, b, grid, tol=[1e-8] * 3)

    def test_trace_callback(self):
        rng = np.random.default_rng(3)
        M = random_spd(6, rng)
        b = rng.standard_normal(6)
        seen = []
        multishift_cg(lambda v: M @ v, b, ShiftGrid([1.0]), tol=1e-10,
                      callback=lambda j, res, st: seen.append((j, res.copy(), st)))
        assert [j for j, _, _ in seen] == list(range(len(seen)))
        assert all(len(res) == 1 and len(st) == 1 for _, res, st in seen)
        # residual estimates decrease overall
        assert seen[-1][1][0] <= 1e-10


class TestCountingContracts:
    def test_single_product_per_iteration_across_grid_sizes(self):
        rng = np.random.default_rng(7)
        M = random_spd(20, rng)
        b = rng.standard_normal(20)
        lams = np.logspace(-15, 15, 31)
        counts = {}
        for lam_subset in ([1e-15], [1e-15, 1.0, 1e15], list(lams)):
            op, calls = counting_op(M)
            sol = multishift_cg(op, b, ShiftGrid(lam_subset), tol=1e-10)
            assert sol.operator_products == calls["n"]
            assert calls["n"] == int(np.max(sol.iterations)) + 1
            counts[len(lam_subset)] = calls["n"]
        # the slowest shift (1e-15) is shared, so counts match exactly
        assert counts[1] == counts[3] == counts[31]

    def test_products_equal_total_iterations_plus_one(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            M = random_spd(12, rng)
            b = rng.standard_normal(12)
            op, calls = counting_op(M)
            sol = multishift_cg(op, b, ShiftGrid([0.01, 1.0, 100.0]), tol=1e-9)
            assert calls["n"] == sol.total_iterations + 1


class TestRecurrenceInvariants:
    def test_sigma_matches_residual(self):
        rng = np.random.default_rng(10)
        n = 15
        M = random_spd(n, rng)
        b = rng.standard_normal(n)
        grid = ShiftGrid([0.05, 0.5, 5.0])
        state = MultishiftState(lambda v: M @ v, b, grid, 1e-13, 2 * n)
        while not state.done:
            state.step()
            for i, lam in enumerate(grid.lambdas):
                if state.status[i] not in ("running", CONVERGED):
                    continue
                r = b - (M + lam * np.eye(n)) @ state.x[i]
                assert abs(abs(state.sigma[i]) - np.linalg.norm(r)) <= \
                    1e-8 * np.linalg.norm(b)

    def test_lanczos_vectors_orthonormal(self):
        # uniform spectrum so no Ritz pair converges within 30 iterations
        # (orthogonality loss beyond convergence is expected, not asserted)
        rng = np.random.default_rng(11)
        n = 60
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = Q @ np.diag(np.linspace(1.0, 100.0, n)) @ Q.T
        b = rng.standard_normal(n)
        state = MultishiftState(lambda v: M @ v, b, ShiftGrid([1e-6]), 0.0, 31)
        vs = [state.v.copy()]
        while not state.done and state.j < 29:
            state.step()
            assert abs(np.linalg.norm(state.v) - 1.0) <= 1e-12
            vs.append(state.v.copy())
        V = np.array(vs)
        G = V @ V.T - np.eye(len(vs))
        assert np.max(np.abs(G)) <= 1e-6

    def test_converged_blocks_frozen(self):
        rng = np.random.default_rng(12)
        n = 25
        M = random_spd(n, rng)
        b = rng.standard_normal(n)
        grid = ShiftGrid([1e-4, 1e4])   # large shift converges much earlier
        state = MultishiftState(lambda v: M @ v, b, grid, 1e-12, 2 * n)
        frozen = {}
        while not state.done:
            state.step()
            for i in range(2):
                if state.status[i] == CONVERGED and i not in frozen:
                    frozen[i] = (state.x[i].copy(), state.sigma[i],
                                 state.iterations[i])
                elif i in frozen:
                    x, sig, it = frozen[i]
                    assert_allclose(state.x[i], x)
                    assert state.sigma[i] == sig
                    assert state.iterations[i] == it
        assert 1 in frozen

    def test_frozen_middle_shift_between_running_ones(self):
        # the loose middle tolerance freezes shift 1 while shifts 0 and 2
        # still run, so their rows are updated through a row index
        rng = np.random.default_rng(16)
        n = 20
        M = random_spd(n, rng)
        b = 10.0 * rng.standard_normal(n)
        grid = ShiftGrid([0.1, 1.0, 10.0])
        state = MultishiftState(lambda v: M @ v, b, grid,
                                [1e-12, 1.0, 1e-12], 2 * n)
        frozen = None
        split_steps = 0
        while not state.done:
            state.step()
            if frozen is None and state.status[1] == CONVERGED:
                frozen = (state.x[1].copy(), state.sigma[1], state.iterations[1])
            elif frozen is not None:
                x, sig, it = frozen
                assert np.array_equal(state.x[1], x)
                assert state.sigma[1] == sig
                assert state.iterations[1] == it
            split_steps += tuple(state.status) == ("running", CONVERGED,
                                                   "running")
        assert split_steps > 0
        for i in (0, 2):
            assert state.status[i] == CONVERGED
            exact = np.linalg.solve(M + grid[i] * np.eye(n), b)
            assert_allclose(state.x[i], exact, rtol=1e-9)

    def test_step_norms_monotone_in_shift(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            n = 20
            M = random_spd(n, rng)
            b = rng.standard_normal(n)
            grid = ShiftGrid(np.logspace(-3, 3, 7))
            sol = multishift_cg(lambda v: M @ v, b, grid, tol=1e-11)
            norms = sol.step_norms
            conv = [i for i, s in enumerate(sol.statuses) if s == CONVERGED]
            for a, bb in zip(conv, conv[1:]):
                assert norms[bb] <= norms[a] + 1e-6

    def test_converged_residuals_match_sigma(self):
        rng = np.random.default_rng(14)
        n = 18
        M = random_spd(n, rng)
        b = rng.standard_normal(n)
        grid = ShiftGrid([0.01, 0.1, 1.0, 10.0])
        sol = multishift_cg(lambda v: M @ v, b, grid, tol=1e-10)
        for i, lam in enumerate(grid.lambdas):
            assert sol.statuses[i] == CONVERGED
            r = b - (M + lam * np.eye(n)) @ sol.direction(i)
            assert abs(np.linalg.norm(r) - sol.residual_norms[i]) <= \
                max(1e-8, 1e-8 * np.linalg.norm(b))
            assert sol.residual_norms[i] <= 1e-10


class TestCurvatureCertificate:
    def test_identity_first_iteration(self):
        b = np.array([3.0, 4.0])
        state = MultishiftState(lambda v: v, b, ShiftGrid([1.0]), 1e-10, 4)
        state.step()
        # delta0 = 1, shift 1, omega_{-1} = 0: certificate = sigma0^2 * 2
        assert curvature_certificate(state, 0) == pytest.approx(25.0 * 2.0)

    def test_negative_on_flagged_shift(self):
        M = np.diag([-2.0, 3.0])
        state = MultishiftState(lambda v: M @ v, np.array([1.0, 1.0]),
                                ShiftGrid([1.0]), 1e-12, 4)
        cert = None
        while not state.done:
            state.step()
            if state.status[0] == INDEFINITE:
                cert = curvature_certificate(state, 0)
                break
        assert cert is not None and cert < 0

    def test_matches_explicit_quadratic_form(self):
        rng = np.random.default_rng(15)
        n = 5
        M = random_spd(n, rng)
        lam = 0.5
        b = rng.standard_normal(n)
        state = MultishiftState(lambda v: M @ v, b, ShiftGrid([lam]), 0.0, n)
        while not state.done:
            p = state.p[0].copy()
            active = state.status[0] == "running"
            state.step()
            if not active:
                break
            explicit = p @ (M + lam * np.eye(n)) @ p
            cert = curvature_certificate(state, 0)
            assert cert > 0
            assert abs(cert - explicit) / abs(explicit) <= 1e-8

    def test_requires_a_step(self):
        state = MultishiftState(lambda v: v, np.ones(2), ShiftGrid([1.0]),
                                1e-8, 4)
        with pytest.raises(ValueError, match="no iteration"):
            curvature_certificate(state, 0)
