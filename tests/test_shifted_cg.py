import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcqk.shifted_cg import (_CONVERGED, CAPPED, CONVERGED, INDEFINITE,
                              RUNNING, MultishiftState, ShiftGrid,
                              TimeExceeded, _freeze, multishift_cg)
from arcqk.shifted_cgls import CglsState, multishift_cgls

from kernel_systems import direction_rows, record_passes, seeded_system


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
        assert grid.lambdas[0] == pytest.approx(1e-15)
        assert grid.lambdas[30] == pytest.approx(1e15)
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

    def test_lambdas_are_a_private_read_only_copy(self):
        lam = np.array([1.0, 2.0])
        grid = ShiftGrid(lam)
        with pytest.raises(ValueError, match="read-only"):
            grid.lambdas[0] = 0.5
        lam[0] = 0.5
        assert grid.lambdas[0] == 1.0
        # a solve hands out the grid's array, not a copy
        assert multishift_cg(lambda v: v, np.ones(2), grid).lambdas is \
            grid.lambdas


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
        op, calls = counting_op(np.eye(4))
        grid = ShiftGrid([0.1, 1.0, 10.0])
        for alpha in (None, 1.0):
            sol = multishift_cg(op, np.zeros(4), grid, tol=1e-8, alpha=alpha)
            assert sol.statuses == (CONVERGED,) * 3
            assert sol.total_iterations == 0
            assert calls["n"] == 0
            assert np.all(sol.step_norms == 0.0)
            for i in range(3):
                assert np.all(sol.direction(i) == 0.0)
            assert sol.directions.shape == (4, 3)
            assert np.all(sol.directions == 0.0)
            with pytest.raises(ValueError, match="max_iter"):
                multishift_cg(op, np.zeros(4), grid, max_iter=0, alpha=alpha)

    @pytest.mark.filterwarnings("ignore:.*encountered in matmul")
    def test_nonfinite_operator_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            multishift_cg(lambda v: v * np.nan, np.ones(3), ShiftGrid([1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            multishift_cg(lambda v: np.array([np.inf, *v[1:]]), np.ones(3),
                          ShiftGrid([1.0]))
        # ||q||^2 overflows, yet every entry of q is finite: no raise, and
        # the Krylov space is the one vector b
        grid = ShiftGrid([1.0, 1e10])
        sol = multishift_cg(lambda v: 1e200 * v, np.ones(4), grid)
        assert sol.statuses == (CONVERGED, CONVERGED)
        for i, lam in enumerate(grid.lambdas):
            assert_allclose(sol.direction(i), np.ones(4) / (1e200 + lam))

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
            assert sol.total_iterations == calls["n"]
            assert calls["n"] == int(np.max(sol.iterations))
            counts[len(lam_subset)] = calls["n"]
        # the slowest shift (1e-15) is shared, so counts match exactly
        assert counts[1] == counts[3] == counts[31]

    def test_products_equal_total_iterations(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            M = random_spd(12, rng)
            b = rng.standard_normal(12)
            op, calls = counting_op(M)
            sol = multishift_cg(op, b, ShiftGrid([0.01, 1.0, 100.0]), tol=1e-9)
            assert calls["n"] == sol.total_iterations


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
                if state.statuses[i] not in ("running", CONVERGED):
                    continue
                r = b - (M + lam * np.eye(n)) @ state.direction(i)
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
                if state.statuses[i] == CONVERGED and i not in frozen:
                    frozen[i] = (state.direction(i), state.sigma[i],
                                 state.iterations[i])
                elif i in frozen:
                    x, sig, it = frozen[i]
                    assert_allclose(state.direction(i), x)
                    assert state.sigma[i] == sig
                    assert state.iterations[i] == it
        assert 1 in frozen

    def test_frozen_middle_shift_between_running_ones(self):
        # shift 1 is frozen by hand right after the first flush, while
        # shifts 0 and 2 still run: its row is then its flushed row alone,
        # which the passes around the gap must keep bitwise
        rng = np.random.default_rng(16)
        n = 20
        M = random_spd(n, rng)
        b = 10.0 * rng.standard_normal(n)
        grid = ShiftGrid([0.1, 1.0, 10.0])
        state = MultishiftState(lambda v: M @ v, b, grid, 1e-12, 2 * n)
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
        for i in (0, 2):
            assert state.statuses[i] == CONVERGED
            exact = np.linalg.solve(M + grid.lambdas[i] * np.eye(n), b)
            assert_allclose(state.direction(i), exact, rtol=1e-9)

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

    def test_step_norms_wait_for_the_end(self):
        # read mid-solve, they would be kept stale: the read raises
        rng = np.random.default_rng(15)
        M = random_spd(20, rng)
        state = MultishiftState(lambda v: M @ v, rng.standard_normal(20),
                                ShiftGrid([0.1, 10.0]), 1e-11, None)
        state.step()
        with pytest.raises(RuntimeError, match="still running"):
            state.step_norms
        sol = state.solve()
        rows = [sol.direction(i) for i in range(2)]
        assert_allclose(sol.step_norms, np.linalg.norm(rows, axis=1),
                        rtol=1e-12)

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
            assert abs(np.linalg.norm(r) - abs(sol.sigma[i])) <= \
                max(1e-8, 1e-8 * np.linalg.norm(b))
            assert abs(sol.sigma[i]) <= 1e-10


def certified_freezes(M, b, grid, tol):
    """Step a CG solve of (M + lambda_i I) x = b and check, at every pass,
    that the kernel's pivot sign is the curvature certificate; returns the
    number of shifts frozen ``indefinite``.

    p is a running shift's row of ``direction_rows(state)`` before
    ``step()``.  A shift the pass freezes ``indefinite`` must have
    p'(M + lambda I)p < 0, and every other shift that ran the pass
    p'(M + lambda I)p > 0.
    """
    state = MultishiftState(lambda v: M @ v, b, grid, tol, None)
    freezes = 0
    while not state.done:
        ran = np.flatnonzero(np.array(state.statuses) == RUNNING)
        p = direction_rows(state)[ran]
        curv = (np.einsum("ij,ij->i", p @ M, p)
                + grid.lambdas[ran] * np.einsum("ij,ij->i", p, p))
        state.step()
        indefinite = np.array(state.statuses)[ran] == INDEFINITE
        assert np.all(curv[indefinite] < 0.0), (state.j, ran[indefinite])
        assert np.all(curv[~indefinite] > 0.0), (state.j, ran[~indefinite])
        freezes += np.count_nonzero(indefinite)
    return freezes


class TestCurvatureCertificate:
    """The pivot's sign is the certificate: a shift is interrupted as soon
    as a conjugate direction of nonpositive curvature is certified, and
    never otherwise (Steihaug, SIAM J. Numer. Anal. 20, 1983)."""

    def test_negative_on_flagged_shift(self):
        # eigenvalue -2 + 1 < 0: the shift freezes on negative curvature
        M = np.diag([-2.0, 3.0])
        assert certified_freezes(M, np.array([1.0, 1.0]), ShiftGrid([1.0]),
                                 1e-12) == 1

    def test_matches_explicit_quadratic_form(self):
        # seeded draws on the default grid, dense M; the indefinite ones
        # freeze shifts, so both signs are checked
        grid = ShiftGrid.default()
        freezes = 0
        for spectrum in ("spread", "clustered", "indefinite"):
            for n in (1, 2, 5, 12, 20, 30, 48):
                for seed in range(15):
                    M, b, _ = seeded_system("cg", n, spectrum, seed)
                    freezes += certified_freezes(
                        M, b, grid, 1e-8 * np.linalg.norm(b))
        assert freezes > 0


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
def test_deadline_ends_the_solve_after_a_pass(kernel):
    """A deadline already past raises ``TimeExceeded`` after the first joint
    iteration; a later one lets the solve run to its end."""
    rng = np.random.default_rng(7)
    A = rng.standard_normal((12, 10))
    b = rng.standard_normal(12)
    grid = ShiftGrid.default()

    def start(deadline):
        if kernel == "cg":
            return MultishiftState(lambda v: A.T @ (A @ v), A.T @ b, grid,
                                   1e-8, None, deadline=deadline)
        return CglsState(lambda v: A @ v, lambda u: A.T @ u, b, grid, 1e-8,
                         None, deadline=deadline)

    state = start(time.perf_counter())
    with pytest.raises(TimeExceeded, match="iteration 0") as info:
        state.solve()
    assert info.value.status == "time_exceeded" and state.j == 0
    assert not state.done
    sol = start(time.perf_counter() + 1e3).solve()
    assert sol.total_iterations == start(None).solve().total_iterations > 1


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
@pytest.mark.parametrize("tol", [[1e-8, 1e-8], np.array([1e-8]), -1.0,
                                 np.nan, np.inf])
def test_tol_must_be_a_finite_nonnegative_scalar(kernel, tol):
    """One tolerance serves every shift: an array, even of one entry,
    raises, and so does a negative, NaN or infinite value."""
    grid = ShiftGrid([0.5, 5.0])
    with pytest.raises(ValueError, match="tol"):
        if kernel == "cg":
            multishift_cg(lambda v: v, np.ones(3), grid, tol=tol)
        else:
            multishift_cgls(lambda v: v, lambda u: u, np.ones(3), grid,
                            tol=tol)


def test_residual_equal_to_the_tolerance_converges():
    """A shift converges in the pass whose |sigma| equals its tolerance.

    A solve with tol = 0 records every pass's |sigma|; a second solve with
    the tolerance set to shift 1's value at pass 4, below those of the
    passes before, freezes that shift as converged after exactly 5 joint
    iterations.  A strict test would run it on.
    """
    rng = np.random.default_rng(0)
    M = random_spd(30, rng)
    b = rng.standard_normal(30)
    grid = ShiftGrid([0.1, 1.0, 10.0])
    state, sigmas = MultishiftState(lambda v: M @ v, b, grid, 0.0, None), []
    while not state.done:
        state.step()
        sigmas.append(abs(state.sigma[1]))
    assert min(sigmas[:4]) > sigmas[4]
    sol = multishift_cg(lambda v: M @ v, b, grid, tol=sigmas[4])
    assert sol.statuses[1] == CONVERGED and sol.iterations[1] == 5
    assert abs(sol.sigma[1]) == sigmas[4]


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
def test_breakdown_below_rounding_threshold(monkeypatch, kernel):
    """A Krylov space exhausted up to rounding ends the solve as converged.

    b lies in the span of two eigenvectors (left singular vectors for
    CGLS), so the second Lanczos pass leaves a rounding-size remainder:
    beta_next is positive but below the breakdown threshold, and tol = 0
    lets nothing but breakdown end the solve.  Read as a real Lanczos
    vector, that remainder would keep both shifts running to the 2n cap.
    """
    passes = record_passes(monkeypatch)
    rng = np.random.default_rng(144)
    n = 8
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = 0.01 * np.arange(1.0, n + 1.0)
    grid = ShiftGrid([1.0, 10.0])
    if kernel == "cg":
        M = (q * vals) @ q.T
        b = q[:, :2] @ rng.standard_normal(2)
        op, calls = counting_op(M)
        sol = multishift_cg(op, b, grid, tol=0.0)
    else:
        u, _ = np.linalg.qr(rng.standard_normal((n + 2, n)))
        A = (u * vals) @ q.T
        b = u[:, :2] @ rng.standard_normal(2)
        op, calls = counting_op(A)
        sol = multishift_cgls(op, lambda w: A.T @ w, b, grid, tol=0.0)
        M, b = A.T @ A, A.T @ b
    assert len(passes) == 2 and 0.0 < passes[-1][2] < 1e-16
    assert passes[-1][3] is None
    assert sol.statuses == (CONVERGED, CONVERGED)
    assert list(sol.iterations) == [2, 2]
    assert sol.total_iterations == calls["n"] == 2
    for i, lam in enumerate(grid.lambdas):
        exact = np.linalg.solve(M + lam * np.eye(n), b)
        assert_allclose(sol.direction(i), exact, rtol=1e-10)
