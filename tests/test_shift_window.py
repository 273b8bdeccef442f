"""Coefficient-window shift block against the explicit row update.

The kernels keep the (m+1, n) iterate and direction blocks as coefficients
over a window of Lanczos vectors and form them by a matrix product when the
window fills.  Here every Lanczos pass a solve makes is recorded and replayed
through the explicit per-row recurrence ``x += g p``, ``p = om p + sig v``
on full (m+1, n) arrays, over solves long enough to fill the window at least
twice.  The solution of a solve keeps that block unformed: its step norms
and single rows are checked against the replayed rows and the formed
block on property-drawn solves.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcqk.shifted_cg as cg_mod
from arcqk.shifted_cg import (CAPPED, CONVERGED, INDEFINITE, RUNNING,
                              ShiftGrid, multishift_cg)
from arcqk.arc import advance_shift_on_failure, select_step
from arcqk.shifted_cgls import multishift_cgls

from kernel_systems import counted, record_passes, seeded_system


def reference_replay(lambdas, tol, max_iter, rhs, passes, pivot_status):
    """The explicit row update driven by recorded Lanczos passes at the
    solve's scalar tolerance ``tol``."""
    m1 = lambdas.size
    x = np.zeros((m1, rhs.size))
    p = np.tile(rhs, (m1, 1))
    sigma = np.full(m1, float(np.linalg.norm(rhs)))
    omega, gamma, denom = np.zeros(m1), np.ones(m1), np.zeros(m1)
    status = np.full(m1, RUNNING, dtype="<U16")
    iterations = np.zeros(m1, dtype=int)
    products = 1                                # formed before the first pass
    for j, delta, beta_next, v_next in passes:
        run = status == RUNNING
        denom[run] = delta + lambdas[run] - omega[run] / gamma[run]
        status[run & (denom <= 0.0)] = pivot_status
        act = np.flatnonzero(status == RUNNING)
        g = 1.0 / denom[act]
        om = (beta_next * g) ** 2
        sig = -beta_next * g * sigma[act]
        gamma[act], omega[act], sigma[act] = g, om, sig
        x[act] += p[act] * g[:, None]
        p[act] *= om[:, None]
        if v_next is not None:
            p[act] += sig[:, None] * v_next
        iterations[act] = j + 1
        status[act[np.abs(sig) <= tol]] = CONVERGED
        if v_next is None:                      # breakdown
            status[status == RUNNING] = CONVERGED
            break
        if j + 1 >= max_iter:
            status[status == RUNNING] = CAPPED
            break
        if not np.any(status == RUNNING):
            break
        products += 1
    return x, tuple(status), iterations, products


def cg_case(rng, n, calls):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = (q * np.logspace(-2, 2, n)) @ q.T
    b = rng.standard_normal(n)
    tol = 1e-10 * np.linalg.norm(b)
    sol = multishift_cg(counted(M, calls), b, ShiftGrid.default(), tol=tol)
    return sol, b, lambda lam: M + lam * np.eye(n), b, INDEFINITE, tol


def cgls_case(rng, n, calls):
    u, _ = np.linalg.qr(rng.standard_normal((2 * n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (u * np.logspace(-1, 1, n)) @ v.T
    b = rng.standard_normal(2 * n)
    apply_At = lambda w: A.T @ w                # noqa: E731
    rhs = apply_At(b)
    tol = 1e-10 * np.linalg.norm(rhs)
    sol = multishift_cgls(counted(A, calls), apply_At, b, ShiftGrid.default(),
                          tol=tol)
    return sol, rhs, lambda lam: A.T @ A + lam * np.eye(n), rhs, CAPPED, tol


@pytest.mark.parametrize("case", [cg_case, cgls_case], ids=["cg", "cgls"])
def test_window_matches_row_update(monkeypatch, case):
    flushes, real_flush = [], cg_mod._flush

    def counting_flush(state):
        flushes.append(state.j)
        real_flush(state)

    passes = record_passes(monkeypatch)
    monkeypatch.setattr(cg_mod, "_flush", counting_flush)
    calls = []
    sol, rhs, shifted, dense_rhs, pivot_status, tol = case(
        np.random.default_rng(21), 120, calls)

    m1 = sol.lambdas.size
    assert sol.total_iterations == len(passes) > 2 * m1
    assert len(flushes) >= 2
    x, statuses, iterations, products = reference_replay(
        sol.lambdas, tol, 2 * rhs.size, rhs, passes, pivot_status)
    assert sol.statuses == statuses
    assert np.array_equal(sol.iterations, iterations)
    assert sol.total_iterations == len(calls) == products
    for i in range(m1):
        d = sol.directions[:, i]
        assert np.linalg.norm(d - x[i]) <= 1e-12 * np.linalg.norm(x[i])
        if sol.statuses[i] == CONVERGED:
            exact = np.linalg.solve(shifted(sol.lambdas[i]), dense_rhs)
            assert np.linalg.norm(d - exact) <= 1e-6 * np.linalg.norm(exact)


# -- the lazy solution: norms and rows taken from the block ----------------

def solve_case(kernel, n, spectrum, rhs_kind, seed):
    """A CG or CGLS solve of ``seeded_system`` on the default grid.

    Returns the solution, the normal-equations right-hand side, the status
    a nonpositive pivot gives and the tolerance.
    """
    op, b, rhs = seeded_system(kernel, n, spectrum, seed, rhs_kind)
    grid = ShiftGrid.default()
    tol = 1e-10 * max(np.linalg.norm(rhs), 1.0)
    if kernel == "cg":
        sol = multishift_cg(lambda v: op @ v, b, grid, tol=tol)
        return sol, rhs, INDEFINITE, tol
    sol = multishift_cgls(lambda w: op @ w, lambda w: op.T @ w, b, grid,
                          tol=tol)
    return sol, rhs, CAPPED, tol


# Cases the random draws must not miss: long solves that flush the window,
# n = 1, an invariant-subspace right-hand side and a zero one.
COVERAGE = {
    "cg-flush": ("cg", 48, "spread", "random", 3),
    "cgls-flush": ("cgls", 48, "spread", "random", 3),
    "cg-indefinite-flush": ("cg", 48, "indefinite", "random", 5),
    "cg-n1": ("cg", 1, "spread", "random", 0),
    "cgls-invariant": ("cgls", 30, "clustered", "invariant", 1),
    "cg-zero": ("cg", 7, "spread", "zero", 0),
}


def test_coverage_cases_reach_their_regimes():
    sols = {k: solve_case(*case)[0] for k, case in COVERAGE.items()}
    m1 = len(ShiftGrid.default())
    for k in ("cg-flush", "cgls-flush", "cg-indefinite-flush"):
        assert sols[k].total_iterations > m1 and sols[k]._X is not None, k
    assert INDEFINITE in sols["cg-indefinite-flush"].statuses
    assert sols["cgls-invariant"].total_iterations <= 3
    assert sols["cg-zero"].total_iterations == 0


def _lazy_block_matches_formed_rows(kernel, n, spectrum, rhs_kind, seed):
    with pytest.MonkeyPatch.context() as mp:
        passes = record_passes(mp)
        sol, rhs, pivot_status, tol = solve_case(kernel, n, spectrum,
                                                 rhs_kind, seed)
    m1 = sol.lambdas.size

    # Rows formed one at a time, before any block exists, against the
    # explicit row update replayed from the recorded passes.
    rows = [sol.direction(i) for i in range(m1)]
    norms = sol.step_norms
    if not np.any(rhs):                     # b = 0, or A'b = 0 for CGLS
        assert not passes and sol.statuses == (CONVERGED,) * m1
        reference = np.zeros((m1, n))
    else:
        reference, statuses, _, _ = reference_replay(
            sol.lambdas, tol, 2 * n, rhs, passes, pivot_status)
        assert sol.statuses == statuses
    ref_norms = np.linalg.norm(reference, axis=1)
    for i in range(m1):
        assert (np.linalg.norm(rows[i] - reference[i])
                <= 1e-12 * ref_norms[i]), i

    # The formed block against the lazy answers.
    formed = sol.directions
    formed_norms = np.linalg.norm(formed, axis=0)
    assert np.all(np.abs(norms - formed_norms) <= 1e-12 * formed_norms)
    for i in range(m1):
        assert (np.linalg.norm(rows[i] - formed[:, i])
                <= 1e-12 * formed_norms[i]), i


@pytest.mark.parametrize("case", COVERAGE.values(), ids=COVERAGE.keys())
def test_lazy_block_matches_formed_rows_on_coverage_cases(case):
    _lazy_block_matches_formed_rows(*case)


@settings(max_examples=80, deadline=None)
@given(kernel=st.sampled_from(["cg", "cgls"]), n=st.integers(1, 48),
       spectrum=st.sampled_from(["spread", "clustered", "indefinite"]),
       rhs_kind=st.sampled_from(["random", "invariant", "zero"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lazy_block_matches_formed_rows(kernel, n, spectrum, rhs_kind, seed):
    _lazy_block_matches_formed_rows(kernel, n, spectrum, rhs_kind, seed)


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
def test_selection_forms_no_block(monkeypatch, kernel):
    """select_step plus one direction stays within the window's memory."""
    def no_flush(state):
        raise AssertionError("the (m+1, n) iterate block was formed")

    monkeypatch.setattr(cg_mod, "_flush", no_flush)
    n = 20000
    rng = np.random.default_rng(2)
    diag = rng.uniform(1.0, 2.0, n)
    b = rng.standard_normal(n)
    grid = ShiftGrid.default()
    if kernel == "cg":
        sol = multishift_cg(lambda v: diag * v, b, grid, tol=1e-8)
    else:
        sol = multishift_cgls(lambda v: diag * v, lambda u: diag * u, b,
                              grid, tol=1e-8)
    m1 = sol.lambdas.size
    assert sol.total_iterations < m1 and sol._X is None and sol._P is None

    tracemalloc.start()
    try:
        _, j, d = select_step(sol, 1.0)
        d_again = sol.direction(j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m1 * n * 8 // 4
    assert np.array_equal(d, d_again)


def _large_arrays(sol, n):
    """Names of the attributes that hold an array of n or more entries,
    alone or in a tuple; no attribute may hold a callable."""
    names = []
    for name, value in vars(sol).items():
        assert not callable(value), name
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray) and a.size >= n:
                names.append(name)
    return names


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
@pytest.mark.parametrize("rhs_kind", ["invariant", "random", "zero"])
def test_finished_solve_holds_only_its_block(kernel, rhs_kind):
    """A finished solve keeps no operator and no array of n or more entries
    but its blocks: ``W``, ``_X`` and ``_P``, which ``_blocks`` names again
    with their formed span, or the pair ``_blocks`` inherited.  The pass
    that freezes the last running shift drops the Lanczos vectors and the
    operator.  On a four-shift grid a clustered spectrum ends the solve
    within the window, a spread one with a random right-hand side flushes
    it and a zero right-hand side forms no product.  Each solve is then
    handed to a flushing solve of the same n and grid, and that one to a
    solve of the first system: a spent solve holds no such array at all,
    and a solve that took blocks holds only them."""
    n = 60
    spectrum = "spread" if rhs_kind == "random" else "clustered"
    system = seeded_system(kernel, n, spectrum, 0, rhs_kind)
    grid = ShiftGrid([1e-2, 1.0, 1e2, 1e4])

    def solve(system, spent=None):
        op, b, rhs = system
        tol = 1e-10 * np.linalg.norm(rhs)
        if kernel == "cg":
            return multishift_cg(lambda v: op @ v, b, grid, tol=tol,
                                 spent=spent)
        return multishift_cgls(lambda v: op @ v, lambda w: op.T @ w, b, grid,
                               tol=tol, spent=spent)

    sol = solve(system)
    assert (sol._X is None) == (rhs_kind != "random")
    assert (sol.total_iterations == 0) == (rhs_kind == "zero")
    assert set(_large_arrays(sol, n)) <= {"W", "_X", "_P", "_blocks"}
    flushed = solve(seeded_system(kernel, n, "spread", 1), spent=sol)
    assert flushed._X is not None
    last = solve(system, spent=flushed)
    assert last._blocks is not None
    assert (last._X is None) == (rhs_kind != "random")
    assert set(_large_arrays(last, n)) <= {"W", "_X", "_P", "_blocks"}
    assert _large_arrays(sol, n) == _large_arrays(flushed, n) == []


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
def test_flushed_solve_holds_three_blocks(monkeypatch, kernel):
    """A solve that flushes, then selection, the failure walk and one
    direction, peak at W, _X and _P plus chunk-sized temporaries."""
    flushes = []
    real_flush = cg_mod._flush

    def counting_flush(state):
        flushes.append(state.j)
        real_flush(state)

    monkeypatch.setattr(cg_mod, "_flush", counting_flush)
    n = 20000
    diag = np.logspace(0, 4, n)
    b = np.random.default_rng(3).standard_normal(n)
    grid = ShiftGrid.default()
    m1 = len(grid)
    tracemalloc.start()
    try:
        if kernel == "cg":
            sol = multishift_cg(lambda v: diag * v, b, grid, tol=1e-8,
                                max_iter=3 * m1)
        else:
            sol = multishift_cgls(lambda v: diag * v, lambda u: diag * u, b,
                                  grid, tol=1e-8, max_iter=3 * m1)
        _, j, d = select_step(sol, 1.0)
        advance_shift_on_failure(sol, j, 1.0, 0.1)
        d_again = sol.direction(j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(flushes) >= 2 and sol._X is not None
    assert peak < 3.5 * m1 * n * 8, peak / (m1 * n * 8)
    assert np.array_equal(d, d_again)


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
def test_flushed_step_norms_span_column_chunks(monkeypatch, kernel):
    """With 7-column chunks, a solve at n = 40 that flushes several times
    folds and sums over five full chunks and a 5-column tail: every step
    norm is the norm of its formed row, and the converged rows solve the
    dense shifted systems."""
    flushes = []
    real_flush = cg_mod._flush

    def counting_flush(state):
        flushes.append(state.j)
        real_flush(state)

    monkeypatch.setattr(cg_mod, "_CHUNK", 7)
    monkeypatch.setattr(cg_mod, "_flush", counting_flush)
    n = 40
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.logspace(-2, 2, n)
    grid = ShiftGrid(np.logspace(-3, 3, 7))
    if kernel == "cg":
        M = (q * vals) @ q.T
        b = rhs = rng.standard_normal(n)
        sol = multishift_cg(lambda v: M @ v, b, grid,
                            tol=1e-10 * np.linalg.norm(b))
    else:
        u, _ = np.linalg.qr(rng.standard_normal((n + 5, n)))
        A = (u * np.sqrt(vals)) @ q.T
        M = A.T @ A
        b = rng.standard_normal(n + 5)
        rhs = A.T @ b
        sol = multishift_cgls(lambda v: A @ v, lambda w: A.T @ w, b, grid,
                              tol=1e-10 * np.linalg.norm(rhs))

    assert len(flushes) >= 2 and sol._X is not None
    rows = [sol.direction(i) for i in range(grid.lambdas.size)]
    np.testing.assert_allclose(sol.step_norms, np.linalg.norm(rows, axis=1),
                               rtol=1e-12)
    assert np.count_nonzero(sol.usable_mask) >= 2
    for i in np.flatnonzero(sol.usable_mask):
        exact = np.linalg.solve(M + grid.lambdas[i] * np.eye(n), rhs)
        assert np.linalg.norm(rows[i] - exact) <= 1e-6 * np.linalg.norm(exact)
