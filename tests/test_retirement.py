"""Shift retirement: a solve given ARC's alpha against the same solve without.

With ``alpha`` the kernels retire running shifts that ``select_step`` at
that alpha can no longer pick (see ``shifted_cg._shift_block_step``).  On
property-drawn CG and CGLS solves (spread, clustered and indefinite
spectra, drawn alpha and tolerance) the selection, the chosen direction
and the failure walk must be those of the solve without alpha, retired
shifts must lie below the selection and never be usable, and the solve may
only form fewer products.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcqk.shifted_cg as cg_mod
from arcqk.arc import (AllShiftsIndefinite, GridExhausted,
                       advance_shift_on_failure, select_step)
from arcqk.shifted_cg import (_CONVERGED, _INDEFINITE, _RETIRED, _RUNNING,
                              CONVERGED, INDEFINITE, RETIRED, RUNNING,
                              MultishiftSolution, MultishiftState, ShiftGrid,
                              _exact_norms, _freeze, _retire, _retirees)
from arcqk.shifted_cgls import CglsState

from kernel_systems import counted, direction_rows, make_solver


def failure_walk(sol, j, alpha, gamma1=0.1):
    """Every (index, alpha) stop of repeated failures from shift j."""
    stops = []
    while True:
        try:
            j, alpha = advance_shift_on_failure(sol, j, alpha, gamma1)
        except GridExhausted:
            return stops
        stops.append((j, alpha))


def selection(sol, alpha):
    try:
        return select_step(sol, alpha)
    except (AllShiftsIndefinite, GridExhausted) as exc:
        return type(exc)


def check_same_selection(solve, alpha):
    """The solve with alpha selects and walks as the solve without."""
    plain = solve(None)
    plain_calls = len(solve.calls)
    lean = solve(alpha)
    lean_calls = len(solve.calls)

    assert lean.total_iterations == lean_calls
    assert plain.total_iterations == plain_calls
    assert lean_calls <= plain_calls
    assert RETIRED not in plain.statuses
    retired = [i for i, s in enumerate(lean.statuses) if s == RETIRED]
    for i in range(plain.lambdas.size):
        if i not in retired:
            assert lean.statuses[i] == plain.statuses[i], i
            assert lean.iterations[i] == plain.iterations[i], i

    before, after = selection(plain, alpha), selection(lean, alpha)
    if isinstance(before, type):
        assert after is before and not retired
        return retired
    _, j, d = before
    _, j_lean, d_lean = after
    assert j_lean == j
    assert np.linalg.norm(d_lean - d) <= 1e-12 * np.linalg.norm(d)
    assert all(i < j and not lean.usable_mask[i] for i in retired)

    walk = failure_walk(plain, j, alpha)
    walk_lean = failure_walk(lean, j, alpha)
    assert [i for i, _ in walk_lean] == [i for i, _ in walk]
    for (_, a), (_, a_lean) in zip(walk, walk_lean):
        assert a_lean == pytest.approx(a, rel=1e-10)
    return retired


@settings(max_examples=120, deadline=None)
@given(kernel=st.sampled_from(["cg", "cgls"]), n=st.integers(1, 48),
       spectrum=st.sampled_from(["spread", "clustered", "indefinite"]),
       seed=st.integers(0, 2 ** 32 - 1),
       log_tol=st.floats(-10.0, np.log10(0.9)),
       log_alpha=st.floats(-6.0, 6.0))
def test_alpha_keeps_selection_and_walk(kernel, n, spectrum, seed, log_tol,
                                        log_alpha):
    solve = make_solver(kernel, n, spectrum, seed, 10.0 ** log_tol)
    check_same_selection(solve, 10.0 ** log_alpha)


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
def test_fixed_case_retires_and_stops(kernel):
    """Small shifts retire, and no product follows the last one running.

    The eigenvalues (singular values for CGLS) spread over [1e-4, 1e4] and
    the tolerance is tight, so the shifts below the smallest eigenvalue
    converge last.  Their ||x|| soon exceeds alpha * lambda by more than
    the score of the frozen shift near ||d|| = lambda, so they retire as a
    prefix of the grid and the solve ends well before the 2n cap.
    """
    solve = make_solver(kernel, 20, "spread", 1, 1e-8)
    retired = check_same_selection(solve, 1.0)
    assert retired and retired == list(range(len(retired)))

    state, passes = solve.start(1.0), []
    while not state.done:
        state.step()
        passes.append(state.statuses)
    sol = state.solve()
    sol_calls = len(solve.calls)
    plain = solve(None)
    assert sol_calls < len(solve.calls)
    # the last pass left no shift running, retired some, and formed no
    # product after it
    assert RUNNING not in passes[-1] and RETIRED in passes[-1]
    assert all(RUNNING in statuses for statuses in passes[:-1])
    assert sol.total_iterations == sol_calls == len(passes)


SYSTEMS = [("cg", "spread"), ("cg", "clustered"), ("cg", "indefinite"),
           ("cgls", "spread"), ("cgls", "indefinite")]


@pytest.mark.parametrize("alpha", [1.0, None])
@pytest.mark.parametrize("kernel,spectrum", SYSTEMS)
def test_frozen_rows_and_norm_weights_hold_until_the_first_flush(
        kernel, spectrum, alpha):
    """What ``_retire``'s estimate rests on: before a solve's first flush a
    frozen shift's row of ``Y`` stays bitwise the row it froze with (the
    pass adds g p with g = 0, exact zeros) and the column weights ``wsq``
    never change.  So the estimated norm of a converged shift, taken at any
    later pass, is the one taken at the pass it converged in."""
    checked = 0
    for seed in range(3):
        for n in (5, 20, 48):
            state = make_solver(kernel, n, spectrum, seed, 1e-6).start(alpha)
            wsq, rows = state.wsq.tobytes(), {}
            while not state.done:
                state.step()
                if state._X is not None:        # the flush rewrote Y
                    break
                assert state.wsq.tobytes() == wsq
                for i in np.flatnonzero(~state.run):
                    checked += i in rows
                    row = rows.setdefault(i, state.Y[i].tobytes())
                    assert state.Y[i].tobytes() == row, (seed, n, i, state.j)
    assert checked > 0


def retire_with_exact_norms(state):
    """``_retire`` without the estimate: the rule on exact norms at every
    pass."""
    if state.alpha_lam is None or state._X is not None:
        return
    usable = np.flatnonzero(state.usable_mask)
    if usable.size:
        _freeze(state, _retirees(_exact_norms(state), state.alpha_lam,
                                 usable, state.run), _RETIRED)


@pytest.mark.parametrize("kernel,spectrum", SYSTEMS)
def test_estimate_delays_no_retirement(monkeypatch, kernel, spectrum):
    """The estimated norms only decide when the exact rule is applied: on
    seeded solves that retire, every shift retires at the pass at which
    the exact rule, applied at every pass, retires it."""
    retired = 0
    for seed in range(4):
        for alpha in (1e-2, 1.0, 1e2):
            solve = make_solver(kernel, 30, spectrum, seed, 1e-8)
            sol = solve(alpha)
            with monkeypatch.context() as mp:
                mp.setattr(cg_mod, "_retire", retire_with_exact_norms)
                exact = solve(alpha)
            assert sol.statuses == exact.statuses, (seed, alpha)
            assert np.array_equal(sol.iterations, exact.iterations)
            retired += RETIRED in sol.statuses
    assert retired > 0


def new_state(kernel, alpha, calls, seed=0, n=60):
    """A seeded CG or CGLS state on the default grid, stepped by hand.

    The operator's spectrum (of A'A for CGLS) is log-uniform over
    [1e-3, 1e3] and the tolerance 1e-8 of the right-hand side's norm.
    Each product with M (A for CGLS) appends to the list ``calls``.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    grid = ShiftGrid.default()
    if kernel == "cg":
        M = (q * np.logspace(-3, 3, n)) @ q.T
        b = rng.standard_normal(n)
        return MultishiftState(counted(M, calls), b, grid,
                               1e-8 * np.linalg.norm(b), None, alpha=alpha)
    u, _ = np.linalg.qr(rng.standard_normal((n + 10, n)))
    A = (u * np.logspace(-1.5, 1.5, n)) @ q.T
    b = rng.standard_normal(n + 10)
    return CglsState(counted(A, calls), lambda w: A.T @ w, b, grid,
                     1e-8 * np.linalg.norm(A.T @ b), None, alpha=alpha)


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
def test_reading_x_and_p_leaves_the_solve_alone(kernel):
    """Reading the iterate block (``directions``) and the direction block
    (``direction_rows``) after every pass changes nothing in the solve.

    Retirement reads the window coefficients, and stops for good once the
    window has been flushed.  A read that folded the window into the
    flushed rows switched it off, and this solve then ran to its 2n cap.
    """
    plain_calls, calls = [], []
    plain = new_state(kernel, 1e-3, plain_calls).solve()
    state = new_state(kernel, 1e-3, calls)
    while not state.done:
        state.step()
        state.directions, direction_rows(state)
    seen = state.solve()
    assert RETIRED in plain.statuses
    assert plain.total_iterations < 2 * plain.W.shape[1]
    assert seen.statuses == plain.statuses
    assert np.array_equal(seen.iterations, plain.iterations)
    assert seen.total_iterations == plain.total_iterations
    assert seen.total_iterations == len(calls) == len(plain_calls)
    for i in range(plain.lambdas.size):
        assert np.array_equal(seen.direction(i), plain.direction(i)), i


def test_rule_retires_a_prefix_below_the_best_frozen_shift():
    lambdas = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    run = np.array([True, True, True, False, False, True])
    usable = np.array([3, 4])
    # scores of the usable shifts 3 and 4: 0.5 and 3, so b = 3; bounds
    # ||x|| - lambda of the running shifts: 9, -1, 7 below b and 94 above
    norms = np.array([10.0, 1.0, 10.0, 4.5, 2.0, 100.0])
    assert list(_retirees(norms, lambdas, usable, run)) == [0]
    # the first bound that fails ends the prefix, and the bound is strict
    norms[1] = 2.75
    assert list(_retirees(norms, lambdas, usable, run)) == [0, 1, 2]
    norms[1] = 2.5
    assert list(_retirees(norms, lambdas, usable, run)) == [0]


def test_estimate_scores_only_the_usable_shifts():
    """The estimate picks b among the usable shifts, as the exact rule
    does: an indefinite shift whose ||x|| is alpha lambda exactly does not
    keep the running shift above it from retiring."""
    sol = MultishiftSolution()
    sol._open(np.array([1.0, 0.0]), 1.0, ShiftGrid([1.0, 2.0, 3.0]), 0.0,
              None, 1.0, None)
    sol.codes[:] = _INDEFINITE, _RUNNING, _CONVERGED
    sol.run[:] = False, True, False
    # ||x_i|| = Y[i, 1], W[0] being a unit vector: scores 0 (indefinite)
    # and 0.5 (b = 2), bound 8 for the running shift
    sol.Y[:, 1] = 1.0, 10.0, 3.5
    _retire(sol)
    assert sol.statuses == (INDEFINITE, RETIRED, CONVERGED)


def test_rule_breaks_score_ties_toward_the_smaller_shift():
    lambdas = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    run = np.array([True, True, False, True, False])
    usable = np.array([2, 4])
    # shifts 2 and 4 both score 0.5: b = 2, so shift 3 stays running
    norms = np.array([10.0, 10.0, 2.5, 100.0, 5.5])
    assert list(_retirees(norms, lambdas, usable, run)) == [0, 1]
