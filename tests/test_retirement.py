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

from arcqk.arc import (AllShiftsIndefinite, GridExhausted,
                       advance_shift_on_failure, select_step)
from arcqk.shifted_cg import (RETIRED, RUNNING, ShiftGrid, _retirees,
                              multishift_cg)
from arcqk.shifted_cgls import multishift_cgls


def make_solver(kernel, n, spectrum, seed, tol_frac):
    """``solve(alpha, callback=None)`` for one seeded CG or CGLS system.

    ``spectrum`` is "spread" (log-uniform over 8 decades), "clustered" (a
    few tight clusters) or "indefinite": for CG the eigenvalues below 1
    take random signs, for CGLS some singular values are zero.  The
    tolerance is ``tol_frac`` times the norm of the (normal-equations)
    right-hand side, as ARC's inner tolerance is a fraction of ||g||.
    Operator calls are counted in ``solve.calls``.
    """
    rng = np.random.default_rng(seed)
    vals = 10.0 ** rng.uniform(-4, 4, n)
    if spectrum == "clustered":
        centres = 10.0 ** rng.uniform(-2, 2, rng.integers(1, 4))
        vals = rng.choice(centres, n) * (1.0 + 1e-9 * rng.standard_normal(n))
    elif spectrum == "indefinite":
        if kernel == "cg":
            vals[vals < 1.0] *= rng.choice([-1.0, 1.0], np.sum(vals < 1.0))
        else:
            vals[rng.random(n) < 0.3] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    grid = ShiftGrid.default()
    calls = []

    if kernel == "cg":
        M = (q * vals) @ q.T
        b = rng.standard_normal(n)
        tol = tol_frac * np.linalg.norm(b)

        def apply_M(v):
            calls.append(1)
            return M @ v

        def solve(alpha, callback=None):
            calls.clear()
            return multishift_cg(apply_M, b, grid, tol=tol, alpha=alpha,
                                 callback=callback)
    else:
        u, _ = np.linalg.qr(rng.standard_normal((n + 2, n)))
        A = (u * vals) @ q.T
        b = rng.standard_normal(n + 2)
        tol = tol_frac * np.linalg.norm(A.T @ b)

        def apply_A(v):
            calls.append(1)
            return A @ v

        def solve(alpha, callback=None):
            calls.clear()
            return multishift_cgls(apply_A, lambda w: A.T @ w, b, grid,
                                   tol=tol, alpha=alpha, callback=callback)

    solve.calls = calls
    return solve


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

    assert lean.operator_products == lean.total_iterations == lean_calls
    assert plain.operator_products == plain.total_iterations == plain_calls
    assert lean.operator_products <= plain.operator_products
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
    assert all(i < j and not lean.usable(i) for i in retired)

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

    passes = []
    sol = solve(1.0, callback=lambda j, sig, statuses: passes.append(statuses))
    plain = solve(None)
    assert sol.operator_products < plain.operator_products
    # the last pass left no shift running, retired some, and formed no
    # product after it
    assert RUNNING not in passes[-1] and RETIRED in passes[-1]
    assert all(RUNNING in statuses for statuses in passes[:-1])
    assert sol.operator_products == len(passes)


def test_rule_retires_a_prefix_below_the_best_frozen_shift():
    lambdas = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    run = np.array([True, True, True, False, False, True])
    usable = np.array([False, False, False, True, True, False])
    # scores of the usable shifts 3 and 4: 0.5 and 3, so b = 3; bounds
    # ||x|| - lambda of the running shifts: 9, -1, 7 below b and 94 above
    norms = np.array([10.0, 1.0, 10.0, 4.5, 2.0, 100.0])
    assert list(_retirees(norms - lambdas, usable, run)) == [0]
    # the first bound that fails ends the prefix, and the bound is strict
    norms[1] = 2.75
    assert list(_retirees(norms - lambdas, usable, run)) == [0, 1, 2]
    norms[1] = 2.5
    assert list(_retirees(norms - lambdas, usable, run)) == [0]
    # no usable frozen shift: nothing retires
    assert list(_retirees(norms - lambdas, usable & False, run)) == []


def test_rule_breaks_score_ties_toward_the_smaller_shift():
    lambdas = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    run = np.array([True, True, False, True, False])
    usable = np.array([False, False, True, False, True])
    # shifts 2 and 4 both score 0.5: b = 2, so shift 3 stays running
    norms = np.array([10.0, 10.0, 2.5, 100.0, 5.5])
    assert list(_retirees(norms - lambdas, usable, run)) == [0, 1]
