"""Status codes inside the kernels, status names at their boundary.

The shift block keeps one int8 code per shift.  ``state.statuses`` after
every pass and once the solve is done must be a tuple of the module's
string constants, and the solution's ``usable_mask``, which the
selection reads, must mark exactly the shifts named ``converged``.
Between them the solves below reach every status: ``running``,
``converged``, ``indefinite`` at a pivot, ``retired``, ``capped`` at
``max_iter`` and, for CGLS, ``capped`` at a nonpositive pivot.  A
``capped`` shift never lies within its tolerance, so the rule that only
converged shifts are usable loses no candidate.  The running shifts form
one index range after every pass.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcqk.arc import select_step
from arcqk.shifted_cg import (CAPPED, CONVERGED, INDEFINITE, RETIRED, RUNNING,
                              MultishiftState, ShiftGrid, multishift_cg)
from arcqk.shifted_cgls import CglsState, multishift_cgls

from kernel_systems import seeded_system

NAMES = (RUNNING, CONVERGED, INDEFINITE, CAPPED, RETIRED)


def check_names(statuses, m1):
    assert type(statuses) is tuple and len(statuses) == m1
    for s in statuses:
        assert type(s) is str and any(s is name for name in NAMES), s


def spectrum_system(kernel, n, eigenvalues, seed):
    """``make_state(max_iter, alpha)`` for one seeded system whose operator
    (A'A for CGLS) has the given eigenvalues."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    grid = ShiftGrid.default()
    if kernel == "cg":
        M = (q * eigenvalues) @ q.T
        b = rng.standard_normal(n)
        tol = 1e-8 * np.linalg.norm(b)
        return lambda max_iter, alpha: MultishiftState(
            lambda v: M @ v, b, grid, tol, max_iter, alpha=alpha)
    u, _ = np.linalg.qr(rng.standard_normal((n + 5, n)))
    A = (u * np.sqrt(eigenvalues)) @ q.T
    b = rng.standard_normal(n + 5)
    tol = 1e-8 * np.linalg.norm(A.T @ b)
    return lambda max_iter, alpha: CglsState(
        lambda v: A @ v, lambda w: A.T @ w, b, grid, tol, max_iter,
        alpha=alpha)


def checked_solve(make_state, max_iter, alpha):
    """Step a solve to its end, checking ``state.statuses`` after every pass;
    returns the solution and every status name seen."""
    seen = set()
    state = make_state(max_iter, alpha)
    m1 = state.lambdas.size
    while not state.done:
        state.step()
        check_names(state.statuses, m1)
        seen.update(state.statuses)
    sol = state.solve()
    assert sol is state                 # a finished solve is its solution
    usable = [s == CONVERGED for s in sol.statuses]
    assert sol.usable_mask.dtype == bool
    assert list(sol.usable_mask) == usable
    if any(usable[i] for i in range(m1) if sol.statuses[i] != INDEFINITE):
        _, j, _ = select_step(sol, 1.0 if alpha is None else alpha)
        assert usable[j]
    return sol, seen | set(sol.statuses)


SPREAD = np.logspace(-3, 3, 40)
INDEFINITE_SPREAD = SPREAD * np.where(np.arange(40) % 3 == 0, -1.0, 1.0)


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
def test_status_names_at_the_boundary(kernel):
    seen = set()
    make = spectrum_system(kernel, 40, SPREAD, 1)
    # no alpha: the shifts run and converge
    sol, names = checked_solve(make, None, None)
    assert CONVERGED in sol.statuses and RUNNING in names
    seen |= names
    # alpha: a prefix of small shifts retires
    sol, names = checked_solve(make, None, 1e-3)
    assert RETIRED in sol.statuses
    seen |= names
    # a cap of 3 passes leaves the slow shifts capped
    sol, names = checked_solve(make, 3, None)
    assert CAPPED in sol.statuses and sol.total_iterations == 3
    seen |= names
    if kernel == "cg":
        sol, names = checked_solve(
            spectrum_system("cg", 40, INDEFINITE_SPREAD, 2), None, None)
        assert INDEFINITE in sol.statuses
        seen |= names
        assert seen == set(NAMES)
    else:
        assert seen == set(NAMES) - {INDEFINITE}


def test_zero_rhs_reports_converged_names():
    state = MultishiftState(lambda v: v, np.zeros(4), ShiftGrid([1.0, 2.0]),
                            1e-8, None)
    check_names(state.statuses, 2)
    sol = state.solve()
    assert sol.statuses == (CONVERGED, CONVERGED)
    assert list(sol.usable_mask) == [True, True]


@settings(max_examples=80, deadline=None)
@given(kernel=st.sampled_from(["cg", "cgls"]), n=st.integers(1, 16),
       spectrum=st.sampled_from(["spread", "clustered", "indefinite"]),
       seed=st.integers(0, 2 ** 16), max_iter=st.integers(1, 6),
       log_tol=st.floats(-10.0, 0.0), alpha=st.sampled_from([None, 1e-2, 1.0]))
def test_capped_shifts_lie_above_their_tolerance(kernel, n, spectrum, seed,
                                                 max_iter, log_tol, alpha):
    """Short solves: every ``capped`` shift has a residual above the
    tolerance, and the usable shifts are the converged ones."""
    op, b, rhs = seeded_system(kernel, n, spectrum, seed)
    tol = 10.0 ** log_tol * np.linalg.norm(rhs)
    grid = ShiftGrid(np.logspace(-3, 3, 7))
    if kernel == "cg":
        sol = multishift_cg(lambda v: op @ v, b, grid, tol=tol,
                            max_iter=max_iter, alpha=alpha)
    else:
        sol = multishift_cgls(lambda v: op @ v, lambda w: op.T @ w, b, grid,
                              tol=tol, max_iter=max_iter, alpha=alpha)
    names = np.array(sol.statuses)
    capped = names == CAPPED
    assert np.all(np.abs(sol.sigma[capped]) > tol)
    assert np.array_equal(sol.usable_mask, names == CONVERGED)


def test_cgls_shift_capped_at_a_nonpositive_pivot_is_not_usable():
    """A CGLS shift frozen ``capped`` at a rounding-level pivot, before the
    ``max_iter`` cap, keeps a residual far above its tolerance and is
    never selected.

    A's singular values span nine decades, so the Gram operator's pivot
    delta + lambda - omega/gamma of the two smallest shifts rounds to <= 0
    after 30 of the solve's 31 joint iterations, well before the cap of 60.
    """
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 6))
    b = rng.standard_normal(10)
    u, _, vt = np.linalg.svd(A, full_matrices=False)
    A = (u * np.logspace(0, -9, 6)) @ vt
    tol = 1e-10 * np.linalg.norm(A.T @ b)
    sol = multishift_cgls(lambda v: A @ v, lambda w: A.T @ w, b,
                          ShiftGrid([1e-15, 1e-12, 1e-9, 1e-6]), tol=tol,
                          max_iter=60)
    assert sol.statuses[:2] == (CAPPED, CAPPED)
    assert np.all(sol.iterations[:2] < sol.total_iterations)
    assert sol.total_iterations < 60
    assert np.all(np.abs(sol.sigma[:2]) > tol)
    assert not sol.usable_mask[:2].any()
    for alpha in np.logspace(-6, 12, 19):
        assert select_step(sol, alpha)[1] >= 2


def running_span_gaps(kernel, spectrum, rhs_kind, n, seed, alpha, tol_frac):
    """The passes of one seeded solve after which the running shifts do not
    form one index range, as ``(pass, running indices)`` pairs."""
    op, b, rhs = seeded_system(kernel, n, spectrum, seed, rhs_kind)
    tol = tol_frac * np.linalg.norm(rhs)
    grid = ShiftGrid.default()
    if kernel == "cg":
        state = MultishiftState(lambda v: op @ v, b, grid, tol, None,
                                alpha=alpha)
    else:
        state = CglsState(lambda v: op @ v, lambda w: op.T @ w, b, grid, tol,
                          None, alpha=alpha)
    gaps = []
    while not state.done:
        state.step()
        run = np.flatnonzero(np.array(state.statuses) == RUNNING)
        if run.size and run[-1] - run[0] + 1 != run.size:
            gaps.append((state.j, run.tolist()))
    return gaps


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
def test_running_shifts_form_one_range(kernel):
    """The running shifts are one index range after every pass, with and
    without alpha.

    The kernels take one scalar tolerance, so in exact arithmetic the range
    holds for every call: each way a single shift freezes takes an end of
    the running range.  The pivot at a pass increases with lambda, so
    indefinite freezes take a prefix; |sigma| decreases with lambda, so
    convergence takes a suffix; retirement takes a prefix by its own rule.
    The cap and a breakdown freeze every running shift at once.  Only a
    freeze by hand makes a gap, as
    ``test_frozen_middle_shift_between_running_ones``
    (``tests/test_shifted_cg.py``) does on purpose.  The seeded draws cover
    the three spectra of ``seeded_system``, random and invariant right-hand
    sides, loose and tight tolerances.
    """
    cases = itertools.product(("spread", "clustered", "indefinite"),
                              ("random", "invariant"),
                              (1, 2, 5, 12, 20, 30, 48), range(3),
                              (None, 1e-2, 1.0), (1e-8, 1e-3))
    gaps = {case: found for case in cases
            if (found := running_span_gaps(kernel, *case))}
    assert not gaps
