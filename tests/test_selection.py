"""Vectorised step selection against the list-walking reference.

``arc.select_step`` and ``arc.advance_shift_on_failure`` read a solution's
status codes and ``usable_mask``.  The reference versions below walk the
string statuses one shift at a time, taking a shift as usable iff its
status is ``converged``.  On drawn hand-built solutions (with indefinite
prefixes, capped shifts of small and large residual, retired shifts and
score ties) and on drawn kernel solves, both must return the same indices,
the same alpha and the same exception.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcqk.arc import (AllShiftsIndefinite, GridExhausted,
                       advance_shift_on_failure, select_step)
from arcqk.shifted_cg import CAPPED, CONVERGED, INDEFINITE, RETIRED

from kernel_systems import hand_built, make_solver


def reference_select_step(solutions, alpha):
    statuses = solutions.statuses
    candidates = [i for i, s in enumerate(statuses) if s != INDEFINITE]
    if not candidates:
        raise AllShiftsIndefinite(
            "negative curvature certified for every shift in the grid")
    i_plus = candidates[0]
    norms = solutions.step_norms
    usable = [i for i in range(i_plus, len(statuses))
              if statuses[i] == CONVERGED]
    if not usable:
        raise GridExhausted(
            "no shift at or above the first definite one met its tolerance")
    scores = np.abs(alpha * solutions.lambdas[usable] - norms[usable])
    j = usable[int(np.argmin(scores))]
    return i_plus, j, solutions.direction(j)


def reference_advance(solutions, j, alpha, gamma1):
    target = gamma1 * alpha
    jj = j
    m1 = len(solutions.statuses)
    norms = solutions.step_norms
    while True:
        jj += 1
        while jj < m1 and solutions.statuses[jj] != CONVERGED:
            jj += 1
        if jj >= m1:
            raise GridExhausted(
                "the shift grid holds no sufficiently large values")
        a = float(norms[jj] / solutions.lambdas[jj])
        if not a > target:
            return jj, a


def outcome(fn, *args):
    """``fn(*args)``, or the type of the selection exception it raised."""
    try:
        return fn(*args)
    except (AllShiftsIndefinite, GridExhausted) as exc:
        return type(exc)


def check_against_reference(sol, alpha, gamma1):
    """Compare the selection and the failure walk from every shift with the
    reference; returns the selection's exception type or ``(i_plus, j)``."""
    m1 = sol.lambdas.size
    assert list(sol.usable_mask) == [s == CONVERGED for s in sol.statuses]
    got = outcome(select_step, sol, alpha)
    selected = outcome(reference_select_step, sol, alpha)
    if isinstance(selected, type):
        assert got is selected
    else:
        assert got[:2] == selected[:2]
        assert type(got[1]) is int
        assert np.array_equal(got[2], selected[2])
        selected = selected[:2]
    for j in range(m1):
        got = outcome(advance_shift_on_failure, sol, j, alpha, gamma1)
        want = outcome(reference_advance, sol, j, alpha, gamma1)
        assert got == want, j
        if not isinstance(got, type):
            assert type(got[0]) is int and type(got[1]) is float
    return selected


@st.composite
def fabricated(draw):
    """A hand-built solution.

    Shifts, norms, residuals and alpha are small multiples of powers of
    two, so that selection scores tie exactly and often.  The statuses
    start with a drawn indefinite prefix; capped shifts get residuals from
    0 to 2, which selection must not read.
    """
    m1 = draw(st.integers(1, 10))
    gaps = draw(st.lists(st.integers(1, 3), min_size=m1, max_size=m1))
    lambdas = np.cumsum(gaps) * draw(st.sampled_from([0.25, 1.0, 4.0]))
    norms = draw(st.lists(st.integers(0, 12), min_size=m1, max_size=m1))
    prefix = draw(st.integers(0, m1))
    statuses = [INDEFINITE] * prefix + draw(st.lists(
        st.sampled_from([CONVERGED, CONVERGED, CAPPED, RETIRED, INDEFINITE]),
        min_size=m1 - prefix, max_size=m1 - prefix))
    residuals = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                              min_size=m1, max_size=m1))
    return hand_built(lambdas, norms, statuses, residuals)


@settings(max_examples=300, deadline=None)
@given(sol=fabricated(), alpha=st.sampled_from([0.25, 0.5, 1.0, 2.0, np.inf]),
       gamma1=st.sampled_from([0.1, 0.5]))
def test_hand_built_solutions_select_as_the_reference(sol, alpha, gamma1):
    check_against_reference(sol, alpha, gamma1)


@pytest.mark.parametrize("statuses, residual, selected, walk_from_0", [
    ((INDEFINITE,) * 3, 0.0, AllShiftsIndefinite, GridExhausted),
    ((INDEFINITE, RETIRED, CAPPED), 2.0, GridExhausted, GridExhausted),
    ((CONVERGED, INDEFINITE, RETIRED), 0.0, (0, 0), GridExhausted),
    ((INDEFINITE, CAPPED, CONVERGED), 1.0, (1, 2), (2, 1.0 / 3.0)),
    ((INDEFINITE, CAPPED, CAPPED), 1.0, GridExhausted, GridExhausted),
])
def test_pinned_selection_outcomes(statuses, residual, selected, walk_from_0):
    """Both exceptions, and capped shifts never usable, whatever their
    residual: shifts 1, 2, ... with equal step norms and the residual
    norms ``residual``."""
    m1 = len(statuses)
    sol = hand_built(np.arange(1.0, m1 + 1), np.ones(m1), statuses,
                     np.full(m1, residual))
    assert check_against_reference(sol, 1.0, 0.1) == selected
    walk = outcome(advance_shift_on_failure, sol, 0, 10.0, 0.1)
    assert walk == walk_from_0


@settings(max_examples=40, deadline=None)
@given(kernel=st.sampled_from(["cg", "cgls"]),
       spectrum=st.sampled_from(["spread", "clustered", "indefinite"]),
       seed=st.integers(0, 2 ** 16), log_alpha=st.floats(-3.0, 3.0),
       retire=st.booleans())
def test_kernel_solutions_select_as_the_reference(kernel, spectrum, seed,
                                                  log_alpha, retire):
    alpha = 10.0 ** log_alpha
    sol = make_solver(kernel, 12, spectrum, seed, 1e-6)(
        alpha if retire else None)
    check_against_reference(sol, alpha, 0.1)
