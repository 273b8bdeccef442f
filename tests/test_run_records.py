"""Run records hold scalars only; each trial's step goes to the callback.

A trace entry per trial that kept the step would grow the run's memory by
one n-vector per trial, so at large n the record would outweigh the
solver.  These tests run every outer-loop path at n = 1000.
"""

import dataclasses

import numpy as np
import pytest

from arcqk.arc import arcqk_minimize, arcqk_minimize_gauss_newton
from arcqk.problems import LeastSquaresProblem, make_extrosenbrock
from arcqk.steihaug import st_minimize

from audits import StepLog

N = 1000


def extrosenbrock_ls(n=N):
    """Extended Rosenbrock as least squares: F = (10 (b - a^2), 1 - a)."""
    def residual(x):
        a, b = x[0::2], x[1::2]
        return np.concatenate([10.0 * (b - a ** 2), 1.0 - a])

    def jprod(x, v):
        a, va, vb = x[0::2], v[0::2], v[1::2]
        return np.concatenate([10.0 * vb - 20.0 * a * va, -va])

    def jtprod(x, u):
        a, h = x[0::2], n // 2
        out = np.empty(n)
        out[0::2] = -20.0 * a * u[:h] - u[h:]
        out[1::2] = 10.0 * u[:h]
        return out

    return LeastSquaresProblem("extrosenbrockls", n, n,
                               make_extrosenbrock(n).x0, residual, jprod,
                               jtprod)


@pytest.mark.parametrize("solve, make", [
    (arcqk_minimize, make_extrosenbrock),
    (arcqk_minimize_gauss_newton, extrosenbrock_ls),
    (st_minimize, make_extrosenbrock),
], ids=["arc", "arc_gauss_newton", "st"])
def test_trace_records_hold_no_array(solve, make):
    problem = make(N)
    steps = StepLog()
    state, _ = solve(problem, callback=steps)
    assert state.status == "first_order_stationary"
    assert len(steps) == len(state.trace) > 1
    assert all(d.shape == (N,) for d in steps)
    arrays = {f.name for rec in state.trace for f in dataclasses.fields(rec)
              if isinstance(getattr(rec, f.name), np.ndarray)}
    assert arrays == set()
