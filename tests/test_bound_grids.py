"""Shift grids that touch ``ShiftGrid.MIN_SHIFT`` and ``MAX_SHIFT``.

Property-drawn small systems are solved on the grid [MIN_SHIFT, 1e-7, 1,
1e7, MAX_SHIFT] and each shift's status is checked against a dense
reference:

- a CG shift marked ``indefinite`` has lambda_min(M) + lambda <= 0;
- a ``converged`` shift's dense residual is at most
  4 (tol + 64 eps (||op|| + lambda) ||d||), where ||op|| is ||M|| for CG
  and ||A||^2 for CGLS: the tolerance plus the rounding of forming
  (op + lambda I) d at the extreme shifts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from arcqk.shifted_cg import CONVERGED, INDEFINITE, ShiftGrid, multishift_cg
from arcqk.shifted_cgls import multishift_cgls

GRID = ShiftGrid([ShiftGrid.MIN_SHIFT, 1e-7, 1.0, 1e7, ShiftGrid.MAX_SHIFT])
EPS = np.finfo(float).eps


def residual_bound(tol, op_norm, lam, d):
    return 4.0 * (tol + 64.0 * EPS * (op_norm + lam) * np.linalg.norm(d))


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       signed=st.booleans(), tol_frac=st.sampled_from([1e-10, 1e-6, 1e-2]))
def test_cg_statuses_hold_at_the_grid_bounds(n, seed, signed, tol_frac):
    rng = np.random.default_rng(seed)
    vals = 10.0 ** rng.uniform(-6.0, 6.0, n)        # |eigenvalues|: 12 decades
    if signed:
        vals *= rng.choice([-1.0, 1.0], n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = (q * vals) @ q.T
    M = 0.5 * (M + M.T)
    b = rng.standard_normal(n)
    tol = tol_frac * np.linalg.norm(b)
    sol = multishift_cg(lambda v: M @ v, b, GRID, tol=tol)
    eig = np.linalg.eigvalsh(M)
    op_norm = np.abs(eig).max()
    for i, (lam, status) in enumerate(zip(GRID.lambdas, sol.statuses)):
        if status == INDEFINITE:
            assert eig[0] + lam <= 0.0, (i, eig[0], lam)
        elif status == CONVERGED:
            d = sol.direction(i)
            res = np.linalg.norm(M @ d + lam * d - b)
            assert res <= residual_bound(tol, op_norm, lam, d), (i, res)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       tol_frac=st.sampled_from([1e-10, 1e-6, 1e-2]))
def test_cgls_converged_shifts_hold_at_the_grid_bounds(n, seed, tol_frac):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(0.0, 3.0, n)       # columns: 3 decades
    A = rng.standard_normal((n + 3, n)) * scales
    b = rng.standard_normal(n + 3)
    atb = A.T @ b
    tol = tol_frac * np.linalg.norm(atb)
    sol = multishift_cgls(lambda v: A @ v, lambda u: A.T @ u, b, GRID,
                          tol=tol)
    op_norm = np.linalg.norm(A, 2) ** 2
    for i, (lam, status) in enumerate(zip(GRID.lambdas, sol.statuses)):
        if status == CONVERGED:
            d = sol.direction(i)
            res = np.linalg.norm(A.T @ (A @ d) + lam * d - atb)
            assert res <= residual_bound(tol, op_norm, lam, d), (i, res)
