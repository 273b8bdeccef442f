"""Lanczos-CGLS solving regularized normal equations for many shifts at once.

Solves (A'A + lambda_i I) x = A'b for all grid shifts using only products
with A and A', never forming A'A (CG on the explicitly formed normal
equations is prone to accumulation of rounding errors).  The Gram operator
has delta_j = ||A v_j||^2 >= 0, so no negative-curvature interruption can
occur for positive shifts.
"""

from __future__ import annotations

import numpy as np

from .shifted_cg import (CAPPED, CONVERGED, MultishiftSolution, ShiftGrid,
                         _as_tolerances, _EPS, _init_shift_block,
                         _shift_block_step, _ShiftBlock, _solution)


class CglsState(_ShiftBlock):
    """Joint iteration state of the shifted CGLS recurrences.

    The per-shift arrays and the shift-major (m+1, n) ``x``/``p`` blocks,
    held as a coefficient window, are those of the plain multishift solver
    and go through the same shift-block update; only the Lanczos source
    differs.  It runs through auxiliary row-space vectors u_j, with one
    product by A and one by A' per joint iteration.
    """

    def __init__(self, apply_A, apply_At, b, grid: ShiftGrid, tol, max_iter,
                 callback=None):
        b = np.asarray(b, dtype=float)
        self.lambdas = grid.lambdas
        self.tol = _as_tolerances(tol, len(grid))
        self._apply_A = apply_A
        self._apply_At = apply_At
        self._callback = callback
        self.operator_products = 0           # products with A

        u = b.copy()
        atb = self._tprod(u)
        beta0 = float(np.linalg.norm(atb))  # norm of the normal-equations rhs
        n = atb.size
        self.max_iter = int(2 * n if max_iter is None else max_iter)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        _init_shift_block(self, atb, beta0)
        if beta0 == 0.0:
            # A'b = 0: the zero vector solves every shifted system.
            self.status[:] = CONVERGED
            self.done = True
            return
        self.v = atb / beta0
        self.u = u / beta0
        self.u_prev = np.zeros(b.size)
        self.beta = beta0                   # multiplies u_{j-1}; unused at j=0
        self.q = self._prod(self.v)         # u-tilde for the first pass

    def _prod(self, w):
        out = np.asarray(self._apply_A(w), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ValueError("operator A returned non-finite values")
        self.operator_products += 1
        return out

    def _tprod(self, w):
        out = np.asarray(self._apply_At(w), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ValueError("operator A' returned non-finite values")
        return out

    def step(self):
        """One joint pass: one A product, one A' product, block updates."""
        if self.done:
            raise RuntimeError("multishift solve already finished")
        j = self.j + 1
        ut = self.q                          # A v_j, shares storage with u_{j+1}

        delta = float(ut @ ut)
        u_next = ut - delta * self.u
        if j > 0:
            u_next = u_next - self.beta * self.u_prev
        atu = self._tprod(u_next)
        beta_next = float(np.linalg.norm(atu))
        breakdown = beta_next <= _EPS * (1.0 + delta)
        v_next = None if breakdown else atu / beta_next

        # The Gram operator is positive semidefinite; a nonpositive pivot can
        # only be a rounding artifact, so freeze that shift instead of
        # reporting indefiniteness.
        if _shift_block_step(self, j, delta, beta_next, v_next, breakdown,
                             CAPPED):
            self.u_prev = self.u
            self.u = u_next / beta_next
            self.v = v_next
            self.beta = beta_next
            self.q = self._prod(v_next)

        if self._callback is not None:
            self._callback(j, np.abs(self.sigma), tuple(self.status))


def multishift_cgls(apply_A, apply_At, b, grid: ShiftGrid, tol=1e-8,
                    max_iter=None, callback=None) -> MultishiftSolution:
    """Solve (A'A + lambda_i I) x = A'b for every shift of the grid.

    ``apply_A`` maps length-n vectors to length-m vectors and ``apply_At``
    must be its adjoint (validated by the problem-level adjoint check, not
    here).  Each joint iteration costs one product with A and one with A';
    ``operator_products`` counts the products with A.  Convergence is gated
    on the shifted-system residual ||A'b - (A'A + lambda_i I) x||, whose
    norm is recurred as |sigma|.
    """
    state = CglsState(apply_A, apply_At, b, grid, tol, max_iter,
                      callback=callback)
    while not state.done:
        state.step()
    return _solution(state)
