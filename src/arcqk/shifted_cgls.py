"""Lanczos-CGLS solving regularized normal equations for many shifts at once.

Solves (A'A + lambda_i I) x = A'b for all grid shifts using only products
with A and A', never forming A'A (CG on the explicitly formed normal
equations is prone to accumulation of rounding errors).  The Gram operator
has delta_j = ||A v_j||^2 >= 0, so no negative-curvature interruption can
occur for positive shifts.
"""

from __future__ import annotations

import math

import numpy as np

from .shifted_cg import (_CAPPED, _EPS, MultishiftSolution, ShiftGrid,
                         _product, _shift_block_step)


class CglsState(MultishiftSolution):
    """Joint Lanczos-CGLS on A'A, for the right-hand side A'b.

    The Lanczos source runs through auxiliary row-space vectors u_j, with
    one product by A and one by A' per joint iteration.  The right-hand
    side A'b costs one more product by A' unless the caller passes it as
    ``atb``.
    """

    def __init__(self, apply_A, apply_At, b, grid: ShiftGrid, tol, max_iter,
                 alpha=None, atb=None, spent=None):
        b = np.asarray(b, dtype=float)
        atb = np.asarray(apply_At(b) if atb is None else atb, dtype=float)
        # beta0 = ||A'b||: ``_limits`` certifies the normal-equations rhs
        beta0 = self._open(atb, atb @ atb, grid, tol, max_iter, alpha, spent)
        if self.done:
            return
        self._apply_A = apply_A
        self._apply_At = apply_At
        self.u = b / beta0
        self.u_prev = None                  # u_{j-1}; none at j=0
        self.beta = beta0                   # multiplies u_{j-1}; unused at j=0
        # A v_0 with v_0 = A'b / beta0, u-tilde for the first pass, and
        # its squared norm, the first pass's delta
        self.q, self.qq = _product(apply_A, atb / beta0)

    def step(self):
        """One joint pass: one A product, one A' product, block updates.

        u_{j+1} is formed in place in one new n-vector, as ``MultishiftState``
        forms w, with the dead ``u_prev`` scaled by beta in place.
        ``q`` = A v_j and ``atu`` = A'u belong to the operators and are
        never written, so v_next is a new array, and u_{j+1} is normalised
        only after v_next is formed: A' may return its argument.  The pass
        that freezes the last running shift drops ``u``, ``u_prev``, ``q``
        and both operators.
        """
        if self.done:
            raise RuntimeError("multishift solve already finished")
        j = self.j + 1
        ut = self.q                          # A v_j, u-tilde of u_{j+1}

        delta = self.qq                      # ||A v_j||^2
        u_next = np.multiply(self.u, delta)
        np.subtract(ut, u_next, out=u_next)
        if j > 0:
            u_next -= np.multiply(self.u_prev, self.beta, out=self.u_prev)
        atu, bb = _product(self._apply_At, u_next)
        beta_next = math.sqrt(bb)
        v_next = (None if beta_next <= _EPS * (1.0 + delta)
                  else atu / beta_next)

        # The Gram operator is positive semidefinite; a nonpositive pivot can
        # only be a rounding artifact, so freeze that shift instead of
        # reporting indefiniteness.
        if _shift_block_step(self, j, delta, beta_next, v_next, _CAPPED):
            self.u_prev = self.u
            self.u = np.divide(u_next, beta_next, out=u_next)
            self.beta = beta_next
            self.q, self.qq = _product(self._apply_A, v_next)
        else:
            self.u = self.u_prev = self.q = None
            self._apply_A = self._apply_At = None


def multishift_cgls(apply_A, apply_At, b, grid: ShiftGrid, tol=1e-8,
                    max_iter=None, alpha=None, deadline=None,
                    atb=None, spent=None) -> CglsState:
    """Solve (A'A + lambda_i I) x = A'b for every shift of the grid;
    returns the finished solve.

    ``apply_A`` maps length-n vectors to length-m vectors and ``apply_At``
    must be its adjoint (validated by the problem-level adjoint check, not
    here).  Each joint iteration costs one product with A and one with A',
    so ``total_iterations`` counts the products with A.  Convergence is gated
    on the shifted-system residual ||A'b - (A'A + lambda_i I) x||, whose
    norm is recurred as |sigma|.  ``alpha`` retires shifts, ``deadline``
    ends the solve and ``spent`` hands over its blocks as in
    ``multishift_cg``.  ``atb`` is A'b when the
    caller already holds it (the Gauss-Newton gradient, negated), which
    saves the solve's first product with A'; ``None`` forms it.  A'b is
    the right-hand side that ``multishift_cg``'s rule checks: a non-finite
    or overflowing ||A'b||^2 raises ``ValueError``.
    """
    return CglsState(apply_A, apply_At, b, grid, tol, max_iter, alpha=alpha,
                     atb=atb, spent=spent).solve(deadline)
