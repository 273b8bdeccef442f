"""Lanczos conjugate gradient solving many diagonally shifted systems at once.

For a symmetric operator M and shifts 0 < lambda_0 < ... < lambda_m, one
joint Lanczos recurrence drives CG updates for every system
(M + lambda_i I) x = b: each iteration costs a single operator product no
matter how many shifts are requested.  Shifts whose operator turns out
indefinite are interrupted as soon as a conjugate direction of nonpositive
curvature is certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

RUNNING = "running"
CONVERGED = "converged"
INDEFINITE = "indefinite"
CAPPED = "capped"

_EPS = float(np.finfo(float).eps)


class ShiftGrid:
    """Strictly increasing positive shifts, bounded for double precision.

    ``beta`` is the sampling factor: consecutive shifts grow by beta**2.
    When not supplied it is inferred from the largest consecutive ratio.
    """

    MIN_SHIFT = 1e-15
    MAX_SHIFT = 1e15

    def __init__(self, lambdas, beta=None):
        lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("lambdas must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(lam)):
            raise ValueError("shift values must be finite")
        if np.any(lam < self.MIN_SHIFT * (1.0 - 1e-12)) or np.any(lam > self.MAX_SHIFT * (1.0 + 1e-12)):
            raise ValueError(
                f"shift values must lie in [{self.MIN_SHIFT:g}, {self.MAX_SHIFT:g}]")
        if lam.size > 1 and np.any(np.diff(lam) <= 0):
            raise ValueError("shift values must be strictly increasing")
        self.lambdas = lam
        if beta is None:
            beta = float(np.sqrt(np.max(lam[1:] / lam[:-1]))) if lam.size > 1 else np.sqrt(10.0)
        if not beta >= 1.0:
            raise ValueError("sampling factor beta must be >= 1")
        self.beta = float(beta)

    @classmethod
    def default(cls) -> "ShiftGrid":
        """Powers of ten covering the full double-precision range."""
        return cls(np.logspace(-15, 15, 31), beta=np.sqrt(10.0))

    def __len__(self):
        return self.lambdas.size

    def __getitem__(self, i):
        return float(self.lambdas[i])

    def __repr__(self):
        lam = self.lambdas
        return (f"ShiftGrid({lam[0]:g}..{lam[-1]:g}, m+1={lam.size}, "
                f"beta={self.beta:g})")


def _as_tolerances(tol, m1):
    t = np.asarray(tol, dtype=float)
    if t.ndim == 0:
        t = np.full(m1, float(t))
    if t.shape != (m1,):
        raise ValueError(f"tol must be scalar or have {m1} entries")
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("tolerances must be finite and nonnegative")
    return t


class MultishiftState:
    """Joint iteration state for all shifted systems.

    Per-shift scalars are (m+1,) arrays; the iterate and direction blocks
    ``x`` and ``p`` are stored shift-major as (m+1, n) C-contiguous arrays,
    one row per shift, so a shift's vector is contiguous in memory.  The
    Lanczos vectors are shared.  ``step`` advances every still-running shift
    by one CG update at the cost of one operator product.  Rows of shifts
    that converged, were flagged indefinite or hit the cap are frozen.
    """

    def __init__(self, apply_op, b, grid: ShiftGrid, tol, max_iter,
                 callback=None):
        b = np.asarray(b, dtype=float)
        n = b.size
        m1 = len(grid)
        self.lambdas = grid.lambdas
        self.tol = _as_tolerances(tol, m1)
        self.max_iter = int(max_iter)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self._apply_op = apply_op
        self._callback = callback

        beta0 = float(np.linalg.norm(b))
        self.v = b / beta0
        self.v_prev = np.zeros(n)
        self.beta = 0.0                       # multiplies v_{j-1}; unused at j=0
        _init_shift_block(self, b, beta0)
        self.operator_products = 0
        self.q = self._product(self.v)

    def _product(self, w):
        out = np.asarray(self._apply_op(w), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ValueError("operator returned non-finite values")
        self.operator_products += 1
        return out

    def step(self):
        """One joint Lanczos pass updating every running shift."""
        if self.done:
            raise RuntimeError("multishift solve already finished")
        j = self.j + 1
        v, q = self.v, self.q

        delta = float(v @ q)
        w = q - delta * v
        if j > 0:
            w = w - self.beta * self.v_prev
        beta_next = float(np.linalg.norm(w))
        breakdown = beta_next <= _EPS * (1.0 + float(np.linalg.norm(q)))
        v_next = None if breakdown else w / beta_next

        # Nonpositive pivot certifies p'(M + lam I)p <= 0 for that shift.
        if _shift_block_step(self, j, delta, beta_next, v_next, breakdown,
                             INDEFINITE):
            self.v_prev = v
            self.v = v_next
            self.beta = beta_next
            self.q = self._product(v_next)

        if self._callback is not None:
            self._callback(j, np.abs(self.sigma), tuple(self.status))


def _init_shift_block(state, rhs, beta0):
    """Per-shift recurrence state of a joint solve with right-hand side rhs."""
    m1 = state.lambdas.size
    state.x = np.zeros((m1, rhs.size))
    state.p = np.tile(rhs, (m1, 1))
    state.sigma = np.full(m1, beta0)      # signed; |sigma_j| = ||r_j||
    state.sigma_prev = state.sigma.copy()
    state.omega = np.zeros(m1)
    state.gamma = np.ones(m1)
    state.denom = np.zeros(m1)            # last CG pivot delta+lam-omega/gamma
    state.status = np.full(m1, RUNNING, dtype="<U16")
    state.iterations = np.zeros(m1, dtype=int)
    state.j = -1
    state.breakdown = False
    state.done = False


def _shift_block_step(state, j, delta, beta_next, v_next, breakdown,
                      pivot_status):
    """Advance every running shift by one CG update from Lanczos pass j.

    ``delta`` and ``beta_next`` are the Lanczos coefficients of the pass and
    ``v_next`` the next Lanczos vector (``None`` on breakdown).  A running
    shift whose pivot is nonpositive is frozen with ``pivot_status`` before
    dividing, keeping its last iterate.  The running shifts' rows of ``x``
    and ``p`` are updated as one row slice when they are contiguous, and
    through a row index otherwise.  Returns True when the solve goes on, so
    the caller must advance its Lanczos source; ``state.done`` then tells
    whether any shift still runs.
    """
    running = state.status == RUNNING
    state.denom[running] = (delta + state.lambdas[running]
                            - state.omega[running] / state.gamma[running])
    state.sigma_prev[running] = state.sigma[running]
    state.status[running & (state.denom <= 0.0)] = pivot_status

    act = np.flatnonzero(state.status == RUNNING)
    if act.size:
        g = 1.0 / state.denom[act]
        state.gamma[act] = g
        om = (beta_next * g) ** 2
        sig = -beta_next * g * state.sigma[act]
        state.sigma[act] = sig
        # A row slice is a view updated in place; a row index gathers
        # copies of whole rows, written back below.
        contiguous = act[-1] + 1 - act[0] == act.size
        rows = slice(act[0], act[-1] + 1) if contiguous else act
        x, p = state.x[rows], state.p[rows]
        x += p * g[:, None]
        p *= om[:, None]
        if not breakdown:
            p += sig[:, None] * v_next
        if not contiguous:
            state.x[rows] = x
            state.p[rows] = p
        state.omega[act] = om
        state.iterations[act] = j + 1
        state.status[act[np.abs(sig) <= state.tol[act]]] = CONVERGED

    state.j = j
    if breakdown:
        # Krylov space exhausted: remaining systems are solved exactly
        # within it, so finalize them as converged.
        state.breakdown = True
        state.status[state.status == RUNNING] = CONVERGED
        state.done = True
        return False
    if j + 1 >= state.max_iter:
        state.status[state.status == RUNNING] = CAPPED
        state.done = True
        return False
    state.done = not np.any(state.status == RUNNING)
    return True


def curvature_certificate(state: MultishiftState, i: int) -> float:
    """Signed value of p_j'(M + lambda_i I)p_j recovered from recurrences.

    Equal to sigma_j**2 / gamma_j, i.e. sigma_j**2 times the CG pivot, so its
    sign matches the curvature of the current conjugate direction.
    """
    if state.j < 0:
        raise ValueError("no iteration has been performed yet")
    return float(state.sigma_prev[i] ** 2 * state.denom[i])


@dataclass
class MultishiftSolution:
    """Per-shift directions and diagnostics of one multishift solve."""

    lambdas: np.ndarray
    # (n, m+1), one column per shift; after a solve, the transposed view of
    # the solver's shift-major (m+1, n) x block, not a copy
    directions: np.ndarray
    residual_norms: np.ndarray      # |sigma| at freeze time
    statuses: tuple
    iterations: np.ndarray
    tolerances: np.ndarray
    operator_products: int
    total_iterations: int

    def direction(self, i) -> np.ndarray:
        return self.directions[:, i].copy()

    @cached_property
    def step_norms(self) -> np.ndarray:
        """Per-shift ||d||, computed on first use and kept."""
        return np.linalg.norm(self.directions, axis=0)

    def usable(self, i) -> bool:
        """Whether shift i produced a direction fit for step selection."""
        if self.statuses[i] == CONVERGED:
            return True
        return (self.statuses[i] == CAPPED
                and self.residual_norms[i] <= self.tolerances[i])


def _solution(state) -> MultishiftSolution:
    """Package a finished joint solve; the directions view its x block."""
    return MultishiftSolution(
        lambdas=state.lambdas.copy(),
        directions=state.x.T,
        residual_norms=np.abs(state.sigma),
        statuses=tuple(state.status),
        iterations=state.iterations.copy(),
        tolerances=state.tol.copy(),
        operator_products=state.operator_products,
        total_iterations=state.j + 1)


def multishift_cg(apply_M, b, grid: ShiftGrid, tol=1e-8, max_iter=None,
                  callback=None) -> MultishiftSolution:
    """Solve (M + lambda_i I) x = b for every shift of the grid.

    Parameters
    ----------
    apply_M : callable
        Symmetric operator, ``apply_M(v) -> M @ v``.  Symmetry is the
        caller's contract and is not checked here.
    b : array
        Right-hand side.  A zero b yields all-zero converged solutions.
    grid : ShiftGrid
    tol : float or array
        Per-shift absolute residual tolerance.
    max_iter : int, optional
        Joint iteration cap, default ``2 * len(b)``.
    callback : callable, optional
        Called after each joint iteration with
        ``(j, per-shift |sigma|, statuses)``.
    """
    b = np.asarray(b, dtype=float)
    m1 = len(grid)
    if max_iter is None:
        max_iter = 2 * b.size
    if np.linalg.norm(b) == 0.0:
        return MultishiftSolution(
            lambdas=grid.lambdas.copy(),
            directions=np.zeros((m1, b.size)).T,
            residual_norms=np.zeros(m1),
            statuses=(CONVERGED,) * m1,
            iterations=np.zeros(m1, dtype=int),
            tolerances=_as_tolerances(tol, m1),
            operator_products=0,
            total_iterations=0)

    state = MultishiftState(apply_M, b, grid, tol, max_iter, callback=callback)
    while not state.done:
        state.step()
    return _solution(state)
