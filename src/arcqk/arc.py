"""Adaptive cubic regularization driven by a multishift Krylov kernel.

Each outer iteration solves the shifted Newton systems
(H(x) + lambda_i I) d = -g(x) for a whole grid of shifts in one multishift
solve, then picks the shift that best matches the cubic-model optimality
condition lambda = ||d|| / alpha.  Rejected steps do not trigger a new
solve: the loop advances to the next precomputed shift, which also drives
the regularization parameter down by at least a factor gamma1.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .problems import LeastSquaresProblem, SmoothProblem
from .records import BenchRecord, record_status
from .shifted_cg import (_INDEFINITE, MultishiftSolution, ShiftGrid,
                         TimeExceeded, _closest, multishift_cg)
from .shifted_cgls import multishift_cgls

_EPS = float(np.finfo(float).eps)

STATUS_RUNNING = "running"
STATUS_STATIONARY = "first_order_stationary"
STATUS_MAX_ITER = "max_iter"
STATUS_TIME = TimeExceeded.status
STATUS_UNBOUNDED = "unbounded_below"
STATUS_GRID_EXHAUSTED = "grid_exhausted"
STATUS_TOO_INDEFINITE = "hessian_too_indefinite"

# The largest regularization weight, the counterpart of ST's
# ``steihaug.MAX_RADIUS``: an expansion is min(gamma2 * alpha, MAX_ALPHA),
# so alpha * lambda stays finite on every grid.  The largest alpha of the
# inputs of ``tools/run_gate.py`` is 2.8e31 (diagquad, n = 1e4).
MAX_ALPHA = 1e100


class GridExhausted(Exception):
    """No remaining shift can deliver the required regularization decrease."""

    status = STATUS_GRID_EXHAUSTED


class AllShiftsIndefinite(Exception):
    """Negative curvature was certified for every shift of the grid."""

    status = STATUS_TOO_INDEFINITE


@dataclass
class SolverParams:
    """Acceptance thresholds and stopping rules shared by the solvers."""

    eta1: float = 0.1
    eta2: float = 0.75
    gamma1: float = 0.1
    gamma2: float = 5.0
    zeta: float = 0.5
    eps_abs: float = 1e-5
    eps_rel: float = 1e-6
    max_outer_iter: int = 500
    time_budget: Optional[float] = None

    def validate(self):
        if not 0.0 < self.eta1 < self.eta2 < 1.0:
            raise ValueError("need 0 < eta1 < eta2 < 1")
        if not 0.0 < self.gamma1 < 1.0 < self.gamma2 < np.inf:
            raise ValueError("need 0 < gamma1 < 1 < gamma2 < inf")
        if not 0.0 < self.zeta <= 1.0:
            raise ValueError("need 0 < zeta <= 1")
        if not (self.eps_abs >= 0 and self.eps_rel >= 0):
            raise ValueError("stopping tolerances must be nonnegative")
        if not (isinstance(self.max_outer_iter, numbers.Integral)
                and self.max_outer_iter >= 1):
            raise ValueError("max_outer_iter must be an integer >= 1")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time_budget must be positive")


def _positive_finite(name, value):
    """Reject a weight that is not a positive finite number (NaN included)."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")


@dataclass
class ArcParams(SolverParams):
    """Configuration of the cubic-regularization solver."""

    alpha0: float = 1.0
    xi: float = 1.0
    grid: ShiftGrid = field(default_factory=ShiftGrid.default)

    def __post_init__(self):
        self.validate()
        _positive_finite("alpha0", self.alpha0)
        if self.alpha0 > MAX_ALPHA:
            raise ValueError(f"alpha0 must be at most {MAX_ALPHA:g}")
        _positive_finite("xi", self.xi)
        if not isinstance(self.grid, ShiftGrid):
            raise ValueError("grid must be a ShiftGrid")


def stationarity_threshold(g0_norm: float, params: SolverParams) -> float:
    return params.eps_abs + params.eps_rel * g0_norm


def inner_tolerance(grad_norm: float, zeta: float, xi: float = 1.0) -> float:
    """Inner-solve residual tolerance, the one rule of both solvers.

    The power rule ||r|| <= xi * ||g||**(1+zeta), floored near zero and
    capped at 0.9*||g||.  Far from stationarity the power rule exceeds
    ||g|| itself and the inner solver would accept its first Krylov
    iterate; the cap forces every solve to improve on the zero step.  It is
    inactive once ||g|| < 0.81 (for zeta = 0.5 and xi = 1), so the local
    behavior is governed by the power rule alone.
    """
    if grad_norm <= 0:
        raise ValueError("grad_norm must be positive")
    floor = 1e-12 * (1.0 + grad_norm)
    return min(max(floor, xi * grad_norm ** (1.0 + zeta)), 0.9 * grad_norm)


@dataclass
class RatioEval:
    """Outcome of one acceptance-ratio evaluation."""

    rho: float
    delta_q: float
    f_trial: Optional[float]


def acceptance_ratio(f_x, g_x, d, lam, trial) -> RatioEval:
    """Quadratic-model acceptance ratio rho = (f(x) - f(x+d)) / delta_q.

    ``d`` must be a Galerkin CG (or CGLS) iterate for (H + lam I) d = -g,
    as every direction of a multishift solve is: its residual is then
    orthogonal to d, so d'Hd = -g'd - lam ||d||^2 (||Jd||^2 on the
    Gauss-Newton path) and the model decrease

        delta_q = -g'd - d'Hd / 2 = (lam ||d||^2 - g'd) / 2

    costs no operator product: ``model_decrease`` with d'(g + Hd) =
    -lam ||d||^2.  ``trial()`` returns f(x + d) and is the one objective
    evaluation; see ``_ratio`` for a model decrease at rounding level.
    """
    delta_q = model_decrease(float(g_x @ d), -(lam * float(d @ d)))
    return _ratio(f_x, delta_q, trial)


def model_decrease(gd, dr):
    """The quadratic model's decrease -g'd - d'Hd/2 along a step d.

    ``gd`` is g'd and ``dr`` is d'(g + Hd), which both solvers price from
    scalars they already hold, never from a product with H: ARC's Galerkin
    identity gives -lam ||d||^2 (see ``acceptance_ratio``) and ST's
    truncated CG gives ``TruncatedCgResult.dr``.
    """
    return -0.5 * (gd + dr)


def _ratio(f_x, delta_q, trial) -> RatioEval:
    """Ratio of actual to model decrease, evaluating the trial point once.

    ``trial()`` returns f(x + d) and is not called when the model decrease
    ``delta_q`` is at rounding level: such a degenerate trial has rho =
    -inf and no trial value, so it fails ``rho >= eta1`` and is rejected.
    """
    if delta_q <= 64.0 * _EPS * (1.0 + abs(f_x)):
        return RatioEval(-np.inf, delta_q, None)
    f_trial = trial()
    return RatioEval((f_x - f_trial) / delta_q, delta_q, f_trial)


def select_step(solutions: MultishiftSolution, alpha: float):
    """Pick the shift whose step best matches alpha * lambda = ||d||.

    Returns ``(i_plus, j, d)`` where ``i_plus`` is the smallest shift index
    without a negative-curvature certificate and ``j`` minimizes
    ``|alpha * lambda_i - ||d_i|||`` over usable shifts, ties resolved
    toward the smaller shift (``shifted_cg._closest``).  Every shift below
    ``i_plus`` is indefinite, so every usable one lies at or above it.
    """
    definite = (solutions.codes != _INDEFINITE).nonzero()[0]
    if not definite.size:
        raise AllShiftsIndefinite(
            "negative curvature certified for every shift in the grid")
    usable = solutions.usable_mask.nonzero()[0]
    if not usable.size:
        raise GridExhausted(
            "no shift at or above the first definite one met its tolerance")
    j, _ = _closest(usable, solutions.step_norms, alpha * solutions.lambdas)
    return int(definite[0]), j, solutions.direction(j)


def advance_shift_on_failure(solutions: MultishiftSolution, j: int,
                             alpha: float, gamma1: float):
    """After a rejected step, move to larger shifts until alpha drops enough.

    Walks ``j`` upward through usable shifts, setting
    ``alpha = ||d(lambda_j)|| / lambda_j`` at each stop, until the new alpha
    is at most ``gamma1`` times the old one.  Raises :class:`GridExhausted`
    when the grid runs out first.  The first move always happens, also when
    alpha is inf.
    """
    above = solutions.usable_mask[j + 1:].nonzero()[0] + (j + 1)
    alphas = solutions.step_norms[above] / solutions.lambdas[above]
    stops = (~(alphas > gamma1 * alpha)).nonzero()[0]
    if not stops.size:
        raise GridExhausted(
            "the shift grid holds no sufficiently large values")
    k = stops[0]
    return int(above[k]), float(alphas[k])


@dataclass
class _TrialRecord:
    """Fields every trial records; the shared outer loop fills them."""

    k: int
    step_norm: float
    rho: float
    success: bool
    delta_q: float
    f_before: float
    grad_norm: float


@dataclass
class TraceRecord(_TrialRecord):
    """Per-iteration tuple recorded by the outer loop."""

    alpha: float
    shift_index: int
    shift: float
    shift_statuses: tuple
    solve_index: int


@dataclass(kw_only=True)
class _RunState:
    """State every run of the shared outer loop keeps."""

    x: np.ndarray
    k: int = 0
    f_val: float = np.nan
    grad_norm: float = np.nan
    status: str = STATUS_RUNNING
    trace: list = field(default_factory=list)
    g0_norm: float = np.nan
    elapsed_seconds: float = 0.0


@dataclass
class ArcState(_RunState):
    """Mutable state of one cubic-regularization run."""

    alpha: float
    n_solves: int = 0


class _SmoothDriver:
    """A smooth problem's oracles for the outer loops.

    A driver holds only its problem: ``solve(x, g, grid, tol, alpha,
    deadline, spent)`` gets the shift grid from ARC's parameters with every
    solve, so ST, whose parameters have no grid, shares the driver.
    """

    counter_fields = ("neval_f", "neval_grad", "neval_hvp")

    def __init__(self, problem: SmoothProblem):
        self.problem = problem

    def fg(self, x):
        return self.problem.eval_f(x), self.problem.eval_grad(x)

    def grad(self, x):
        return self.problem.eval_grad(x)

    def solve(self, x, g, grid, tol, alpha, deadline, spent):
        return multishift_cg(lambda w: self.problem.eval_hvp(x, w), -g, grid,
                             tol=tol, alpha=alpha, deadline=deadline,
                             spent=spent)

    def trial(self, x):
        return self.problem.eval_f(x)


class _GaussNewtonDriver:
    """A least-squares problem's oracles for ARC, solving with CGLS on J;
    ``solve`` takes the grid as ``_SmoothDriver.solve`` does."""

    counter_fields = ("neval_residual", "neval_jtprod", "neval_jprod")

    def __init__(self, problem: LeastSquaresProblem):
        self.problem = problem
        self._residual = self._trial_residual = None

    def fg(self, x):
        r = self.problem.eval_residual(x)
        self._residual = r
        return 0.5 * float(r @ r), self.problem.eval_jtprod(x, r)

    def grad(self, x):
        # called only at an accepted trial point: reuse its residual
        self._residual = self._trial_residual
        return self.problem.eval_jtprod(x, self._residual)

    def solve(self, x, g, grid, tol, alpha, deadline, spent):
        # A'b = J'(-r) is -g, which the loop already holds
        p = self.problem
        return multishift_cgls(lambda v: p.eval_jprod(x, v),
                               lambda u: p.eval_jtprod(x, u),
                               -self._residual, grid, tol=tol, alpha=alpha,
                               deadline=deadline, atb=-g, spent=spent)

    def trial(self, x):
        r = self._trial_residual = self.problem.eval_residual(x)
        return 0.5 * float(r @ r)


def _outer_loop(problem, driver, params: SolverParams, state, propose,
                update, record, callback=None):
    """Accept/reject loop shared by ARC and the trust-region baseline.

    ``propose(x, f, g, gnorm, deadline)`` returns ``(d, RatioEval, fields)``
    for the next trial, where ``fields`` holds the solver's own record
    fields, and ``update(success, rho)`` adjusts the solver's weight (alpha
    or the radius) after it.  ``deadline`` is the run's one
    ``time.perf_counter()`` deadline (``None`` without a ``time_budget``),
    for a solve that can stop inside itself.  ``propose`` may raise
    :class:`GridExhausted`, :class:`AllShiftsIndefinite` or, from a solve
    that ran past the deadline, ``TimeExceeded``, and ``update``
    :class:`GridExhausted`; the exception's ``status`` ends the run.
    Everything else (the stopping tests, acceptance, the move to the new
    iterate, the trial's common record fields, the trace and the run's
    ``BenchRecord``) is common, so both solvers stop, accept, time and
    record by the same rules.  ``record`` is the solver's trace record
    class, built from the common fields and ``fields``.

    Only a trial value of -inf ends the run as ``unbounded_below``.  A NaN
    or +inf trial value makes rho NaN or -inf, which fails ``rho >= eta1``,
    so the trial is rejected like any other unsuccessful step.

    The trace keeps scalars only, so its memory does not grow with n.
    ``callback(rec, state, d)`` is called after every trial, before the
    iterate moves, with the trial's record and step ``d``; a caller that
    wants the steps collects them there.
    """
    t0 = time.perf_counter()
    deadline = (None if params.time_budget is None
                else t0 + params.time_budget)
    counters0 = problem.counters.snapshot()
    x = state.x
    f, g = driver.fg(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise ValueError(f"{problem.name}: non-finite objective or gradient "
                         "at the start point")
    gnorm = state.g0_norm = float(np.linalg.norm(g))
    threshold = stationarity_threshold(state.g0_norm, params)

    while True:
        state.f_val, state.grad_norm, state.x = f, gnorm, x
        if gnorm <= threshold:
            state.status = STATUS_STATIONARY
            break
        if state.k >= params.max_outer_iter:
            state.status = STATUS_MAX_ITER
            break
        if deadline is not None and time.perf_counter() > deadline:
            state.status = STATUS_TIME
            break

        try:
            d, ev, fields = propose(x, f, g, gnorm, deadline)
        except (GridExhausted, AllShiftsIndefinite, TimeExceeded) as exc:
            state.status = exc.status
            break
        unbounded = ev.f_trial == -np.inf
        success = not unbounded and ev.rho >= params.eta1
        rec = record(k=state.k, step_norm=float(np.linalg.norm(d)),
                     rho=ev.rho, success=success, delta_q=ev.delta_q,
                     f_before=f, grad_norm=gnorm, **fields)
        state.trace.append(rec)
        state.k += 1
        if callback is not None:
            callback(rec, state, d)
        if unbounded:
            state.status = STATUS_UNBOUNDED
            break
        if success:
            x = x + d
            f = ev.f_trial
            g = driver.grad(x)
            if not np.all(np.isfinite(g)):
                raise ValueError(f"{problem.name}: gradient became "
                                 "non-finite after an accepted step")
            gnorm = float(np.linalg.norm(g))
        try:
            update(success, ev.rho)
        except GridExhausted as exc:
            state.status = exc.status
            break

    state.elapsed_seconds = time.perf_counter() - t0
    snap = problem.counters.snapshot()
    nf, ng, nhv = (snap[name] - counters0[name]
                   for name in driver.counter_fields)
    record = BenchRecord(
        name=problem.name, nvar=problem.n,
        f=state.f_val, grad_norm=state.grad_norm, iter=state.k,
        neval_f=nf, neval_grad=ng, neval_hvp=nhv,
        elapsed_seconds=state.elapsed_seconds,
        status=record_status(state.status), detail=state.status)
    return state, record


def _arc_loop(problem, driver, params: ArcParams, callback=None):
    """ARC step policy: one multishift solve per accepted iterate.

    A solve is made when no shift is selected (``j is None``), that is at
    the start and after each accepted step; rejected steps walk the same
    solution's shifts.  The solve gets the current alpha, so it retires
    the shifts this selection can no longer pick and stops once none of
    the others runs; it also gets the outer loop's deadline, and a solve
    still running past it ends the run with ``time_exceeded``.  A trial
    then costs one objective evaluation and no operator product:
    ``acceptance_ratio`` prices the model decrease from the selected
    shift's Galerkin identity.  The solution stays referenced until the
    next solve, which is handed it (``driver.solve``'s ``spent``) and
    takes over its window and flushed blocks, emptying it: within a run n
    and m+1 never change, so the run allocates its (m+1, n) blocks once,
    not once per solve, and their pages are not faulted in afresh by
    every solve.  Until then the spent solution holds only its block,
    because a finished solve drops its Lanczos vectors and its operator,
    whose closure holds the iterate it was formed at.  Everything that
    reads a solution (selection, the failure walk, the trace record, a
    tracer's hook) does so before the next solve takes it.
    """
    state = ArcState(x=problem.x0.copy(), alpha=params.alpha0)
    sols = j = None

    def propose(x, f, g, gnorm, deadline):
        nonlocal sols, j
        if j is None:
            tol = inner_tolerance(gnorm, params.zeta, params.xi)
            sols = driver.solve(x, g, params.grid, tol, state.alpha,
                                deadline, sols)
            state.n_solves += 1
            _, j, d = select_step(sols, state.alpha)
        else:
            d = sols.direction(j)
        lam = float(sols.lambdas[j])
        ev = acceptance_ratio(f, g, d, lam, lambda: driver.trial(x + d))
        return d, ev, dict(alpha=state.alpha, shift_index=j, shift=lam,
                           shift_statuses=sols.statuses,
                           solve_index=state.n_solves - 1)

    def update(success, rho):
        nonlocal sols, j
        if not success:
            j, state.alpha = advance_shift_on_failure(
                sols, j, state.alpha, params.gamma1)
            return
        if rho > params.eta2:
            state.alpha = min(params.gamma2 * state.alpha, MAX_ALPHA)
        j = None

    return _outer_loop(problem, driver, params, state, propose, update,
                       TraceRecord, callback)


def arcqk_minimize(problem: SmoothProblem, params: ArcParams = None,
                   callback=None):
    """Minimize a smooth problem; returns ``(ArcState, BenchRecord)``.

    One multishift solve per outer group of iterations; retries after
    rejected steps reuse the directions already computed for larger shifts.
    """
    params = ArcParams() if params is None else params
    return _arc_loop(problem, _SmoothDriver(problem), params, callback)


def arcqk_minimize_gauss_newton(problem: LeastSquaresProblem,
                                params: ArcParams = None, callback=None):
    """Same outer loop on 0.5*||F||^2 with the Gauss-Newton operator J'J.

    Inner systems are the regularized normal equations, solved by the
    multishift CGLS kernel; no indefiniteness handling is needed.
    """
    params = ArcParams() if params is None else params
    return _arc_loop(problem, _GaussNewtonDriver(problem), params, callback)
