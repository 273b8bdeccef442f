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
from .shifted_cg import (INDEFINITE, MultishiftSolution, ShiftGrid,
                         multishift_cg)
from .shifted_cgls import multishift_cgls

_EPS = float(np.finfo(float).eps)

STATUS_RUNNING = "running"
STATUS_STATIONARY = "first_order_stationary"
STATUS_MAX_ITER = "max_iter"
STATUS_TIME = "time_exceeded"
STATUS_UNBOUNDED = "unbounded_below"
STATUS_GRID_EXHAUSTED = "grid_exhausted"
STATUS_TOO_INDEFINITE = "hessian_too_indefinite"


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
        _positive_finite("xi", self.xi)
        if not isinstance(self.grid, ShiftGrid):
            raise ValueError("grid must be a ShiftGrid")


def stationarity_threshold(g0_norm: float, params: SolverParams) -> float:
    return params.eps_abs + params.eps_rel * g0_norm


def per_shift_tolerance(grad_norm: float, zeta: float, xi: float = 1.0) -> float:
    """Residual tolerance ||r|| <= xi * ||g||**(1+zeta), floored near zero."""
    if grad_norm <= 0:
        raise ValueError("grad_norm must be positive")
    floor = 1e-12 * (1.0 + grad_norm)
    return max(floor, xi * grad_norm ** (1.0 + zeta))


def inner_tolerance(grad_norm: float, zeta: float, xi: float = 1.0) -> float:
    """Inner-solve tolerance: the power rule capped below the residual norm.

    Far from stationarity the power rule exceeds ||g|| itself and the inner
    solver would accept its first Krylov iterate; capping at 0.9*||g||
    forces every solve to improve on the zero step.  The cap is inactive
    once ||g|| < 0.81 (for zeta = 0.5), so the local behavior is governed
    by the power rule alone.
    """
    return min(per_shift_tolerance(grad_norm, zeta, xi), 0.9 * grad_norm)


@dataclass
class CubicModelEval:
    """Quadratic-model decrease plus the cubic model value and gradient."""

    delta_q: float
    cubic_value: float
    cubic_gradient: np.ndarray


def cubic_model_eval(f_x, g_x, hd, d, alpha) -> CubicModelEval:
    """Evaluate model quantities at step d given hd = H d."""
    d = np.asarray(d, dtype=float)
    gd = float(g_x @ d)
    dhd = float(d @ hd)
    dn = float(np.linalg.norm(d))
    delta_q = -gd - 0.5 * dhd
    cubic_value = f_x + gd + 0.5 * dhd + dn ** 3 / (3.0 * alpha)
    cubic_gradient = g_x + hd + (dn / alpha) * d
    return CubicModelEval(delta_q, cubic_value, cubic_gradient)


@dataclass
class RatioEval:
    """Outcome of one acceptance-ratio evaluation."""

    rho: float
    delta_q: float
    f_trial: Optional[float]
    degenerate: bool = False
    aux: object = None


def acceptance_ratio(f_x, g_x, d, lam, trial) -> RatioEval:
    """Quadratic-model acceptance ratio rho = (f(x) - f(x+d)) / delta_q.

    ``d`` must be a Galerkin CG (or CGLS) iterate for (H + lam I) d = -g,
    as every direction of a multishift solve is: its residual is then
    orthogonal to d, so d'Hd = -g'd - lam ||d||^2 (||Jd||^2 on the
    Gauss-Newton path) and the model decrease

        delta_q = -g'd - d'Hd / 2 = (lam ||d||^2 - g'd) / 2

    costs no operator product.  ``trial()`` returns ``(f(x + d), aux)`` and
    is the one objective evaluation; a model decrease at rounding level
    marks the evaluation degenerate, which callers treat as an unsuccessful
    step.
    """
    delta_q = 0.5 * (lam * float(d @ d) - float(g_x @ d))
    return _ratio(f_x, delta_q, trial)


def _ratio(f_x, delta_q, trial) -> RatioEval:
    """Ratio of actual to model decrease, evaluating the trial point once.

    ``trial()`` returns ``(f(x + d), aux)`` and is not called when the model
    decrease ``delta_q`` is at rounding level: such an evaluation is marked
    degenerate, which the outer loop treats as an unsuccessful step.
    """
    if delta_q <= 64.0 * _EPS * (1.0 + abs(f_x)):
        return RatioEval(-np.inf, delta_q, None, degenerate=True)
    f_trial, aux = trial()
    return RatioEval((f_x - f_trial) / delta_q, delta_q, f_trial, aux=aux)


def select_step(solutions: MultishiftSolution, alpha: float):
    """Pick the shift whose step best matches alpha * lambda = ||d||.

    Returns ``(i_plus, j, d)`` where ``i_plus`` is the smallest shift index
    without a negative-curvature certificate and ``j`` minimizes
    ``|alpha * lambda_i - ||d_i|||`` over usable shifts at or above it,
    ties resolved toward the smaller shift.
    """
    statuses = solutions.statuses
    candidates = [i for i, s in enumerate(statuses) if s != INDEFINITE]
    if not candidates:
        raise AllShiftsIndefinite(
            "negative curvature certified for every shift in the grid")
    i_plus = candidates[0]
    norms = solutions.step_norms
    usable = [i for i in range(i_plus, len(statuses)) if solutions.usable(i)]
    if not usable:
        raise GridExhausted(
            "no shift at or above the first definite one met its tolerance")
    scores = np.abs(alpha * solutions.lambdas[usable] - norms[usable])
    j = usable[int(np.argmin(scores))]
    return i_plus, j, solutions.direction(j)


def advance_shift_on_failure(solutions: MultishiftSolution, j: int,
                             alpha: float, gamma1: float):
    """After a rejected step, move to larger shifts until alpha drops enough.

    Walks ``j`` upward through usable shifts, setting
    ``alpha = ||d(lambda_j)|| / lambda_j`` at each stop, until the new alpha
    is at most ``gamma1`` times the old one.  Raises :class:`GridExhausted`
    when the grid runs out first.
    """
    target = gamma1 * alpha
    jj = j
    m1 = len(solutions.statuses)
    norms = solutions.step_norms
    # do-while: the first advance always happens (for finite alpha the loop
    # condition alpha > gamma1*alpha starts true; this also keeps the walk
    # moving if alpha ever overflows to inf).
    while True:
        jj += 1
        while jj < m1 and not solutions.usable(jj):
            jj += 1
        if jj >= m1:
            raise GridExhausted(
                "the shift grid holds no sufficiently large values")
        a = float(norms[jj] / solutions.lambdas[jj])
        if not a > target:
            return jj, a


@dataclass
class TraceRecord:
    """Per-iteration tuple recorded by the outer loop."""

    k: int
    alpha: float
    shift_index: int
    shift: float
    step_norm: float
    rho: float
    success: bool
    delta_q: float
    f_before: float
    grad_norm: float
    shift_statuses: tuple
    solve_index: int
    step: np.ndarray


@dataclass
class ArcState:
    """Mutable state of one cubic-regularization run."""

    x: np.ndarray
    alpha: float
    k: int = 0
    f_val: float = np.nan
    grad_norm: float = np.nan
    status: str = STATUS_RUNNING
    trace: list = field(default_factory=list)
    n_solves: int = 0
    g0_norm: float = np.nan
    max_alpha: float = 0.0
    elapsed_seconds: float = 0.0


class _SmoothDriver:
    counter_fields = ("neval_f", "neval_grad", "neval_hvp")

    def __init__(self, problem: SmoothProblem, params: SolverParams):
        self.problem = problem
        self.params = params

    def fg(self, x):
        return self.problem.eval_f(x), self.problem.eval_grad(x)

    def grad(self, x, aux=None):
        return self.problem.eval_grad(x)

    def solve(self, x, g, tol, alpha):
        return multishift_cg(lambda w: self.problem.eval_hvp(x, w), -g,
                             self.params.grid, tol=tol, alpha=alpha)

    def trial(self, x):
        return self.problem.eval_f(x), None


class _GaussNewtonDriver:
    counter_fields = ("neval_residual", "neval_jtprod", "neval_jprod")

    def __init__(self, problem: LeastSquaresProblem, params: ArcParams):
        self.problem = problem
        self.params = params
        self._residual = None

    def fg(self, x):
        r = self.problem.eval_residual(x)
        self._residual = r
        return 0.5 * float(r @ r), self.problem.eval_jtprod(x, r)

    def grad(self, x, aux=None):
        r = self.problem.eval_residual(x) if aux is None else aux
        self._residual = r
        return self.problem.eval_jtprod(x, r)

    def solve(self, x, g, tol, alpha):
        p = self.problem
        return multishift_cgls(lambda v: p.eval_jprod(x, v),
                               lambda u: p.eval_jtprod(x, u),
                               -self._residual, self.params.grid, tol=tol,
                               alpha=alpha)

    def trial(self, x):
        r = self.problem.eval_residual(x)
        return 0.5 * float(r @ r), r


def _outer_loop(problem, driver, params: SolverParams, state, propose,
                update, callback=None):
    """Accept/reject loop shared by ARC and the trust-region baseline.

    ``propose(x, f, g, gnorm)`` returns ``(d, RatioEval, trace_record)`` for
    the next trial and ``update(success, rho)`` adjusts the solver's weight
    (alpha or the radius) after it.  ``propose`` may raise
    :class:`GridExhausted` or :class:`AllShiftsIndefinite` and ``update``
    :class:`GridExhausted`; the exception's ``status`` ends the run.
    Everything else (the stopping tests, acceptance, the move to the new
    iterate, the trace and the record) is common, so both solvers stop,
    accept and count by the same rules.
    """
    t0 = time.perf_counter()
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
        if (params.time_budget is not None
                and time.perf_counter() - t0 > params.time_budget):
            state.status = STATUS_TIME
            break

        try:
            d, ev, rec = propose(x, f, g, gnorm)
        except (GridExhausted, AllShiftsIndefinite) as exc:
            state.status = exc.status
            break
        unbounded = ev.f_trial is not None and (
            np.isnan(ev.f_trial) or ev.f_trial == -np.inf)
        success = not (unbounded or ev.degenerate) and ev.rho >= params.eta1
        rec.success = success
        state.trace.append(rec)
        state.k += 1
        if callback is not None:
            callback(rec, state)
        if unbounded:
            state.status = STATUS_UNBOUNDED
            break
        if success:
            x = x + d
            f = ev.f_trial
            g = driver.grad(x, ev.aux)
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
    the others runs.  A trial then costs one objective evaluation and no
    operator product: ``acceptance_ratio`` prices the model decrease from
    the selected shift's Galerkin identity.  The spent solution stays
    referenced until the next solve replaces it.  Dropping it at the
    accepted step instead was measured on the benchmark
    (``perfbench/run.py``, alternating pairs, 2-core machine) with
    solutions that hold the window: ARC ran faster on gn (9 of 10 pairs,
    medians 6-17% lower) but slower on scaled (6 of 7 pairs, medians 9-17%
    higher), desk moved within its noise, and peak RSS fell on both
    (scaled 124 -> 108 MB).  Keeping it favours scaled, where ARC spends
    the most time.
    """
    state = ArcState(x=problem.x0.copy(), alpha=params.alpha0,
                     max_alpha=params.alpha0)
    sols = j = None

    def propose(x, f, g, gnorm):
        nonlocal sols, j
        if j is None:
            tol = inner_tolerance(gnorm, params.zeta, params.xi)
            sols = driver.solve(x, g, tol, state.alpha)
            state.n_solves += 1
            _, j, d = select_step(sols, state.alpha)
        else:
            d = sols.direction(j)
        lam = float(sols.lambdas[j])
        ev = acceptance_ratio(f, g, d, lam, lambda: driver.trial(x + d))
        return d, ev, TraceRecord(
            k=state.k, alpha=state.alpha, shift_index=j,
            shift=lam, step_norm=float(np.linalg.norm(d)),
            rho=ev.rho, success=False,  # set by the outer loop
            delta_q=ev.delta_q, f_before=f,
            grad_norm=gnorm, shift_statuses=sols.statuses,
            solve_index=state.n_solves - 1, step=d)

    def update(success, rho):
        nonlocal sols, j
        if not success:
            j, state.alpha = advance_shift_on_failure(
                sols, j, state.alpha, params.gamma1)
            return
        if rho > params.eta2:
            state.alpha = params.gamma2 * state.alpha
        state.max_alpha = max(state.max_alpha, state.alpha)
        j = None

    return _outer_loop(problem, driver, params, state, propose, update,
                       callback)


def arcqk_minimize(problem: SmoothProblem, params: ArcParams = None,
                   callback=None):
    """Minimize a smooth problem; returns ``(ArcState, BenchRecord)``.

    One multishift solve per outer group of iterations; retries after
    rejected steps reuse the directions already computed for larger shifts.
    """
    params = ArcParams() if params is None else params
    return _arc_loop(problem, _SmoothDriver(problem, params), params, callback)


def arcqk_minimize_gauss_newton(problem: LeastSquaresProblem,
                                params: ArcParams = None, callback=None):
    """Same outer loop on 0.5*||F||^2 with the Gauss-Newton operator J'J.

    Inner systems are the regularized normal equations, solved by the
    multishift CGLS kernel; no indefiniteness handling is needed.
    """
    params = ArcParams() if params is None else params
    return _arc_loop(problem, _GaussNewtonDriver(problem, params), params,
                     callback)
