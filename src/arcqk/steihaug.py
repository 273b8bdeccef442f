"""Trust-region baseline using truncated (unshifted) conjugate gradients."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .arc import (SolverParams, _outer_loop, _positive_finite, _ratio,
                  _RunState, _SmoothDriver, _TrialRecord, inner_tolerance)
from .problems import SmoothProblem
from .shifted_cg import TimeExceeded

EXIT_INTERIOR = "interior"
EXIT_BOUNDARY = "boundary"
EXIT_NEGATIVE_CURVATURE = "negative_curvature"
EXIT_CAPPED = "capped"


@dataclass
class TrParams(SolverParams):
    """Trust-region configuration; update constants shared with ArcParams."""

    delta0: float = 1.0

    def __post_init__(self):
        self.validate()
        _positive_finite("delta0", self.delta0)


@dataclass
class TruncatedCgResult:
    d: np.ndarray
    exit: str
    iterations: int
    hd: np.ndarray          # H @ d, maintained for free from the recurrence


def _boundary_tau(d, p, delta):
    """Positive root of ||d + tau*p|| = delta via the stable formula."""
    a = float(p @ p)
    b = 2.0 * float(d @ p)
    c = float(d @ d) - delta ** 2
    disc = max(b * b - 4.0 * a * c, 0.0)
    root = np.sqrt(disc)
    if b >= 0:
        q = -(b + root) / 2.0
        return c / q
    return (-b + root) / (2.0 * a)


def truncated_cg(apply_H, g, delta, tol, max_iter=None, callback=None,
                 deadline=None) -> TruncatedCgResult:
    """Steihaug-Toint CG for min g'd + 0.5 d'Hd subject to ||d|| <= delta.

    Iterations stop at the required accuracy, when crossing the region
    boundary, or when a direction of nonpositive curvature appears; in the
    latter two cases the returned step sits exactly on the boundary.
    ``deadline`` is a ``time.perf_counter()`` value: the first iteration
    that ends past it and does not stop the CG raises ``TimeExceeded``, as
    a multishift solve does; ``None`` sets no limit.
    """
    g = np.asarray(g, dtype=float)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if max_iter is None:
        max_iter = 2 * g.size
    d = np.zeros_like(g)
    hd = np.zeros_like(g)
    r = g.copy()                      # gradient of the model at d
    p = -g
    rr = float(r @ r)
    for j in range(max_iter):
        hp = np.asarray(apply_H(p), dtype=float)
        if not np.all(np.isfinite(hp)):
            raise ValueError("operator returned non-finite values")
        kappa = float(p @ hp)
        if kappa <= 0.0:
            tau = _boundary_tau(d, p, delta)
            return TruncatedCgResult(d + tau * p, EXIT_NEGATIVE_CURVATURE,
                                     j + 1, hd + tau * hp)
        alpha = rr / kappa
        d_next = d + alpha * p
        if float(np.linalg.norm(d_next)) >= delta:
            tau = _boundary_tau(d, p, delta)
            return TruncatedCgResult(d + tau * p, EXIT_BOUNDARY, j + 1,
                                     hd + tau * hp)
        d = d_next
        hd = hd + alpha * hp
        r = r + alpha * hp
        rr_next = float(r @ r)
        if callback is not None:
            callback(j, d)
        if np.sqrt(rr_next) <= tol:
            return TruncatedCgResult(d, EXIT_INTERIOR, j + 1, hd)
        p = -r + (rr_next / rr) * p
        rr = rr_next
        if deadline is not None and time.perf_counter() > deadline:
            raise TimeExceeded(f"deadline passed in iteration {j}")
    return TruncatedCgResult(d, EXIT_CAPPED, max_iter, hd)


@dataclass
class TrTraceRecord(_TrialRecord):
    delta: float
    exit: str
    inner_iterations: int


@dataclass
class TrState(_RunState):
    delta: float


def st_minimize(problem: SmoothProblem, params: TrParams = None,
                callback=None):
    """Classical trust-region loop; returns ``(TrState, BenchRecord)``.

    Runs the cubic-regularization solver's outer loop with a truncated-CG
    step and a radius update in place of the multishift step and the alpha
    update, so the stopping test, inner accuracy rule and acceptance
    thresholds are the same code.
    """
    params = TrParams() if params is None else params
    state = TrState(x=problem.x0.copy(), delta=params.delta0)
    driver = _SmoothDriver(problem, params)

    def propose(x, f, g, gnorm, deadline):
        res = truncated_cg(lambda w: problem.eval_hvp(x, w), g, state.delta,
                           inner_tolerance(gnorm, params.zeta),
                           deadline=deadline)
        d = res.d
        delta_q = -float(g @ d) - 0.5 * float(d @ res.hd)
        ev = _ratio(f, delta_q, lambda: driver.trial(x + d))
        return d, ev, dict(delta=state.delta, exit=res.exit,
                           inner_iterations=res.iterations)

    def update(success, rho):
        if not success:
            state.delta = params.gamma1 * state.delta
        elif rho > params.eta2:
            state.delta = params.gamma2 * state.delta

    return _outer_loop(problem, driver, params, state, propose, update,
                       TrTraceRecord, callback)
