"""Trust-region baseline using truncated (unshifted) conjugate gradients."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .arc import (SolverParams, _outer_loop, _positive_finite, _ratio,
                  _RunState, _SmoothDriver, _TrialRecord, inner_tolerance,
                  model_decrease)
from .problems import SmoothProblem
from .shifted_cg import TimeExceeded, _limits, _product

EXIT_INTERIOR = "interior"
EXIT_BOUNDARY = "boundary"
EXIT_NEGATIVE_CURVATURE = "negative_curvature"
EXIT_CAPPED = "capped"

# The largest trust-region radius, Delta-hat of Nocedal & Wright's
# Algorithm 4.1: an expansion is min(gamma2 * delta, MAX_RADIUS).  Its
# square and the cross terms of ``_boundary_tau`` stay finite.
MAX_RADIUS = 1e100


@dataclass
class TrParams(SolverParams):
    """Trust-region configuration; update constants shared with ArcParams."""

    delta0: float = 1.0

    def __post_init__(self):
        self.validate()
        _positive_finite("delta0", self.delta0)
        if self.delta0 > MAX_RADIUS:
            raise ValueError(f"delta0 must be at most {MAX_RADIUS:g}")


@dataclass
class TruncatedCgResult:
    d: np.ndarray
    exit: str
    iterations: int
    dr: float   # d'(g + Hd) from the recurrence's scalars; see truncated_cg


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


def truncated_cg(apply_H, g, delta, tol, max_iter=None,
                 deadline=None) -> TruncatedCgResult:
    """Steihaug-Toint CG for min g'd + 0.5 d'Hd subject to ||d|| <= delta.

    Iterations stop at the required accuracy (``interior``), after
    ``max_iter`` iterations (``capped``, default 2 n), or, on reaching the
    region boundary or a direction p of nonpositive curvature, at the step
    d = d_prev + tau p on the boundary.  ``g``, ``tol`` and ``max_iter``
    follow the multishift kernels' rule (``shifted_cg._limits``), and
    g = 0 is solved by d = 0 (``interior``, 0 iterations, no product), as
    the kernels solve a zero right-hand side.  Every product with H goes
    through ``shifted_cg._product``, which raises on a non-finite value
    and returns kappa = p'Hp, the dot its finiteness test reuses.
    ``deadline`` is a ``time.perf_counter()`` value: the first iteration
    that ends past it and does not stop the CG raises ``TimeExceeded``, as
    a multishift solve does; ``None`` sets no limit.

    The result's ``dr`` = d'(g + Hd) is priced without a product
    (Steihaug, SIAM J. Numer. Anal. 20, 1983).  A CG iterate's residual
    g + H d_prev is orthogonal to d_prev and the directions are
    H-conjugate, so ``dr`` is 0 at an interior or capped exit and
    tau (g'p + tau p'Hp) on the boundary.
    """
    g = np.asarray(g, dtype=float)
    if not 0.0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    rr = float(g @ g)
    tol, max_iter = _limits(g.size, rr, tol, max_iter)
    d = np.zeros_like(g)
    if rr == 0.0:
        return TruncatedCgResult(d, EXIT_INTERIOR, 0, 0.0)
    r, p = g, -g                      # r: the model's gradient at d, rebound
    for j in range(max_iter):
        hp, kappa = _product(apply_H, p, p)
        if kappa > 0.0:
            alpha = rr / kappa
            d_next = d + alpha * p
        if kappa <= 0.0 or float(np.linalg.norm(d_next)) >= delta:
            tau = _boundary_tau(d, p, delta)
            kind = EXIT_BOUNDARY if kappa > 0.0 else EXIT_NEGATIVE_CURVATURE
            return TruncatedCgResult(d + tau * p, kind, j + 1,
                                     tau * (float(g @ p) + tau * kappa))
        d = d_next
        r = r + alpha * hp
        rr_next = float(r @ r)
        if np.sqrt(rr_next) <= tol:
            return TruncatedCgResult(d, EXIT_INTERIOR, j + 1, 0.0)
        p = -r + (rr_next / rr) * p
        rr = rr_next
        if deadline is not None and time.perf_counter() > deadline:
            raise TimeExceeded(f"deadline passed in iteration {j}")
    return TruncatedCgResult(d, EXIT_CAPPED, max_iter, 0.0)


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
    driver = _SmoothDriver(problem)

    def propose(x, f, g, gnorm, deadline):
        res = truncated_cg(lambda w: problem.eval_hvp(x, w), g, state.delta,
                           inner_tolerance(gnorm, params.zeta),
                           deadline=deadline)
        d = res.d
        ev = _ratio(f, model_decrease(float(g @ d), res.dr),
                    lambda: driver.trial(x + d))
        return d, ev, dict(delta=state.delta, exit=res.exit,
                           inner_iterations=res.iterations)

    def update(success, rho):
        if not success:
            state.delta = params.gamma1 * state.delta
        elif rho > params.eta2:
            state.delta = min(params.gamma2 * state.delta, MAX_RADIUS)

    return _outer_loop(problem, driver, params, state, propose, update,
                       TrTraceRecord, callback)
