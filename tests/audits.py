"""Shared post-hoc audits of solver traces used by several test modules."""

import numpy as np

from arcqk.problems import LeastSquaresProblem
from arcqk.arc import MAX_ALPHA, inner_tolerance
from arcqk.steihaug import EXIT_CAPPED, truncated_cg

# statuses that may end a run whose last trial was rejected
TERMINAL_AFTER_FAILURE = ("grid_exhausted", "max_iter", "time_exceeded",
                          "unbounded_below")

# Relative gap allowed between a trial's product-free model decrease and
# -g'd - d'Hd/2 from the oracle.  The two differ by r'd/2, r the true
# residual of the shifted system, which is zero for an exact Galerkin
# iterate.  Measured on every accepted ARC trial of the benchmark's desk
# (seed 1, 48 start variants), scaled (seed 11) and gn (seed 1, 8 variants)
# inputs: median 3.5e-16, worst 2.0e-5 (trigonometric, n = 50, where the
# Lanczos vectors lose orthogonality over long solves); 9.6e-13 or less on
# every other problem.  ST prices its model decrease from the same
# orthogonality and the conjugacy of its CG directions; on the 29 595
# accepted ST trials of desk (seed 1, 48 variants) and gn (seed 1, 8
# variants): median 1.7e-16, worst 1.4e-5 (trigonometric, n = 50, at an
# interior exit); 4.9e-12 or less on every other problem.
DELTA_Q_DRIFT = 1e-3


class StepLog(list):
    """Per-trial solver callback that keeps every trial's step, in order.

    Pass an instance as ``callback=``; entry k is the step of trial k.
    """

    def __call__(self, rec, state, d):
        self.append(d)


def replay_iterates(problem, state, steps):
    """Reconstruct the iterate x_k at the start of every recorded trial.

    ``steps`` holds every trial's step, as a ``StepLog`` collects them.
    """
    x = problem.x0.copy()
    out = []
    for rec, d in zip(state.trace, steps, strict=True):
        out.append(x.copy())
        if rec.success:
            x = x + d
    return out


def audit_accepted_steps(problem, state, params, steps):
    """Check the first-order/curvature/decrease conditions at accepted steps.

    ``steps`` holds every trial's step (see ``StepLog``).  Also flags drift
    between the recorded model decrease, which ARC prices without an
    operator product, and the oracle's -g'd - d'Hd/2.  Returns a list of
    violation strings (empty when the run is clean).
    """
    gauss_newton = isinstance(problem, LeastSquaresProblem)

    def hvp(x, v):
        if gauss_newton:
            return problem.eval_jtprod(x, problem.eval_jprod(x, v))
        return problem.eval_hvp(x, v)

    bad = []
    for x, rec, d in zip(replay_iterates(problem, state, steps), state.trace,
                         steps):
        if not rec.success:
            continue
        lam = rec.shift
        if gauss_newton:
            r_val = problem.eval_residual(x)
            g = problem.eval_jtprod(x, r_val)
        else:
            g = problem.eval_grad(x)
        hd = hvp(x, d)
        resid = g + hd + lam * d
        rn = np.linalg.norm(resid)
        dn = np.linalg.norm(d)
        gn = np.linalg.norm(g)

        # the tolerance the solve used; drift allowance on top of it
        tol = inner_tolerance(gn, params.zeta, params.xi)
        if rn > tol * (1.0 + 1e-6) + 1e-8 * gn:
            bad.append(f"k={rec.k}: first-order residual {rn:.3e} > {tol:.3e}")
        curv = float(d @ hd) + lam * dn ** 2
        if curv < -1e-8 * dn ** 2 * (1.0 + lam):
            bad.append(f"k={rec.k}: curvature {curv:.3e} negative")
        if rec.delta_q < 0.5 * lam * dn ** 2 - 1e-6 * (1.0 + abs(rec.f_before)):
            bad.append(f"k={rec.k}: decrease {rec.delta_q:.3e} below bound")
        bad += _drift(rec, g, d, hd)
        # below ~sqrt(eps) relative size the residual direction carries no
        # information (attainable-accuracy limit of CG in floating point,
        # reached when a solve terminates by Krylov exhaustion); the
        # orthogonality claim is only meaningful above that floor
        scale = gn + np.linalg.norm(hd) + lam * dn
        meaningful = rn > np.sqrt(np.finfo(float).eps) * scale
        if meaningful and abs(float(resid @ d)) > 1e-6 * rn * dn:
            bad.append(f"k={rec.k}: residual not orthogonal to step")
    return bad


def _drift(rec, g, d, hd):
    """A one-entry list when the trial's model decrease drifted from the
    oracle's -g'd - d'Hd/2 by more than ``DELTA_Q_DRIFT``, else empty."""
    oracle_dq = -float(g @ d) - 0.5 * float(d @ hd)
    if abs(rec.delta_q - oracle_dq) > DELTA_Q_DRIFT * abs(oracle_dq):
        return [f"k={rec.k}: model decrease {rec.delta_q:.6e} drifted "
                f"from the oracle's {oracle_dq:.6e}"]
    return []


def audit_model_decrease(problem, state, steps):
    """Flag drift of ST's product-free model decrease at accepted steps.

    ``problem`` is the smooth problem ST ran and ``steps`` every trial's
    step (see ``StepLog``).  Returns a list of violation strings.
    """
    bad = []
    for x, rec, d in zip(replay_iterates(problem, state, steps), state.trace,
                         steps):
        if rec.success:
            bad += _drift(rec, problem.eval_grad(x), d,
                          problem.eval_hvp(x, d))
    return bad


def cg_iterate_norms(apply_H, g, delta, tol):
    """||d_j|| of every iterate truncated CG reaches, in order.

    Iterate j is the step of the run capped at ``max_iter = j``; the last
    is the step of the first run that ends before its cap.
    """
    norms = []
    for j in range(1, 2 * np.size(g) + 1):
        res = truncated_cg(apply_H, g, delta, tol, max_iter=j)
        norms.append(np.linalg.norm(res.d))
        if res.exit != EXIT_CAPPED:
            break
    return norms


def audit_alpha_dynamics(state, params):
    """Check the regularization updates along the recorded trials.

    Every alpha is finite and at most ``MAX_ALPHA``.  Unsuccessful trials
    must end with alpha <= gamma1 * alpha (or terminate the run); very
    successful ones set alpha to exactly min(gamma2 * alpha, MAX_ALPHA).
    """
    trace = state.trace
    bad = [f"k={rec.k}: alpha {rec.alpha} is not finite or above MAX_ALPHA"
           for rec in trace if not 0.0 < rec.alpha <= MAX_ALPHA]
    for prev, nxt in zip(trace, trace[1:]):
        if prev.success:
            if prev.rho > params.eta2:
                if nxt.alpha != min(params.gamma2 * prev.alpha, MAX_ALPHA):
                    bad.append(f"k={prev.k}: very successful but alpha "
                               f"{prev.alpha} -> {nxt.alpha}")
            elif nxt.alpha != prev.alpha:
                bad.append(f"k={prev.k}: successful but alpha changed")
        else:
            if not nxt.alpha <= params.gamma1 * prev.alpha:
                bad.append(f"k={prev.k}: failed trial alpha {prev.alpha} -> "
                           f"{nxt.alpha} above gamma1 bound")
    if trace and not trace[-1].success:
        if state.status not in TERMINAL_AFTER_FAILURE:
            bad.append("run ends on a failed trial without a terminal status")
    return bad


def audit_trace_contract(state, record):
    """Check the trace bookkeeping both solvers share.

    Every trial, including one that ends the run, is recorded once and
    counted once: ``record.iter == state.k == len(state.trace)`` with trace
    indices 0..k-1, and a run whose last trial failed ends with a terminal
    status.
    """
    bad = []
    if not record.iter == state.k == len(state.trace):
        bad.append(f"record.iter {record.iter}, state.k {state.k} and "
                   f"{len(state.trace)} trace entries disagree")
    if [rec.k for rec in state.trace] != list(range(len(state.trace))):
        bad.append("trace indices do not run 0..k-1")
    if state.trace and not state.trace[-1].success:
        if state.status not in TERMINAL_AFTER_FAILURE:
            bad.append(f"last trial failed but the run ends {state.status}")
    return bad


def accepted_gradient_path(state):
    """Gradient norms along accepted iterates, ending at the final point."""
    gs = [rec.grad_norm for rec in state.trace if rec.success]
    gs.append(state.grad_norm)
    return gs
