"""Workload inputs, one solver run, and the check of each run's output."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from arcqk.arc import (STATUS_STATIONARY, ArcParams, arcqk_minimize,
                       arcqk_minimize_gauss_newton, stationarity_threshold)
from arcqk.problems import (LeastSquaresProblem, make_diagquad,
                            make_extrosenbrock, make_linearls, make_rosenbrock,
                            suite_problems)
from arcqk.records import record_status
from arcqk.steihaug import TrParams, st_minimize

SOLVERS = ("arcqk", "st")

# Start-point variants per run.  The counts move by a few percent with
# the perturbation (ARC's barely on scaled), so a run goes through several
# variants derived from its seed and reports their mean.  One scaled pass
# takes about ten seconds, which bounds its variants.
VARIANTS = {"desk": 48, "scaled": 3, "gn": 32}

# ST passes per ARC pass in the untraced measurement.  On scaled, ST is
# about 35 times cheaper than ARC, so one ST pass per ARC pass would leave
# too few ST samples for a steady median.
ST_REPEATS = {"desk": 1, "scaled": 5, "gn": 1}

GN_N = 10 ** 4


def _perturb(problems, seed):
    # Same offset as ``suite_problems(rng_seed=...)``.
    rng = np.random.default_rng(seed)
    for p in problems:
        p.x0 = p.x0 + 0.1 * rng.standard_normal(p.n) / np.sqrt(p.n)
    return problems


def make_gn_fit(seed, n=GN_N):
    """Sparse linear least squares: a log-uniform diagonal over a difference.

    J = [diag(d); s * D] with d in [1, 30] and D the (n-1, n) first
    difference, so m = 2n - 1 and every J / J' product is O(n).  The data
    are a seeded exact fit plus noise; the start point is 0.
    """
    rng = np.random.default_rng(seed)
    d = np.exp(rng.uniform(0.0, np.log(30.0), n))
    s = 1.0

    def jprod(x, v):
        return np.concatenate([d * v, s * np.diff(v)])

    def jtprod(x, u):
        out = d * u[:n]
        out[:-1] -= s * u[n:]
        out[1:] += s * u[n:]
        return out

    y = jprod(None, rng.standard_normal(n)) + 0.1 * rng.standard_normal(2 * n - 1)
    return LeastSquaresProblem("gnfit", n, 2 * n - 1, np.zeros(n),
                               residual=lambda x: jprod(x, x) - y,
                               jprod=jprod, jtprod=jtprod)


def variant_seeds(workload, seed):
    """Seeds of the run's start-point variants, derived from the run seed."""
    return [int(s) for s in
            np.random.SeedSequence(seed).generate_state(VARIANTS[workload])]


def build(workload, seed):
    """The run's inputs: one list of problem instances per variant."""
    seeds = variant_seeds(workload, seed)
    if workload == "desk":
        return [suite_problems(rng_seed=s) for s in seeds]
    if workload == "scaled":
        return [_perturb([make_diagquad(10 ** 4), make_extrosenbrock(10 ** 4),
                          make_extrosenbrock(10 ** 5)], s) for s in seeds]
    if workload == "gn":
        return [[make_gn_fit(s)] for s in seeds]
    raise ValueError(f"unknown workload {workload!r}")


def warm_up():
    """Run every kernel once on small inputs, outside any measurement."""
    for problem in (make_rosenbrock(), make_diagquad(100), make_linearls()):
        for solver in SOLVERS:
            run_solver(problem, solver)


@dataclass
class Run:
    """One solver on one problem: time, counts and the output check."""

    solver: str
    name: str
    n: int
    seconds: float
    status: str
    products: int
    f_evals: int
    iters: int
    solves: int
    trials: int
    rejected: int
    error: str = ""
    rep: int = 0

    @property
    def solved(self):
        return self.status == STATUS_STATIONARY and not self.error

    def counts(self):
        return (self.products, self.f_evals, self.iters, self.solves,
                self.trials, self.rejected)


def _record_counts_match(record, counters, fields):
    return (record.neval_f, record.neval_grad, record.neval_hvp) == tuple(
        counters[f] for f in fields)


def _check(problem, target, state, record, params, snap, view_snap):
    """Why the run's output is wrong, or "" when every check holds."""
    if record.status != record_status(state.status):
        return f"record status {record.status} != {state.status}"
    ls = isinstance(problem, LeastSquaresProblem)
    if target is not problem:
        if not _record_counts_match(record, view_snap,
                                    ("neval_f", "neval_grad", "neval_hvp")):
            return "record counters differ from the Gauss-Newton view"
        expected = (view_snap["neval_f"] + view_snap["neval_grad"],
                    view_snap["neval_hvp"],
                    view_snap["neval_hvp"] + view_snap["neval_grad"])
        if (snap["neval_residual"], snap["neval_jprod"],
                snap["neval_jtprod"]) != expected:
            return "view counters disagree with the residual counters"
    else:
        fields = (("neval_residual", "neval_jtprod", "neval_jprod") if ls
                  else ("neval_f", "neval_grad", "neval_hvp"))
        if not _record_counts_match(record, snap, fields):
            return "record counters differ from problem.counters"
    if state.status != STATUS_STATIONARY:
        return ""

    def grad_norm(x):
        if ls:
            g = problem.eval_jtprod(x, problem.eval_residual(x))
        else:
            g = problem.eval_grad(x)
        return float(np.linalg.norm(g))

    threshold = stationarity_threshold(grad_norm(problem.x0), params)
    gnorm = grad_norm(state.x)
    if not gnorm <= threshold:
        return f"claims stationarity but ||g(x)|| = {gnorm:.3e} > {threshold:.3e}"
    return ""


def run_solver(problem, solver, tracer=None):
    """Solve one problem with one solver and check the returned point.

    With a tracer, the solver call is a root span and the problem's oracle
    calls are spans; both are removed before the output check.
    """
    ls = isinstance(problem, LeastSquaresProblem)
    target = problem.as_smooth() if ls and solver == "st" else problem
    if solver == "arcqk":
        fn = arcqk_minimize_gauss_newton if ls else arcqk_minimize
        params, root = ArcParams(), "arc.solve"
    else:
        fn, params, root = st_minimize, TrParams(), "steihaug.solve"
    problem.reset_counters()
    if tracer is not None:
        tracer.run_id += 1
        fn = tracer.wrap(fn, root)
        tracer.wrap_problem(problem)
        if target is not problem:
            tracer.wrap_problem(target)
    t0 = time.perf_counter()
    try:
        state, record = fn(target, params)
        failure = None
    except Exception as exc:  # a failed run is counted, never fatal
        failure = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.unwrap_problem(problem)
            tracer.unwrap_problem(target)
    if failure is not None:
        return Run(solver, problem.name, problem.n, seconds, "exception",
                   0, 0, 0, 0, 0, 0, error=failure)
    snap = problem.counters.snapshot()
    view_snap = target.counters.snapshot()
    error = _check(problem, target, state, record, params, snap, view_snap)
    trials = len(state.trace)
    return Run(
        solver, problem.name, problem.n, seconds, state.status,
        products=snap["neval_hvp"] + snap["neval_jprod"] + snap["neval_jtprod"],
        f_evals=snap["neval_f"] + snap["neval_residual"],
        iters=record.iter,
        solves=state.n_solves if solver == "arcqk" else trials,
        trials=trials,
        rejected=sum(not r.success for r in state.trace),
        error=error)


def run_pass(variant, tracer=None, st_repeats=1):
    """One closed-loop pass: each problem in turn, ARC then ST.

    ST solves each problem ``st_repeats`` times in a row; ``Run.rep`` tells
    the repetitions apart.
    """
    runs = []
    for p in variant:
        runs.append(run_solver(p, "arcqk", tracer))
        for rep in range(st_repeats):
            runs.append(run_solver(p, "st", tracer))
            runs[-1].rep = rep
    return runs
