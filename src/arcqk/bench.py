"""Benchmark harness: solver-by-problem matrices and performance profiles."""

from __future__ import annotations

import csv
import json
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .arc import ArcParams, arcqk_minimize, arcqk_minimize_gauss_newton
from .problems import LeastSquaresProblem
from .records import (BENCH_FIELDS, RECORD_EXCEPTION, RECORD_SUCCESS,
                      BenchRecord, record_from_dict, record_to_dict)
from .steihaug import TrParams, st_minimize

PROFILE_METRICS = ("time", "neval_f", "neval_grad", "neval_hvp",
                   "neval_f_plus_3g")


def _build_params(cls, time_budget, overrides):
    """Solver parameters from the overrides; a bad name or value raises."""
    kwargs = dict(overrides or {})
    bad = set(kwargs) - set(cls.__dataclass_fields__)
    if bad:
        raise ValueError(f"unknown parameter(s) for {cls.__name__}: "
                         f"{', '.join(sorted(bad))}")
    kwargs.setdefault("time_budget", time_budget)
    return cls(**kwargs)


def solve_arcqk(problem, time_budget=None, overrides=None):
    """Run the cubic-regularization solver on one problem instance."""
    params = _build_params(ArcParams, time_budget, overrides)
    if isinstance(problem, LeastSquaresProblem):
        _, record = arcqk_minimize_gauss_newton(problem, params)
    else:
        _, record = arcqk_minimize(problem, params)
    return record


solve_arcqk.params = ArcParams


def solve_st(problem, time_budget=None, overrides=None):
    """Run the trust-region baseline on one problem instance."""
    params = _build_params(TrParams, time_budget, overrides)
    if isinstance(problem, LeastSquaresProblem):
        problem = problem.as_smooth()
    _, record = st_minimize(problem, params)
    return record


solve_st.params = TrParams

SOLVERS = {"arcqk": solve_arcqk, "st": solve_st}


def _resolve_solvers(solvers):
    resolved = {}
    for item in solvers:
        if isinstance(item, str):
            if item not in SOLVERS:
                raise ValueError(f"unknown solver {item!r}; "
                                 f"available: {', '.join(SOLVERS)}")
            resolved[item] = SOLVERS[item]
        else:
            name, fn = item
            resolved[name] = fn
    return resolved


def run_matrix(problems, solvers, budget_per_run=None, overrides=None):
    """Run every solver on every problem; failures become records.

    Returns ``{solver_id: [BenchRecord, ...]}`` with rows sorted by problem
    name.  A solver raising on one problem yields a record with status
    ``exception``, the exception's ``Type: message`` as its ``detail``,
    and never aborts the rest of the matrix; a solver's own record carries
    its fine status in ``detail``.  The overrides
    are checked against the ``params`` class of every solver that has one
    (both built-in solvers do) before the first run, so a bad name or value
    raises ``ValueError`` instead.
    """
    if not problems or not solvers:
        raise ValueError("problems and solvers must be non-empty")
    resolved = _resolve_solvers(solvers)
    for fn in resolved.values():
        if hasattr(fn, "params"):
            _build_params(fn.params, budget_per_run, overrides)
    out = {name: [] for name in resolved}
    for problem in sorted(problems, key=lambda p: p.name):
        for name, fn in resolved.items():
            problem.reset_counters()
            t0 = time.perf_counter()
            try:
                record = fn(problem, budget_per_run, overrides)
            except Exception as exc:
                record = BenchRecord(
                    name=problem.name, nvar=problem.n,
                    f=np.nan, grad_norm=np.nan, iter=0,
                    neval_f=0, neval_grad=0, neval_hvp=0,
                    elapsed_seconds=time.perf_counter() - t0,
                    status=RECORD_EXCEPTION,
                    detail=f"{type(exc).__name__}: {exc}")
            out[name].append(record)
    return out


@dataclass
class ProfileCurve:
    """Step function of one solver's performance ratios."""

    solver: str
    ratios: np.ndarray        # sorted, +inf for failed runs
    taus: np.ndarray          # breakpoints shared across solvers
    rhos: np.ndarray          # fraction of problems with ratio <= tau
    n_problems: int
    fraction_solved: float

    def rho_at(self, tau: float) -> float:
        return float(np.count_nonzero(self.ratios <= tau) / self.n_problems)


def _metric_value(record: BenchRecord, metric: str) -> float:
    if metric == "time":
        return record.elapsed_seconds
    if metric == "neval_f_plus_3g":
        return record.neval_f + 3.0 * record.neval_grad
    if metric in ("neval_f", "neval_grad", "neval_hvp"):
        return float(getattr(record, metric))
    raise ValueError(f"unknown metric {metric!r}; "
                     f"available: {', '.join(PROFILE_METRICS)}")


def performance_profile(records_by_solver, metric="time"):
    """Dolan-More performance profiles over a solver-keyed record table.

    Per problem, each solver's metric is divided by the best metric among
    solvers that succeeded on it; failed runs get an infinite ratio.  The
    returned curves share breakpoints (the sorted finite ratios) so they can
    be tabulated side by side.
    """
    solvers = list(records_by_solver)
    if not solvers:
        raise ValueError("no solver records given")
    by_problem = {}
    name_sets = []
    for s in solvers:
        rows = {r.name: r for r in records_by_solver[s]}
        name_sets.append(set(rows))
        by_problem[s] = rows
    if any(ns != name_sets[0] for ns in name_sets[1:]):
        raise ValueError("solvers must cover identical problem sets")
    names = sorted(name_sets[0])

    ratios = {s: [] for s in solvers}
    for name in names:
        vals = {}
        for s in solvers:
            rec = by_problem[s][name]
            if rec.status == RECORD_SUCCESS:
                vals[s] = _metric_value(rec, metric)
        if vals and max(vals.values()) == 0.0:
            warnings.warn(f"dropping problem {name!r}: metric {metric!r} is "
                          "zero for every solver")
            continue
        best = min(vals.values()) if vals else np.inf
        for s in solvers:
            if s not in vals:
                ratios[s].append(np.inf)
            elif vals[s] == 0.0:        # only possible alongside best == 0
                ratios[s].append(1.0)
            else:
                ratios[s].append(vals[s] / best if best > 0 else np.inf)

    n_problems = len(ratios[solvers[0]])
    all_finite = np.concatenate([
        np.asarray([r for r in ratios[s] if np.isfinite(r)]) for s in solvers
    ]) if n_problems else np.array([])
    taus = np.unique(np.concatenate([[1.0], all_finite]))

    curves = []
    for s in solvers:
        r = np.sort(np.asarray(ratios[s], dtype=float))
        rhos = np.array([np.count_nonzero(r <= t) / n_problems for t in taus])
        curves.append(ProfileCurve(
            solver=s, ratios=r, taus=taus, rhos=rhos,
            n_problems=n_problems,
            fraction_solved=float(np.count_nonzero(np.isfinite(r)) / n_problems)))
    return curves


# ---------------------------------------------------------------------------
# emitters

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _open_for_write(path):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _records_csv(records, path):
    with _open_for_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_FIELDS)
        for rec in records:
            writer.writerow([_fmt(getattr(rec, name)) for name in BENCH_FIELDS])


def _records_json(obj, path):
    if isinstance(obj, dict):
        payload = {s: [record_to_dict(r) for r in rows] for s, rows in obj.items()}
    else:
        payload = [record_to_dict(r) for r in obj]
    with _open_for_write(path) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _curves_csv(curves, path):
    with _open_for_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau"] + [c.solver for c in curves])
        for i, tau in enumerate(curves[0].taus):
            writer.writerow([_fmt(float(tau))] +
                            [_fmt(float(c.rhos[i])) for c in curves])


def _curves_json(curves, path):
    payload = [{"solver": c.solver,
                "ratios": [r if np.isfinite(r) else None for r in c.ratios],
                "taus": list(map(float, c.taus)),
                "rhos": list(map(float, c.rhos)),
                "n_problems": c.n_problems,
                "fraction_solved": c.fraction_solved} for c in curves]
    with _open_for_write(path) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b")


def _curves_svg(curves, path, title="performance profile"):
    """Self-contained SVG step plot on a log2 ratio axis.

    Failed runs are rendered by truncation: a curve simply levels off below
    one instead of acquiring an artificial breakpoint.
    """
    width, height = 640, 420
    ml, mr, mt, mb = 60, 160, 30, 45
    pw, ph = width - ml - mr, height - mt - mb
    finite = [np.log2(c.ratios[np.isfinite(c.ratios)]) for c in curves]
    xmax = max(1.0, *(float(f[-1]) if f.size else 0.0 for f in finite))
    xmax = float(np.ceil(xmax))

    def sx(logtau):
        return ml + pw * logtau / xmax

    def sy(rho):
        return mt + ph * (1.0 - rho)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="{mt - 10}" font-family="sans-serif" '
        f'font-size="13">{title}</text>']
    # axes and ticks
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" '
                 f'y2="{mt + ph}" stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
                 f'stroke="black"/>')
    for t in range(int(xmax) + 1):
        x = sx(t)
        parts.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" '
                     f'y2="{mt + ph + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{mt + ph + 18}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle">{t}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" '
                 f'font-family="sans-serif" font-size="12" '
                 f'text-anchor="middle">log2(performance ratio)</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="end">{frac:g}</text>')

    for idx, curve in enumerate(curves):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        pts = [(0.0, curve.rho_at(1.0))]
        for tau in curve.taus:
            lt = float(np.log2(tau))
            rho = curve.rho_at(float(tau))
            pts.append((lt, pts[-1][1]))
            pts.append((lt, rho))
        pts.append((xmax, pts[-1][1]))
        coords = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        ly = mt + 16 + 18 * idx
        parts.append(f'<line x1="{ml + pw + 10}" y1="{ly - 4}" '
                     f'x2="{ml + pw + 34}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        parts.append(f'<text x="{ml + pw + 40}" y="{ly}" '
                     f'font-family="sans-serif" font-size="12">'
                     f'{curve.solver}</text>')
    parts.append("</svg>")
    with _open_for_write(path) as fh:
        fh.write("\n".join(parts) + "\n")


def emit(obj, fmt, path, title=None):
    """Write records or profile curves as csv, json or (curves only) svg."""
    if fmt not in ("csv", "json", "svg"):
        raise ValueError(f"unknown format {fmt!r}")
    is_curves = (isinstance(obj, (list, tuple)) and obj
                 and isinstance(obj[0], ProfileCurve))
    if fmt == "svg":
        if not is_curves:
            raise ValueError("svg output is only defined for profile curves")
        _curves_svg(obj, path, title or "performance profile")
    elif is_curves:
        (_curves_csv if fmt == "csv" else _curves_json)(obj, path)
    elif fmt == "csv":
        if isinstance(obj, dict):
            raise ValueError("csv records output needs a flat record list")
        _records_csv(obj, path)
    else:
        _records_json(obj, path)
    return path


def read_records_json(path):
    """Inverse of ``emit(..., "json", ...)`` for benchmark records."""
    with open(path) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        return {s: [record_from_dict(r) for r in rows]
                for s, rows in payload.items()}
    return [record_from_dict(r) for r in payload]


def read_records_csv(path):
    with open(path, newline="") as fh:
        return [record_from_dict(row) for row in csv.DictReader(fh)]
