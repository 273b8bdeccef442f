"""Benchmark harness: solver-by-problem matrices and performance profiles."""

from __future__ import annotations

import csv
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .arc import ArcParams, arcqk_minimize
from .records import (BENCH_FIELDS, RECORD_EXCEPTION, RECORD_SUCCESS,
                      BenchRecord, record_from_dict)
from .steihaug import TrParams, st_minimize

PROFILE_METRICS = ("time", "neval_f", "neval_grad", "neval_hvp",
                   "neval_f_plus_3g")


# solver id -> (params class, minimize(problem, params) -> (state, record));
# each solver takes a smooth or a least-squares problem
SOLVERS = {"arcqk": (ArcParams, arcqk_minimize), "st": (TrParams, st_minimize)}


def solver_params(name, time_budget=None, overrides=None):
    """Solver ``name``'s parameters from the overrides, ``time_budget``
    filling an unset budget; an unknown solver, parameter name or value
    raises ``ValueError``."""
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}; "
                         f"available: {', '.join(SOLVERS)}")
    cls = SOLVERS[name][0]
    kwargs = dict(overrides or {})
    bad = set(kwargs) - set(cls.__dataclass_fields__)
    if bad:
        raise ValueError(f"unknown parameter(s) for {cls.__name__}: "
                         f"{', '.join(sorted(bad))}")
    kwargs.setdefault("time_budget", time_budget)
    return cls(**kwargs)


def run_matrix(problems, solvers, budget_per_run=None, overrides=None):
    """Run every named solver on every problem; failures become records.

    Returns ``{solver_id: [BenchRecord, ...]}`` with rows sorted by problem
    name.  A solver raising on one problem yields a record with status
    ``exception``, the exception's ``Type: message`` as its ``detail``,
    and never aborts the rest of the matrix; a solver's own record carries
    its fine status in ``detail``.  Each solver's parameters are built from
    the overrides once, before the first run, so an unknown solver or a bad
    parameter name or value raises ``ValueError`` instead.
    """
    if not problems or not solvers:
        raise ValueError("problems and solvers must be non-empty")
    runs = {name: (solver_params(name, budget_per_run, overrides),
                   SOLVERS[name][1]) for name in solvers}
    out = {name: [] for name in runs}
    for problem in sorted(problems, key=lambda p: p.name):
        for name, (params, minimize) in runs.items():
            problem.reset_counters()
            t0 = time.perf_counter()
            try:
                _, record = minimize(problem, params)
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
    return float(getattr(record, metric))


def performance_profile(records_by_solver, metric="time"):
    """Dolan-More performance profiles over a solver-keyed record table.

    A problem is keyed by ``(name, nvar)``, so one name at two sizes is
    two problems; a solver that repeats a key raises ``ValueError``.  Per
    problem, each solver's metric is divided by the best metric among
    solvers that succeeded on it; failed runs get an infinite ratio.  The
    returned curves share breakpoints (the sorted finite ratios) so they can
    be tabulated side by side.
    """
    if metric not in PROFILE_METRICS:
        raise ValueError(f"unknown metric {metric!r}; "
                         f"available: {', '.join(PROFILE_METRICS)}")
    solvers = list(records_by_solver)
    if not solvers:
        raise ValueError("no solver records given")
    by_problem = {s: {} for s in solvers}
    for s, rows in by_problem.items():
        for r in records_by_solver[s]:
            if (r.name, r.nvar) in rows:
                raise ValueError(f"solver {s!r} repeats problem {r.name!r} "
                                 f"at n = {r.nvar}")
            rows[r.name, r.nvar] = r
    keys = sorted(by_problem[solvers[0]])
    if any(rows.keys() != set(keys) for rows in by_problem.values()):
        raise ValueError("solvers must cover identical problem sets")

    ratios = {s: [] for s in solvers}
    for key in keys:
        vals = {}
        for s in solvers:
            rec = by_problem[s][key]
            if rec.status == RECORD_SUCCESS:
                vals[s] = _metric_value(rec, metric)
        if vals and max(vals.values()) == 0.0:
            warnings.warn(f"dropping problem {key[0]!r} at n = {key[1]}: "
                          f"metric {metric!r} is zero for every solver")
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
    if not n_problems:
        raise ValueError(f"no problem left to profile by {metric!r}")
    table = np.array([ratios[s] for s in solvers])
    taus = np.unique(np.append(1.0, table[np.isfinite(table)]))

    curves = []
    for s, row in zip(solvers, table):
        r = np.sort(row)
        rhos = np.array([np.count_nonzero(r <= t) / n_problems for t in taus])
        curves.append(ProfileCurve(
            solver=s, ratios=r, taus=taus, rhos=rhos,
            n_problems=n_problems,
            fraction_solved=float(np.count_nonzero(np.isfinite(r)) / n_problems)))
    return curves


# ---------------------------------------------------------------------------
# writers and readers

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def write_records_csv(rows, path):
    """Write one solver's records as csv, floats to 17 digits."""
    _write_csv(path, BENCH_FIELDS, ([_fmt(getattr(rec, name))
                                     for name in BENCH_FIELDS] for rec in rows))


def write_records_json(table, path):
    """Write a solver-keyed record table ``{solver: [BenchRecord, ...]}``."""
    _write_json(path, {s: [asdict(r) for r in rows]
                       for s, rows in table.items()})


def read_records_json(path):
    """The solver-keyed record table of a ``write_records_json`` file;
    any other JSON raises ``ValueError``."""
    with open(path) as fh:
        payload = json.load(fh)
    if not (isinstance(payload, dict) and all(
            isinstance(rows, list) and all(isinstance(r, dict) for r in rows)
            for rows in payload.values())):
        raise ValueError(f"{path} holds no solver-keyed record table "
                         "{solver: [record, ...]}")
    return {s: [record_from_dict(r) for r in rows]
            for s, rows in payload.items()}


def read_records_csv(path):
    """One solver's records from a ``write_records_csv`` file."""
    with open(path, newline="") as fh:
        return [record_from_dict(row) for row in csv.DictReader(fh)]


def write_profile(curves, path, title=None):
    """Write profile curves as csv, json or svg, by the extension of
    ``path``; any other extension raises ``ValueError``."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        _write_csv(path, ["tau"] + [c.solver for c in curves],
                   ([_fmt(float(tau))] + [_fmt(float(c.rhos[i])) for c in curves]
                    for i, tau in enumerate(curves[0].taus)))
    elif ext == ".json":
        _write_json(path, [
            {"solver": c.solver,
             "ratios": [r if np.isfinite(r) else None for r in c.ratios],
             "taus": list(map(float, c.taus)),
             "rhos": list(map(float, c.rhos)),
             "n_problems": c.n_problems,
             "fraction_solved": c.fraction_solved} for c in curves])
    elif ext == ".svg":
        with open(path, "w") as fh:
            fh.write(_svg(curves, title or "performance profile"))
    else:
        raise ValueError(f"profile output {path}: the extension must be "
                         ".csv, .json or .svg")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b")


def _svg(curves, title):
    """Self-contained SVG step plot on a log2 ratio axis.

    Failed runs are rendered by truncation: a curve simply levels off below
    one instead of acquiring an artificial breakpoint.
    """
    # imported here: xml.sax.saxutils imports urllib.request, which costs
    # every ``import arcqk`` about 6 MB of peak RSS and 35 ms
    from xml.sax.saxutils import escape

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
        f'font-size="13">{escape(title)}</text>']
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
        pts = [(0.0, curve.rhos[0])]    # taus[0] is 1
        for tau, rho in zip(curve.taus, curve.rhos):
            lt = float(np.log2(tau))
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
                     f'{escape(curve.solver)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

