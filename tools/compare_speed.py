"""Time ARC and ST in two checkouts over alternating process pairs.

Run from the repository root, for example to compare a parent checkout
with this one on the scaled problems:

    python3 tools/compare_speed.py --repo parent=../parent --repo change=. \\
        --set scaled --pairs 10 --sweeps 10

Every process is a fresh interpreter with the checkout's ``src/`` on the
import path and one BLAS thread.  It builds the set's problems once, then
runs ``--sweeps`` sweeps, each timing ``arcqk_minimize`` and then
``st_minimize`` at default parameters over every problem of the set, and
keeps each solver's best sweep.  The sets are

- ``desk``: the smooth problems of ``suite_problems()`` at their standard
  start points (12 problems, n <= 100);
- ``scaled``: ``make_diagquad(10**4)``, ``make_extrosenbrock(10**4)`` and
  ``make_extrosenbrock(10**5)``, the constructors of perfbench's scaled
  workload, at their standard start points.

Each process also times ``bench_ledger.calibrate`` (this script's copy,
so both sides time the same loop) before every sweep and keeps its best
reading, as it keeps each solver's best sweep; a solver's time is
normalised by it, which takes out most of the load the machine carries
while the process runs.  The two checkouts
run in turn, the first ``--repo`` first in even pairs and second in odd
ones.  A pair's ratio is the second side's normalised time over the
first side's, calibrated (each time over its process's calibration) and
raw; the report gives, per solver and kind, the median ratio over the
pairs, its quartiles and how many pairs read below 1, and exits 1 unless
both sides made the same operator products.  Every process appends one
entry to the ledger of ``tools/bench_ledger.py`` (``--ledger``, by default
``BENCH_<UTC date>.json`` at the root of the repository)::

    {"commit", "label", "workload": "compare_speed", "source", "set",
     "pair", "sweeps", "calibration_s",
     "metrics": {"arcqk_s", "st_s", "arcqk_products", "st_products"}}

``arcqk_s`` and ``st_s`` are best sweeps in seconds, not normalised.

Noise floor: two clones of one commit against each other, 10 pairs on a
2-core machine shared with other load, read calibrated median ratios
(quartiles) of

- desk, 15 sweeps: ARC 1.025 (1.007-1.036), ST 1.013 (1.005-1.027);
- scaled, 10 sweeps: ARC 1.000 (0.987-1.018), ST 1.000 (0.993-1.015).

The raw ratios read ARC 1.020 (0.981-1.048) and ST 1.015 (0.986-1.024)
on desk, ARC 0.997 (0.989-1.009) and ST 0.996 (0.987-1.015) on scaled.
So a desk reading within about 3% of 1 is noise.  A process takes about 6 s on either set at these sweep counts.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_ledger  # noqa: E402

SETS = ("desk", "scaled")
SOLVERS = ("arcqk", "st")
SOURCE = "tools/compare_speed.py, not a perfbench workload"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repo", action="append", required=True,
                    metavar="LABEL=DIR", help="two checkouts, base first")
    ap.add_argument("--set", choices=SETS, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--sweeps", type=int, default=10)
    ap.add_argument("--ledger", type=Path, default=None)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.sides = bench_ledger.parse_sides(ap, args.repo)
    if not args.child and len(args.sides) != 2:
        ap.error("give exactly two --repo checkouts")
    if args.pairs < 1 or args.sweeps < 1:
        ap.error("--pairs and --sweeps must be at least 1")
    if args.ledger is None:
        args.ledger = bench_ledger.default_ledger()
    return args


def problems(name):
    from arcqk.problems import (SmoothProblem, make_diagquad,
                                make_extrosenbrock, suite_problems)
    if name == "desk":
        return [p for p in suite_problems() if isinstance(p, SmoothProblem)]
    return [make_diagquad(10 ** 4), make_extrosenbrock(10 ** 4),
            make_extrosenbrock(10 ** 5)]


def child(name, sweeps):
    """Best sweeps of both solvers in this process, printed as JSON."""
    import arcqk
    from arcqk.arc import arcqk_minimize
    from arcqk.steihaug import st_minimize

    minimize = {"arcqk": arcqk_minimize, "st": st_minimize}
    probs = problems(name)
    calibration = float("inf")
    best = dict.fromkeys(SOLVERS, float("inf"))
    products = {}
    for _ in range(sweeps):
        calibration = min(calibration, bench_ledger.calibrate())
        for solver in SOLVERS:
            for p in probs:
                p.reset_counters()
            t0 = time.perf_counter()
            for p in probs:
                minimize[solver](p)
            best[solver] = min(best[solver], time.perf_counter() - t0)
            products[solver] = sum(p.counters.neval_hvp for p in probs)
    print(json.dumps({
        "module": arcqk.__file__, "calibration_s": calibration,
        "arcqk_s": best["arcqk"], "st_s": best["st"],
        "arcqk_products": products["arcqk"],
        "st_products": products["st"]}))


def run_once(path, name, sweeps):
    env = dict(os.environ, PYTHONPATH=str(path / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, __file__, "--child", "--repo", f"child={path}",
         "--set", name, "--sweeps", str(sweeps)],
        cwd=path, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} failed in {path}:\n"
                           f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(out.pop("module")).resolve().parents[1] != path / "src":
        raise RuntimeError(f"{path}: imported arcqk from another checkout")
    return out


def quartiles(values):
    """``(q1, median, q3)`` of ``values`` by linear interpolation."""
    v = sorted(values)

    def at(q):
        pos = q * (len(v) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (pos - lo) * (v[hi] - v[lo])
    return at(0.25), at(0.5), at(0.75)


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        child(args.set, args.sweeps)
        return 0
    ledger = (json.loads(args.ledger.read_text())
              if args.ledger.exists() else [])
    commits = {label: bench_ledger.describe(path)
               for label, path in args.sides}
    (base, _), (new, _) = args.sides
    # per solver and kind ("calibrated", "raw"): one ratio per pair
    ratios = {(solver, kind): [] for solver in SOLVERS
              for kind in ("calibrated", "raw")}
    same_products = True
    for pair in range(args.pairs):
        order = args.sides if pair % 2 == 0 else args.sides[::-1]
        runs = {}
        for label, path in order:
            m = run_once(path, args.set, args.sweeps)
            cal = m.pop("calibration_s")
            ledger.append({
                "commit": commits[label], "label": label,
                "workload": "compare_speed", "source": SOURCE,
                "set": args.set, "pair": pair, "sweeps": args.sweeps,
                "calibration_s": cal, "metrics": m})
            args.ledger.write_text(json.dumps(ledger, indent=1) + "\n")
            runs[label] = m, cal
            print(f"pair {pair} {label}: calibration_s={cal:.4g}, "
                  f"arcqk_s={m['arcqk_s']:.4g}, st_s={m['st_s']:.4g}, "
                  f"products {m['arcqk_products']}/{m['st_products']}",
                  flush=True)
        (mb, cb), (mn, cn) = runs[base], runs[new]
        for solver in SOLVERS:
            raw = mn[f"{solver}_s"] / mb[f"{solver}_s"]
            ratios[solver, "raw"].append(raw)
            ratios[solver, "calibrated"].append(raw * cb / cn)
            same_products &= (mn[f"{solver}_products"]
                              == mb[f"{solver}_products"])
    for (solver, kind), values in ratios.items():
        q1, med, q3 = quartiles(values)
        below = sum(r < 1.0 for r in values)
        print(f"{args.set} {solver}: {new}/{base} {kind} ratio median "
              f"{med:.3f} (quartiles {q1:.3f}-{q3:.3f}), below 1 in "
              f"{below} of {args.pairs} pairs")
    if not same_products:
        print("operator products differ between the checkouts")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
