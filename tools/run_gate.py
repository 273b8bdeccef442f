"""Run every ARC and ST solve of fixed benchmark inputs and fingerprint each.

A change that must leave the solvers' results untouched is checked by
running this script in the parent checkout and in the changed one, then
comparing the two outputs:

    python3 tools/run_gate.py --repo ../parent --out parent.jsonl
    python3 tools/run_gate.py --out change.jsonl
    python3 tools/run_gate.py --compare parent.jsonl change.jsonl

The inputs are those of ``perfbench/workloads.py::build`` in the checkout
that ``--repo`` names (by default the one holding this script), with that
checkout's ``src/`` on the import path: desk seed 1 (48 variants), scaled
seed 11 (3 variants) and the first 8 variants of gn seed 1.  Every
problem, smooth or least squares, goes to ``arcqk_minimize`` and
``st_minimize``, which pick its path.  Each run writes one JSON line: its
workload, variant, problem, n and solver; the final status; the f and
gradient counts of its ``BenchRecord``; the operator products counted on
the problem, ``neval_hvp + neval_jprod + neval_jtprod``, as perfbench
counts them; per trial the selected shift index (ARC) or the radius (ST)
and whether the step was accepted; and a sha256 over the final x, every
trial's step, every trial's rho and, for ARC, every trial's
``shift_statuses`` (as plain names, so a shift whose status is
mislabelled shows even when the selection never picks it).  The steps
are collected by the solver's per-trial callback, ``callback(rec, state,
d)``.  A run that raises keeps its exception as status.

``--compare A B`` lists every run that is missing from one side or
differs, with its differing fields (a run whose counts and trials agree
and only the hash differs is marked ``hash only``), ends with the count
of differing runs per solver, for example ``747 differ: arcqk 0 (0 hash
only), st 747 (747 hash only)``, and exits 1 when there is any.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

# One BLAS thread, as in perfbench/run.py, so that sums run in one order.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]

# (workload, seed, number of variants)
RUNS = (("desk", 1, 48), ("scaled", 11, 3), ("gn", 1, 8))
FLUSH_N = 4100
KEY = ("workload", "variant", "problem", "n", "solver")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repo", type=Path, default=ROOT,
                    help="checkout whose src/ and perfbench/ are run")
    ap.add_argument("--out", type=Path,
                    help="JSON-lines output (default: standard output)")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    return ap.parse_args(argv)


def fingerprint(state, solver, steps):
    h = hashlib.sha256()
    h.update(state.x.tobytes())
    for rec, d in zip(state.trace, steps, strict=True):
        h.update(d.tobytes())
        h.update(repr(float(rec.rho)).encode())
        if solver == "arcqk":
            h.update(",".join(rec.shift_statuses).encode())
    return h.hexdigest()


def run_one(problem, minimize, solver):
    problem.reset_counters()
    steps = []

    def keep_step(rec, state, d):
        steps.append(d)

    try:
        state, record = minimize(problem, callback=keep_step)
    except Exception as exc:  # a failed run is a result to compare
        return {"status": f"exception {type(exc).__name__}: {exc}"}
    if solver == "arcqk":
        trials = [[r.shift_index, bool(r.success)] for r in state.trace]
    else:
        trials = [[float(r.delta), bool(r.success)] for r in state.trace]
    c = problem.counters
    return {"status": state.status, "f_evals": record.neval_f,
            "grad_evals": record.neval_grad,
            "products": c.neval_hvp + c.neval_jprod + c.neval_jtprod,
            "trials": trials, "hash": fingerprint(state, solver, steps)}


def run_gate(repo, out):
    repo = repo.resolve()
    sys.path[:0] = [str(repo / "src"), str(repo / "perfbench")]
    import arcqk
    import workloads
    from arcqk.problems import make_diagquad

    if Path(arcqk.__file__).resolve().parents[1] != repo / "src":
        raise RuntimeError(f"imported arcqk from {arcqk.__file__}, not {repo}")
    solvers = {"arcqk": arcqk.arcqk_minimize, "st": arcqk.st_minimize}
    inputs = [(workload, v, variant) for workload, seed, count in RUNS
              for v, variant in enumerate(
                  workloads.build(workload, seed)[:count])]
    inputs.append(("flush", 0, [make_diagquad(FLUSH_N)]))
    for workload, v, variant in inputs:
        for problem in variant:
            for solver, minimize in solvers.items():
                row = dict(zip(KEY, (workload, v, problem.name, problem.n,
                                     solver)))
                row.update(run_one(problem, minimize, solver))
                out.write(json.dumps(row) + "\n")
                out.flush()


def load(path):
    rows = {}
    for line in path.read_text().splitlines():
        row = json.loads(line)
        rows[tuple(row[k] for k in KEY)] = row
    return rows


def compare(a_path, b_path):
    a, b = load(a_path), load(b_path)
    # per solver: [runs that differ, of which only the hash differs]
    differ = {"arcqk": [0, 0], "st": [0, 0]}
    for key in sorted(a.keys() | b.keys(), key=str):
        ra, rb = a.get(key), b.get(key)
        name = " ".join(map(str, key))
        tally = differ[key[-1]]
        if ra is None or rb is None:
            print(f"{name}: only in {a_path if rb is None else b_path}")
            tally[0] += 1
            continue
        fields = [f for f in sorted(ra.keys() | rb.keys())
                  if ra.get(f) != rb.get(f)]
        if not fields:
            continue
        tally[0] += 1
        if fields == ["hash"]:
            tally[1] += 1
            print(f"{name}: hash only")
        else:
            print(f"{name}: " + "; ".join(
                f"{f} {ra.get(f)!r} -> {rb.get(f)!r}"
                for f in fields if f != "hash"))
    total = sum(n for n, _ in differ.values())
    print(f"{len(a)} runs in {a_path}, {len(b)} in {b_path}, "
          f"{total} differ: " + ", ".join(
              f"{solver} {n} ({h} hash only)"
              for solver, (n, h) in differ.items()))
    return 1 if total else 0


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        run_gate(args.repo, sys.stdout)
    else:
        with args.out.open("w") as out:
            run_gate(args.repo, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
