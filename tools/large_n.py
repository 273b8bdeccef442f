"""Peak memory, products and time of ARC and ST on make_diagquad(10**6).

Run from the repository root, for example to compare a parent checkout
with this one:

    python3 tools/large_n.py --repo parent=../parent --repo change=.

Each solver (``arcqk_minimize`` and ``st_minimize`` at default parameters)
runs once per ``--repo`` directory, in a fresh interpreter with that
checkout's ``src/`` on the import path and one BLAS thread, because
``ru_maxrss`` covers the whole process.  Each run prints one line (HVPs,
f-evals, status, solve seconds, peak RSS in MB and the process's minor
page faults, ``ru_minflt``) and appends one entry to the ledger of
``tools/bench_ledger.py`` (``--ledger``, by default
``BENCH_<UTC date>.json`` at the root of the repository)::

    {"commit", "label", "workload": "large_n", "source", "solver",
     "calibration_s", "metrics": {"products", "f_evals", "status",
     "seconds", "peak_rss_mb", "minflt"}}

``workload`` is ``large_n`` and ``source`` names this script: these
entries are not a perfbench workload.  One ARC run peaks at about
720 MB (1.3 GB while flushes still formed (m+1, n) temporaries) and
takes 4–8 s on a 2-core machine shared with other load; ST peaks at
about 123 MB.
"""

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_ledger  # noqa: E402

N = 10 ** 6
SOLVERS = ("arcqk", "st")
SOURCE = "tools/large_n.py, not a perfbench workload"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repo", action="append", metavar="LABEL=DIR",
                    help="a checkout to run, repeatable (default: this one)")
    ap.add_argument("--ledger", type=Path, default=None)
    ap.add_argument("--child", choices=SOLVERS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.sides = bench_ledger.parse_sides(
        ap, args.repo or [f"this={bench_ledger.ROOT}"])
    if args.ledger is None:
        args.ledger = bench_ledger.default_ledger()
    return args


def child(solver):
    """One solve in this process; prints its result as one JSON line."""
    import arcqk
    from arcqk.arc import arcqk_minimize
    from arcqk.problems import make_diagquad
    from arcqk.steihaug import st_minimize

    problem = make_diagquad(N)
    minimize = arcqk_minimize if solver == "arcqk" else st_minimize
    state, record = minimize(problem)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "module": arcqk.__file__, "products": record.neval_hvp,
        "f_evals": record.neval_f, "status": state.status,
        "seconds": record.elapsed_seconds,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minflt": usage.ru_minflt}))


def main(argv=None):
    args = parse_args(argv)
    if args.child is not None:
        child(args.child)
        return 0
    for label, path in args.sides:
        commit = bench_ledger.describe(path)
        for solver in SOLVERS:
            calibration = bench_ledger.calibrate()
            metrics = bench_ledger.run_child(
                path, [__file__, "--child", solver], solver)
            bench_ledger.append_entry(args.ledger, {
                "commit": commit, "label": label, "workload": "large_n",
                "source": SOURCE, "solver": solver,
                "calibration_s": calibration, "metrics": metrics})
            print(f"{label} {solver}: HVPs {metrics['products']}, f-evals "
                  f"{metrics['f_evals']}, {metrics['status']}, "
                  f"{metrics['seconds']:.1f} s, peak RSS "
                  f"{metrics['peak_rss_mb']:.1f} MB, minor faults "
                  f"{metrics['minflt']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
