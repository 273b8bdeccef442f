"""Run the benchmark on one or more checkouts and append the results to a ledger.

Run from the repository root, for example to compare a parent checkout
with this one over alternating pairs:

    python3 tools/bench_ledger.py --repo parent=../parent --repo change=. \\
        --workload scaled --seeds 101 102 103 --seconds 35 --trace 0

For every workload and seed, ``perfbench/run.py`` runs once in each
``--repo`` directory, in the order given for the first seed and rotated by
one for each further seed, so that neither side always runs first.  Each
run appends one entry to the ledger, ``BENCH_<UTC date>.json`` at the root
of the repository holding this script unless ``--ledger`` names another
file::

    {"commit", "label", "workload", "seed", "trace", "seconds",
     "calibration_s", "correct", "failed", "metrics": {name: value},
     "products": [line]}

``products`` keeps the run's per-problem ``# products <workload> <name>
n=...`` lines (ARC's and ST's operator products and final statuses on
every n >= 100 instance of the first pass; desk and scaled print them).

``commit`` is ``git describe --always --dirty`` of the run's directory, so
a run on uncommitted changes reads ``<parent>-dirty``.  The ledger is
rewritten after every run, so an interrupted session keeps what finished,
and each run's metrics are printed as one line.

``calibration_s`` is the time of a fixed loop of small numpy calls and
vector updates (``calibrate``, about 0.2 s on an idle 2-core machine),
timed in this process just before the run.  It shows how loaded the
machine was: timings from one session compare directly, but entries from
different sessions compare only after scaling each by its
``calibration_s``.

``tools/large_n.py`` and ``tools/compare_speed.py`` append their entries
through ``append_entry`` and run their measuring processes through
``run_child``.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repo", action="append", required=True,
                    metavar="LABEL=DIR", help="a checkout to run, repeatable")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ledger", type=Path, default=None)
    args = ap.parse_args(argv)
    args.sides = parse_sides(ap, args.repo)
    if args.ledger is None:
        args.ledger = default_ledger()
    return args


def parse_sides(ap, specs):
    """``(label, resolved path)`` of every ``LABEL=DIR`` in ``specs``."""
    sides = []
    for spec in specs:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            ap.error(f"--repo needs LABEL=DIR, got {spec!r}")
        sides.append((label, Path(path).resolve()))
    return sides


def default_ledger():
    date = datetime.datetime.now(datetime.timezone.utc).date()
    return ROOT / f"BENCH_{date.isoformat()}.json"


def calibrate():
    """Seconds of a fixed loop of 2 000 passes, each 20 numpy calls on
    31-element rows and three passes over a 1e5-element vector: five
    times the median of five timed blocks of 400 passes, so that one
    stall does not move it.  No BLAS call, so the number of BLAS threads
    does not matter."""
    import numpy as np

    x, y, z = np.ones(100_000), np.ones(31), np.zeros(31)
    blocks = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(400):
            for _ in range(10):
                np.multiply(y, 0.5, out=z)
                z += 1.0
            x *= 0.999
            x += 0.001
            x.sum()
        blocks.append(time.perf_counter() - t0)
    return 5 * sorted(blocks)[2]


def append_entry(ledger, entry):
    """Append ``entry`` to the JSON list in the file ``ledger``, which is
    made when missing, and rewrite the file."""
    entries = json.loads(ledger.read_text()) if ledger.exists() else []
    entries.append(entry)
    ledger.write_text(json.dumps(entries, indent=1) + "\n")


def run_child(path, args, what):
    """Run ``python args`` in a fresh interpreter in the checkout ``path``,
    with its ``src/`` on the import path and one BLAS thread.

    Returns the last line of the child's standard output, parsed as JSON,
    without its ``module`` entry, the ``arcqk.__file__`` it imported, which
    must lie in ``path``.  A failed child raises ``RuntimeError`` naming
    ``what``, with the tail of its standard error.
    """
    env = dict(os.environ, PYTHONPATH=str(path / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, *args], cwd=path, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{what} failed in {path}:\n"
                           f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(out.pop("module")).resolve().parents[1] != path / "src":
        raise RuntimeError(f"{path}: imported arcqk from another checkout")
    return out


def describe(path):
    proc = subprocess.run(["git", "-C", str(path), "describe", "--always",
                           "--dirty", "--abbrev=12"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(path, workload, seed, seconds, trace):
    """One benchmark run in ``path``: its final JSON line, parsed, and its
    per-problem product lines without the leading ``# ``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed in {path}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    products = [line[2:] for line in lines if line.startswith("# products ")]
    return json.loads(lines[-1]), products


def main(argv=None):
    args = parse_args(argv)
    commits = {label: describe(path) for label, path in args.sides}
    for workload in args.workload:
        for k, seed in enumerate(args.seeds):
            shift = k % len(args.sides)
            for label, path in args.sides[shift:] + args.sides[:shift]:
                calibration = calibrate()
                out, products = run_once(path, workload, seed,
                                         args.seconds, args.trace)
                entry = {
                    "commit": commits[label], "label": label,
                    "workload": workload, "seed": seed, "trace": args.trace,
                    "seconds": args.seconds, "calibration_s": calibration,
                    "correct": out["correct"],
                    "failed": out["failed"],
                    "metrics": {name: m["value"]
                                for name, m in out["metrics"].items()},
                    "products": products,
                }
                append_entry(args.ledger, entry)
                print(f"{workload} seed {seed} {label}: calibration_s="
                      f"{calibration:.4g}, " + ", ".join(
                          f"{n}={v:.6g}" for n, v in entry["metrics"].items()),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
