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
     "correct", "failed", "metrics": {name: value}, "products": [line]}

``products`` keeps the run's per-problem ``# products <workload> <name>
n=...`` lines (ARC's and ST's operator products and final statuses on
every n >= 100 instance of the first pass; desk and scaled print them).

``commit`` is ``git describe --always --dirty`` of the run's directory, so
a run on uncommitted changes reads ``<parent>-dirty``.  The ledger is
rewritten after every run, so an interrupted session keeps what finished,
and each run's metrics are printed as one line.
"""

import argparse
import datetime
import json
import subprocess
import sys
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
    sides = []
    for spec in args.repo:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            ap.error(f"--repo needs LABEL=DIR, got {spec!r}")
        sides.append((label, Path(path).resolve()))
    args.sides = sides
    if args.ledger is None:
        date = datetime.datetime.now(datetime.timezone.utc).date()
        args.ledger = ROOT / f"BENCH_{date.isoformat()}.json"
    return args


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
    ledger = (json.loads(args.ledger.read_text())
              if args.ledger.exists() else [])
    commits = {label: describe(path) for label, path in args.sides}
    for workload in args.workload:
        for k, seed in enumerate(args.seeds):
            shift = k % len(args.sides)
            for label, path in args.sides[shift:] + args.sides[:shift]:
                out, products = run_once(path, workload, seed,
                                         args.seconds, args.trace)
                entry = {
                    "commit": commits[label], "label": label,
                    "workload": workload, "seed": seed, "trace": args.trace,
                    "seconds": args.seconds, "correct": out["correct"],
                    "failed": out["failed"],
                    "metrics": {name: m["value"]
                                for name, m in out["metrics"].items()},
                    "products": products,
                }
                ledger.append(entry)
                args.ledger.write_text(json.dumps(ledger, indent=1) + "\n")
                print(f"{workload} seed {seed} {label}: " + ", ".join(
                    f"{n}={v:.6g}" for n, v in entry["metrics"].items()),
                    flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
