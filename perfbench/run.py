"""Benchmark of the arcqk solvers: time to solution and operator products.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

One client solves one problem after another (a closed loop), ARC then the
Steihaug-Toint baseline on each problem, in a single process.  A pass
solves every problem of one start-point variant once; passes go through
the variants in turn while another pass still fits into ``--seconds``,
and an untraced run always completes one cycle over all variants.  Every
run's output is checked.  Diagnostics go to lines
starting with ``#``; the last line is one JSON object with the metrics that
BENCHMARK.json lists: its ``end_to_end`` metrics with ``--trace 0`` and its
``per_layer`` metrics with ``--trace 1``.  The traced run alternates
untraced and traced passes over the same inputs, and writes its spans to
``perfbench/out/``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS threads are fixed before numpy is imported; the kernel's work is
# elementwise numpy, and one thread keeps a shared machine's noise down.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(SRC))

import arcqk  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_SAMPLES = 7           # this process plus six fresh ones
MB = 1024.0                 # ru_maxrss is in KiB on Linux


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.VARIANTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up only and print the set-up time")
    return ap.parse_args(argv)


def setup(workload, seed):
    """Problem construction and warm-up; returns the variants.

    The imports at the top of this file are the first part of set-up.
    """
    if Path(arcqk.__file__).resolve().parent != SRC / "arcqk":
        raise RuntimeError(f"imported arcqk from {arcqk.__file__}, "
                           f"not from {SRC}")
    variants = workloads.build(workload, seed)
    workloads.warm_up()
    return variants


def setup_probe(workload, seed):
    """Set-up time of a fresh interpreter, measured by that interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# diagnostics

def _read(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def machine_record():
    model = "unknown"
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(index / 'level')} {_read(index / 'type')} "
                      f"{_read(index / 'size')} (cpus {_read(index / 'shared_cpu_list')})")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return [
        f"nproc {os.cpu_count()}, usable {len(os.sched_getaffinity(0))}; "
        f"cpu {model}",
        "caches: " + ("; ".join(caches) or "unknown"),
        f"python {sys.version.split()[0]}, numpy {np.__version__}, "
        f"blas {blas.get('name', '?')} {blas.get('version', '?')}",
        f"BLAS threads {BLAS_THREADS} (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, "
        "MKL_NUM_THREADS)",
        "no bandwidth ratio is given: the largest (n, 31) kernel blocks "
        "(about 25 MB each at n = 1e5, under 50 MB together) cannot reach 4x the L3",
    ]


def tail_summary(label, samples, unit):
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    line = f"{label}: median {statistics.median(samples):.6g} {unit}, n={n}"
    if n >= 11:
        q = int(100 * (1 - 10 / n))
        line += f", p{q} {float(np.percentile(samples, q)):.6g} {unit}"
    else:
        line += ", no percentile has 10 samples beyond it"
    return line


def per_solver(runs, solver, attr):
    """A count summed over one pass, from the first of repeated solves."""
    return sum(getattr(r, attr) for r in runs if r.solver == solver and r.rep == 0)


def pass_seconds(passes, solver):
    """Time to solve every problem of a pass once, per pass and repetition."""
    samples = []
    for runs in passes:
        reps = {}
        for r in runs:
            if r.solver == solver:
                reps[r.rep] = reps.get(r.rep, 0.0) + r.seconds
        samples.extend(reps.values())
    return samples


def product_table(workload, runs):
    """Per-problem products of both solvers on every n >= 100 instance."""
    lines = []
    by_name = {}
    for r in runs:
        if r.n >= 100:
            by_name.setdefault((r.name, r.n), {})[r.solver] = r
    for (name, n), pair in by_name.items():
        a, s = pair["arcqk"], pair["st"]
        lines.append(f"products {workload} {name} n={n}: arcqk {a.products} "
                     f"({a.status}), st {s.products} ({s.status})")
    return lines


# ---------------------------------------------------------------------------
# measurement

class Outcome:
    """Runs of a measurement plus the integrity problems found on the way."""

    def __init__(self, variants):
        self.variants = variants
        self.passes = []           # untraced passes, variant i % len(variants)
        self.traced = []           # traced passes
        self.traced_walls = []
        self.problems = []

    def first_cycle(self):
        return self.passes[:len(self.variants)]

    def all_runs(self):
        return [r for runs in self.passes + self.traced for r in runs]


def measure(variants, deadline, tracer=None, st_repeats=1):
    """Run passes over the variants in turn while another pass fits.

    Without a tracer the first cycle over all variants always completes,
    so that every variant enters the count metrics.  With a tracer, each
    untraced pass is followed by a traced pass over the same inputs, and
    the two must give identical counts.
    """
    out = Outcome(variants)
    k = len(variants)
    longest = 0.0
    while True:
        i = len(out.passes)
        variant = variants[i % k]
        t_pass = time.perf_counter()
        runs = workloads.run_pass(variant, st_repeats=st_repeats)
        # A repeated ST solve directly follows the previous repetition.
        if any(r.rep and r.counts() != prev.counts()
               for prev, r in zip(runs, runs[1:])):
            out.problems.append("counts differ between repeated ST solves")
        if i >= k and [r.counts() for r in runs] != [
                r.counts() for r in out.passes[i % k]]:
            out.problems.append("counts differ between passes over one variant")
        out.passes.append(runs)
        if tracer is not None:
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced = workloads.run_pass(variant, tracer)
                out.traced_walls.append(time.perf_counter() - t0)
            finally:
                tracer.restore()
            out.traced.append(traced)
            if not tracer.originals_in_place(variant):
                out.problems.append("a wrapped attribute was not restored")
            if [r.counts() for r in traced] != [r.counts() for r in runs]:
                out.problems.append("traced and untraced counts differ")
        longest = max(longest, time.perf_counter() - t_pass)
        if ((tracer is not None or i + 1 >= k)
                and time.perf_counter() + longest > deadline):
            return out


def end_to_end(out, setup_samples):
    first, passes = out.first_cycle(), out.passes
    m = {}
    for solver in ("arcqk", "st"):
        m[f"{solver}_s"] = statistics.median(pass_seconds(passes, solver))
        for attr in ("products", "f_evals"):
            m[f"{solver}_{attr}"] = statistics.fmean(
                per_solver(runs, solver, attr) for runs in first)
    runs = [r for runs in first for r in runs]
    m["solved_frac"] = sum(r.solved for r in runs) / len(runs)
    m["setup_s"] = statistics.median(setup_samples)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MB
    return m


def per_layer(out, tracer):
    summary = tracer.summary()
    facts = tracer.kernel_facts()
    names = tracer.names
    count = {n: int(c) for n, c in zip(names, summary["count"])}
    self_s = {n: float(s) for n, s in zip(names, summary["self_s"])}
    layer = {}
    for n, s in self_s.items():
        layer[n.split(".")[0]] = layer.get(n.split(".")[0], 0.0) + s
    wall = sum(out.traced_walls)
    remainder = wall - summary["root_s"]
    if not summary["nested"]:
        out.problems.append("a child span lies outside its parent")
    if abs(sum(layer.values()) + remainder - wall) > 1e-6 * wall:
        out.problems.append("layer self times and remainder miss the wall time")

    npass = len(out.traced)
    arc_runs = [r for runs in out.traced for r in runs if r.solver == "arcqk"]
    trials = sum(r.trials for r in arc_runs)
    solves = sum(r.solves for r in arc_runs)
    if solves != count.get("shifted_cg.solve", 0) + count.get("shifted_cgls.solve", 0):
        out.problems.append("ARC solve count differs from the kernel spans")

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def kernel(prefix):
        steps, calls = count.get(f"{prefix}.step", 0), count.get(f"{prefix}.solve", 0)
        return {
            f"{prefix}.solves": calls / npass,
            f"{prefix}.joint_iters": steps / npass,
            f"{prefix}.step_us": per(self_s.get(f"{prefix}.step", 0.0), steps, 1e6),
            f"{prefix}.solve_overhead_us": per(self_s.get(f"{prefix}.solve", 0.0),
                                               calls, 1e6),
            f"{prefix}.self_share": layer.get(prefix, 0.0) / wall,
            f"{prefix}.self_s": layer.get(prefix, 0.0) / npass,
        }

    tcg_calls, tcg_iters = count.get("steihaug.tcg", 0), tracer.tcg_iterations
    m = {
        "problems.oracle_calls": summary["oracle_calls"] / npass,
        "problems.oracle_us_per_call": per(layer.get("problems", 0.0),
                                           summary["oracle_calls"], 1e6),
        "problems.oracle_share": layer.get("problems", 0.0) / wall,
        "problems.self_s": layer.get("problems", 0.0) / npass,
        **kernel("shifted_cg"),
        "shifted_cg.bytes_per_iter": facts["bytes_per_iter"],
        "shifted_cg.tail_iter_frac": facts["tail_iter_frac"],
        **kernel("shifted_cgls"),
        "arc.trials": trials / npass,
        "arc.solves": solves / npass,
        "arc.rejected_frac": per(sum(r.rejected for r in arc_runs), trials),
        "arc.ratio_product_share": per(summary["ratio_products"],
                                       sum(r.products for r in arc_runs)),
        "arc.loop_us_per_trial": per(layer.get("arc", 0.0), trials, 1e6),
        "arc.self_s": layer.get("arc", 0.0) / npass,
        "steihaug.tcg_calls": tcg_calls / npass,
        "steihaug.tcg_iters": tcg_iters / npass,
        "steihaug.tcg_us_per_iter": per(self_s.get("steihaug.tcg", 0.0),
                                        tcg_iters, 1e6),
        "steihaug.self_share": layer.get("steihaug", 0.0) / wall,
        "steihaug.self_s": layer.get("steihaug", 0.0) / npass,
        "unattributed.self_s": remainder / npass,
        "trace.wall_s": wall / npass,
    }
    for solver in ("arcqk", "st"):
        m[f"trace.overhead_{solver}_s"] = (
            statistics.median(pass_seconds(out.traced, solver))
            - statistics.median(pass_seconds(out.passes, solver)))
    return m


def run_summary(out, setup_samples, workload):
    """Diagnostic lines: samples, unsolved runs, per-problem products."""
    passes = out.passes
    lines = [f"{len(passes)} untraced and {len(out.traced)} traced pass(es)"]
    for solver in ("arcqk", "st"):
        lines.append(tail_summary(f"{solver}_s", pass_seconds(passes, solver), "s"))
    lines.append(tail_summary("setup_s", setup_samples, "s"))
    first = [r for runs in out.first_cycle() for r in runs]
    unsolved = sum(not r.solved for r in first)
    lines.append(f"failed_frac {unsolved}/{len(first)} = {unsolved / len(first):.6g} "
                 "(runs of the first cycle not ending in verified success)")
    misses = {}
    for r in first:
        if not r.solved:
            key = f"{r.solver} {r.name} n={r.n} ({r.status})"
            misses[key] = misses.get(key, 0) + 1
    for key, k in sorted(misses.items()):
        lines.append(f"not solved: {key} in {k} of {len(out.first_cycle())} "
                     "variant(s)")
    if workload in ("desk", "scaled"):
        lines.extend(product_table(workload, passes[0]))
    return lines


def main(argv=None):
    args = parse_args(argv)
    variants = setup(args.workload, args.seed)
    own_setup = time.perf_counter() - _T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_samples = [own_setup] + [setup_probe(args.workload, args.seed)
                                   for _ in range(SETUP_SAMPLES - 1)]
    tracer = Tracer() if args.trace else None
    st_repeats = 1 if args.trace else workloads.ST_REPEATS[args.workload]
    out = measure(variants, time.perf_counter() + args.seconds, tracer,
                  st_repeats)

    e2e = end_to_end(out, setup_samples)
    diag = machine_record()
    diag.append(f"workload {args.workload}, seed {args.seed}, "
                f"{len(variants)} start-point variant(s), trace {args.trace}")
    diag.extend(run_summary(out, setup_samples, args.workload))
    diag.extend(f"e2e {name} = {value:.10g}" for name, value in e2e.items())
    all_runs = out.all_runs()
    errors = [r for r in all_runs if r.error]
    diag.extend(f"ERROR {r.solver} {r.name} n={r.n}: {r.error}"
                for r in errors[:10])

    if args.trace:
        metrics = per_layer(out, tracer)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(path)
        diag.append(f"spans written to {path.relative_to(ROOT)}")
        diag.extend(f"layer {name} = {value:.10g}" for name, value in metrics.items())
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]
    diag.extend(f"INTEGRITY {problem}" for problem in sorted(set(out.problems)))

    if sorted(metrics) != sorted(m["name"] for m in wanted):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for line in diag:
        print(f"# {line}")
    result = {
        "correct": not errors and not out.problems,
        "attempted": len(all_runs),
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
