"""Command-line front end: solve, bench, profile and check subcommands."""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (PROFILE_METRICS, SOLVERS, performance_profile,
                    read_records_json, run_matrix, solver_params,
                    write_profile, write_records_csv, write_records_json)
from .problems import check_derivatives, suite_problems
from .records import BENCH_FIELDS, RECORD_SUCCESS


def _parse_params(pairs):
    out = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"bad --param {pair!r}: expected key=value")
        try:
            parsed = int(value)
        except ValueError:
            try:
                parsed = float(value)
            except ValueError:
                raise ValueError(f"bad --param {pair!r}: value must be numeric")
        out[key] = parsed
    return out


def _get_problem(name, seed):
    problems = suite_problems(name=name, rng_seed=seed)
    if len(problems) != 1:
        raise ValueError(f"--problem must name exactly one problem, "
                         f"{name!r} matched {len(problems)}")
    return problems[0]


def _cmd_solve(args):
    problem = _get_problem(args.problem, args.seed)
    params = solver_params(args.solver, args.time_budget,
                           _parse_params(args.param))
    _, record = SOLVERS[args.solver][1](problem, params)
    for field in BENCH_FIELDS:
        print(f"{field}: {getattr(record, field)}")
    return 0


def _cmd_bench(args):
    size = None
    if args.size:
        lo, sep, hi = args.size.partition(":")
        size = (int(lo), int(hi)) if sep else int(lo)
    problems = suite_problems(name=args.suite, size=size, rng_seed=args.seed)
    if not problems:
        raise ValueError(f"no problem of --suite {args.suite!r} has its "
                         f"dimension in --size {args.size}")
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    overrides = _parse_params(args.param)
    results = run_matrix(problems, solvers, budget_per_run=args.time_budget,
                         overrides=overrides)
    os.makedirs(args.out, exist_ok=True)
    write_records_json(results, os.path.join(args.out, "records.json"))
    for solver, rows in results.items():
        write_records_csv(rows, os.path.join(args.out, f"records_{solver}.csv"))
        solved = sum(r.status == RECORD_SUCCESS for r in rows)
        print(f"{solver}: {solved}/{len(rows)} solved "
              f"-> {args.out}/records_{solver}.csv")
    print(f"combined table -> {args.out}/records.json")
    return 0


def _cmd_profile(args):
    records = read_records_json(args.infile)
    curves = performance_profile(records, metric=args.metric)
    write_profile(curves, args.out,
                  title=f"performance profile ({args.metric})")
    print(f"{args.metric} profile for {', '.join(records)} -> {args.out}")
    return 0


def _cmd_check(args):
    problem = _get_problem(args.problem, args.seed)
    report = check_derivatives(problem)
    print(f"problem: {problem.name} (n={problem.n})")
    print(f"gradient max relative error: {report.grad_error:.3e}")
    print(f"operator max relative error: {report.hvp_error:.3e}")
    print(f"verdict: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arcqk",
        description="Matrix-free cubic regularization toolkit: run solvers "
                    "on the built-in suite and compare them with "
                    "performance profiles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver on one problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--solver", choices=sorted(SOLVERS), default="arcqk")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="solver parameter override (repeatable)")
    p.add_argument("--seed", type=int, default=None,
                   help="perturb the start point with this seed")
    p.add_argument("--time-budget", type=float, default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("bench", help="run a solver-by-problem matrix")
    p.add_argument("--suite", default="*", help="problem name or glob")
    p.add_argument("--solvers", default="arcqk,st",
                   help="comma-separated solver ids")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None,
                   help="wall-clock budget per run in seconds")
    p.add_argument("--size", default=None, metavar="N or LO:HI",
                   help="restrict the suite by dimension")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("profile", help="performance profile from records")
    p.add_argument("--in", dest="infile", required=True,
                   help="records.json written by bench")
    p.add_argument("--metric", choices=PROFILE_METRICS, default="time")
    p.add_argument("--out", required=True, help="output .csv, .json or .svg")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("check", help="finite-difference derivative check")
    p.add_argument("--problem", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
