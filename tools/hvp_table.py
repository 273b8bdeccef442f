"""Print ARC's and ST's Hessian-vector products and f-evals on the 22-problem set.

Run from the repository root:

    python3 tools/hvp_table.py

The first table is the 22-problem set: every smooth problem of
``suite_problems()`` plus ten scaled instances at default parameters
(sphere, penalty, trigonometric and convexquartic at n = 100 and 1 000,
diagquad and extrosenbrock at n = 1e4), each run from its default start
with ``ArcParams()`` and ``TrParams()``.  It prints, per problem, n, each
solver's operator products (``BenchRecord.neval_hvp``), objective
evaluations (``neval_f``) and final status, then the 22-problem totals.
The second repeats the smooth suite's n >= 100 problems with the
parameters of acceptance criterion 10 (``tests/test_acceptance.py``, where
ST gets ``max_outer_iter=2000``) and prints the totals that criterion
compares.  Every number is a count, so the tables repeat exactly on any
machine with the same NumPy results.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from arcqk.arc import ArcParams, arcqk_minimize  # noqa: E402
from arcqk.problems import (SmoothProblem, make_convexquartic,  # noqa: E402
                            make_diagquad, make_extrosenbrock, make_penalty,
                            make_sphere, make_trigonometric, suite_problems)
from arcqk.steihaug import TrParams, st_minimize  # noqa: E402

# acceptance criterion 10's baseline parameters
CRITERION_10_ST = TrParams(max_outer_iter=2000)


def scaled_instances():
    """The ten scaled instances that complete the 22-problem set."""
    return [make(n) for make in (make_sphere, make_penalty,
                                 make_trigonometric, make_convexquartic)
            for n in (100, 1000)] + [make_diagquad(10**4),
                                     make_extrosenbrock(10**4)]


def counts(problem, st_params):
    """``(arc_hvps, st_hvps, arc_f_evals, st_f_evals, arc_status,
    st_status)`` of a problem."""
    _, arc = arcqk_minimize(problem, ArcParams())
    _, st = st_minimize(problem, st_params)
    return (arc.neval_hvp, st.neval_hvp, arc.neval_f, st.neval_f,
            arc.detail, st.detail)


def print_table(title, problems, st_params):
    print(f"# {title}")
    print(f"{'problem':<15}{'n':>6}{'arc hvp':>9}{'st hvp':>8}{'arc f':>7}"
          f"{'st f':>6}  {'arcqk status':<24}st status")
    totals = [0, 0, 0, 0]
    for p in problems:
        *row, arc_status, st_status = counts(p, st_params)
        totals = [t + c for t, c in zip(totals, row)]
        print(f"{p.name:<15}{p.n:>6}{row[0]:>9}{row[1]:>8}{row[2]:>7}"
              f"{row[3]:>6}  {arc_status:<24}{st_status}")
    print(f"{f'total ({len(problems)} problems)':<21}{totals[0]:>9}"
          f"{totals[1]:>8}{totals[2]:>7}{totals[3]:>6}")


def main():
    smooth = [p for p in suite_problems() if isinstance(p, SmoothProblem)]
    print_table("22-problem set, default start, ArcParams() and TrParams()",
                smooth + scaled_instances(), TrParams())
    print()
    print_table("n >= 100, acceptance criterion 10 (ST max_outer_iter=2000)",
                [p for p in smooth if p.n >= 100], CRITERION_10_ST)
    return 0


if __name__ == "__main__":
    sys.exit(main())
