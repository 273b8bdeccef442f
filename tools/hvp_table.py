"""Print ARC's and ST's Hessian-vector products on the smooth desk problems.

Run from the repository root:

    python3 tools/hvp_table.py

The first table runs every smooth problem of ``suite_problems()`` from its
default start with ``ArcParams()`` and ``TrParams()`` and prints, per
problem, n and each solver's operator products (``BenchRecord.neval_hvp``)
and final status.  The second repeats the n >= 100 problems with the
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
from arcqk.problems import SmoothProblem, suite_problems  # noqa: E402
from arcqk.steihaug import TrParams, st_minimize  # noqa: E402

# acceptance criterion 10's baseline parameters
CRITERION_10_ST = TrParams(max_outer_iter=2000)


def products(problem, st_params):
    """``(arc_products, arc_status, st_products, st_status)`` of a problem."""
    _, arc = arcqk_minimize(problem, ArcParams())
    _, st = st_minimize(problem, st_params)
    return arc.neval_hvp, arc.detail, st.neval_hvp, st.detail


def print_table(title, problems, st_params):
    print(f"# {title}")
    print(f"{'problem':<15}{'n':>5}{'arcqk':>8}{'st':>8}  "
          f"{'arcqk status':<24}st status")
    totals = [0, 0]
    for p in problems:
        arc, arc_status, st, st_status = products(p, st_params)
        totals[0] += arc
        totals[1] += st
        print(f"{p.name:<15}{p.n:>5}{arc:>8}{st:>8}  {arc_status:<24}"
              f"{st_status}")
    print(f"{'total':<20}{totals[0]:>8}{totals[1]:>8}")


def main():
    smooth = [p for p in suite_problems() if isinstance(p, SmoothProblem)]
    print_table("default start, ArcParams() and TrParams()", smooth,
                TrParams())
    print()
    print_table("n >= 100, acceptance criterion 10 (ST max_outer_iter=2000)",
                [p for p in smooth if p.n >= 100], CRITERION_10_ST)
    return 0


if __name__ == "__main__":
    sys.exit(main())
