"""Each solver takes either problem kind.

``arcqk_minimize`` runs a ``LeastSquaresProblem`` on the Gauss-Newton path
(CGLS on J), exactly as ``arcqk_minimize_gauss_newton`` does, and
``st_minimize`` runs it on its ``as_smooth()`` view, exactly as when the
caller passes that view: the same final x bit for bit, the same trace, the
same record up to its wall time and the same counts on the problem.
"""

import dataclasses

import pytest

from arcqk.arc import arcqk_minimize, arcqk_minimize_gauss_newton
from arcqk.bench import run_matrix
from arcqk.problems import suite_problems
from arcqk.steihaug import st_minimize

LS_NAMES = ["linearls", "rosenbrockls", "expfitls", "quadfitls"]


def run(minimize, name, view=lambda p: p):
    """A fresh suite problem ``name`` solved by ``minimize`` on
    ``view(problem)``: the run's comparable facts."""
    (p,) = suite_problems(name)
    state, record = minimize(view(p))
    return (state.x.tobytes(), repr(state.trace), state.status,
            dataclasses.replace(record, elapsed_seconds=0.0),
            p.counters.snapshot())


@pytest.mark.parametrize("name", LS_NAMES)
def test_arc_runs_least_squares_on_the_gauss_newton_path(name):
    assert (run(arcqk_minimize, name)
            == run(arcqk_minimize_gauss_newton, name))


@pytest.mark.parametrize("name", LS_NAMES)
def test_st_runs_least_squares_on_the_smooth_view(name):
    assert (run(st_minimize, name)
            == run(st_minimize, name, lambda p: p.as_smooth()))


def test_the_harness_runs_either_kind_through_the_entries():
    out = run_matrix(suite_problems("rosenbrock*"), ["arcqk", "st"])
    for solver, minimize in (("arcqk", arcqk_minimize),
                             ("st", st_minimize)):
        for rec in out[solver]:
            assert (dataclasses.replace(rec, elapsed_seconds=0.0)
                    == run(minimize, rec.name)[3]), (solver, rec.name)
