"""Each solver takes either problem kind.

``arcqk_minimize`` runs a ``LeastSquaresProblem`` on the Gauss-Newton path
(CGLS on J), which counts residuals and J and J' products on the problem
and no f evaluation or HVP, and ``st_minimize`` runs it on its
``as_smooth()`` view, exactly as when the caller passes that view: the
same final x bit for bit, the same trace, the same record up to its wall
time and the same counts on the problem.
"""

import dataclasses

import pytest

from arcqk.arc import arcqk_minimize
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
    (p,) = suite_problems(name)
    _, record = arcqk_minimize(p)
    c = p.counters
    # the Gauss-Newton driver's counters: on the smooth view the record's
    # gradients would exclude the J' product of every CGLS iteration
    assert ((record.neval_f, record.neval_grad, record.neval_hvp)
            == (c.neval_residual, c.neval_jtprod, c.neval_jprod))
    assert c.neval_jprod > 0 and c.neval_f == c.neval_hvp == 0


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
