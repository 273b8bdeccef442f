"""A run's solves share one set of blocks.

Each multishift solve that ARC makes takes over the (m+1, n) window ``W``
and the flushed blocks ``_X``/``_P`` of the spent solve before it, and
empties that solve.  An inheriting solve must equal a fresh one bitwise:
its first flush zeroes all of ``_X`` and the ``_P`` rows that the blocks'
last owner formed, the span of shifts running at that owner's first flush,
outside which every ``_P`` row holds zeros.
"""

import numpy as np
import pytest

import arcqk.arc as arc
from arcqk.arc import arcqk_minimize
from arcqk.problems import make_diagquad, make_linearls
from arcqk.shifted_cg import ShiftGrid, multishift_cg
from arcqk.shifted_cgls import multishift_cgls

from kernel_systems import seeded_system

GRID = ShiftGrid([1e-2, 1.0, 1e2, 1e10])  # a four-vector window
N = 60


def solve(kernel, system, tol_frac, grid=GRID, spent=None, max_iter=None):
    """One solve of ``system`` (a ``seeded_system`` triple) at the
    tolerance ``tol_frac`` times the norm of its (normal-equations)
    right-hand side."""
    op, b, rhs = system
    tol = tol_frac * np.linalg.norm(rhs)
    if kernel == "cg":
        return multishift_cg(lambda v: op @ v, b, grid, tol=tol,
                             max_iter=max_iter, spent=spent)
    return multishift_cgls(lambda v: op @ v, lambda w: op.T @ w, b, grid,
                           tol=tol, max_iter=max_iter, spent=spent)


# The spent solves of each case, in the order they ran, as (spectrum,
# seed, right-hand side, tolerance fraction, max_iter): "wide" flushes
# with every shift running (at tolerance 0 none converges) and is capped
# before its direction rows can underflow, "window" ends within the
# window, "zero" has a zero right-hand side.
SPENT = {"wide": ("spread", 1, "random", 0.0, 8),
         "window": ("clustered", 2, "invariant", 1e-10, None),
         "zero": ("spread", 3, "zero", 1e-10, None)}
CASES = {"window": ["window"], "wider": ["wide"],
         "spare": ["wide", "window"], "zero": ["wide", "zero"],
         "fresh-zero": ["zero"]}


def spent_chain(kernel, names, n=N, grid=GRID):
    """The solves ``names`` run in turn, each handed the one before; the
    last is returned."""
    spent = None
    for name in names:
        spectrum, seed, rhs_kind, tol_frac, max_iter = SPENT[name]
        spent = solve(kernel, seeded_system(kernel, n, spectrum, seed,
                                            rhs_kind), tol_frac, grid, spent,
                      max_iter)
    return spent


def compared_system(kernel):
    """A spread system whose solve at tolerance 1e-2 flushes once shift 3
    has converged, so its first running span is narrower than a "wide"
    solve's."""
    return seeded_system(kernel, N, "spread", 0)


def assert_same_solve(a, b):
    assert a.statuses == b.statuses
    assert np.array_equal(a.iterations, b.iterations)
    assert a.total_iterations == b.total_iterations
    assert a.sigma.tobytes() == b.sigma.tobytes()
    assert a.step_norms.tobytes() == b.step_norms.tobytes()
    for i in np.flatnonzero(a.usable_mask):
        assert a.direction(i).tobytes() == b.direction(i).tobytes(), i
    assert a.direction(slice(None)).tobytes() == \
        b.direction(slice(None)).tobytes()


def assert_zero_outside_formed(sol):
    """Every ``_P`` row outside the solve's formed span holds zeros."""
    formed = sol._blocks[2]
    outside = np.ones(len(sol._P), dtype=bool)
    outside[formed] = False
    assert not sol._P[outside].any()


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_inheriting_solve_equals_fresh(kernel, case):
    system = compared_system(kernel)
    fresh = solve(kernel, system, 1e-2)
    spent = spent_chain(kernel, CASES[case])
    W, blocks = spent.W, spent._blocks
    if case == "wider":
        assert spent._blocks[2] == slice(0, 4) and spent._P[3].all()
    if case in ("window", "spare", "zero", "fresh-zero"):
        assert spent._X is None             # never flushed
    assert (blocks is None) == (case in ("window", "fresh-zero"))
    sol = solve(kernel, system, 1e-2, spent=spent)
    assert sol.W is W
    if blocks is not None:
        assert sol._X is blocks[0] and sol._P is blocks[1]
    assert fresh._blocks[2] == sol._blocks[2] == slice(0, 3)
    assert_zero_outside_formed(sol)
    assert_same_solve(sol, fresh)


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
@pytest.mark.parametrize("case", ["wider", "spare"])
def test_inherited_contents_never_leak(kernel, case):
    """Inherited blocks whose ``_X`` and formed ``_P`` rows hold NaN give
    the fresh solve: the first flush zeroes exactly what it must."""
    system = compared_system(kernel)
    fresh = solve(kernel, system, 1e-2)
    spent = spent_chain(kernel, CASES[case])
    X, P, formed = spent._blocks
    X.fill(np.nan)
    P[formed] = np.nan
    assert_same_solve(solve(kernel, system, 1e-2, spent=spent), fresh)


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
def test_spent_solve_is_emptied(kernel):
    """The new solve takes the spent one's arrays (``is``), and reading the
    spent solve afterwards raises, its cached step norms included."""
    spent = spent_chain(kernel, ["wide"])
    assert spent.step_norms.size == len(GRID)
    W, X, P = spent.W, spent._X, spent._P
    sol = solve(kernel, compared_system(kernel), 1e-2, spent=spent)
    assert sol.W is W and sol._X is X and sol._P is P
    assert spent.W is spent._X is spent._P is spent._blocks is None
    for read in (lambda: spent.direction(0), lambda: spent.step_norms,
                 lambda: spent.directions):
        with pytest.raises(RuntimeError):
            read()
    # an emptied solve hands nothing on
    again = solve(kernel, compared_system(kernel), 1e-2, spent=spent)
    assert again.W is not W and again._X is not X


@pytest.mark.parametrize("kernel", ["cg", "cgls"])
@pytest.mark.parametrize("other", ["n", "m+1"])
def test_spent_solve_of_another_shape_is_left_alone(kernel, other):
    if other == "n":
        spent = spent_chain(kernel, ["wide"], n=N + 1)
    else:
        spent = spent_chain(kernel, ["wide"], grid=ShiftGrid([1e-2, 1.0, 1e2]))
    W, X, P = spent.W, spent._X, spent._P
    before = spent.direction(slice(None))
    system = compared_system(kernel)
    sol = solve(kernel, system, 1e-2, spent=spent)
    assert sol.W is not W and sol._X is not X and sol._P is not P
    assert spent.W is W and spent._X is X and spent._P is P
    assert spent.direction(slice(None)).tobytes() == before.tobytes()
    assert_same_solve(sol, solve(kernel, system, 1e-2))


@pytest.mark.parametrize("name, problem", [
    ("multishift_cg", make_diagquad(200)),
    ("multishift_cgls", make_linearls())],
    ids=["cg", "cgls"])
def test_arc_hands_each_solve_the_spent_one(monkeypatch, name, problem):
    """Every solve of an ARC run after the first gets the solve before it
    and takes over its window; ``name`` is the kernel of the problem's
    kind."""
    solves = []
    real = getattr(arc, name)

    def recording(*args, spent=None, **kwargs):
        sol = real(*args, spent=spent, **kwargs)
        solves.append((spent, sol, sol.W))
        return sol

    monkeypatch.setattr(arc, name, recording)
    state, _ = arcqk_minimize(problem)
    assert state.n_solves == len(solves) >= 2
    assert solves[0][0] is None
    for (_, before, window), (spent, _, taken) in zip(solves, solves[1:]):
        assert spent is before and taken is window
        assert spent.W is None
