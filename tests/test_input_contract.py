"""The one input contract of the three Krylov solves and the outer loop.

CG, CGLS and ST's truncated CG check ``tol``, ``max_iter`` and their
right-hand side by one rule (``shifted_cg._limits``): the right-hand
side's squared norm, which each solve takes anyway, must be finite, so a
NaN or inf entry and an overflowing norm raise alike.  The outer loop
certifies each gradient by the norm it needs anyway, at the start and after
every accepted step.  A dot that overflows warns in numpy; the tests ignore
that warning.
"""

import numpy as np
import pytest

from arcqk.arc import arcqk_minimize
from arcqk.problems import SmoothProblem
from arcqk.shifted_cg import ShiftGrid, multishift_cg
from arcqk.shifted_cgls import multishift_cgls
from arcqk.steihaug import EXIT_INTERIOR, st_minimize, truncated_cg

RHS = "right-hand side"
GRID = ShiftGrid([1e-3, 1.0, 1e3])
MINIMIZERS = {"arc": arcqk_minimize, "st": st_minimize}


def solve(kernel, apply_op, b):
    """The ``kernel`` solve of ``apply_op`` (symmetric, for CGLS also its own
    adjoint) on right-hand side ``b``."""
    if kernel == "cg":
        return multishift_cg(apply_op, b, GRID)
    if kernel == "cgls":
        return multishift_cgls(apply_op, apply_op, b, GRID)
    return truncated_cg(apply_op, b, 1.0, 1e-8)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("kernel, big", [("cg", 1e200), ("cgls", 1e160)])
def test_overflowing_rhs_norm_raises(kernel, big):
    """Every entry is finite, but ||b||^2 (||A'b||^2 for CGLS, A = 2I)
    overflows: no recurrence can start from it, so the solve raises instead
    of reading d = b / lambda as converged."""
    with pytest.raises(ValueError, match=RHS):
        solve(kernel, lambda v: 2.0 * v, np.array([big, 1.0]))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kernel", ["cg", "cgls", "tcg"])
def test_nonfinite_rhs_raises(kernel, bad):
    """A NaN or inf in b is an error in the right-hand side, not in the
    operator, for all three solves."""
    with pytest.raises(ValueError, match=RHS):
        solve(kernel, lambda v: 2.0 * v, np.array([bad, 1.0]))


def test_truncated_cg_zero_gradient_is_the_zero_step():
    """g = 0 is solved by d = 0, as the kernels solve a zero right-hand
    side: ``interior`` after 0 iterations, with no product formed."""
    calls = []

    def apply_H(v):
        calls.append(v)
        return 2.0 * v

    res = truncated_cg(apply_H, np.zeros(3), 1.0, 1e-8)
    assert res.exit == EXIT_INTERIOR and res.iterations == 0
    assert np.array_equal(res.d, np.zeros(3)) and res.dr == 0.0
    assert not calls


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("solver", sorted(MINIMIZERS))
def test_start_gradient_norm_overflows(solver):
    """f = 0.5e200 ||x||^2 from [1, 1]: f and every entry of g are finite,
    but ||g|| overflows, so the start point is an input error rather than
    a stationary point under an infinite threshold."""
    p = SmoothProblem("steep", 2, [1.0, 1.0], f=lambda x: 0.5e200 * (x @ x),
                      grad=lambda x: 1e200 * x, hvp=lambda x, v: 1e200 * v)
    with pytest.raises(ValueError, match="at the start point"):
        MINIMIZERS[solver](p)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("solver", sorted(MINIMIZERS))
def test_accepted_gradient_norm_overflows(solver):
    """f = ||x||^2 with a gradient oracle that is exact at x0 and returns
    [1e200, 1e200] anywhere else: the first accepted step raises the
    accepted-step error, not a tolerance error from the next solve."""
    x0 = np.array([1.0, 1.0])

    def grad(x):
        return 2.0 * x if np.array_equal(x, x0) else np.full(2, 1e200)

    p = SmoothProblem("overflowing", 2, x0, f=lambda x: x @ x, grad=grad,
                      hvp=lambda x, v: 2.0 * v)
    with pytest.raises(ValueError, match="after an accepted step"):
        MINIMIZERS[solver](p)
