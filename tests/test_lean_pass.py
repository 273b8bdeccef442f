"""The lean joint pass: in-place Lanczos updates, the one checked product
that returns its dot, and the window's Gram matrix from row products.

The in-place passes must give the solutions of a copying operator bitwise,
whatever the operator does with its output: return its argument, return a
reused (read-only) buffer, or return float32.  ``_product`` may skip its
exact finiteness test only when the dot it returns is finite; the
solvers' own tests check that their products raise through it.
"""

import numpy as np
import pytest

import arcqk.shifted_cg as cg_mod
from arcqk.shifted_cg import (MultishiftState, ShiftGrid, _product,
                              _window_norms, multishift_cg)
from arcqk.shifted_cgls import CglsState, multishift_cgls

from kernel_systems import seeded_system

GRIDS = (ShiftGrid([1.0]), ShiftGrid([1e-3, 1e-1, 10.0]),
         ShiftGrid.default())


def outcome(sol):
    """Everything a solve returns, as arrays to compare bitwise."""
    m1 = len(sol.lambdas)
    return (np.array(sol.statuses), sol.iterations,
            np.array(sol.total_iterations), np.abs(sol.sigma),
            np.stack([sol.direction(i) for i in range(m1)]), sol.step_norms)


def assert_same(a, b):
    for x, y in zip(outcome(a), outcome(b), strict=True):
        assert np.array_equal(x, y)


def copying(op):
    return lambda v: op @ v


def buffered(op):
    """``v -> op @ v`` written into one internal buffer that every call
    reuses and returned read-only, so a write into it raises."""
    buf = np.empty(op.shape[0])

    def apply(v):
        np.matmul(op, v, out=buf)
        out = buf.view()
        out.flags.writeable = False
        return out
    return apply


def single(op):
    return lambda v: (op @ v).astype(np.float32)


def widened(op):
    return lambda v: (op @ v).astype(np.float32).astype(float)


def identity(v):
    return v


def identity_copy(v):
    return v.copy()


@pytest.mark.parametrize("grid", GRIDS, ids=repr)
@pytest.mark.parametrize("alpha", [None, 1.0])
def test_cg_pass_ignores_what_the_operator_returns(grid, alpha):
    M, b, _ = seeded_system("cg", 24, "spread", seed=3)
    ref = multishift_cg(copying(M), b, grid, tol=1e-10, alpha=alpha)
    assert ref.total_iterations > 3
    assert_same(multishift_cg(buffered(M), b, grid, tol=1e-10, alpha=alpha),
                ref)
    assert_same(multishift_cg(single(M), b, grid, tol=1e-10, alpha=alpha),
                multishift_cg(widened(M), b, grid, tol=1e-10, alpha=alpha))
    # an operator that returns its argument is the identity
    assert_same(multishift_cg(identity, b, grid, alpha=alpha),
                multishift_cg(identity_copy, b, grid, alpha=alpha))


@pytest.mark.parametrize("grid", GRIDS, ids=repr)
@pytest.mark.parametrize("alpha", [None, 1.0])
def test_cgls_pass_ignores_what_the_operators_return(grid, alpha):
    A, b, _ = seeded_system("cgls", 20, "spread", seed=4)

    def solve(apply_A, apply_At, rhs=b):
        return multishift_cgls(apply_A, apply_At, rhs, grid, tol=1e-10,
                               alpha=alpha)

    ref = solve(copying(A), copying(A.T))
    assert ref.total_iterations > 3
    assert_same(solve(buffered(A), buffered(A.T)), ref)
    assert_same(solve(single(A), single(A.T)),
                solve(widened(A), widened(A.T)))
    # A' returning its argument: u_{j+1} must be normalised only after
    # v_{j+1} = A'u_{j+1} / beta is formed.  The pair is not adjoint, so
    # only bitwise agreement with a copying A' is asserted.
    S = A[:20]
    c = b[:20]
    assert_same(solve(copying(S), identity, c),
                solve(copying(S), identity_copy, c))
    assert_same(solve(identity, copying(S.T), c),
                solve(identity_copy, copying(S.T), c))


def test_first_pass_makes_no_zero_vector():
    M, b, _ = seeded_system("cg", 6, "spread", seed=5)
    state = MultishiftState(copying(M), b, ShiftGrid([1.0]), 1e-10, None)
    assert state.v_prev is None
    state.step()
    assert state.v_prev is not None
    A, b, _ = seeded_system("cgls", 6, "spread", seed=5)
    state = CglsState(copying(A), copying(A.T), b, ShiftGrid([1.0]), 1e-10,
                      None)
    assert state.u_prev is None
    state.step()
    assert state.u_prev is not None


def test_checked_product_returns_its_dot():
    w = np.array([1.0, -2.0, 3.0])
    out, s = _product(lambda v: 2.0 * v, w)
    assert np.array_equal(out, 2.0 * w) and s == out @ out
    out, s = _product(lambda v: 2.0 * v, w, w)
    assert s == w @ out and isinstance(s, float)


@pytest.mark.parametrize("n", [100, 3 * cg_mod._CHUNK])
@pytest.mark.parametrize("k", range(1, 9))
def test_window_norms_by_gram_rows_and_syrk(n, k):
    rng = np.random.default_rng(10 * k + n)
    W = rng.standard_normal((k, n))
    y = rng.standard_normal((5, k))
    np.testing.assert_allclose(_window_norms(W, y),
                               np.linalg.norm(y @ W, axis=1), rtol=1e-12)
