"""Seeded CG and CGLS systems, hand-built solutions and views of a
running solve shared by the kernel and selection tests."""

import numpy as np

import arcqk.shifted_cg as cg_mod
import arcqk.shifted_cgls as cgls_mod
from arcqk.shifted_cg import (_NAMES, MultishiftSolution, MultishiftState,
                              ShiftGrid, _rows)
from arcqk.shifted_cgls import CglsState


def seeded_system(kernel, n, spectrum, seed, rhs_kind="random"):
    """One seeded CG or CGLS system: ``(op, b, rhs)``.

    ``spectrum`` is "spread" (log-uniform over 8 decades), "clustered" (a
    few tight clusters) or "indefinite": for CG the eigenvalues below 1
    take random signs, for CGLS some singular values are zero.  ``op`` is
    the symmetric (n, n) matrix for CG and the (n + 2, n) matrix A for
    CGLS, ``b`` the kernel's right-hand side and ``rhs`` that of the
    (normal) equations: b for CG, A'b for CGLS.  ``rhs_kind`` "invariant"
    puts rhs in the span of at most three eigenvectors (right singular
    vectors for CGLS), so the Krylov space has dimension at most three in
    exact arithmetic; "zero" makes b zero.
    """
    rng = np.random.default_rng(seed)
    vals = 10.0 ** rng.uniform(-4, 4, n)
    if spectrum == "clustered":
        centres = 10.0 ** rng.uniform(-2, 2, rng.integers(1, 4))
        vals = rng.choice(centres, n) * (1.0 + 1e-9 * rng.standard_normal(n))
    elif spectrum == "indefinite":
        if kernel == "cg":
            vals[vals < 1.0] *= rng.choice([-1.0, 1.0], np.sum(vals < 1.0))
        else:
            vals[rng.random(n) < 0.3] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if kernel == "cg":
        basis = q
        op = (q * vals) @ q.T
    else:
        basis, _ = np.linalg.qr(rng.standard_normal((n + 2, n)))
        op = (basis * vals) @ q.T
    r = min(3, n)
    b = (basis[:, :r] @ rng.standard_normal(r) if rhs_kind == "invariant"
         else rng.standard_normal(basis.shape[0]))
    b = 0.0 * b if rhs_kind == "zero" else b
    return op, b, (b if kernel == "cg" else op.T @ b)


def counted(op, calls):
    """``v -> op @ v``, appending to the list ``calls`` on every product."""
    def apply(v):
        calls.append(1)
        return op @ v
    return apply


def make_solver(kernel, n, spectrum, seed, tol_frac):
    """``solve(alpha)`` for one seeded CG or CGLS system.

    The system is ``seeded_system(kernel, n, spectrum, seed)`` on the
    default grid.  The tolerance is ``tol_frac`` times the norm of the
    (normal-equations) right-hand side, as ARC's inner tolerance is a
    fraction of ||g||.  ``solve.start(alpha)`` returns the unstepped state
    that ``solve(alpha)`` runs to its end.  Operator calls are counted in
    ``solve.calls``.
    """
    op, b, rhs = seeded_system(kernel, n, spectrum, seed)
    tol = tol_frac * np.linalg.norm(rhs)
    grid = ShiftGrid.default()
    calls = []
    apply_op = counted(op, calls)
    if kernel == "cg":
        def start(alpha):
            calls.clear()
            return MultishiftState(apply_op, b, grid, tol, None, alpha=alpha)
    else:
        def start(alpha):
            calls.clear()
            return CglsState(apply_op, lambda w: op.T @ w, b, grid, tol, None,
                             alpha=alpha)

    def solve(alpha):
        return start(alpha).solve()

    solve.start = start
    solve.calls = calls
    return solve


def hand_built(lambdas, norms, statuses=None, residual_norms=None):
    """A ``MultishiftSolution`` built by hand, as selection tests need.

    ``_open`` starts it on a zero right-hand side, so it is done with every
    shift converged; then shift i gets the status name ``statuses[i]``,
    the residual norm ``residual_norms[i]`` and the direction
    (norms[i], 0), held as a flushed row with a zero flushed direction
    block.  ``statuses`` defaults to every shift converged and
    ``residual_norms`` to zeros.
    """
    grid = ShiftGrid(lambdas)
    sol = MultishiftSolution()
    sol._open(np.zeros(2), 0.0, grid, 0.0, None, None, None)
    if statuses is not None:
        sol.codes[:] = [_NAMES.index(s) for s in statuses]
    if residual_norms is not None:
        sol.sigma[:] = residual_norms
    sol._X = np.zeros((len(grid), 2))
    sol._X[:, 0] = norms
    sol._P = np.zeros_like(sol._X)
    return sol


def record_passes(mp):
    """Record every Lanczos pass the kernels make while the monkeypatch
    ``mp`` is active; returns the list of ``(j, delta, beta_next, v_next)``
    it fills, ``v_next`` copied (``None`` on breakdown)."""
    passes = []
    real_step = cg_mod._shift_block_step

    def recording_step(state, j, delta, beta_next, v_next, pivot_status):
        passes.append((j, delta, beta_next,
                       None if v_next is None else v_next.copy()))
        return real_step(state, j, delta, beta_next, v_next, pivot_status)

    mp.setattr(cg_mod, "_shift_block_step", recording_step)
    mp.setattr(cgls_mod, "_shift_block_step", recording_step)
    return passes


def direction_rows(state):
    """The (m+1, n) direction block p of a solve, formed as a new array
    from its window coefficients ``C`` and flushed rows ``_P``.

    After a flush the rows of shifts frozen before it are undefined:
    ``_flush`` forms only the ``_P`` rows of running shifts.
    """
    return _rows(state._window(), state.C[:, :state.kw + 1], None, state._P,
                 slice(None))
