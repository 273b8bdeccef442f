"""Coefficient-window shift block against the explicit row update.

The kernels keep the (m+1, n) iterate and direction blocks as coefficients
over a window of Lanczos vectors and form them by a matrix product when the
window fills.  Here every Lanczos pass a solve makes is recorded and replayed
through the explicit per-row recurrence ``x += g p``, ``p = om p + sig v``
on full (m+1, n) arrays, over solves long enough to fill the window at least
twice.
"""

import numpy as np
import pytest

import arcqk.shifted_cg as cg_mod
import arcqk.shifted_cgls as cgls_mod
from arcqk.shifted_cg import (CAPPED, CONVERGED, INDEFINITE, RUNNING,
                              ShiftGrid, multishift_cg)
from arcqk.shifted_cgls import multishift_cgls


def reference_replay(lambdas, tol, max_iter, rhs, passes, pivot_status):
    """The explicit row update driven by recorded Lanczos passes."""
    m1 = lambdas.size
    x = np.zeros((m1, rhs.size))
    p = np.tile(rhs, (m1, 1))
    sigma = np.full(m1, float(np.linalg.norm(rhs)))
    omega, gamma, denom = np.zeros(m1), np.ones(m1), np.zeros(m1)
    status = np.full(m1, RUNNING, dtype="<U16")
    iterations = np.zeros(m1, dtype=int)
    products = 1                                # formed before the first pass
    for j, delta, beta_next, v_next, breakdown in passes:
        run = status == RUNNING
        denom[run] = delta + lambdas[run] - omega[run] / gamma[run]
        status[run & (denom <= 0.0)] = pivot_status
        act = np.flatnonzero(status == RUNNING)
        g = 1.0 / denom[act]
        om = (beta_next * g) ** 2
        sig = -beta_next * g * sigma[act]
        gamma[act], omega[act], sigma[act] = g, om, sig
        x[act] += p[act] * g[:, None]
        p[act] *= om[:, None]
        if not breakdown:
            p[act] += sig[:, None] * v_next
        iterations[act] = j + 1
        status[act[np.abs(sig) <= tol[act]]] = CONVERGED
        if breakdown:
            status[status == RUNNING] = CONVERGED
            break
        if j + 1 >= max_iter:
            status[status == RUNNING] = CAPPED
            break
        if not np.any(status == RUNNING):
            break
        products += 1
    return x, tuple(status), iterations, products


def cg_case(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = (q * np.logspace(-2, 2, n)) @ q.T
    b = rng.standard_normal(n)
    sol = multishift_cg(lambda v: M @ v, b, ShiftGrid.default(),
                        tol=1e-10 * np.linalg.norm(b))
    return sol, b, lambda lam: M + lam * np.eye(n), b, INDEFINITE


def cgls_case(rng, n):
    u, _ = np.linalg.qr(rng.standard_normal((2 * n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (u * np.logspace(-1, 1, n)) @ v.T
    b = rng.standard_normal(2 * n)
    apply_At = lambda w: A.T @ w                # noqa: E731
    rhs = apply_At(b)
    sol = multishift_cgls(lambda w: A @ w, apply_At, b, ShiftGrid.default(),
                          tol=1e-10 * np.linalg.norm(rhs))
    return sol, rhs, lambda lam: A.T @ A + lam * np.eye(n), rhs, CAPPED


@pytest.mark.parametrize("case", [cg_case, cgls_case], ids=["cg", "cgls"])
def test_window_matches_row_update(monkeypatch, case):
    passes, flushes = [], []
    real_step, real_flush = cg_mod._shift_block_step, cg_mod._flush

    def recording_step(state, j, delta, beta_next, v_next, breakdown,
                       pivot_status):
        passes.append((j, delta, beta_next,
                       None if v_next is None else v_next.copy(), breakdown))
        return real_step(state, j, delta, beta_next, v_next, breakdown,
                         pivot_status)

    def counting_flush(state):
        flushes.append(state.j)
        real_flush(state)

    monkeypatch.setattr(cg_mod, "_shift_block_step", recording_step)
    monkeypatch.setattr(cgls_mod, "_shift_block_step", recording_step)
    monkeypatch.setattr(cg_mod, "_flush", counting_flush)
    sol, rhs, shifted, dense_rhs, pivot_status = case(
        np.random.default_rng(21), 120)

    m1 = sol.lambdas.size
    assert sol.total_iterations == len(passes) > 2 * m1
    assert len(flushes) >= 2
    x, statuses, iterations, products = reference_replay(
        sol.lambdas, sol.tolerances, 2 * rhs.size, rhs, passes, pivot_status)
    assert sol.statuses == statuses
    assert np.array_equal(sol.iterations, iterations)
    assert sol.operator_products == products
    for i in range(m1):
        d = sol.directions[:, i]
        assert np.linalg.norm(d - x[i]) <= 1e-12 * np.linalg.norm(x[i])
        if sol.statuses[i] == CONVERGED:
            exact = np.linalg.solve(shifted(sol.lambdas[i]), dense_rhs)
            assert np.linalg.norm(d - exact) <= 1e-6 * np.linalg.norm(exact)
