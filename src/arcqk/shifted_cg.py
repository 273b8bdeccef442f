"""Lanczos conjugate gradient solving many diagonally shifted systems at once.

For a symmetric operator M and shifts 0 < lambda_0 < ... < lambda_m, one
joint Lanczos recurrence drives CG updates for every system
(M + lambda_i I) x = b: each iteration costs a single operator product no
matter how many shifts are requested.  Shifts whose operator turns out
indefinite are interrupted as soon as a conjugate direction of nonpositive
curvature is certified.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

RUNNING = "running"
CONVERGED = "converged"
INDEFINITE = "indefinite"
CAPPED = "capped"
RETIRED = "retired"

# The kernel keeps int8 status codes; the names are what callers see
# (``state.status`` and ``MultishiftSolution.statuses``).
_NAMES = (RUNNING, CONVERGED, INDEFINITE, CAPPED, RETIRED)
_RUNNING, _CONVERGED, _INDEFINITE, _CAPPED, _RETIRED = range(len(_NAMES))

_EPS = float(np.finfo(float).eps)

# Columns per chunk when the window is folded into the flushed rows or a
# flushed solve's step norms are taken: a (31, 2048) chunk is 0.5 MB.
_CHUNK = 2048


def _names(codes):
    """The status names of an int8 code array, as a tuple."""
    return tuple(map(_NAMES.__getitem__, codes.tolist()))


class TimeExceeded(Exception):
    """The caller's deadline passed during a multishift solve."""

    status = "time_exceeded"


class ShiftGrid:
    """Strictly increasing positive shifts, bounded for double precision."""

    MIN_SHIFT = 1e-15
    MAX_SHIFT = 1e15

    def __init__(self, lambdas):
        lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("lambdas must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(lam)):
            raise ValueError("shift values must be finite")
        if np.any(lam < self.MIN_SHIFT * (1.0 - 1e-12)) or np.any(lam > self.MAX_SHIFT * (1.0 + 1e-12)):
            raise ValueError(
                f"shift values must lie in [{self.MIN_SHIFT:g}, {self.MAX_SHIFT:g}]")
        if lam.size > 1 and np.any(np.diff(lam) <= 0):
            raise ValueError("shift values must be strictly increasing")
        self.lambdas = lam

    @classmethod
    def default(cls) -> "ShiftGrid":
        """Powers of ten covering the full double-precision range."""
        return cls(np.logspace(-15, 15, 31))

    def __len__(self):
        return self.lambdas.size

    def __getitem__(self, i):
        return float(self.lambdas[i])

    def __repr__(self):
        lam = self.lambdas
        return f"ShiftGrid({lam[0]:g}..{lam[-1]:g}, m+1={lam.size})"

    @cached_property
    def _templates(self):
        """Starting arrays of a shift block on this grid, which
        ``_ShiftBlock._open`` copies: per-shift rows, the (Y, C) blocks and
        the status codes; O((m+1)^2) floats."""
        m1 = self.lambdas.size
        rows = np.zeros((8, m1))
        rows[[1, 3]] = 1.0                    # om and gamma
        rows[6] = np.inf                      # score
        yc = np.zeros((2, m1, m1 + 1))
        yc[1, :, 1] = 1.0                     # C: p_0 = W[0] for every shift
        return rows, yc, np.zeros(m1, dtype=np.int8)


def _product(apply, w, u=None):
    """``(out, s)``: ``out = apply(w)`` as a float array and the dot
    ``s = u'out`` (``out'out`` when ``u`` is None) as a float, raising on a
    non-finite value of ``out``.

    The one checked operator product of the package: the CG and CGLS
    kernels and ST's truncated CG form every product through it, and each
    uses ``s`` in place of a dot it would take anyway.  An inf or NaN entry
    of ``out`` makes ``s`` inf or NaN, so a finite ``s`` certifies every
    entry without a second pass over ``out``; only a non-finite ``s``
    (an overflowed dot of finite entries, say) pays for the exact test.
    """
    out = np.asarray(apply(w), dtype=float)
    s = (out if u is None else u) @ out
    if not np.isfinite(s) and not np.isfinite(out).all():
        raise ValueError("operator returned non-finite values")
    return out, float(s)


class _ShiftBlock:
    """The per-shift CG recurrences of one joint solve over a Lanczos source.

    A subclass is the Lanczos source: its ``__init__`` calls ``_open`` with
    the right-hand side of the shifted systems and, unless the solve is
    already done, forms the first Lanczos vector and product; its ``step``
    makes one Lanczos pass, hands the pass's coefficients to
    ``_shift_block_step`` and advances the source while that returns True.
    ``solve`` steps to the end and returns the ``MultishiftSolution``; a
    caller that watches the solve (its ``status``, ``sigma``, ``x`` or
    ``W``) steps it itself.  Each joint iteration costs one product with
    the operator (M for CG, A for CGLS), so a solve forms
    ``total_iterations`` of them, and none is formed after the last
    running shift freezes.  A zero right-hand side
    is solved by zero: every shift is ``converged`` from the start, and
    the solve forms no product.

    Per-shift scalars are (m+1,) rows of one array: the stacked
    ``S = (gamma, omega, sigma)`` of the recurrence, the pass's new values
    ``N = (g, om, sig)``, ``score`` and ``tol``.  The status of each shift
    is an int8 code in ``code`` (the ``_NAMES`` index; ``status`` gives the
    names), and ``run`` masks the running shifts.  A shift that converged,
    was frozen at a nonpositive pivot, retired or hit the cap keeps its
    row; ``_freeze`` clears it in ``run`` and sets its g and om to 0 and 1,
    so that the coefficient updates leave it unchanged without a mask.  A solve on ``grid`` starts from copies of the grid's
    ``_templates``.  ``iterations[i]`` is set when shift i freezes.

    The shift-major (m+1, n) iterate and direction blocks ``x`` and ``p``
    are never stored whole.  Every shifted iterate lies in the Krylov space
    of the shared Lanczos vectors (the shift invariance of multishift
    Krylov solvers), so the blocks are kept as flushed rows ``_X``, ``_P``
    plus coefficients over a window ``W`` of at most K = m+1 basis
    vectors::

        x[i] = _X[i] + Y[i, 0] * _P[i] + Y[i, 1:kw+1] @ W[:kw]
        p[i] =         C[i, 0] * _P[i] + C[i, 1:kw+1] @ W[:kw]

    ``Y`` and ``C`` are (m+1, K+1); column 0 weighs a row's own ``_P``.  A
    joint iteration updates only these coefficients and copies one vector
    into the window, O(n) + O((m+1) K) work.  When the window is full it
    is flushed: ``_X`` and ``_P`` each take one (m+1) x K x n matrix
    product (O((m+1) n) flops per iteration spread over the window).  The
    first flush allocates both, so ``_X is not None`` means that a flush
    happened and that ``_P`` exists.  Every flush folds the products into
    ``_X`` and ``_P`` in place through one loop over ``_CHUNK``-column
    slices, and keeps only the ``_P`` rows of running shifts (see
    ``_flush``); so a flushed solve holds three (m+1, n) blocks, ``W``,
    ``_X`` and ``_P``, plus temporaries of (m+1) x ``_CHUNK`` floats.
    Reading ``x`` or ``p`` forms the block as a new array and leaves the
    solve as it was.  A finished solve hands the block to its
    ``MultishiftSolution`` as it stands, so the (m+1, n) rows are written
    never, unless a flush happened or the solution's ``directions`` is
    read.
    """

    def _open(self, rhs, grid: ShiftGrid, tol, max_iter, alpha, deadline):
        """Check the arguments and start the block on ``rhs``; returns ||rhs||.

        ``max_iter`` defaults to 2 n.  ``alpha`` is the regularization
        weight the caller will select with; ``None`` retires no shift (see
        ``_shift_block_step``).  ``deadline`` is a ``time.perf_counter``
        value after which ``solve`` raises ``TimeExceeded``; ``None`` sets
        no limit.
        """
        m1 = len(grid)
        self.lambdas = grid.lambdas
        tol = np.asarray(tol, dtype=float)
        if tol.shape not in ((), (m1,)):
            raise ValueError(f"tol must be scalar or have {m1} entries")
        lo, hi = (tol, tol) if tol.ndim == 0 else (tol.min(), tol.max())
        if not 0.0 <= lo <= hi < np.inf:
            raise ValueError("tolerances must be finite and nonnegative")
        self.max_iter = int(2 * rhs.size if max_iter is None else max_iter)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self._deadline = deadline

        beta0 = math.sqrt(rhs @ rhs)
        self.W = np.empty((m1, rhs.size))     # window of basis vectors
        self.W[0] = rhs                       # p_0 = rhs for every shift
        self.kw = 1                           # vectors in the window
        rows, yc, code = (a.copy() for a in grid._templates)
        self.Y, self.C = yc[0], yc[1]         # C[:, 0] = 0: no _P yet
        self._X = None
        self._P = None
        self.N, self.S = rows[0:3], rows[3:6]
        self.g, self.om, self.sig = rows[0], rows[1], rows[2]
        rows[5], rows[7] = beta0, tol
        self.sigma = rows[5]                  # signed; |sigma_j| = ||r_j||
        self.score = rows[6]                  # |bound| once converged
        self.tol = rows[7]
        self.done = beta0 == 0.0              # zero solves every system
        if self.done:
            code[:] = _CONVERGED
        self.code = code                      # _RUNNING is 0
        self.run = code == _RUNNING
        self.iterations = np.zeros(m1, dtype=int)   # set as a shift freezes
        self.j = -1
        # alpha * lambda_i, the selection's target norms; None retires nothing
        self.alpha_lam = None if alpha is None else alpha * self.lambdas
        # Squared norms of what the columns of Y weigh before any flush: no
        # _P (its column of Y is zero), W[0] = rhs, then unit Lanczos vectors.
        self.wsq = np.ones(m1 + 1)
        self.wsq[:2] = 0.0, beta0 * beta0
        return beta0

    @property
    def status(self):
        """Per-shift status names, a tuple of the module's constants."""
        return _names(self.code)

    @property
    def x(self):
        """The (m+1, n) iterate block, formed as a new array."""
        k = self.kw
        return _rows(self.W[:k], self.Y[:, :k + 1], self._X, self._P,
                     slice(None))

    @property
    def p(self):
        """The (m+1, n) direction block, formed as a new array.

        After a flush the rows of shifts frozen before it are undefined:
        ``_flush`` forms only the ``_P`` rows of running shifts.
        """
        k = self.kw
        return _rows(self.W[:k], self.C[:, :k + 1], None, self._P,
                     slice(None))

    def solve(self) -> "MultishiftSolution":
        """Step to the end and return the solution.

        Raises ``TimeExceeded`` when a joint iteration ends past the
        deadline.  A caller that watches the solve calls ``step`` itself.
        """
        deadline = self._deadline
        while not self.done:
            self.step()
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeExceeded(f"deadline passed in iteration {self.j}")
        k = self.kw
        return MultishiftSolution(
            lambdas=self.lambdas.copy(),
            residual_norms=np.abs(self.sigma),
            codes=self.code,
            iterations=self.iterations.copy(),
            total_iterations=self.j + 1,
            W=self.W[:k], Y=self.Y[:, :k + 1].copy(), X=self._X, P=self._P)


class MultishiftState(_ShiftBlock):
    """Joint Lanczos-CG on a symmetric operator M, for right-hand side b."""

    def __init__(self, apply_op, b, grid: ShiftGrid, tol, max_iter,
                 alpha=None, deadline=None):
        b = np.asarray(b, dtype=float)
        self._apply_op = apply_op
        beta0 = self._open(b, grid, tol, max_iter, alpha, deadline)
        if self.done:
            return
        self.v = b / beta0
        self.v_prev = None                    # v_{j-1}; none at j=0
        self.beta = 0.0                       # multiplies v_{j-1}; unused at j=0
        self.q, self.qq = _product(apply_op, self.v)

    def step(self):
        """One joint Lanczos pass updating every running shift.

        The pass makes one new n-vector, w, and forms
        w = (q - delta v) - beta v_prev and v_next = w / beta_next in it,
        with the floating-point expressions of the out-of-place update.
        ``v_prev`` is dead after the pass, so it is scaled by beta in
        place; ``q`` belongs to the operator and is never written.  The
        window keeps a copy of v_next: on a one-shift grid a flush
        overwrites its row before the next pass reads it as ``v_prev``.
        """
        if self.done:
            raise RuntimeError("multishift solve already finished")
        j = self.j + 1
        v, q = self.v, self.q

        delta = float(v @ q)
        w = np.multiply(v, delta)
        np.subtract(q, w, out=w)
        if j > 0:
            w -= np.multiply(self.v_prev, self.beta, out=self.v_prev)
        beta_next = math.sqrt(w @ w)
        breakdown = beta_next <= _EPS * (1.0 + math.sqrt(self.qq))
        v_next = None if breakdown else np.divide(w, beta_next, out=w)

        # Nonpositive pivot certifies p'(M + lam I)p <= 0 for that shift.
        if _shift_block_step(self, j, delta, beta_next, v_next, breakdown,
                             _INDEFINITE):
            self.v_prev = v
            self.v = v_next
            self.beta = beta_next
            self.q, self.qq = _product(self._apply_op, v_next)


def _rows(W, Y, X, P, rows):
    """Rows ``rows`` of X + Y[:, :1] * P + Y[:, 1:] @ W as a new array.

    The row formula of ``_ShiftBlock``; ``X`` and ``P`` are None before a
    flush.
    """
    x = Y[rows, 1:] @ W
    if X is not None:
        x += X[rows]
    if P is not None:
        x += Y[rows, :1] * P[rows]
    return x


def _chunks(n):
    """Column slices of width ``_CHUNK`` covering ``range(n)``."""
    return (slice(c, min(c + _CHUNK, n)) for c in range(0, n, _CHUNK))


def _flush(state):
    """Fold the window into ``_X`` and the running rows of ``_P``, then
    empty it.

    The first flush allocates ``_X`` and ``_P`` from ``np.zeros``, whose
    pages are mapped only when written, so ``_P`` rows never formed cost
    no memory and hold zeros, not garbage that ``0 * _P[i]`` could turn
    into NaN.  Every flush then runs one loop over ``_CHUNK`` column
    slices c through one (m+1, ``_CHUNK``) buffer::

        _X[:, c] += Y[:, 1:] @ W[:, c]
        _X[:, c] += Y[:, :1] * _P[:, c]
        _P[rows, c] *= C[rows, :1]
        _P[rows, c] += (C[:, 1:] @ W[:, c])[rows]

    so no (m+1, n) temporary is made.  Before the first flush ``Y[:, 0]``
    and ``C[:, 0]`` are zero, so the fold adds nothing to the products.
    A frozen shift's direction is never read again, and its ``Y[:, 0]``
    weight stays +0 after the flush, so ``_P`` keeps only ``rows``, from
    the first to the last running shift.  The product ``C[:, 1:] @ W``
    still runs over every row: BLAS picks its kernel by shape, and a
    product over fewer rows can round differently.
    """
    k, W, Y, C = state.kw, state.W[:state.kw], state.Y, state.C
    if state._X is None:
        state._X = np.zeros((len(Y), W.shape[1]))
        state._P = np.zeros(state._X.shape)
    X, P = state._X, state._P
    live = state.run.nonzero()[0]
    rows = slice(live[0], live[-1] + 1)
    buf = np.empty((len(Y), min(_CHUNK, X.shape[1])))
    for c in _chunks(X.shape[1]):
        t = buf[:, :c.stop - c.start]
        X[:, c] += np.matmul(Y[:, 1:k + 1], W[:, c], out=t)
        X[:, c] += np.multiply(Y[:, :1], P[:, c], out=t)
        P[rows, c] *= C[rows, :1]
        P[rows, c] += np.matmul(C[:, 1:k + 1], W[:, c], out=t)[rows]
    Y[:] = 0.0
    C[:] = 0.0
    C[:, 0] = 1.0
    state.kw = 0


def _shift_block_step(state, j, delta, beta_next, v_next, breakdown,
                      pivot_status):
    """Advance every running shift by one CG update from Lanczos pass j.

    ``delta`` and ``beta_next`` are the Lanczos coefficients of the pass and
    ``v_next`` the next Lanczos vector (``None`` on breakdown).  A running
    shift whose pivot is nonpositive is frozen with the status code
    ``pivot_status`` before dividing, keeping its last iterate.  The pivot
    delta + lambda - omega/gamma is p'(M + lambda I)p over ||r||^2 for the
    shift's direction p and residual r, so its sign is the curvature
    certificate: no other record of it is kept.  The update
    ``x += g p``, ``p = om p + sig v_next`` acts on the window coefficients
    of every row, with g = 0 and om = 1 on frozen rows, so their
    coefficients gain exact zeros and keep their values.  Returns True when
    some shift still runs, so the caller must advance its Lanczos source
    and form the next product; once every shift has frozen no further
    product is needed.

    A pass makes a fixed number of numpy calls (29 when no shift freezes),
    however many shifts run: the pivots of every row are computed, g, om
    and sig are written in place into ``N`` under the kept mask ``run`` and
    copied into ``S`` by one masked copy, and ``run``, the codes,
    ``iterations`` and the g/om rows change only in ``_freeze``, when some
    shift freezes.  Every floating-point
    expression is the one of the masked per-row update, so the iterates
    and counts do not depend on this layout.

    Given the caller's alpha, shifts that ARC's selection at that alpha can
    no longer pick are retired: frozen with status ``retired``, which is
    never usable.  A shift is usable iff it converged (``usable_mask``),
    and its code is final once it freezes.  With b the converged shift that
    ``_closest`` picks, of lowest selection score
    s_b = |alpha lambda_b - ||x_b||| (ties to the smaller index), a running
    shift r is retired when

    1. r < b,
    2. ||x_r|| - alpha lambda_r > s_b, strictly, and
    3. every running shift below r is retired with it (the prefix rule).

    Neither ``select_step`` nor ``advance_shift_on_failure`` can tell the
    difference from the solve without alpha:

    - A running shift has taken only CG steps with positive pivots, along
      which ||x_r|| grows monotonically (Steihaug, SIAM J. Numer. Anal. 20,
      1983).  Had r run on and ended usable, its score would be at least
      ||d_r|| - alpha lambda_r >= ||x_r|| - alpha lambda_r > s_b, and b,
      frozen and usable, is a candidate of both solves: only losers retire.
    - Every other shift freezes at the same pass with the same status and
      iterate, since the Lanczos recurrence and each shift's update ignore
      the other shifts; the solve only ends sooner.
    - i_plus, the first shift without a negative-curvature certificate, can
      only move down onto a retired shift, and every shift it passes is
      indefinite or retired, so no candidate is added.
    - By the prefix rule everything below a retired shift is frozen or
      retired for good, and a frozen usable shift below b scores above s_b
      by the choice of b.  So the selected j lies above every retired
      shift, and the failure walk, which only moves up from j, never meets
      one.

    The test costs O(1) numpy calls per pass.  Every pass reads all norms
    from the window coefficients, taking the window's rows as orthogonal
    (W[0] is the right-hand side, later rows unit Lanczos vectors), and
    keeps the score of each shift from the pass it converges in.  When the
    lowest running shift passes the test on these norms, the rule is
    applied with exact norms from the window's Gram matrix, as
    ``step_norms`` computes them.  Nothing is retired once the window has
    been flushed.
    """
    run, S, g, om, sig = state.run, state.S, state.g, state.om, state.sig
    denom = delta + state.lambdas - S[1] / S[0]
    pivot = (denom <= 0.0) & run
    if np.count_nonzero(pivot):
        _freeze(state, pivot, pivot_status)
    state.j = j                               # frozen from here: j+1 passes

    if np.count_nonzero(run):
        np.divide(1.0, denom, out=g, where=run)
        np.square(beta_next * g, out=om, where=run)
        np.multiply(-beta_next * g, S[2], out=sig)
        np.copyto(S, state.N, where=run)       # gamma, omega, sigma
        conv = (np.abs(S[2]) <= state.tol) & run
        converged = np.count_nonzero(conv)

        state.Y += g[:, None] * state.C       # x += g p
        if state.alpha_lam is not None and state._X is None:
            # whole rows of Y: the columns past the window are zero
            state.bound = (np.sqrt(np.dot(state.Y * state.Y, state.wsq))
                           - state.alpha_lam)
            if converged:
                np.copyto(state.score, np.abs(state.bound), where=conv)
        state.C *= om[:, None]                # p = om p + sig v_next
        if not breakdown:
            k = state.kw
            if k == len(state.W):
                _flush(state)
                k = 0
            state.W[k] = v_next
            state.C[:, k + 1] = sig
            state.kw = k + 1
        if converged:
            _freeze(state, conv, _CONVERGED)

    if breakdown or j + 1 >= state.max_iter:
        # On breakdown the Krylov space is exhausted: the remaining systems
        # are solved exactly within it, so they are finalized as converged.
        _freeze(state, run, _CONVERGED if breakdown else _CAPPED)
        state.done = True
        return False
    if state.alpha_lam is not None and state._X is None:
        _retire(state)
    state.done = not np.count_nonzero(run)
    return not state.done


def _freeze(state, rows, code):
    """Freeze the running shifts ``rows`` (a mask or indices) with ``code``.

    ``rows`` may be ``state.run`` itself, so ``run`` is cleared last.  The
    shifts took part in ``state.j + 1`` joint iterations.
    """
    state.code[rows] = code
    state.iterations[rows] = state.j + 1
    state.N[:2, rows] = ((0.0,), (1.0,))      # g, om: x += 0 p, p = 1 p + 0 v
    state.run[rows] = False


def _window_norms(W, y):
    """||y_i' W|| of every row i from the Gram matrix W W'.

    O(k^2 n) work for a (k, n) window; no orthogonality of its rows is
    assumed.  numpy sends ``W @ W.T`` to BLAS syrk, which is slow for the
    few long rows that large-n solves end with; there the lower triangle
    is filled by row products ``W[:i+1] @ W[i]`` and mirrored.  Best
    time per Gram matrix, one BLAS thread on a 2-core machine (syrk /
    rows): 216 / 60 us at n = 1e5, k = 2; 1009 / 457 us at n = 1e5,
    k = 5; 95 / 35 us at n = 1e4, k = 5; but 1.3 / 3.9 us at n = 100,
    k = 2, mixed at n = 1e3, and the rows lose from k = 8 on (736 / 1167
    us at n = 1e5).  Hence rows for n > ``_CHUNK`` and k <= 6.
    """
    k, n = W.shape
    if n > _CHUNK and k <= 6:
        G = np.zeros((k, k))
        for i in range(k):
            G[i, :i + 1] = G[:i + 1, i] = W[:i + 1] @ W[i]
    else:
        G = W @ W.T
    z = y @ G
    # batched row dot products, cheaper than a row sum at small n
    sq = (z[:, None, :] @ y[:, :, None]).ravel()
    return np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)


def _usable(codes):
    """The selection rule on int8 status codes: usable iff converged.

    ``MultishiftSolution.usable_mask`` and ``_retire`` both apply it, so
    retirement picks its b from the candidates of ``arc.select_step``.
    """
    return codes == _CONVERGED


def _closest(usable, norms, alpha_lam):
    """The selection rule: ``(j, score)`` for the shift j among the
    indices ``usable`` (increasing, not empty) of least
    score = |alpha lambda_j - ||d_j|||, ties going to the smaller shift.

    ``norms`` and ``alpha_lam`` hold ||d_i|| and alpha lambda_i of every
    shift.  ``arc.select_step`` picks its step and ``_retirees`` its b
    through this one function.
    """
    scores = np.abs(alpha_lam[usable] - norms[usable])
    k = int(scores.argmin())
    return int(usable[k]), scores[k]


def _retirees(norms, alpha_lam, usable, run):
    """Indices of the running shifts (mask ``run``) the rule retires.

    The rule of ``_shift_block_step``: b is the shift that ``_closest``
    picks among the usable ones (indices ``usable``, not empty), and the
    result is the longest prefix of the running shifts below b whose bound
    ||x_i|| - alpha lambda_i lies strictly above b's score.
    """
    b, score = _closest(usable, norms, alpha_lam)
    below = np.flatnonzero(run[:b])
    ok = norms[below] - alpha_lam[below] > score
    return below if ok.all() else below[:int(ok.argmin())]


def _retire(state):
    """Retire the running shifts that selection cannot pick.

    The pass's coefficient norms decide whether the rule is applied with
    exact norms (see ``_shift_block_step``).  Only converged shifts have a
    finite score, so the rule is applied only once some shift converged.
    """
    b = int(state.score.argmin())
    r = int(state.run.argmax())
    if not (state.run[r] and r < b and state.bound[r] > state.score[b]):
        return
    k = state.kw
    norms = _window_norms(state.W[:k], state.Y[:, 1:k + 1])
    usable = np.flatnonzero(_usable(state.code))
    _freeze(state, _retirees(norms, state.alpha_lam, usable, state.run),
            _RETIRED)


@dataclass
class MultishiftSolution:
    """Per-shift directions and diagnostics of one multishift solve.

    The directions stay in the solver's shift block as the solve ended (see
    ``_ShiftBlock``): d_i is row i of x, with the flushed rows ``X`` and
    ``P`` present only when the window was flushed.  The (m+1, n) block is
    never formed unless ``directions`` is read: ``step_norms`` comes from
    the window's Gram matrix, or after a flush from column chunks of the
    rows, and ``direction(i)`` forms row i alone.  So selection and the
    failure walk hold no more than the solve did: ``W`` and, after a
    flush, ``X`` and ``P``, three (m+1, n) blocks at most.

    ``codes`` holds the int8 status code of every shift (the ``_NAMES``
    index), the one stored status: ``statuses`` and ``usable_mask`` are
    derived from it.  A shift is usable, a candidate of ``arc.select_step``
    and ``arc.advance_shift_on_failure``, iff it converged.  The solve
    formed ``total_iterations`` operator products.
    """

    lambdas: np.ndarray
    residual_norms: np.ndarray      # |sigma| at freeze time
    codes: np.ndarray
    iterations: np.ndarray
    total_iterations: int
    W: np.ndarray                   # (kw, n) window of basis vectors
    Y: np.ndarray                   # (m+1, kw+1) weights of [P; W]
    X: Optional[np.ndarray] = None  # (m+1, n) flushed rows, if any
    P: Optional[np.ndarray] = None

    @cached_property
    def statuses(self) -> tuple:
        """Per-shift status names, a tuple of the module's constants."""
        return _names(self.codes)

    @cached_property
    def usable_mask(self) -> np.ndarray:
        """Per-shift bool: whether the shift is usable (``_usable``)."""
        return _usable(self.codes)

    def direction(self, i) -> np.ndarray:
        """Direction of shift i, formed from the block as a new vector."""
        return _rows(self.W, self.Y, self.X, self.P, i)

    @cached_property
    def directions(self) -> np.ndarray:
        """(n, m+1), one column per shift: every row formed once and kept."""
        return _rows(self.W, self.Y, self.X, self.P, slice(None)).T

    @cached_property
    def step_norms(self) -> np.ndarray:
        """Per-shift ||d||, computed on first use and kept.

        Without flushed rows, ||d_i||^2 = y_i' G y_i with y_i = Y[i, 1:] and
        the Gram matrix G = W W' of the window: O(kw^2 n) work, and no
        orthogonality of the basis vectors is assumed.  A flushed solve
        forms its rows with ``_rows``, ``_CHUNK`` columns at a time, and
        sums each row's squares over the chunks: W is read once,
        ``directions`` is left unformed, and the temporaries are two
        (m+1) x ``_CHUNK`` arrays, so the three-block bound of the solve
        holds.
        """
        if self.X is None:
            return _window_norms(self.W, self.Y[:, 1:])
        sq = 0.0
        for c in _chunks(self.X.shape[1]):
            x = _rows(self.W[:, c], self.Y, self.X[:, c], self.P[:, c],
                      slice(None))
            sq += np.einsum("ij,ij->i", x, x)
            del x                       # freed before the next chunk forms
        return np.sqrt(sq)


def multishift_cg(apply_M, b, grid: ShiftGrid, tol=1e-8, max_iter=None,
                  alpha=None, deadline=None) -> MultishiftSolution:
    """Solve (M + lambda_i I) x = b for every shift of the grid.

    Parameters
    ----------
    apply_M : callable
        Symmetric operator, ``apply_M(v) -> M @ v``.  Symmetry is the
        caller's contract and is not checked here.
    b : array
        Right-hand side.  A zero b yields all-zero converged solutions and
        forms no product.
    grid : ShiftGrid
    tol : float or array
        Per-shift absolute residual tolerance.
    max_iter : int, optional
        Joint iteration cap, default ``2 * len(b)``.
    alpha : float, optional
        The cubic-regularization weight the caller selects with.  Shifts
        that ``arc.select_step`` at this alpha can no longer pick are then
        retired, and the solve ends once no selectable shift runs (see
        ``_shift_block_step``).  ``None`` retires nothing.
    deadline : float, optional
        A ``time.perf_counter()`` value: the solve raises ``TimeExceeded``
        after the first joint iteration that ends past it.
    """
    return MultishiftState(apply_M, b, grid, tol, max_iter, alpha=alpha,
                           deadline=deadline).solve()
