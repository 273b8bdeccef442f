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
from functools import cached_property

import numpy as np

RUNNING = "running"
CONVERGED = "converged"
INDEFINITE = "indefinite"
CAPPED = "capped"
RETIRED = "retired"

# The kernel keeps int8 status codes; the names are what callers see
# (``MultishiftSolution.statuses``).
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
        lam = np.atleast_1d(np.array(lambdas, dtype=float))
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("lambdas must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(lam)):
            raise ValueError("shift values must be finite")
        if np.any(lam < self.MIN_SHIFT * (1.0 - 1e-12)) or np.any(lam > self.MAX_SHIFT * (1.0 + 1e-12)):
            raise ValueError(
                f"shift values must lie in [{self.MIN_SHIFT:g}, {self.MAX_SHIFT:g}]")
        if lam.size > 1 and np.any(np.diff(lam) <= 0):
            raise ValueError("shift values must be strictly increasing")
        lam.flags.writeable = False       # a private copy, shared by solves
        self.lambdas = lam

    @classmethod
    def default(cls) -> "ShiftGrid":
        """Powers of ten covering the full double-precision range."""
        return cls(np.logspace(-15, 15, 31))

    def __len__(self):
        return self.lambdas.size

    def __repr__(self):
        lam = self.lambdas
        return f"ShiftGrid({lam[0]:g}..{lam[-1]:g}, m+1={lam.size})"

    @cached_property
    def _templates(self):
        """Starting arrays of a shift block on this grid, which
        ``MultishiftSolution._open`` copies: per-shift rows, the (Y, C)
        blocks and the status codes; O((m+1)^2) floats."""
        m1 = self.lambdas.size
        rows = np.zeros((6, m1))
        rows[[1, 3]] = 1.0                    # om and gamma
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


def _limits(n, rr, tol, max_iter):
    """``(tol, max_iter)`` of a Krylov solve on a length-n right-hand side
    of squared norm ``rr``, checked by the package's one argument rule.

    CG and CGLS (through ``MultishiftSolution._open``) and ST's truncated
    CG check their arguments here and nowhere else.  ``rr`` is the dot
    each solve takes anyway: a finite ``rr`` certifies every entry, as in
    ``_product``, and an overflowed one leaves no recurrence to start.
    ``tol`` is a finite, nonnegative scalar; ``max_iter`` defaults to 2 n
    and is at least 1.
    """
    if not np.isfinite(rr):
        raise ValueError("right-hand side is non-finite or its squared norm "
                         "overflows")
    if np.ndim(tol) != 0 or not 0.0 <= tol < np.inf:
        raise ValueError("tol must be a finite, nonnegative scalar")
    max_iter = int(2 * n if max_iter is None else max_iter)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    return float(tol), max_iter


class MultishiftSolution:
    """One joint multishift solve over a Lanczos source, and its solution.

    A subclass is the Lanczos source: its ``__init__`` calls ``_open`` with
    the right-hand side of the shifted systems and its squared norm and,
    unless the solve is already done, keeps the operator and forms the
    first Lanczos vector and product; its ``step`` makes one Lanczos pass,
    hands the pass's coefficients to ``_shift_block_step`` and advances the
    source while that returns True.  Once it returns False, ``step`` drops
    the Lanczos vectors and the operator, so a finished solve keeps only
    its block.  ``solve`` steps to the end and returns the object itself,
    which is the solution; a caller that watches the solve (its
    ``statuses``, ``sigma``, ``direction(i)`` or ``W``) steps it itself.
    Each joint iteration costs one product with the operator (M for CG, A
    for CGLS), so a solve forms ``total_iterations`` of them, and none is
    formed after the last running shift freezes.  A zero right-hand side
    is solved by zero: every shift is ``converged`` from the start, and
    the solve forms no product.

    Per-shift scalars are (m+1,) rows of one array: the stacked
    ``S = (gamma, omega, sigma)`` of the recurrence and the pass's new
    values ``N = (g, om, sig)``; every shift has the one tolerance ``tol``,
    and |sigma_i| is the residual norm of shift i, kept from its last
    pass once it froze.  The status of each shift is an int8 code in ``codes`` (the
    ``_NAMES`` index), the one stored status: ``statuses`` gives the names
    and ``usable_mask`` the shifts that ``arc.select_step``,
    ``arc.advance_shift_on_failure`` and retirement may pick, the
    converged ones.  ``run`` masks the running shifts.  A shift that
    converged, was frozen at a nonpositive pivot, retired or hit the cap
    keeps its row; ``_freeze`` clears it in ``run`` and sets its g and om
    to 0 and 1, so that the coefficient updates leave it unchanged without
    a mask.  A solve on ``grid`` starts from copies of the grid's
    ``_templates`` and shares its read-only ``lambdas``.  ``iterations[i]``
    is set when shift i freezes.

    The shift-major (m+1, n) iterate and direction blocks x and p are
    never stored whole.  Every shifted iterate lies in the Krylov space
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
    first flush sets both, so ``_X is not None`` means that a flush
    happened and that ``_P`` exists.  Every flush folds the products into
    ``_X`` and ``_P`` in place through one loop over ``_CHUNK``-column
    slices, and keeps only the ``_P`` rows of running shifts (see
    ``_flush``); so a flushed solve holds three (m+1, n) blocks, ``W``,
    ``_X`` and ``_P``, plus temporaries of (m+1) x ``_CHUNK`` floats.
    Reading ``direction(i)`` or ``directions`` forms rows of x as a new
    array and leaves the solve as it was; once done, d_i is row i of x.
    No reader of a solution needs p, so no view of it is kept.
    ``step_norms`` comes from the block without forming it
    (``_exact_norms``), so selection and the failure walk hold no more
    than the solve did.

    The blocks belong to a run, not to a solve.  A solve handed the
    ``spent`` solve before it, of the same n and m+1, takes over its ``W``
    and its ``_blocks``: the triple ``(_X, _P, formed)`` once that solve
    flushed, else the one it had inherited itself.  The spent solve is
    emptied (``W``, ``_X``, ``_P`` and ``_blocks`` become None, its cached
    step norms are dropped), and reading its directions or step norms
    then raises ``RuntimeError``.  ``formed`` is the span of shifts
    running at the blocks' last owner's first flush; the running shifts
    only shrink, so every later flush writes ``_P`` rows inside it, and
    every ``_P`` row outside it holds zeros.  A solve with no spent one,
    or one of another shape, allocates its blocks anew.
    """

    def _open(self, rhs, rr, grid: ShiftGrid, tol, max_iter, alpha,
              spent=None):
        """Check the arguments (``_limits``) and start the block on
        ``rhs``, whose squared norm is ``rr``; returns ||rhs||.

        ``alpha`` is the regularization weight the caller will select
        with; ``None`` retires no shift (see ``_shift_block_step``).
        ``spent`` is a finished solve whose blocks this one takes over when
        their shape fits, emptying it (see the class docstring); ``None``
        takes none.
        """
        m1 = len(grid)
        self.lambdas = grid.lambdas
        self.tol, self.max_iter = _limits(rhs.size, rr, tol, max_iter)
        beta0 = math.sqrt(rr)
        if spent is not None and np.shape(spent.W) == (m1, rhs.size):
            self.W, self._blocks = spent.W, spent._blocks
            spent.W = spent._X = spent._P = spent._blocks = None
            vars(spent).pop("step_norms", None)
        else:
            self.W, self._blocks = np.empty((m1, rhs.size)), None
        self.W[0] = rhs                       # p_0 = rhs for every shift
        self.kw = 1                           # vectors in the window
        rows, yc, codes = (a.copy() for a in grid._templates)
        self.Y, self.C = yc[0], yc[1]         # C[:, 0] = 0: no _P yet
        self._X = None
        self._P = None
        self.N, self.S = rows[0:3], rows[3:6]
        self.g, self.om, self.sig = rows[0], rows[1], rows[2]
        rows[5] = beta0
        self.sigma = rows[5]                  # signed; |sigma_j| = ||r_j||
        self.done = beta0 == 0.0              # zero solves every system
        if self.done:
            codes[:] = _CONVERGED
        self.codes = codes                    # _RUNNING is 0
        self.run = codes == _RUNNING
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
    def statuses(self) -> tuple:
        """Per-shift status names, a tuple of the module's constants."""
        return _names(self.codes)

    @property
    def usable_mask(self) -> np.ndarray:
        """Per-shift bool: the selection rule, usable iff converged."""
        return self.codes == _CONVERGED

    @property
    def total_iterations(self) -> int:
        """Joint iterations so far, which is the operator products formed."""
        return self.j + 1

    def _window(self):
        """``W[:kw]``; raises ``RuntimeError`` once a later solve has taken
        the blocks."""
        if self.W is None:
            raise RuntimeError("a later solve took this solve's blocks")
        return self.W[:self.kw]

    def direction(self, i) -> np.ndarray:
        """Row i of the iterate block (rows ``i``, for a slice), formed as a
        new array: the direction of shift i once the solve is done."""
        return _rows(self._window(), self.Y[:, :self.kw + 1], self._X,
                     self._P, i)

    @property
    def directions(self) -> np.ndarray:
        """(n, m+1), one column per shift: the iterate block, formed anew
        on every read."""
        return self.direction(slice(None)).T

    @cached_property
    def step_norms(self) -> np.ndarray:
        """Per-shift ||d||, computed on the first read after the solve is
        done and kept; reading it earlier raises ``RuntimeError``."""
        if not self.done:
            raise RuntimeError("step norms of a solve still running")
        return _exact_norms(self)

    def solve(self, deadline=None) -> "MultishiftSolution":
        """Step to the end and return this solve, now its solution.

        ``deadline`` is a ``time.perf_counter()`` value: a joint iteration
        that ends past it raises ``TimeExceeded``; ``None`` sets no limit.
        A caller that watches the solve calls ``step`` itself.
        """
        while not self.done:
            self.step()
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeExceeded(f"deadline passed in iteration {self.j}")
        return self


class MultishiftState(MultishiftSolution):
    """Joint Lanczos-CG on a symmetric operator M, for right-hand side b."""

    def __init__(self, apply_op, b, grid: ShiftGrid, tol, max_iter,
                 alpha=None, spent=None):
        b = np.asarray(b, dtype=float)
        beta0 = self._open(b, b @ b, grid, tol, max_iter, alpha, spent)
        if self.done:
            return
        self._apply_op = apply_op
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
        The pass that freezes the last running shift drops ``v``,
        ``v_prev``, ``q`` and the operator.
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
        v_next = (None if beta_next <= _EPS * (1.0 + math.sqrt(self.qq))
                  else np.divide(w, beta_next, out=w))

        # Nonpositive pivot certifies p'(M + lam I)p <= 0 for that shift.
        if _shift_block_step(self, j, delta, beta_next, v_next, _INDEFINITE):
            self.v_prev = v
            self.v = v_next
            self.beta = beta_next
            self.q, self.qq = _product(self._apply_op, v_next)
        else:
            self.v = self.v_prev = self.q = self._apply_op = None


def _rows(W, Y, X, P, rows):
    """Rows ``rows`` of X + Y[:, :1] * P + Y[:, 1:] @ W as a new array.

    The row formula of ``MultishiftSolution``; ``X`` and ``P`` are None
    before a flush.
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

    The first flush of a solve that inherited no blocks allocates ``_X``
    and ``_P`` from ``np.zeros``, whose pages are mapped only when
    written, so ``_P`` rows never formed cost no memory and hold zeros,
    not garbage that ``0 * _P[i]`` could turn into NaN.  A solve that
    inherited ``_blocks`` from a spent solve takes their ``_X`` and
    ``_P`` instead and zeroes all of ``_X`` but only the ``_P`` rows of
    their formed span, the only rows that are not zeros already, so rows
    never formed stay unmapped; either way the fold starts from zero
    blocks, as a fresh solve's, and ``_blocks`` then names them with this
    flush's running span as their formed span.  Every flush then runs
    one loop over ``_CHUNK`` column slices c through one (m+1,
    ``_CHUNK``) buffer::

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
    live = state.run.nonzero()[0]
    rows = slice(live[0], live[-1] + 1)
    if state._X is None:
        if state._blocks is None:
            state._X = np.zeros((len(Y), W.shape[1]))
            state._P = np.zeros(state._X.shape)
        else:
            state._X, state._P, formed = state._blocks
            state._X.fill(0.0)
            state._P[formed] = 0.0
        state._blocks = state._X, state._P, rows
    X, P = state._X, state._P
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


def _shift_block_step(state, j, delta, beta_next, v_next, pivot_status):
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

    A pass makes a fixed number of numpy calls, however many shifts run:
    23 when no shift freezes, and at most 11 more in ``_retire``.  The
    pivots of every row are computed, g, om and sig are written in place
    into ``N`` under the kept mask ``run`` and copied into ``S`` by one
    masked copy, and ``run``, the codes, ``iterations`` and the g/om rows
    change only in ``_freeze``, when some shift freezes.  Every
    floating-point expression is the one of the masked per-row update, so
    the iterates and counts do not depend on this layout.

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

    The test costs O(1) numpy calls per pass (``_retire``).  It first
    estimates every norm from the window coefficients, taking the window's
    rows as orthogonal (W[0] is the right-hand side, later rows unit
    Lanczos vectors): ||x_i||^2 = sum_k Y[i, k]^2 wsq[k].  Before the first
    flush ``wsq`` never changes and a frozen row of Y only gains exact
    zeros, so a usable shift's estimated score is, bitwise, the one it had
    in the pass it converged in, and no score is kept.  When the lowest
    running shift passes the test on these norms, the rule is applied with
    exact norms from the window's Gram matrix (``_exact_norms``).  Nothing
    is retired once the window has been flushed.
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
        state.C *= om[:, None]                # p = om p + sig v_next
        if v_next is not None:
            k = state.kw
            if k == len(state.W):
                _flush(state)
                k = 0
            state.W[k] = v_next
            state.C[:, k + 1] = sig
            state.kw = k + 1
        if converged:
            _freeze(state, conv, _CONVERGED)

    if v_next is None or j + 1 >= state.max_iter:
        # On breakdown the Krylov space is exhausted: the remaining systems
        # are solved exactly within it, so they are finalized as converged.
        _freeze(state, run, _CONVERGED if v_next is None else _CAPPED)
        state.done = True
        return False
    _retire(state)
    state.done = not np.count_nonzero(run)
    return not state.done


def _freeze(state, rows, code):
    """Freeze the running shifts ``rows`` (a mask or indices) with ``code``.

    ``rows`` may be ``state.run`` itself, so ``run`` is cleared last.  The
    shifts took part in ``state.j + 1`` joint iterations.
    """
    state.codes[rows] = code
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


def _exact_norms(state):
    """||x_i|| of every row of the state's iterate block, without forming it.

    Before a flush, ||x_i||^2 = y_i' G y_i with y_i = Y[i, 1:kw+1] and the
    window's Gram matrix (``_window_norms``): O(kw^2 n) work.  After one,
    the rows are formed with ``_rows``, ``_CHUNK`` columns at a time, and
    each row's squares are summed over the chunks: W is read once and the
    temporaries are two (m+1) x ``_CHUNK`` arrays, so the three-block bound
    of the solve holds.  Retirement reads the first path mid-solve, and
    ``step_norms`` either path once the solve is done.
    """
    W, Y, X = state._window(), state.Y[:, :state.kw + 1], state._X
    if X is None:
        return _window_norms(W, Y[:, 1:])
    sq = 0.0
    for c in _chunks(X.shape[1]):
        x = _rows(W[:, c], Y, X[:, c], state._P[:, c], slice(None))
        sq += np.einsum("ij,ij->i", x, x)
        del x                           # freed before the next chunk forms
    return np.sqrt(sq)


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
    """Retire the running shifts that selection cannot pick, given alpha,
    until the window is first flushed; see ``_shift_block_step``.

    The rule needs a usable shift and a running one.  When the lowest
    running shift r passes its test on norms estimated from the window
    coefficients, the rule is applied with exact norms.
    """
    if state.alpha_lam is None or state._X is not None:
        return
    usable = state.usable_mask.nonzero()[0]
    r = int(state.run.argmax())
    if not (usable.size and state.run[r]):
        return
    # whole rows of Y: the columns past the window are zero
    estimate = np.sqrt(np.dot(state.Y * state.Y, state.wsq))
    b, score = _closest(usable, estimate, state.alpha_lam)
    if r < b and estimate[r] - state.alpha_lam[r] > score:
        _freeze(state, _retirees(_exact_norms(state), state.alpha_lam,
                                 usable, state.run), _RETIRED)


def multishift_cg(apply_M, b, grid: ShiftGrid, tol=1e-8, max_iter=None,
                  alpha=None, deadline=None, spent=None) -> MultishiftState:
    """Solve (M + lambda_i I) x = b for every shift of the grid; returns
    the finished solve.

    Parameters
    ----------
    apply_M : callable
        Symmetric operator, ``apply_M(v) -> M @ v``.  Symmetry is the
        caller's contract and is not checked here.
    b : array
        Right-hand side, with a finite squared norm.  A zero b yields
        all-zero converged solutions and forms no product.
    grid : ShiftGrid
    tol : float
        Absolute residual tolerance of every shift, finite and nonnegative.
    max_iter : int, optional
        Joint iteration cap, at least 1, default ``2 * len(b)``.
    alpha : float, optional
        The cubic-regularization weight the caller selects with.  Shifts
        that ``arc.select_step`` at this alpha can no longer pick are then
        retired, and the solve ends once no selectable shift runs (see
        ``_shift_block_step``).  ``None`` retires nothing.
    deadline : float, optional
        Passed to ``solve``: a ``time.perf_counter()`` value after which the
        solve raises ``TimeExceeded``.
    spent : MultishiftSolution, optional
        The caller's finished previous solve, whose blocks this solve
        takes over when n and m+1 match; it is emptied, and reading it
        afterwards raises ``RuntimeError``.
    """
    return MultishiftState(apply_M, b, grid, tol, max_iter, alpha=alpha,
                           spent=spent).solve(deadline)
