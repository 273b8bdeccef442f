"""Smooth and least-squares test problems with instrumented evaluators."""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass

import numpy as np

# Step for central differences: cube root of machine epsilon balances
# truncation against round-off.
_FD_BASE = float(np.cbrt(np.finfo(float).eps))

CHECK_FAIL_THRESHOLD = 1e-4


class Counters:
    """Evaluation counts, incremented exactly once per underlying call."""

    __slots__ = ("neval_f", "neval_grad", "neval_hvp",
                 "neval_residual", "neval_jprod", "neval_jtprod")

    def __init__(self):
        self.reset()

    def reset(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        parts = ", ".join(f"{k}={v}" for k, v in self.snapshot().items() if v)
        return f"Counters({parts})"


class _Bundle:
    """Name, dimension, start point, known minimizer and counters of a bundle.

    Each subclass defines its own counted ``eval_*`` methods.
    """

    def __init__(self, name, n, x0, x_star):
        self.name = str(name)
        self.n = int(n)
        self.x0 = np.array(x0, dtype=float)
        if self.x0.shape != (self.n,):
            raise ValueError(f"x0 must have shape ({self.n},), got {self.x0.shape}")
        self.x_star = None if x_star is None else np.array(x_star, dtype=float)
        self.counters = Counters()

    def reset_counters(self):
        self.counters.reset()

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r}, n={self.n})"


class SmoothProblem(_Bundle):
    """Unconstrained objective bundle: f, gradient and Hessian-vector products.

    The operator behind ``eval_hvp`` may be the exact Hessian or any symmetric
    approximation; solvers only ever see matrix-vector products and cannot
    tell the difference.
    """

    def __init__(self, name, n, x0, f, grad, hvp, x_star=None):
        super().__init__(name, n, x0, x_star)
        self._f = f
        self._grad = grad
        self._hvp = hvp

    def eval_f(self, x) -> float:
        self.counters.neval_f += 1
        return float(self._f(np.asarray(x, dtype=float)))

    def eval_grad(self, x) -> np.ndarray:
        self.counters.neval_grad += 1
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)

    def eval_hvp(self, x, v) -> np.ndarray:
        self.counters.neval_hvp += 1
        return np.asarray(
            self._hvp(np.asarray(x, dtype=float), np.asarray(v, dtype=float)),
            dtype=float)


class LeastSquaresProblem(_Bundle):
    """Residual bundle F with Jacobian products, for 0.5*||F(x)||^2 problems."""

    def __init__(self, name, n, m_res, x0, residual, jprod, jtprod, x_star=None):
        super().__init__(name, n, x0, x_star)
        self.m_res = int(m_res)
        self._residual = residual
        self._jprod = jprod
        self._jtprod = jtprod

    def eval_residual(self, x) -> np.ndarray:
        self.counters.neval_residual += 1
        return np.asarray(self._residual(np.asarray(x, dtype=float)), dtype=float)

    def eval_jprod(self, x, v) -> np.ndarray:
        self.counters.neval_jprod += 1
        return np.asarray(
            self._jprod(np.asarray(x, dtype=float), np.asarray(v, dtype=float)),
            dtype=float)

    def eval_jtprod(self, x, u) -> np.ndarray:
        self.counters.neval_jtprod += 1
        return np.asarray(
            self._jtprod(np.asarray(x, dtype=float), np.asarray(u, dtype=float)),
            dtype=float)

    def as_smooth(self) -> SmoothProblem:
        """Gauss-Newton smooth view: f = 0.5*||F||^2, grad = J'F, Hv = J'(Jv).

        The returned problem counts its own f/grad/hvp calls while also
        incrementing this problem's residual/jprod/jtprod counters.
        """
        def f(x):
            r = self.eval_residual(x)
            return 0.5 * float(r @ r)

        def grad(x):
            return self.eval_jtprod(x, self.eval_residual(x))

        def hvp(x, v):
            return self.eval_jtprod(x, self.eval_jprod(x, v))

        return SmoothProblem(self.name, self.n, self.x0, f, grad, hvp,
                             x_star=self.x_star)

    def __repr__(self):
        return f"LeastSquaresProblem({self.name!r}, n={self.n}, m={self.m_res})"


# ---------------------------------------------------------------------------
# derivative checking

def fd_step(x) -> float:
    x = np.asarray(x, dtype=float)
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    return _FD_BASE * (1.0 + scale)


def fd_gradient(f, x) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    h = fd_step(x)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


@dataclass(frozen=True)
class DerivativeReport:
    """Worst relative discrepancies seen by the derivative checker."""

    name: str
    grad_error: float
    hvp_error: float

    @property
    def passed(self) -> bool:
        """Both errors at most the threshold; a NaN error fails."""
        return (self.grad_error <= CHECK_FAIL_THRESHOLD
                and self.hvp_error <= CHECK_FAIL_THRESHOLD)


def _require_finite(value, what, where):
    """``value``, raising when one of its entries is not finite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{what} returned a non-finite value at {where}")
    return value


def check_derivatives(problem, x=None, seed=8675309) -> DerivativeReport:
    """Compare implemented derivatives against finite differences.

    For both problem kinds the gradient (J'F for least squares) is checked
    against central differences of the objective (0.5*||F||^2).  For smooth
    problems the Hessian operator is checked against symmetry, linearity and
    finite differences of the gradient; for least-squares problems the J/J'
    pair is checked against the adjoint identity.  Every oracle value read
    must be finite (``ValueError`` otherwise), and the report passes only
    when both errors are at most ``CHECK_FAIL_THRESHOLD``.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(problem.x0 if x is None else x, dtype=float)
    where = f"x={x}"
    if isinstance(problem, LeastSquaresProblem):
        r = _require_finite(problem.eval_residual(x), "residual", where)
        g = _require_finite(problem.eval_jtprod(x, r), "jtprod", where)

        def f(z):
            rz = problem._residual(z)
            return 0.5 * float(rz @ rz)

        u = rng.standard_normal(problem.m_res)
        v = rng.standard_normal(problem.n)
        jv = _require_finite(problem.eval_jprod(x, v), "jprod", where)
        jtu = _require_finite(problem.eval_jtprod(x, u), "jtprod", where)
        op_err = abs(float(u @ jv) - float(jtu @ v)) / (1.0 + abs(float(u @ jv)))
    else:
        f = problem._f
        _require_finite(problem.eval_f(x), "objective", where)
        g = _require_finite(problem.eval_grad(x), "gradient", where)

        u = rng.standard_normal(problem.n)
        v = rng.standard_normal(problem.n)
        hu = _require_finite(problem.eval_hvp(x, u), "hvp", where)
        hv = _require_finite(problem.eval_hvp(x, v), "hvp", where)
        sym = abs(float(u @ hv) - float(v @ hu)) / (1.0 + abs(float(u @ hv)))
        a, b = 0.7, -1.3
        hw = _require_finite(problem.eval_hvp(x, a * u + b * v), "hvp", where)
        lin = (np.linalg.norm(hw - a * hu - b * hv)
               / (1.0 + np.linalg.norm(hu) + np.linalg.norm(hv)))
        h = fd_step(x) / max(1.0, np.linalg.norm(v))
        hv_fd = (problem._grad(x + h * v) - problem._grad(x - h * v)) / (2.0 * h)
        fd = np.linalg.norm(hv - hv_fd) / max(1.0, np.linalg.norm(hv_fd))
        op_err = np.max((sym, lin, fd))         # a NaN anywhere is kept

    g_fd = fd_gradient(f, x)
    grad_err = np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g_fd))
    return DerivativeReport(problem.name, float(grad_err), float(op_err))


# ---------------------------------------------------------------------------
# built-in suite

def _diagonal_quadratic(name, d):
    """0.5 * x'Dx with D = diag(d), started at ones and minimized at zero."""
    n = d.size
    return SmoothProblem(
        name, n, np.ones(n),
        f=lambda x: 0.5 * float(x @ (d * x)),
        grad=lambda x: d * x,
        hvp=lambda x, v: d * v,
        x_star=np.zeros(n))


def make_sphere(n=5):
    # d = 1 scales by exactly one, so f, grad and Hv are 0.5 x'x, x and v.
    return _diagonal_quadratic("sphere", np.ones(n))


def make_diagquad(n=100):
    return _diagonal_quadratic("diagquad", np.arange(1.0, n + 1.0))


def make_rosenbrock():
    def f(x):
        return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

    def grad(x):
        return np.array([
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2)])

    def hvp(x, v):
        h11 = 1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0
        h12 = -400.0 * x[0]
        return np.array([h11 * v[0] + h12 * v[1], h12 * v[0] + 200.0 * v[1]])

    return SmoothProblem("rosenbrock", 2, [-1.2, 1.0], f, grad, hvp,
                         x_star=[1.0, 1.0])


def make_extrosenbrock(n=100):
    if n % 2:
        raise ValueError("extrosenbrock needs an even dimension")
    x0 = np.empty(n)
    x0[0::2] = -1.2
    x0[1::2] = 1.0

    def f(x):
        a, b = x[0::2], x[1::2]
        return float(np.sum(100.0 * (b - a ** 2) ** 2 + (1.0 - a) ** 2))

    def grad(x):
        a, b = x[0::2], x[1::2]
        g = np.empty_like(x)
        g[0::2] = -400.0 * a * (b - a ** 2) - 2.0 * (1.0 - a)
        g[1::2] = 200.0 * (b - a ** 2)
        return g

    def hvp(x, v):
        a, b = x[0::2], x[1::2]
        va, vb = v[0::2], v[1::2]
        out = np.empty_like(v)
        h11 = 1200.0 * a ** 2 - 400.0 * b + 2.0
        h12 = -400.0 * a
        out[0::2] = h11 * va + h12 * vb
        out[1::2] = h12 * va + 200.0 * vb
        return out

    return SmoothProblem("extrosenbrock", n, x0, f, grad, hvp, x_star=np.ones(n))


def make_powellsingular():
    def f(x):
        return ((x[0] + 10.0 * x[1]) ** 2 + 5.0 * (x[2] - x[3]) ** 2
                + (x[1] - 2.0 * x[2]) ** 4 + 10.0 * (x[0] - x[3]) ** 4)

    def grad(x):
        t1 = x[0] + 10.0 * x[1]
        t2 = x[2] - x[3]
        t3 = x[1] - 2.0 * x[2]
        t4 = x[0] - x[3]
        return np.array([
            2.0 * t1 + 40.0 * t4 ** 3,
            20.0 * t1 + 4.0 * t3 ** 3,
            10.0 * t2 - 8.0 * t3 ** 3,
            -10.0 * t2 - 40.0 * t4 ** 3])

    def hvp(x, v):
        t3 = x[1] - 2.0 * x[2]
        t4 = x[0] - x[3]
        q3 = 12.0 * t3 ** 2
        q4 = 120.0 * t4 ** 2
        h = np.array([
            [2.0 + q4, 20.0, 0.0, -q4],
            [20.0, 200.0 + q3, -2.0 * q3, 0.0],
            [0.0, -2.0 * q3, 10.0 + 4.0 * q3, -10.0],
            [-q4, 0.0, -10.0, 10.0 + q4]])
        return h @ v

    return SmoothProblem("powellsingular", 4, [3.0, -1.0, 0.0, 1.0],
                         f, grad, hvp, x_star=np.zeros(4))


def make_wood():
    def f(x):
        return (100.0 * (x[0] ** 2 - x[1]) ** 2 + (1.0 - x[0]) ** 2
                + 90.0 * (x[2] ** 2 - x[3]) ** 2 + (1.0 - x[2]) ** 2
                + 10.1 * ((1.0 - x[1]) ** 2 + (1.0 - x[3]) ** 2)
                + 19.8 * (1.0 - x[1]) * (1.0 - x[3]))

    def grad(x):
        return np.array([
            400.0 * x[0] * (x[0] ** 2 - x[1]) - 2.0 * (1.0 - x[0]),
            -200.0 * (x[0] ** 2 - x[1]) - 20.2 * (1.0 - x[1]) - 19.8 * (1.0 - x[3]),
            360.0 * x[2] * (x[2] ** 2 - x[3]) - 2.0 * (1.0 - x[2]),
            -180.0 * (x[2] ** 2 - x[3]) - 20.2 * (1.0 - x[3]) - 19.8 * (1.0 - x[1])])

    def hvp(x, v):
        h = np.array([
            [1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0, -400.0 * x[0], 0.0, 0.0],
            [-400.0 * x[0], 220.2, 0.0, 19.8],
            [0.0, 0.0, 1080.0 * x[2] ** 2 - 360.0 * x[3] + 2.0, -360.0 * x[2]],
            [0.0, 19.8, -360.0 * x[2], 200.2]])
        return h @ v

    return SmoothProblem("wood", 4, [-3.0, -1.0, -3.0, -1.0], f, grad, hvp,
                         x_star=np.ones(4))


_BEALE_C = np.array([1.5, 2.25, 2.625])


def make_beale():
    powers = np.array([1.0, 2.0, 3.0])

    def parts(x):
        y_pow = x[1] ** powers
        r = _BEALE_C - x[0] * (1.0 - y_pow)
        drdx = -(1.0 - y_pow)
        drdy = x[0] * powers * x[1] ** (powers - 1.0)
        return r, drdx, drdy

    def f(x):
        r, _, _ = parts(x)
        return float(r @ r)

    def grad(x):
        r, drdx, drdy = parts(x)
        return 2.0 * np.array([r @ drdx, r @ drdy])

    def hvp(x, v):
        r, drdx, drdy = parts(x)
        d2xy = powers * x[1] ** (powers - 1.0)
        d2yy = x[0] * powers * (powers - 1.0) * x[1] ** np.maximum(powers - 2.0, 0.0)
        d2yy[0] = 0.0
        hxx = 2.0 * float(drdx @ drdx)
        hxy = 2.0 * float(drdx @ drdy + r @ d2xy)
        hyy = 2.0 * float(drdy @ drdy + r @ d2yy)
        return np.array([hxx * v[0] + hxy * v[1], hxy * v[0] + hyy * v[1]])

    return SmoothProblem("beale", 2, [1.0, 1.0], f, grad, hvp, x_star=[3.0, 0.5])


def make_himmelblau():
    def f(x):
        return (x[0] ** 2 + x[1] - 11.0) ** 2 + (x[0] + x[1] ** 2 - 7.0) ** 2

    def grad(x):
        t1 = x[0] ** 2 + x[1] - 11.0
        t2 = x[0] + x[1] ** 2 - 7.0
        return np.array([4.0 * x[0] * t1 + 2.0 * t2, 2.0 * t1 + 4.0 * x[1] * t2])

    def hvp(x, v):
        h11 = 12.0 * x[0] ** 2 + 4.0 * x[1] - 42.0
        h12 = 4.0 * (x[0] + x[1])
        h22 = 12.0 * x[1] ** 2 + 4.0 * x[0] - 26.0
        return np.array([h11 * v[0] + h12 * v[1], h12 * v[0] + h22 * v[1]])

    # Hessian at the start is indefinite; the nearest of the four minima.
    return SmoothProblem("himmelblau", 2, [0.0, 0.0], f, grad, hvp,
                         x_star=[3.0, 2.0])


def make_penalty(n=10):
    a = 1e-5
    x0 = np.arange(1.0, n + 1.0)

    def f(x):
        return float(a * np.sum((x - 1.0) ** 2) + (x @ x - 0.25) ** 2)

    def grad(x):
        return 2.0 * a * (x - 1.0) + 4.0 * (x @ x - 0.25) * x

    def hvp(x, v):
        return (2.0 * a * v + 4.0 * (x @ x - 0.25) * v + 8.0 * float(x @ v) * x)

    return SmoothProblem("penalty", n, x0, f, grad, hvp)


def make_trigonometric(n=50):
    idx = np.arange(1.0, n + 1.0)

    def residual(x):
        c = np.cos(x)
        return n - np.sum(c) + idx * (1.0 - c) - np.sin(x)

    def f(x):
        r = residual(x)
        return 0.5 * float(r @ r)

    def grad(x):
        r = residual(x)
        s, c = np.sin(x), np.cos(x)
        w = idx * s - c
        return s * np.sum(r) + w * r

    def hvp(x, v):
        r = residual(x)
        s, c = np.sin(x), np.cos(x)
        w = idx * s - c
        jv = float(s @ v) + w * v
        jtjv = s * np.sum(jv) + w * jv
        return jtjv + np.sum(r) * (c * v) + (r * (idx * c + s)) * v

    return SmoothProblem("trigonometric", n, np.full(n, 1.0 / n), f, grad, hvp,
                         x_star=np.zeros(n))


def make_chainrosen(n=100):
    # Chained (nonseparable) Rosenbrock valley; coupling strengths in the
    # literature range from ~25 to ~256 depending on the variant.
    rho = 50.0
    x0 = np.full(n, -1.0)

    def f(x):
        t = x[1:] - x[:-1] ** 2
        return float(np.sum(rho * t ** 2 + (1.0 - x[:-1]) ** 2))

    def grad(x):
        t = x[1:] - x[:-1] ** 2
        g = np.zeros_like(x)
        g[:-1] += -4.0 * rho * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        g[1:] += 2.0 * rho * t
        return g

    def hvp(x, v):
        a = x[:-1]
        out = np.zeros_like(v)
        h11 = 12.0 * rho * a ** 2 - 4.0 * rho * x[1:] + 2.0
        out[:-1] += h11 * v[:-1] - 4.0 * rho * a * v[1:]
        out[1:] += -4.0 * rho * a * v[:-1] + 2.0 * rho * v[1:]
        return out

    return SmoothProblem("chainrosen", n, x0, f, grad, hvp, x_star=np.ones(n))


def make_convexquartic(n=8):
    c = 1.0 + np.arange(n) / n

    def f(x):
        return float(np.sum(0.25 * x ** 4 + 0.5 * c * x ** 2))

    def grad(x):
        return x ** 3 + c * x

    def hvp(x, v):
        return (3.0 * x ** 2 + c) * v

    return SmoothProblem("convexquartic", n, np.full(n, 2.0), f, grad, hvp,
                         x_star=np.zeros(n))


def _linear_ls(name, a, b, x0, x_star):
    """Linear residual F(x) = Ax - b, so J = A at every x."""
    return LeastSquaresProblem(
        name, a.shape[1], a.shape[0], x0,
        residual=lambda x: a @ x - b,
        jprod=lambda x, v: a @ v,
        jtprod=lambda x, u: a.T @ u,
        x_star=x_star)


def make_linearls():
    # Fixed data so the suite stays deterministic.  Singular values are kept
    # well above one so the stopping tolerance translates into a tight
    # solution accuracy, and the start sits close to the minimizer so the
    # regularized Gauss-Newton path resolves it in a handful of steps.
    rng = np.random.default_rng(20240611)
    m, n = 20, 10
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = u @ np.diag(np.linspace(3.0, 6.0, n)) @ v.T
    x_hat = rng.standard_normal(n) / np.sqrt(n)
    resid = rng.standard_normal(m)
    resid -= u @ (u.T @ resid)          # residual orthogonal to range(A)
    b = a @ x_hat + 0.5 * resid
    x0 = x_hat + 2e-4 * rng.standard_normal(n)
    return _linear_ls("linearls", a, b, x0, x_hat)


def make_rosenbrockls():
    def residual(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def jprod(x, v):
        return np.array([-20.0 * x[0] * v[0] + 10.0 * v[1], -v[0]])

    def jtprod(x, u):
        return np.array([-20.0 * x[0] * u[0] - u[1], 10.0 * u[0]])

    return LeastSquaresProblem("rosenbrockls", 2, 2, [-1.2, 1.0],
                               residual, jprod, jtprod, x_star=[1.0, 1.0])


def make_expfitls():
    # Weighted zero-residual exponential fit.  The weight keeps the Jacobian
    # well scaled and the start sits along its weak direction, so the
    # gradient-based stopping test pins the final misfit below 1e-12.
    t = np.linspace(0.0, 3.0, 40)
    y = 2.0 * np.exp(0.5 * t)
    w = 2.5

    def residual(x):
        return w * (x[0] * np.exp(x[1] * t) - y)

    def jprod(x, v):
        e = w * np.exp(x[1] * t)
        return e * v[0] + x[0] * t * e * v[1]

    def jtprod(x, u):
        e = w * np.exp(x[1] * t)
        return np.array([float(e @ u), float((x[0] * t * e) @ u)])

    return LeastSquaresProblem("expfitls", 2, t.size, [2.049, 0.4899],
                               residual, jprod, jtprod, x_star=[2.0, 0.5])


def make_quadfitls():
    # Consistent quadratic-polynomial fit: linear in the parameters, zero
    # residual at the known coefficients.
    t = np.linspace(-1.0, 1.0, 15)
    basis = np.column_stack([np.ones_like(t), t, t ** 2])
    coeff = np.array([1.0, -2.0, 0.5])
    return _linear_ls("quadfitls", basis, basis @ coeff, np.zeros(3), coeff)


_BUILDERS = {
    "sphere": make_sphere,
    "diagquad": make_diagquad,
    "rosenbrock": make_rosenbrock,
    "extrosenbrock": make_extrosenbrock,
    "powellsingular": make_powellsingular,
    "wood": make_wood,
    "beale": make_beale,
    "himmelblau": make_himmelblau,
    "penalty": make_penalty,
    "trigonometric": make_trigonometric,
    "chainrosen": make_chainrosen,
    "convexquartic": make_convexquartic,
    "linearls": make_linearls,
    "rosenbrockls": make_rosenbrockls,
    "expfitls": make_expfitls,
    "quadfitls": make_quadfitls,
}

SUITE_NAMES = tuple(_BUILDERS)


def suite_problems(name=None, size=None, rng_seed=None):
    """Instantiate built-in test problems.

    Parameters
    ----------
    name : str, optional
        Problem name or glob pattern (``"*ls"``), matched by one rule; a
        name that matches no problem raises with the list of available
        names.
    size : int or (int, int), optional
        Keep problems with dimension equal to ``size`` or inside the
        inclusive range.
    rng_seed : int, optional
        When given, start points are perturbed by a small seeded offset.
        Without a seed the suite is fully deterministic.
    """
    selected = fnmatch.filter(SUITE_NAMES, "*" if name is None else name)
    if not selected:
        raise ValueError(f"unknown problem {name!r}: no suite problem matches; "
                         f"available: {', '.join(SUITE_NAMES)}")

    problems = [_BUILDERS[k]() for k in selected]
    if size is not None:
        lo, hi = (size, size) if np.isscalar(size) else size
        problems = [p for p in problems if lo <= p.n <= hi]

    if rng_seed is not None:
        rng = np.random.default_rng(rng_seed)
        for p in problems:
            p.x0 = p.x0 + 0.1 * rng.standard_normal(p.n) / np.sqrt(p.n)
    return problems
