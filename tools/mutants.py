"""Mutation gate: run tier-1 against each listed source mutant.

    python3 tools/mutants.py

Each entry of ``MUTANTS`` names a file of the checkout holding this script,
a text ``old`` that occurs exactly once in it, the ``new`` text that
replaces it and why the mutant matters.  For every mutant the checkout's
``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml`` are copied to a
new temporary directory and the file is mutated there, so the working tree
is never written.  Tier-1 then runs in the copy with ``-x``
(``python -m pytest -q -x -p no:cacheprovider``, the copy's ``src/`` on the
import path), leaving out ``ANCHOR_TEST``: that test checks every entry's
``old`` text in the unmutated checkout and runs in tier-1 itself.  A
mutant is killed when a test fails or the run exceeds ``_TIMEOUT``
seconds, and survives when every test passes.  The unmutated copy runs
first and must pass.

The report gives each mutant as killed (with the first failing test),
survived, or equivalent: a survivor whose entry gives ``equivalent``, the
reason no test can tell it from the source.  The exit status is 1 when a
mutant that is not marked equivalent survives, or when an ``old`` text does
not occur exactly once, and 0 otherwise.  One tier-1 run takes about 8 s on
a 2-core machine; a killed mutant stops at its first failure.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# The tier-1 test that every entry's old text occurs once in the checkout:
# a mutated copy lacks its mutant's old text on purpose, and has no tools/.
ANCHOR_TEST = "tests/test_mutant_anchors.py"
_TIMEOUT = 600.0  # a mutant that makes a solve loop forever counts as killed

CG = "src/arcqk/shifted_cg.py"
CGLS = "src/arcqk/shifted_cgls.py"
ARC = "src/arcqk/arc.py"
ST = "src/arcqk/steihaug.py"
BENCH = "src/arcqk/bench.py"
RECORDS = "src/arcqk/records.py"
CLI = "src/arcqk/cli.py"
PROBLEMS = "src/arcqk/problems.py"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    why: str
    equivalent: str = ""


MUTANTS = (
    # -- the selection rule
    Mutant("usable-not-indefinite", CG,
           "return self.codes == _CONVERGED",
           "return self.codes != _INDEFINITE",
           "usable means converged: capped and retired shifts are not "
           "candidates"),
    Mutant("usable-capped", CG,
           "return self.codes == _CONVERGED",
           "return (self.codes == _CONVERGED) | (self.codes == _CAPPED)",
           "a capped shift is never usable, whatever its residual"),
    Mutant("ties-to-larger", CG,
           "    k = int(scores.argmin())\n",
           "    k = len(scores) - 1 - int(scores[::-1].argmin())\n",
           "score ties go to the smaller shift, in selection and retirement"),
    Mutant("swapped-names", CG,
           "_NAMES = (RUNNING, CONVERGED, INDEFINITE, CAPPED, RETIRED)",
           "_NAMES = (RUNNING, CONVERGED, INDEFINITE, RETIRED, CAPPED)",
           "the names callers see must match the kernel's codes"),
    Mutant("walk-stops-at-j", ARC,
           "above = solutions.usable_mask[j + 1:].nonzero()[0] + (j + 1)",
           "above = solutions.usable_mask[j:].nonzero()[0] + j",
           "the failure walk moves to a larger shift, never stays at j"),
    Mutant("walk-non-strict", ARC,
           "stops = (~(alphas > gamma1 * alpha)).nonzero()[0]",
           "stops = (~(alphas >= gamma1 * alpha)).nonzero()[0]",
           "the walk stops once alpha <= gamma1 * alpha_old, ties included"),
    # -- the kernel's freezing tests
    Mutant("late-indefinite", CG,
           "pivot = (denom <= 0.0) & run",
           "pivot = (denom < -1.0) & run",
           "a nonpositive pivot certifies negative curvature and freezes "
           "the shift at once"),
    Mutant("conv-tie", CG,
           "conv = (np.abs(S[2]) <= state.tol) & run",
           "conv = (np.abs(S[2]) < state.tol) & run",
           "a residual equal to its tolerance has converged"),
    Mutant("cg-breakdown-zero", CG,
           "None if beta_next <= _EPS * (1.0 + math.sqrt(self.qq))",
           "None if beta_next <= 0.0",
           "a Krylov space exhausted up to rounding ends the CG solve"),
    Mutant("cgls-breakdown-zero", CGLS,
           "None if beta_next <= _EPS * (1.0 + delta)",
           "None if beta_next <= 0.0",
           "a Krylov space exhausted up to rounding ends the CGLS solve"),
    # -- the checked product and the in-place Lanczos passes
    Mutant("product-no-fallback", CG,
           "if not np.isfinite(s) and not np.isfinite(out).all():",
           "if not np.isfinite(s):",
           "an overflowed dot of finite entries falls back to the exact "
           "test and does not raise"),
    Mutant("product-no-raise", CG,
           "    if not np.isfinite(s) and not np.isfinite(out).all():\n"
           "        raise ValueError",
           "    if False:\n"
           "        raise ValueError",
           "a product with an inf or NaN entry raises"),
    Mutant("cg-scales-v", CG,
           "w -= np.multiply(self.v_prev, self.beta, out=self.v_prev)",
           "w -= np.multiply(v, self.beta, out=v)",
           "the pass subtracts beta v_prev, scaling the dead v_prev in "
           "place"),
    Mutant("cgls-scales-u", CGLS,
           "u_next -= np.multiply(self.u_prev, self.beta, out=self.u_prev)",
           "u_next -= np.multiply(self.u, self.beta, out=self.u)",
           "the CGLS pass subtracts beta u_prev, scaling the dead u_prev "
           "in place"),
    Mutant("cgls-writes-atu", CGLS,
           "else atu / beta_next)",
           "else np.divide(atu, beta_next, out=atu))",
           "A'u belongs to the operator: v_next is a new array"),
    Mutant("gram-no-mirror", CG,
           "G[i, :i + 1] = G[:i + 1, i] = W[:i + 1] @ W[i]",
           "G[i, :i + 1] = W[:i + 1] @ W[i]",
           "a Gram matrix from row products mirrors its lower triangle"),
    # -- the flush fold and a flushed solve's step norms
    Mutant("fold-drops-p-term", CG,
           "        X[:, c] += np.multiply(Y[:, :1], P[:, c], out=t)\n",
           "",
           "a flushed x row adds its own direction row, weighted by Y[:, 0]"),
    Mutant("fold-keeps-p-scale", CG,
           "        P[rows, c] *= C[rows, :1]\n",
           "",
           "a flush scales the kept direction rows by C[:, 0] before adding"),
    Mutant("live-rows-short", CG,
           "rows = slice(live[0], live[-1] + 1)",
           "rows = slice(live[0], live[-1])",
           "the last running shift keeps its direction row"),
    Mutant("chunks-stop-early", CG,
           "return (slice(c, min(c + _CHUNK, n)) "
           "for c in range(0, n, _CHUNK))",
           "return (slice(c, min(c + _CHUNK, n - 1)) "
           "for c in range(0, n, _CHUNK))",
           "the column chunks cover every column"),
    Mutant("step-norms-last-chunk", CG,
           'sq += np.einsum("ij,ij->i", x, x)',
           'sq = np.einsum("ij,ij->i", x, x)',
           "a flushed step norm sums its squares over every chunk"),
    Mutant("step-norms-early", CG,
           "        if not self.done:\n            raise RuntimeError",
           "        if False:\n            raise RuntimeError",
           "step norms read before the solve ends would be kept stale"),
    # -- what a finished solve keeps
    Mutant("cg-keeps-lanczos", CG,
           "self.v = self.v_prev = self.q = self._apply_op = None",
           "self._apply_op = None",
           "a finished CG solve drops its Lanczos vectors"),
    Mutant("cgls-keeps-lanczos", CGLS,
           "            self.u = self.u_prev = self.q = None\n",
           "",
           "a finished CGLS solve drops its Lanczos vectors"),
    # -- the blocks a run's solves hand on
    Mutant("reused-x-not-zeroed", CG,
           "            state._X.fill(0.0)\n",
           "",
           "an inheriting solve's first flush starts from a zero _X"),
    Mutant("reused-p-rows-not-zeroed", CG,
           "            state._P[formed] = 0.0\n",
           "",
           "an inheriting solve's first flush zeroes the _P rows the "
           "blocks' last owner formed"),
    Mutant("spent-not-emptied", CG,
           "            spent.W = spent._X = spent._P = spent._blocks = None\n",
           "",
           "a spent solve whose blocks were taken cannot be read"),
    # -- retirement
    Mutant("retire-no-prefix", CG,
           "return below if ok.all() else below[:int(ok.argmin())]",
           "return below[ok]",
           "only a prefix of the running shifts below b retires"),
    Mutant("retire-non-strict", CG,
           "ok = norms[below] - alpha_lam[below] > score",
           "ok = norms[below] - alpha_lam[below] >= score",
           "a shift whose bound ties b's score may still be picked"),
    Mutant("estimate-all-shifts", CG,
           "b, score = _closest(usable, estimate, state.alpha_lam)",
           "b, score = _closest(np.arange(estimate.size), estimate, "
           "state.alpha_lam)",
           "the estimate scores the usable shifts only, as the exact rule "
           "does"),
    Mutant("estimate-unweighted", CG,
           "estimate = np.sqrt(np.dot(state.Y * state.Y, state.wsq))",
           "estimate = np.sqrt((state.Y * state.Y).sum(axis=1))",
           "the estimate weighs the right-hand side's column by its squared "
           "norm"),
    # -- the model decrease and the acceptance ratio
    Mutant("galerkin-sign", ARC,
           "return -0.5 * (gd + dr)",
           "return -0.5 * (gd - dr)",
           "the model decrease is -(g'd + d'(g + Hd)) / 2, so ARC's is "
           "(lam ||d||^2 - g'd) / 2"),
    Mutant("inner-tolerance-uncapped", ARC,
           "return min(max(floor, xi * grad_norm ** (1.0 + zeta)), "
           "0.9 * grad_norm)",
           "return max(floor, xi * grad_norm ** (1.0 + zeta))",
           "far from stationarity the inner tolerance is capped at "
           "0.9 ||g||"),
    Mutant("alpha-uncapped", ARC,
           "state.alpha = min(params.gamma2 * state.alpha, MAX_ALPHA)",
           "state.alpha = params.gamma2 * state.alpha",
           "an expanded alpha stops at MAX_ALPHA, so it cannot overflow"),
    Mutant("degenerate-zero", ARC,
           "if delta_q <= 64.0 * _EPS * (1.0 + abs(f_x)):",
           "if delta_q <= 0.0:",
           "a model decrease at rounding level is degenerate"),
    # -- ST's truncated CG
    Mutant("boundary-dr-tau-once", ST,
           "tau * (float(g @ p) + tau * kappa)",
           "tau * (float(g @ p) + kappa)",
           "a boundary step's d'(g + Hd) weighs p'Hp by tau^2"),
    Mutant("interior-dr-gd", ST,
           "TruncatedCgResult(d, EXIT_INTERIOR, j + 1, 0.0)",
           "TruncatedCgResult(d, EXIT_INTERIOR, j + 1, float(g @ d))",
           "an interior CG iterate's residual is orthogonal to it: "
           "d'(g + Hd) = 0"),
    Mutant("st-unchecked-product", ST,
           "hp, kappa = _product(apply_H, p, p)",
           "hp = np.asarray(apply_H(p), dtype=float)\n"
           "        kappa = p @ hp",
           "ST forms its products through the one checked product"),
    Mutant("radius-uncapped", ST,
           "state.delta = min(params.gamma2 * state.delta, MAX_RADIUS)",
           "state.delta = params.gamma2 * state.delta",
           "an expanded radius stops at MAX_RADIUS, so it cannot overflow"),
    Mutant("st-max-iter-unchecked", ST,
           "    if max_iter < 1:\n        raise ValueError",
           "    if False:\n        raise ValueError",
           "truncated CG rejects max_iter < 1 as the kernels do"),
    # -- the time budget
    Mutant("deadline-kernel", CG,
           "if deadline is not None and time.perf_counter() > deadline:\n"
           "                raise TimeExceeded",
           "if False:\n"
           "                raise TimeExceeded",
           "a multishift solve ends at the deadline"),
    Mutant("deadline-truncated-cg", ST,
           "if deadline is not None and time.perf_counter() > deadline:",
           "if False:",
           "ST's truncated CG ends at the deadline"),
    Mutant("deadline-outer-loop", ARC,
           "if deadline is not None and time.perf_counter() > deadline:\n"
           "            state.status = STATUS_TIME",
           "if False:\n"
           "            state.status = STATUS_TIME",
           "no trial starts past the deadline"),
    # -- the Gauss-Newton residual hand-off
    Mutant("gn-stale-residual", ARC,
           "        self._residual = self._trial_residual\n",
           "",
           "an accepted Gauss-Newton step takes the trial point's residual"),
    # -- the benchmark harness
    Mutant("codec-no-conversion", RECORDS,
           "{f.name: f.type(row[f.name]) for f in given}",
           "{f.name: row[f.name] for f in given}",
           "a record read back holds the types BenchRecord declares"),
    Mutant("failed-ratio-finite", BENCH,
           "            if s not in vals:\n"
           "                ratios[s].append(np.inf)",
           "            if s not in vals:\n"
           "                ratios[s].append(1.0)",
           "a failed run's performance ratio is infinite"),
    Mutant("ratio-inverted", BENCH,
           "vals[s] / best if best > 0",
           "best / vals[s] if best > 0",
           "a performance ratio is the solver's metric over the best one"),
    Mutant("empty-profile-unchecked", BENCH,
           "    if not n_problems:\n        raise ValueError",
           "    if False:\n        raise ValueError",
           "a profile with no problem left raises instead of writing NaN"),
    Mutant("cli-param-system-exit", CLI,
           'raise ValueError(f"bad --param {pair!r}: expected key=value")',
           'raise SystemExit(f"bad --param {pair!r}: expected key=value")',
           "a malformed --param prints error: and exits 2"),
    # -- the problem layer
    Mutant("reset-skips-first", PROBLEMS,
           "for name in self.__slots__:\n            setattr(self, name, 0)",
           "for name in self.__slots__[1:]:\n            setattr(self, name, 0)",
           "resetting zeroes every counter the slots declare"),
    Mutant("bundle-no-shape-check", PROBLEMS,
           "        if self.x0.shape != (self.n,):\n"
           '            raise ValueError(f"x0 must have shape',
           "        if False:\n"
           '            raise ValueError(f"x0 must have shape',
           "every bundle rejects a start point of the wrong shape"),
    Mutant("select-exact-only", PROBLEMS,
           'selected = fnmatch.filter(SUITE_NAMES, "*" if name is None '
           'else name)',
           "selected = [k for k in SUITE_NAMES if name in (None, k)]",
           "exact names and glob patterns select through one rule"),
    # -- the outer loop's trial outcome
    Mutant("nan-trial-unbounded", ARC,
           "unbounded = ev.f_trial == -np.inf",
           "unbounded = ev.f_trial is not None and (\n"
           "            np.isnan(ev.f_trial) or ev.f_trial == -np.inf)",
           "a NaN trial value is a rejected trial; only -inf is unbounded"),
)


def copy_checkout(dest):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)


def run_tier1(copy):
    """``(passed, first failing test or None)`` of tier-1 in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", "--continue-on-collection-errors",
           f"--ignore={ANCHOR_TEST}"]
    try:
        out = subprocess.run(cmd, cwd=copy, env=env, capture_output=True,
                             text=True, timeout=_TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {_TIMEOUT:g} s"
    if out.returncode == 0:
        return True, None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.M)
    return False, failed.group(1) if failed else f"exit {out.returncode}"


def check(mutant):
    """Apply ``mutant`` to a fresh copy and run tier-1; returns a verdict."""
    with tempfile.TemporaryDirectory(prefix="arcqk-mutant-") as tmp:
        copy = Path(tmp)
        copy_checkout(copy)
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale", f"old text occurs {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new))
        passed, failure = run_tier1(copy)
    if not passed:
        return "killed", failure
    if mutant.equivalent:
        return "equivalent", mutant.equivalent
    return "survived", None


def main():
    with tempfile.TemporaryDirectory(prefix="arcqk-mutant-") as tmp:
        copy_checkout(Path(tmp))
        passed, failure = run_tier1(Path(tmp))
    if not passed:
        print(f"unmutated tier-1 fails ({failure}); no mutant was run")
        return 2
    bad = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        verdict, detail = check(m)
        bad += verdict in ("survived", "stale")
        print(f"{verdict:10s} {m.name:24s} {time.perf_counter() - t0:6.1f} s"
              f"  {detail or m.why}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} survived or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
