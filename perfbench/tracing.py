"""Spans recorded from outside the solver around calls into each layer.

The tracer replaces a fixed set of module globals and class methods of
``arcqk`` with timing wrappers while a traced pass runs, and puts the
originals back afterwards.  A span records its name, start, end, parent
span and run id; spans are kept in flat in-memory arrays and written out
when the benchmark ends.  A span's self time is its duration minus the
time covered by its direct children (calls nest, so children never
overlap).
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import arcqk.arc as arc_mod
import arcqk.shifted_cg as cg_mod
import arcqk.shifted_cgls as cgls_mod
import arcqk.steihaug as st_mod

PROBLEM_METHODS = ("eval_f", "eval_grad", "eval_hvp",
                   "eval_residual", "eval_jprod", "eval_jtprod")

# Bytes moved per running shift per joint iteration, from array sizes: the
# shift's column of x and of p is read and written once (4 passes over n
# float64 values).  Gathers and temporaries are not counted, so this is a
# lower bound, not a measurement.
_BLOCK_BYTES_PER_ENTRY = 4 * 8


class Tracer:
    """Records nested spans and the kernel facts that need a return value."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("q")
        self._run = array("q")
        self._stack = []
        self.run_id = 0
        self._saved = []
        # (n, per-shift iterations, joint iterations) of each CG solve, and
        # (selected shift, per-shift iterations, joint iterations) of each
        # selection made from a CG solve; small arrays only.
        self.cg_solves = []
        self.cg_selections = []
        self.tcg_iterations = 0
        self._last_solve = None

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, on_return=None):
        """Return ``fn`` wrapped so that each call records one span."""
        name_id = self._intern(name)
        start, end, names = self._start, self._end, self._name
        parents, runs, stack = self._parent, self._run, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks: keep only small arrays, never the (n, m+1) blocks ----------

    def _on_cg(self, args, sol):
        self._last_solve = "cg"
        self.cg_solves.append((sol.directions.shape[0], sol.iterations,
                               sol.total_iterations))

    def _on_cgls(self, args, sol):
        self._last_solve = "cgls"

    def _on_select(self, args, result):
        if self._last_solve == "cg":
            sol = args[0]
            self.cg_selections.append((result[1], sol.iterations,
                                       sol.total_iterations))

    def _on_tcg(self, args, result):
        self.tcg_iterations += result.iterations

    def _targets(self):
        return (
            (arc_mod, "multishift_cg", "shifted_cg.solve", self._on_cg),
            (arc_mod, "multishift_cgls", "shifted_cgls.solve", self._on_cgls),
            (arc_mod, "acceptance_ratio", "arc.ratio", None),
            (arc_mod, "select_step", "arc.select", self._on_select),
            (arc_mod, "advance_shift_on_failure", "arc.advance", None),
            (st_mod, "truncated_cg", "steihaug.tcg", self._on_tcg),
            (cg_mod.MultishiftState, "step", "shifted_cg.step", None),
            (cgls_mod.CglsState, "step", "shifted_cgls.step", None),
        )

    def install(self):
        """Wrap the solver entry points the outer loops look up at call time."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in self._targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, hook))

    def restore(self):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []

    def wrap_problem(self, problem):
        for attr in PROBLEM_METHODS:
            if hasattr(problem, attr):
                setattr(problem, attr,
                        self.wrap(getattr(problem, attr), f"problems.{attr}"))

    @staticmethod
    def unwrap_problem(problem):
        for attr in PROBLEM_METHODS:
            vars(problem).pop(attr, None)

    def originals_in_place(self, problems=()):
        """True when no wrapper is left on a target or a problem instance."""
        for owner, attr, _, _ in self._targets():
            if hasattr(owner.__dict__[attr], "__wrapped__"):
                return False
        return not any(attr in vars(p) for p in problems
                       for attr in PROBLEM_METHODS)

    # -- analysis ------------------------------------------------------------

    def spans(self):
        """Flat span arrays: name id, start, end, parent index, run id."""
        # Copies, so that no buffer export pins the growing arrays.
        return (np.array(self._name, dtype=np.int32),
                np.array(self._start, dtype=np.float64),
                np.array(self._end, dtype=np.float64),
                np.array(self._parent, dtype=np.int64),
                np.array(self._run, dtype=np.int64))

    def summary(self):
        """Per-name span counts, durations and self times, plus checks."""
        name, start, end, parent, _ = self.spans()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = dur - covered
        nested = bool(np.all(start[has_parent] >= start[parent[has_parent]])
                      and np.all(end[has_parent] <= end[parent[has_parent]]))
        k = len(self.names)
        out = {
            "count": np.bincount(name, minlength=k),
            "self_s": np.bincount(name, weights=self_time, minlength=k),
            "dur_s": np.bincount(name, weights=dur, minlength=k),
            "root_s": float(dur[~has_parent].sum()),
            "nested": nested,
        }
        # Calls the solvers made into the problems layer: problem spans whose
        # parent is not itself a problem span (as_smooth views nest).
        is_problem = np.array([n.startswith("problems.") for n in self.names]
                              + [False], dtype=bool)
        parent_name = np.where(has_parent, name[parent], k)
        out["oracle_calls"] = int(np.count_nonzero(
            is_problem[name] & ~is_problem[parent_name]))
        # Products spent on the acceptance ratio: HVPs called by
        # acceptance_ratio, and J products called straight from the ARC loop
        # (the Gauss-Newton ratio); kernel products sit under kernel spans.
        ratio_parents = [self._name_ids[n] for n in ("arc.ratio", "arc.solve")
                         if n in self._name_ids]
        products = [self._name_ids[n] for n in
                    ("problems.eval_hvp", "problems.eval_jprod")
                    if n in self._name_ids]
        out["ratio_products"] = int(np.count_nonzero(
            np.isin(name, products) & np.isin(parent_name, ratio_parents)))
        return out

    def kernel_facts(self):
        """Bytes per CG joint iteration and the frozen-tail share."""
        col_updates = sum(int(it.sum()) * n for n, it, _ in self.cg_solves)
        iters = sum(total for _, _, total in self.cg_solves)
        tail = sum(total - int(it[j:].max()) for j, it, total in self.cg_selections)
        selected_iters = sum(total for _, _, total in self.cg_selections)
        return {
            "bytes_per_iter": (_BLOCK_BYTES_PER_ENTRY * col_updates / iters
                               if iters else 0.0),
            "tail_iter_frac": tail / selected_iters if selected_iters else 0.0,
        }

    def write(self, path):
        name, start, end, parent, run = self.spans()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            start=start, end=end, parent=parent, run=run)
