"""The benchmark's tracer wraps kernel methods that must stay in place.

``perfbench/tracing.py`` replaces ``MultishiftState.step`` and
``CglsState.step`` through each class's own ``__dict__`` and puts the
originals back afterwards.  A refactor that moves ``step`` into a base
class breaks the traced benchmark run; this test catches it first.
"""

import importlib.util
from pathlib import Path

import numpy as np

import arcqk.arc as arc
from arcqk.shifted_cg import MultishiftState, ShiftGrid
from arcqk.shifted_cgls import CglsState

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_restore():
    assert "step" in vars(MultishiftState)
    assert "step" in vars(CglsState)
    originals = (MultishiftState.step, CglsState.step)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert not tracer.originals_in_place()
        assert hasattr(vars(MultishiftState)["step"], "__wrapped__")
        assert hasattr(vars(CglsState)["step"], "__wrapped__")
    finally:
        tracer.restore()
    assert tracer.originals_in_place()
    assert (MultishiftState.step, CglsState.step) == originals


def test_every_joint_iteration_is_a_step_span():
    """A solve through the wrapped entry points records one ``step`` span
    per joint iteration, so its loop goes through each class's ``step``."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 20))
    M = A.T @ A
    b = rng.standard_normal(30)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        cg = arc.multishift_cg(lambda v: M @ v, A.T @ b, ShiftGrid.default(),
                               tol=1e-8, alpha=1.0)
        cgls = arc.multishift_cgls(lambda v: A @ v, lambda u: A.T @ u, b,
                                   ShiftGrid.default(), tol=1e-8, alpha=1.0)
    finally:
        tracer.restore()
    count = dict(zip(tracer.names, tracer.summary()["count"]))
    assert cg.total_iterations > 1 and cgls.total_iterations > 1
    assert count["shifted_cg.step"] == cg.total_iterations
    assert count["shifted_cgls.step"] == cgls.total_iterations
