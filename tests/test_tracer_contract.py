"""The benchmark's tracer wraps kernel methods that must stay in place.

``perfbench/tracing.py`` replaces ``MultishiftState.step`` and
``CglsState.step`` through each class's own ``__dict__`` and puts the
originals back afterwards.  A refactor that moves ``step`` into a base
class breaks the traced benchmark run; this test catches it first.
"""

import importlib.util
from pathlib import Path

from arcqk.shifted_cg import MultishiftState
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
