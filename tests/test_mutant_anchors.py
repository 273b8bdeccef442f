"""The mutation gate's entries stay anchored.

Every entry of ``tools/mutants.py`` names a file of the checkout and an
``old`` text that must occur in it exactly once; the gate itself takes
minutes, so a change that moves an anchor is caught here first.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_anchor_occurs_once():
    mutants = load_mutants()
    assert mutants.ANCHOR_TEST == str(Path(__file__).relative_to(ROOT))
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    stale = []
    for m in mutants.MUTANTS:
        path = ROOT / m.file
        count = path.read_text().count(m.old) if path.is_file() else None
        if count != 1 or m.new == m.old:
            stale.append((m.name, m.file, count))
    assert not stale
