"""Shared fixtures of the test suites under tests/ and bench/."""

from __future__ import annotations

import sys

import pytest

# the engine modules as the test modules imported them, by name; taken
# before the first test, after collection
_ENGINE: dict | None = None


def _engine_names():
    return [name for name in sys.modules
            if name == "wres_torsion" or name.startswith("wres_torsion.")]


@pytest.fixture(autouse=True)
def _engine_as_imported():
    """Before each test, put back the engine modules the test modules
    imported and empty ``residue``'s held pipeline context.

    The benchmark's harness imports the engine afresh (``bench/run.py``,
    ``import_engine``); a later test that patches or imports an engine
    module by name would then reach the fresh copy while the functions it
    calls belong to the first.  Emptying the held context means that no
    test reads a context another test built."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = {name: sys.modules[name] for name in _engine_names()}
    if _ENGINE:
        for name in _engine_names():
            del sys.modules[name]
        sys.modules.update(_ENGINE)
    residue = sys.modules.get("wres_torsion.residue")
    if residue is not None:
        residue._held = None
    yield
