"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest

import run
from spans import Tracer, installed
from workloads import WORKLOADS

assert run.engine_on_path()


def _wrapped_names():
    """Every engine name or patched method that is currently a wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name == run.PACKAGE or name.startswith(run.PACKAGE + "."):
            found += [f"{name}.{attr}" for attr, value in vars(mod).items()
                      if hasattr(value, "__wrapped__")]
    wt = sys.modules[run.PACKAGE]
    for cls in (Fraction, wt.GaussianRational, wt.SymbolExpr, wt.CliffordElement):
        found += [f"{cls.__name__}.{attr}" for attr in ("__mul__", "__rmul__")
                  if hasattr(cls.__dict__.get(attr), "__wrapped__")]
    return found


def _counts(metrics):
    return {name: value for name, value in metrics.items()
            if name.endswith((".calls", ".terms"))}


@pytest.mark.parametrize("workload", ["identity-m3", "audit-m2"])
def test_traced_runs_repeat_counts(workload):
    first = run.measure_traced(WORKLOADS[workload], seed=3, jets_count=2)
    second = run.measure_traced(WORKLOADS[workload], seed=3, jets_count=2)
    assert first[1] == second[1] == 0
    assert _counts(first[2]) == _counts(second[2])
    assert _counts(first[2])["geometry.derived_scalars.calls"] > 0


def test_originals_restored_after_traced_run():
    run.measure_traced(WORKLOADS["identity-m3"], seed=0, jets_count=1)
    wt = sys.modules[run.PACKAGE]
    assert _wrapped_names() == []
    assert wt.symbols.derived_scalars is wt.geometry.derived_scalars
    assert wt.geometry.derived_scalars.__module__ == "wres_torsion.geometry"
    assert wt.GaussianRational.__dict__["__mul__"] is wt.GaussianRational.__dict__["__rmul__"]


def test_originals_restored_after_error():
    wt = run.import_engine()
    with pytest.raises(RuntimeError):
        with installed(Tracer(), run.PACKAGE):
            assert "wres_torsion.symbols.derived_scalars" in _wrapped_names()
            assert "Fraction.__mul__" in _wrapped_names()
            raise RuntimeError("inside a traced region")
    assert _wrapped_names() == []
    assert wt.symbols.derived_scalars is wt.geometry.derived_scalars


def test_identity_jets_are_admissible_single_channel():
    wt = run.import_engine()
    jets, info = WORKLOADS["identity-m3"].make_jets(wt, 5, 40)
    assert sum(info["channel_mix"].values()) == 40
    for jet in jets:
        assert wt.validate_symmetries(jet).ok
        channels = [any(x for x in _flat(t)) for t in (jet.R, jet.T, jet.dT1)]
        assert sum(channels) == 1
        assert sum(map(abs, jet.v)) == sum(map(abs, jet.w)) == 1


def _flat(t):
    return [y for x in t for y in _flat(x)] if isinstance(t, tuple) else [t]


def test_silently_fixed_finding_counts_as_failure(monkeypatch):
    """An audit whose composed grade-1 symbol equals the printed one fails."""
    wt = run.import_engine()
    workload = WORKLOADS["audit-m2"]
    jets, _ = workload.make_jets(wt, 0, 1)
    assert run.run_jets(wt, workload, jets).failed == 0
    monkeypatch.setattr(wt.residue, "build_sigma_ab_composed", wt.build_sigma_ab_printed)
    assert run.run_jets(wt, workload, jets).failed == 1


def test_wrong_density_counts_as_failure(monkeypatch):
    wt = run.import_engine()
    workload = WORKLOADS["identity-m3"]
    jets, _ = workload.make_jets(wt, 0, 2)
    real = wt.theorem_density
    monkeypatch.setattr(wt, "theorem_density",
                        lambda jet, m: wt.residue.Density(real(jet, m).value + 1))
    assert run.run_jets(wt, workload, jets).failed == 2


def test_benchmark_json_matches_what_a_run_prints():
    import json
    from pathlib import Path

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    _, failed, metrics, _ = run.measure_traced(WORKLOADS["identity-m3"], seed=1, jets_count=1)
    assert failed == 0
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run._layer_unit(name) for name in metrics}
