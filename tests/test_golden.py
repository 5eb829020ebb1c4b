"""Behavioural golden: audit JSON and densities for fixed seeds, byte for byte.

The fixture ``golden_pipeline.json`` records, for ``random_point_jet(s, m)``
with s = 0..4 and m = 2, 3, the sorted-key instance JSON (``jet_to_dict``),
the sorted-key audit JSON and the part1, part2 (printed and composed),
metric and theorem densities; ``golden_pipeline_m46.json`` records the same
but the instance at m = 4, 5, 6.  A refactor of the pipelines must leave every byte
unchanged.  Regenerate only for an intended behaviour change:

    PYTHONPATH=src python tests/test_golden.py

At every recorded m the findings are also asserted: each audit is ``ok``,
its mismatches are exactly the reconciled I-D, I-F, II-3-B and II-3-C, the
composed source shifts part 2 by (3/4) TT(v, w) (computed here
independently) and grade 1 of the product symbol differs wherever TT != 0.
The ``slow`` tests, deselected by default, assert the same and part 1 +
part 2 = theorem at m = 7 and 8 without a fixture:

    PYTHONPATH=src python -m pytest -q -m slow
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from wres_torsion.geometry import jet_to_dict, random_point_jet
from wres_torsion.numerics import format_rational
from wres_torsion.residue import (
    audit,
    metric_density,
    part1_density,
    part2_density,
    theorem_density,
)

FIXTURE = Path(__file__).with_name("golden_pipeline.json")
FIXTURE_M46 = Path(__file__).with_name("golden_pipeline_m46.json")
SEEDS = range(5)
DIMS = (2, 3)
DIMS_M46 = (4, 5, 6)
RECONCILED = ["I-D", "I-F", "II-3-B", "II-3-C"]


def golden_payload(dims=DIMS, instances: bool = True) -> dict:
    rows = {}
    for m in dims:
        for seed in SEEDS:
            jet = random_point_jet(seed, m)
            rows[f"m={m} seed={seed}"] = {
                **({"instance": json.dumps(jet_to_dict(jet), sort_keys=True)}
                   if instances else {}),
                "audit": json.dumps(audit(jet, m).to_json(), sort_keys=True),
                "part1": format_rational(part1_density(jet, m).value),
                "part2_printed": format_rational(part2_density(jet, m, "printed").value),
                "part2_composed": format_rational(part2_density(jet, m, "composed").value),
                "metric": format_rational(metric_density(jet, m).value),
                "theorem": format_rational(theorem_density(jet, m).value),
            }
    return rows


def golden_text(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _tt(jet) -> Fraction:
    """sum_{j,l} T(v,e_j,e_l) T(w,e_j,e_l), computed here from the jet."""
    n, total = jet.n, Fraction(0)
    for j in range(n):
        for l in range(n):
            tv = sum((jet.v[a] * jet.T[a][j][l] for a in range(n)), Fraction(0))
            tw = sum((jet.w[a] * jet.T[a][j][l] for a in range(n)), Fraction(0))
            total += tv * tw
    return total


def _assert_findings(jet, report: dict, part2_printed: Fraction,
                     part2_composed: Fraction) -> bool:
    """Assert the audit findings of one jet; True if its TT(v, w) is nonzero."""
    tt = _tt(jet)
    assert report["ok"] is True and report["clean"] is False
    mismatches = [e for e in report["entries"] if not e["match"]]
    assert [e["label"] for e in mismatches] == RECONCILED
    assert all(e["reconciled"] for e in mismatches)
    shift = report["totals"]["part2_composed_vs_printed_shift"]
    assert shift == {"engine": format_rational(Fraction(3, 4) * tt),
                     "printed": format_rational(Fraction(3, 4) * tt), "match": "true"}
    assert part2_composed - part2_printed == Fraction(3, 4) * tt
    if tt:
        assert report["lemma36_diff"]["grade1_equal"] is False
    return bool(tt)


@pytest.fixture(scope="module")
def payload_m46() -> dict:
    return golden_payload(DIMS_M46, instances=False)


def test_pipelines_match_golden_bytes():
    assert golden_text(golden_payload()) == FIXTURE.read_text()


def test_pipelines_match_golden_bytes_m4_to_m6(payload_m46):
    assert golden_text(payload_m46) == FIXTURE_M46.read_text()


@pytest.mark.parametrize("m", DIMS_M46)
def test_findings_hold_at_m4_to_m6(payload_m46, m):
    nonzero_tt = 0
    for seed in SEEDS:
        row = payload_m46[f"m={m} seed={seed}"]
        nonzero_tt += _assert_findings(
            random_point_jet(seed, m), json.loads(row["audit"]),
            Fraction(row["part2_printed"]), Fraction(row["part2_composed"]))
    assert nonzero_tt, m


@pytest.mark.slow
@pytest.mark.parametrize("m", (7, 8))
@pytest.mark.parametrize("seed", (0, 1))
def test_findings_hold_at_m7_and_m8(m, seed):
    jet = random_point_jet(seed, m)
    p1, p2 = part1_density(jet, m).value, part2_density(jet, m).value
    assert p1 + p2 == theorem_density(jet, m).value
    _assert_findings(jet, audit(jet, m).to_json(), p2, part2_density(jet, m, "composed").value)


if __name__ == "__main__":
    FIXTURE.write_text(golden_text(golden_payload()))
    FIXTURE_M46.write_text(golden_text(golden_payload(DIMS_M46, instances=False)))
