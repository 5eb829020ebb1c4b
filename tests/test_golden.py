"""Behavioural golden: audit JSON and densities for fixed seeds, byte for byte.

The fixture ``golden_pipeline.json`` records, for ``random_point_jet(s, m)``
with s = 0..4 and m = 2, 3, the sorted-key instance JSON (``jet_to_dict``),
the sorted-key audit JSON and the part1, part2 (printed and composed),
metric and theorem densities.  A refactor of the
pipelines must leave every byte unchanged.  Regenerate only for an intended
behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

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
SEEDS = range(5)
DIMS = (2, 3)


def golden_payload() -> dict:
    rows = {}
    for m in DIMS:
        for seed in SEEDS:
            jet = random_point_jet(seed, m)
            rows[f"m={m} seed={seed}"] = {
                "instance": json.dumps(jet_to_dict(jet), sort_keys=True),
                "audit": json.dumps(audit(jet, m).to_json(), sort_keys=True),
                "part1": format_rational(part1_density(jet, m).value),
                "part2_printed": format_rational(part2_density(jet, m, "printed").value),
                "part2_composed": format_rational(part2_density(jet, m, "composed").value),
                "metric": format_rational(metric_density(jet, m).value),
                "theorem": format_rational(theorem_density(jet, m).value),
            }
    return rows


def golden_text() -> str:
    return json.dumps(golden_payload(), indent=1, sort_keys=True) + "\n"


def test_pipelines_match_golden_bytes():
    assert golden_text() == FIXTURE.read_text()


if __name__ == "__main__":
    FIXTURE.write_text(golden_text())
