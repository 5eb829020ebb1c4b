"""Behavioural golden of the command line: report JSON and exit codes, byte for byte.

The fixture ``golden_cli.json`` records, for each command line below, the
exit code and the whole JSON report that ``main`` writes:

* ``verify --checks all --dim 2`` (the clifford and traces checks cover
  every supported m themselves);
* ``verify --checks lemma36,part1,part2,theorem,metric --dim 3``;
* ``density --format json`` on the ``instance`` output for seeds 0-4 at
  m = 2 and m = 3.

A refactor must leave every byte unchanged.  Regenerate only for an
intended behaviour change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from wres_torsion.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")
VERIFY_RUNS = (
    ("verify", "--checks", "all", "--dim", "2", "--format", "json"),
    ("verify", "--checks", "lemma36,part1,part2,theorem,metric", "--dim", "3",
     "--format", "json"),
)
SEEDS = range(5)
DIMS = (2, 3)


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"exit_code": code, "json": out.getvalue()}


def golden_payload() -> dict:
    rows = {" ".join(argv): _run(argv) for argv in VERIFY_RUNS}
    with tempfile.TemporaryDirectory() as tmp:
        for m in DIMS:
            for seed in SEEDS:
                path = Path(tmp, f"m{m}-s{seed}.json")
                made = _run(("instance", "--dim", str(m), "--seed", str(seed),
                             "--output", str(path)))
                assert made["exit_code"] == 0
                rows[f"density --format json < instance --dim {m} --seed {seed}"] = _run(
                    ("density", "--input", str(path), "--format", "json"))
    return rows


def golden_text() -> str:
    return json.dumps(golden_payload(), indent=1, sort_keys=True) + "\n"


def test_cli_reports_match_golden_bytes():
    assert golden_text() == FIXTURE.read_text()


if __name__ == "__main__":
    FIXTURE.write_text(golden_text())
