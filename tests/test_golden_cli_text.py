"""Behavioural golden of the command line's text reports and exit codes.

``golden_cli.json`` pins the JSON reports; this fixture,
``golden_cli_text.json``, pins the text format that ``main`` writes by
default, byte for byte, for:

* ``verify --checks all --dim 2``;
* ``verify --checks lemma36,part1,part2,theorem,metric --dim 3``;
* ``audit --dim 2 --seed 5``;
* ``density`` on the ``instance --dim 3 --seed 0`` output.

A refactor must leave every byte unchanged.  Regenerate only for an
intended behaviour change:

    PYTHONPATH=src python tests/test_golden_cli_text.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from wres_torsion.cli import main

FIXTURE = Path(__file__).with_name("golden_cli_text.json")
RUNS = (
    ("verify", "--checks", "all", "--dim", "2"),
    ("verify", "--checks", "lemma36,part1,part2,theorem,metric", "--dim", "3"),
    ("audit", "--dim", "2", "--seed", "5"),
)
DENSITY_INSTANCE = ("instance", "--dim", "3", "--seed", "0")


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"exit_code": code, "text": out.getvalue()}


def golden_payload() -> dict:
    rows = {" ".join(argv): _run(argv) for argv in RUNS}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "instance.json")
        assert _run(DENSITY_INSTANCE + ("--output", str(path),))["exit_code"] == 0
        rows["density < " + " ".join(DENSITY_INSTANCE)] = _run(
            ("density", "--input", str(path)))
    return rows


def golden_text() -> str:
    return json.dumps(golden_payload(), indent=1, sort_keys=True) + "\n"


def test_cli_text_reports_match_golden_bytes():
    assert golden_text() == FIXTURE.read_text()


if __name__ == "__main__":
    FIXTURE.write_text(golden_text())
