"""Exit codes, determinism, and report shapes of the command line."""

from __future__ import annotations

import decimal
import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

from wres_torsion import cli, residue, symbols
from wres_torsion.cli import main
from wres_torsion.geometry import jet_to_dict, make_point_jet, random_point_jet


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# instance
# ---------------------------------------------------------------------------

def test_instance_deterministic_bytes(capsys):
    code1, out1, _ = run(capsys, "instance", "--dim", "2", "--seed", "1")
    code2, out2, _ = run(capsys, "instance", "--dim", "2", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert hashlib.sha256(out1.encode()).hexdigest() == (
        "1fcb84f067ef0ef9612b2efb262aafcbb5e3ad2d48109b13c66ae86d21c599b5")
    data = json.loads(out1)
    assert data["n"] == 4
    assert data["schema"] == "wres-torsion-instance-v1"


@pytest.mark.parametrize("flag", [("--trials", "0"), ("--format", "text")])
def test_instance_rejects_report_options(capsys, flag):
    code, out, err = run(capsys, "instance", "--dim", "2", *flag)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in err


def test_instance_unsupported_dim(capsys):
    code, _, err = run(capsys, "instance", "--dim", "9")
    assert code == 2
    assert "unsupported" in err


def test_trials_zero_rejected(capsys):
    code, _, err = run(capsys, "verify", "--trials", "0")
    assert code == 2
    assert "trials" in err
    assert run(capsys, "audit", "--trials", "0") == (2, "", "error: trials must be >= 1\n")


def test_unknown_check_rejected(capsys):
    code, _, err = run(capsys, "verify", "--checks", "nonsense")
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize("checks", ["bogus,all", "all,bogus"])
def test_unknown_check_rejected_next_to_all(capsys, checks):
    code, out, err = run(capsys, "verify", "--checks", checks, "--trials", "1")
    assert code == 2
    assert err == "error: unknown check 'bogus'\n"
    assert out == ""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_green_checks_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--checks",
                       "moments,part1,part2,theorem,metric",
                       "--dim", "2", "--trials", "2", "--seed", "7",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exit_code"] == 0
    assert all(c["passed"] for c in payload["checks"])


def test_verify_repeated_check_names_run_once_json(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "part1,part1,metric,part1",
                       "--trials", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [c["name"] for c in payload["checks"]] == ["part1", "metric"]
    assert payload["config"]["checks"] == ["part1", "metric"]


def test_verify_repeated_check_names_run_once_text(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "theorem,clifford,theorem",
                       "--trials", "1")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["theorem", "clifford", "exit"]


def test_verify_clifford_check(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "clifford", "--trials", "3")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("dim,rows", [(1, [1, 2, 3]), (2, [1, 2, 3]), (5, [1, 2, 3, 4, 5])])
def test_verify_clifford_check_runs_to_the_larger_of_3_and_dim(capsys, dim, rows):
    """The Clifford check covers m = 1 to max(3, --dim): its m <= 3 rows do
    not depend on --dim, and a larger --dim adds its own."""
    code, out, _ = run(capsys, "verify", "--checks", "clifford", "--dim", str(dim),
                       "--trials", "1", "--format", "json")
    assert code == 0
    assert [row["m"] for row in json.loads(out)["checks"][0]["rows"]] == rows


def test_verify_lemma36_reports_discrepancy(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "lemma36", "--dim", "2",
                       "--trials", "1", "--seed", "3", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    check = payload["checks"][0]
    assert not check["passed"]
    row = check["rows"][0]
    assert row["grade2_equal"] and row["grade0_equal"]
    assert not row["grade1_equal"]
    assert row["shift_characterized"]


def _printed_grade_off(monkeypatch, grade):
    """Rebind the printed grades a context reads so that grade ``grade`` has
    one more term than the composed one: 1/7 at the identity word (at xi_1^2
    for grade 2)."""
    real = residue.printed_grades

    def off(parts):
        grades, n = list(real(parts)), parts["s2"].n
        xi, expr = symbols._pairs(n)[0][0] if grade == 2 else 0, grades[2 - grade]
        extra = symbols.SymbolExpr._of(n, {(0, xi, 0, 0): 1}, 7, expr.phase)
        grades[2 - grade] = symbols.SymbolExpr.sum_of(n, (expr, extra))
        return tuple(grades)
    monkeypatch.setattr(residue, "printed_grades", off)


def _grade_differs(grade):
    return (f"grade-{grade} composed and displayed product symbols differ"
            " (no characterized finding)")


@pytest.mark.parametrize("grade", [2, 0])
def test_a_printed_grade_one_term_off_is_named_and_fails_the_audit(capsys, monkeypatch, grade):
    """Grades 2 and 0 can read unequal: the verify row, its summary (the
    grade named beside the grade-1 finding) and the audit's lemma36 diff
    show it, and the audit report is not ok, though its totals match."""
    _printed_grade_off(monkeypatch, grade)
    m, seed = 2, 3
    jet = random_point_jet(seed, m)
    ctx = residue.PipelineContext(jet, m)
    assert ctx.grades_equal == (grade != 2, False, grade != 0)
    row = cli.lemma36_row(seed, ctx)
    assert row[f"grade{grade}_equal"] is False and row["shift_characterized"]
    report = residue.audit(jet, m)
    assert tuple(report.lemma36_diff[f"grade{g}_equal"] for g in (2, 1, 0)) == ctx.grades_equal
    assert all(total["match"] == "true" for total in report.totals.values())
    assert not report.ok
    code, out, _ = run(capsys, "verify", "--checks", "lemma36", "--dim", str(m),
                       "--trials", "1", "--seed", str(seed), "--format", "json")
    check = json.loads(out)["checks"][0]
    assert code == 1 and check["rows"] == [row] and not check["passed"]
    findings = [cli.LEMMA36_FINDING, _grade_differs(grade)]  # named in the order 2, 1, 0
    assert check["summary"] == "; ".join(reversed(findings) if grade == 2 else findings)
    code, out, _ = run(capsys, "audit", "--dim", str(m), "--seed", str(seed), "--format", "json")
    assert code == 1 and json.loads(out)["all_reconciled"] is False


def test_the_grade1_finding_is_named_for_grade_1_alone(capsys, monkeypatch):
    """With the printed grades as the composed ones, and printed grade 2 one
    term off, only grade 2 differs, and the summary names it alone."""
    monkeypatch.setattr(residue, "build_sigma_ab_composed", symbols.build_sigma_ab_printed)
    _printed_grade_off(monkeypatch, 2)
    code, out, _ = run(capsys, "verify", "--checks", "lemma36", "--dim", "2",
                       "--trials", "1", "--seed", "3", "--format", "json")
    check = json.loads(out)["checks"][0]
    assert code == 1
    assert [check["rows"][0][f"grade{g}_equal"] for g in (2, 1, 0)] == [False, True, True]
    assert check["summary"] == _grade_differs(2)


def test_verify_traces_reports_four_factor_discrepancy(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "traces", "--trials", "2",
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    row = payload["checks"][0]["rows"][0]
    assert row["six_factor"] and row["eight_factor"]
    assert row["four_factor_corrected"]
    assert not row["four_factor_displayed"]


def test_verify_json_deterministic(capsys):
    args = ("verify", "--checks", "part1,metric", "--dim", "2", "--trials", "2",
            "--seed", "5", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def _counted(monkeypatch, calls, module, name):
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_verify_shares_one_context_per_trial_seed(monkeypatch, capsys):
    calls = Counter()
    _counted(monkeypatch, calls, cli, "random_point_jet")
    _counted(monkeypatch, calls, symbols, "derived_scalars")
    builders = [name for name in vars(residue) if name.startswith("build_sigma_")]
    for name in builders:
        _counted(monkeypatch, calls, residue, name)
    # the buckets of part 1's and sigma_Delta's emitted channels, which a
    # context builds once per table without the public builders
    _counted(monkeypatch, calls, residue, "_filled")
    trials = 2
    code, _, _ = run(capsys, "verify", "--checks", "lemma36,part1,part2,theorem,metric",
                     "--trials", str(trials))
    assert code == 1  # the lemma36 finding
    # one jet per trial seed, plus the theorem's zero-torsion jet
    assert calls["random_point_jet"] == trials + 1
    # the theorem check adds the zero-torsion and four one-hot jets
    for name in builders + ["derived_scalars"]:
        assert calls[name] <= trials + 5, name
    assert calls["derived_scalars"] and 0 < calls["_filled"] <= 2 * (trials + 5)
    calls.clear()
    code, _, _ = run(capsys, "verify", "--checks", "clifford", "--trials", str(trials))
    assert code == 0
    assert not calls


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "instance", "--dim", "2", "--seed", "4")
    assert code == 0
    path = tmp_path / "inst.json"
    path.write_text(out)
    code, out, _ = run(capsys, "density", "--input", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = payload["densities"]
    assert rows["total_matches_theorem"] is True
    assert rows["prefactor"] == "2^m * 2*pi^m / Gamma(m)"


def test_audit_verify_and_density_read_the_context_comparisons(tmp_path, capsys, monkeypatch):
    """The theorem comparison and the grade equalities are defined once on
    the context: redefined there, the audit's totals and lemma36 diff, the
    verify rows (the one-hot theorem cases too) and the density report all
    change with them."""
    monkeypatch.setitem(residue.COMPARISONS, "theorem",
                        lambda ctx: (Fraction(1), Fraction(2)))
    monkeypatch.setattr(residue.PipelineContext, "grades_equal", (True, True, True))
    jet = random_point_jet(3, 2)
    report = residue.audit(jet, 2)
    assert report.totals["theorem"] == {"engine": "1", "printed": "2", "match": "false"}
    assert [report.lemma36_diff[f"grade{g}_equal"] for g in (2, 1, 0)] == [True] * 3
    ctx = residue.PipelineContext(jet, 2)
    assert cli.JET_CHECKS["theorem"][0](3, ctx) == {
        "seed": 3, "total": "1", "theorem": "2", "match": False}
    assert cli.JET_CHECKS["lemma36"][0](3, ctx) == {
        "seed": 3, "grade2_equal": True, "grade1_equal": True, "grade0_equal": True}
    assert all(row["value"] == "1" for row in cli._theorem_case_rows(0, 2)[1:])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(jet_to_dict(jet)))
    code, out, _ = run(capsys, "density", "--input", str(path), "--format", "json")
    densities = json.loads(out)["densities"]
    assert code == 1 and densities["theorem"] == "2"
    assert densities["total_matches_theorem"] is False


def test_density_zero_torsion_einstein_value(tmp_path, capsys):
    # constant-curvature block with G(v,w) = 6 gives theorem density -1
    n, kappa = 4, Fraction(1)
    entries = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    val = kappa * ((a == c) * (b == d) - (a == d) * (b == c))
                    if val and a < b and c < d and (a, b) <= (c, d):
                        entries.append((a, b, c, d, val))
    jet = make_point_jet(2, R=entries, v=[1, 0, 0, 0], w=[-2, 0, 0, 0])
    path = tmp_path / "einstein.json"
    path.write_text(json.dumps(jet_to_dict(jet)))
    code, out, _ = run(capsys, "density", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["densities"]["theorem"] == "-1"


@pytest.mark.parametrize("T,v0,w0,limit", [
    ([(0, 1, 2, 1)], "7" * 3000, "-" + "3" * 3000, None),
    # parse_rational reads an exponent only up to the int-string digit
    # limit, so this case raises the limit it reads to 1,000,000 digits;
    # str() keeps the interpreter's limit
    ([], "1e1000000", "1", 1_000_000),
], ids=["3000-digit", "1e1000000"])
def test_density_prints_values_past_the_int_string_limit(tmp_path, capsys, monkeypatch,
                                                         T, v0, w0, limit):
    # past 4300 digits, str() of an int raises unless the limit is lifted
    if limit:
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    data = jet_to_dict(make_point_jet(2, T=T, v=[1, 0, 0, 0], w=[1, 0, 0, 0]))
    data["v"][0], data["w"][0] = v0, w0
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "density", "--input", str(path), "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)["densities"]
    assert rows["total_matches_theorem"] is True
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact])
    # the metric density is -g(v, w) = -v0 w0
    assert decimal.Decimal(rows["metric"]) == exact.minus(
        exact.multiply(decimal.Decimal(v0), decimal.Decimal(w0)))


@pytest.mark.parametrize("field,value,text", [
    ("v", ["1e100000000", "0", "0", "0"], "1e100000000"),
    ("T", [[1, 2, 3, "1E-100000000"]], "1E-100000000"),
])
def test_density_refuses_an_exponent_past_the_int_string_limit(tmp_path, capsys, field, value,
                                                               text):
    # 10**100000000 would be built in full before the density is read
    code, out, err = _density_with(tmp_path, capsys, field, value)
    assert (code, out) == (2, "")
    assert f"{field} value '{text}' is not an exact rational" in err


def test_density_invalid_tensor_names_violation(tmp_path, capsys):
    data = {"schema": "wres-torsion-instance-v1", "n": 4,
            "R": [], "T": [[1, 1, 2, "1"]], "dT1": [],
            "v": ["0"] * 4, "w": ["0"] * 4, "dw": [["0"] * 4] * 4}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "density", "--input", str(path))
    assert code == 2
    assert "repeated index" in err


def test_density_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "density", "--input", str(tmp_path / "nope.json"))
    assert code == 2


@pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000],
                         ids=["unclosed", "balanced"])
def test_density_deeply_nested_input_exits_2(tmp_path, capsys, text):
    path = tmp_path / "nested.json"
    path.write_text(text)
    code, out, err = run(capsys, "density", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "cannot read instance: maximum recursion depth exceeded" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_json_structure(capsys):
    code, out, _ = run(capsys, "audit", "--dim", "2", "--seed", "2",
                       "--format", "json")
    # known display discrepancies are always found and reported
    assert code == 1
    payload = json.loads(out)
    report = payload["reports"][0]
    assert report["ok"] is True
    assert report["clean"] is False
    labels = {e["label"] for e in report["entries"]}
    assert {"I-A", "I-G", "II-1-B", "II-2-A", "II-3-G", "II-6"} <= labels
    assert report["totals"]["theorem"]["match"] == "true"
    assert payload["all_reconciled"] is True


def _density_with(tmp_path, capsys, field, value, *extra):
    data = jet_to_dict(make_point_jet(2, v=[1, 0, 0, 0], w=[1, 0, 0, 0]))
    data[field] = value
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    return run(capsys, "density", "--input", str(path), *extra)


@pytest.mark.parametrize("field,value,reason", [
    ("R", [[1, 2, 3]], "R entry"),
    ("T", [[1, 2, 3, "1/0"]], "not an exact rational"),
    ("T", [[1, 2, 3, "abc"]], "not an exact rational"),
    ("v", "1234", "v must be a dense length-4 array"),
    ("dw", ["1234"] * 4, "dw must be a dense 4x4 matrix"),
    ("R", 7, "R must be a list"),
    ("n", 4.7, "field 'n' 4.7 is not an integer"),
    ("T", [[1.9, 2, 3, "1"]], "T index 1.9 is not an integer"),
    ("R", [[True, 2, 1, 2, "1"]], "R index True is not an integer"),
])
def test_density_malformed_input_exits_2(tmp_path, capsys, field, value, reason):
    code, out, err = _density_with(tmp_path, capsys, field, value)
    assert code == 2
    assert out == ""
    assert reason in err and "Traceback" not in err


@pytest.mark.parametrize("field,value,reason", [
    ("R", 0, "R must be a list of entries"),
    ("T", False, "T must be a list of entries"),
    ("dT1", {}, "dT1 must be a list of entries"),
    ("R", "", "R must be a list of entries"),
    ("dw", 0, "dw must be a dense 4x4 matrix"),
    ("dw", [], "dw must be a dense 4x4 matrix"),
])
def test_density_falsy_field_exits_2(tmp_path, capsys, field, value, reason):
    # only a missing or null field reads as empty
    code, out, err = _density_with(tmp_path, capsys, field, value)
    assert code == 2
    assert out == ""
    assert f"invalid instance: {reason}" in err and "Traceback" not in err
    code, _, _ = _density_with(tmp_path, capsys, field, None)
    assert code == 0


def test_output_into_missing_directory_exits_2(tmp_path, capsys):
    target = str(tmp_path / "missing" / "out.json")
    code, _, err = _density_with(tmp_path, capsys, "v", [1, 0, 0, 0],
                                 "--output", target)
    assert code == 2
    assert "cannot write output" in err
    code, _, err = run(capsys, "instance", "--output", target)
    assert code == 2


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(jet, m):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli, "audit", broken)
    code, _, err = run(capsys, "audit", "--dim", "1")
    assert code == cli.EXIT_INTERNAL == 3
    assert "RuntimeError: engine fault" in err
