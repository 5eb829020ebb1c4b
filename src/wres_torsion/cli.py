"""Command-line front end: verification runs, instances, densities, audits.

Exit code contract (stable):
    0  every selected comparison matched exactly
    1  a mathematical discrepancy was found (and reported)
    2  invalid configuration or input, or an unreadable input / unwritable
       output file; the reason is named on stderr, with no traceback
    3  internal error: an unexpected exception inside the engine (reported
       on stderr); never a discrepancy, which is always 1

``verify`` builds one ``PipelineContext`` (derived scalars and symbol
artifacts) per trial seed and hands it to every selected per-jet check.

Two of the selectable checks compare the engine against displayed
reference expressions that are reproducibly off (the grade-1 product
symbol ordering, and one four-factor trace bracket); including them in a
run therefore exits 1 by design, with the discrepancy fully characterized
in the report.  All densities print exact rationals per
tr[id] * Vol(S^{n-1}); the transcendental prefactor is emitted only as the
symbolic string ``2^m * 2*pi^m / Gamma(m)``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback
from fractions import Fraction
from functools import partial
from itertools import permutations, product
from typing import List, Optional, Sequence

from .clifford import (
    CliffordElement,
    _mat_mul,
    build_gamma,
    trace,
    trace_via_rep,
)
from .geometry import (
    SUPPORTED_M,
    InstanceError,
    _small_rational,
    jet_from_dict,
    jet_to_dict,
    make_point_jet,
    random_point_jet,
)
from .numerics import ONE, GaussianRational, format_rational
from .residue import (
    SHIFT,
    PipelineContext,
    audit,
    sphere_moment,
    sphere_moment_bruteforce,
)

REPORT_SCHEMA = "wres-torsion-report-v1"
PREFACTOR = "2^m * 2*pi^m / Gamma(m)"

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Invalid input or I/O failure: exit 2 with the reason named."""


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _random_element(rng: random.Random, n: int, terms: int) -> CliffordElement:
    elem = CliffordElement.zero(n)
    for _ in range(terms):
        word = rng.randrange(1 << n)
        coeff = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        elem = elem + CliffordElement(n, {word: coeff})
    return elem


def check_clifford(args: argparse.Namespace) -> dict:
    rows = []
    ok = True
    # the m <= 3 rows are the same whatever --dim is, and a larger --dim adds its own
    for m in range(1, max(3, args.dim_m) + 1):
        n = 2 * m
        rep = build_gamma(m)
        anti_ok = all(_anticommute(rep.matrices[i], rep.matrices[j], i == j)
                      for i in range(n) for j in range(n))
        trace_id = trace(CliffordElement.identity(n), m)
        ok_m = anti_ok and trace_id == 1 << m
        rng = random.Random(f"clifford:{args.seed}:{m}")
        oracle_ok = True
        for _ in range(max(args.trials, 10)):
            elem = _random_element(rng, n, rng.randint(1, 12))
            if trace(elem, m) != trace_via_rep(elem, rep):
                oracle_ok = False
        ok_m = ok_m and oracle_ok
        rows.append({"m": m, "anticommutators": anti_ok,
                     "trace_identity": str(trace_id), "oracle": oracle_ok})
        ok = ok and ok_m
    return {"name": "clifford", "passed": ok,
            "summary": "gamma relations and trace oracle" + ("" if ok else " FAILED"),
            "rows": rows}


def _anticommute(a, b, same: bool) -> bool:
    """{a, b} = -2 delta_ab for monomial rows: a^2 is -1 on the identity
    permutation, and ab = -ba for two distinct gammas."""
    ab = _mat_mul(a, b)
    return ab == (tuple((r, -ONE) for r in range(len(a))) if same
                  else tuple((c, -x) for c, x in _mat_mul(b, a)))


def _multidegrees(n: int, max_total: int):
    if n == 0:
        yield ()
        return
    for head in range(max_total + 1):
        for tail in _multidegrees(n - 1, max_total - head):
            yield (head,) + tail


def check_moments(args: argparse.Namespace) -> dict:
    rows = []
    ok = True
    for n in (4, 6):
        bad = 0
        count = 0
        for alpha in _multidegrees(n, 6):
            count += 1
            if sphere_moment(alpha, n) != sphere_moment_bruteforce(alpha, n):
                bad += 1
        pair = sphere_moment((2,) + (0,) * (n - 1), n) == Fraction(1, n)
        quad = sphere_moment((2, 2) + (0,) * (n - 2), n) == Fraction(1, n * (n + 2))
        rows.append({"n": n, "multidegrees": count, "mismatches": bad,
                     "degree2_formula": pair, "degree4_formula": quad})
        ok = ok and bad == 0 and pair and quad
    return {"name": "moments", "passed": ok,
            "summary": "closed moment formula vs pairing enumeration", "rows": rows}


def _random_vector(rng: random.Random, n: int):
    return [_small_rational(rng) for _ in range(n)]


def check_traces(args: argparse.Namespace) -> dict:
    """Displayed trace identities, evaluated via the canonical trace.

    The six-factor and eight-factor identities hold exactly.  The displayed
    four-factor bracket (v_j w_l + v_l w_j) does not: the trace gives
    (-v_j w_l + v_l w_j).  The discrepancy is reported (and the corrected
    bracket verified), so this check exits with a discrepancy by design.
    """
    six_ok = eight_ok = four_corrected_ok = four_printed_ok = True
    for m in (2, 3):
        n = 2 * m
        gens = [CliffordElement.generator(n, i) for i in range(1, n + 1)]
        pairs = list(permutations(range(n), 2))  # (j, l) with j != l
        rng = random.Random(f"traces:{args.seed}:{m}")
        for trial in range(args.trials):
            v = _random_vector(rng, n)
            w = _random_vector(rng, n)
            cv = CliffordElement.from_vector(n, v)
            cw = CliffordElement.from_vector(n, w)
            g_vw = sum(a * b for a, b in zip(v, w))
            scale = 1 << m
            for j, l in pairs:
                t4 = trace(cv * cw * gens[j] * gens[l], m)
                four_printed_ok &= t4 == (v[j] * w[l] + v[l] * w[j]) * scale
                four_corrected_ok &= t4 == (-v[j] * w[l] + v[l] * w[j]) * scale
            for (j, l), (jh, lh) in product(pairs, repeat=2):
                t6 = trace(cv * cw * gens[j] * gens[l] * gens[jh] * gens[lh], m)
                six_ok &= t6 == _six_bracket(v, w, g_vw, j, l, jh, lh) * scale
            rngx = random.Random(f"eight:{args.seed}:{m}:{trial}")
            for _ in range(4):
                word = [rngx.randrange(1, n + 1) for _ in range(rngx.randrange(0, 5))]
                x_elem = CliffordElement.identity(n)
                for idx in word:
                    x_elem = x_elem * gens[idx - 1]
                lhs = sum((trace(cv * gens[f] * cw * gens[f] * x_elem, m) for f in range(n)),
                          Fraction(0))
                rhs = trace(cv * cw * x_elem, m) * (2 * m) - sum(
                    (trace(cv * gens[f] * x_elem, m) * (2 * w[f]) for f in range(n)), Fraction(0))
                eight_ok &= lhs == rhs
    passed = six_ok and eight_ok and four_printed_ok and four_corrected_ok
    return {"name": "traces", "passed": passed,
            "summary": "displayed trace identities (four-factor display "
                       "disagrees by a sign; corrected form holds)",
            "rows": [{"six_factor": six_ok, "eight_factor": eight_ok,
                      "four_factor_displayed": four_printed_ok,
                      "four_factor_corrected": four_corrected_ok,
                      "note": "displayed four-factor bracket has a sign slip; "
                              "corrected bracket -v_j w_l + v_l w_j verified"}]}


def _six_bracket(v, w, g_vw, j, l, jh, lh) -> Fraction:
    def d(a, b):
        return 1 if a == b else 0
    return (v[lh] * w[l] * d(j, jh) - v[lh] * w[j] * d(l, jh)
            - v[jh] * w[l] * d(j, lh) + v[jh] * w[j] * d(l, lh)
            - v[l] * w[lh] * d(j, jh) + v[l] * w[jh] * d(j, lh)
            + v[j] * w[lh] * d(l, jh) - v[j] * w[jh] * d(l, lh)
            - d(j, lh) * d(l, jh) * g_vw + d(j, jh) * d(l, lh) * g_vw)


def lemma36_row(seed: int, ctx: PipelineContext) -> dict:
    """Strict composition vs displayed product-symbol grades.

    Grades 2 and 0 agree exactly.  Grade 1 differs by the documented
    ordering of one cross term; the per-term diff and the induced density
    shift (+3/4 sum T(v,..)T(w,..)) are reported.  Discrepancy by design.
    """
    eq = ctx.grades_equal
    row = {"seed": seed, "grade2_equal": eq[0],
           "grade1_equal": eq[1], "grade0_equal": eq[2]}
    if not all(eq):
        shift = ctx.compare(SHIFT)
        row["density_shift"] = format_rational(shift.engine)
        row["three_quarters_tt"] = format_rational(shift.expected)
        row["shift_characterized"] = shift.match
        row["differing_term_count"] = len((ctx.ab_composed[1] - ctx.ab_printed[1]).nums)
    return row


def _compared_row(name: str, engine: str, expected: str,
                  seed: int, ctx: PipelineContext) -> dict:
    """The row of the context's comparison ``name``, its two values under
    the keys ``engine`` and ``expected``."""
    got = ctx.compare(name)
    return {"seed": seed, engine: format_rational(got.engine),
            expected: format_rational(got.expected), "match": got.match}


def _theorem_case_rows(seed: int, m: int) -> List[dict]:
    """The theorem on the zero-torsion jet of ``seed`` and the one-hot jets
    that isolate its coefficients."""
    ctx = PipelineContext(random_point_jet(seed, m, with_torsion=False,
                                           with_torsion_jet=False), m)
    rows = [{"case": "zero-torsion", "match": ctx.compare("theorem").engine
             == -Fraction(1, 6) * ctx.derived.einstein_vw}]
    for label, expected, jet_kw in _one_hot_cases(m):
        total = PipelineContext(make_point_jet(m, **jet_kw), m).compare("theorem").engine
        rows.append({"case": label, "value": format_rational(total),
                     "expected": format_rational(expected), "match": total == expected})
    return rows


def _one_hot_cases(m: int):
    e = lambda i, n: [Fraction(1) if k == i else Fraction(0) for k in range(n)]
    n = 2 * m
    # |T|^2 coefficient: T_123 = 1, v = w = e_4 (g = 1, TT = 0)
    yield ("coefficient 73/16", Fraction(73, 16), dict(
        T=[(0, 1, 2, 1)], v=e(3, n), w=e(3, n)))
    # TT coefficient: v = w = e_1 adds TT = 2 on top of the 73/16 channel
    yield ("coefficient -25/16", Fraction(73, 16) - 2 * Fraction(25, 16), dict(
        T=[(0, 1, 2, 1)], v=e(0, n), w=e(0, n)))
    # divergence coefficient: dT1[0][0][1][2] = 1, v = e_2, w = e_3
    yield ("coefficient 11/4", Fraction(11, 4), dict(
        dT1=[(0, 0, 1, 2, 1)], v=e(1, n), w=e(2, n)))
    # mixed torsion/jet coefficient: T_123 = 1, dw[2][1] = 1, v = e_1, w = e_4
    dw = [[Fraction(0)] * n for _ in range(n)]
    dw[2][1] = Fraction(1)
    yield ("coefficient 17/4", Fraction(17, 4), dict(
        T=[(0, 1, 2, 1)], v=e(0, n), w=e(3, n), dw=dw))


JET_FREE_CHECKS = {"clifford": check_clifford, "moments": check_moments,
                   "traces": check_traces}
# per-jet check -> (its row of one trial jet, its summary)
JET_CHECKS = {
    "lemma36": (lemma36_row, "composed == displayed on all grades"),
    "part1": (partial(_compared_row, "part1", "engine", "closed"),
              "part1 density vs closed form"),
    "part2": (partial(_compared_row, "part2", "engine", "closed"),
              "part2 density vs closed form"),
    "theorem": (partial(_compared_row, "theorem", "total", "theorem"),
                "part1 + part2 vs spectral Einstein density"),
    "metric": (partial(_compared_row, "metric", "value", "expected"),
               "metric density vs -g(v,w)"),
}
ALL_CHECKS = (*JET_FREE_CHECKS, *JET_CHECKS)
LEMMA36_FINDING = ("grade-1 cross-term ordering differs (characterized shift "
                   "+3/4 sum T(v,.)T(w,.), displayed chain tracked by closed forms)")


def _jet_check(name: str, rows: List[dict]) -> dict:
    """A per-jet check's result: it passes if every row matches (lemma36:
    has every grade equal).  A failed lemma36 names each grade that differs
    on some row, grade 1 by its characterized finding."""
    differing = [g for g in (2, 1, 0) if name == "lemma36"
                 and not all(row[f"grade{g}_equal"] for row in rows)]
    summary = "; ".join(LEMMA36_FINDING if g == 1 else f"grade-{g} composed and displayed"
                        " product symbols differ (no characterized finding)" for g in differing)
    return {"name": name, "passed": not differing and all(row.get("match", True) for row in rows),
            "summary": summary or JET_CHECKS[name][1], "rows": rows}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output_path:
        try:
            with open(args.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output: {exc}") from None
    else:
        sys.stdout.write(text)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _report(args: argparse.Namespace, payload: dict, lines: List[str]) -> int:
    """Emit a command's report, ``payload`` under the schema as JSON or
    ``lines`` as text, and return its exit code."""
    if args.format == "json":
        _emit(args, _dump_json({"schema": REPORT_SCHEMA, **payload}))
    else:
        _emit(args, "\n".join(lines) + "\n")
    return payload["exit_code"]


def cmd_verify(args: argparse.Namespace) -> int:
    m = args.dim_m
    rows = {name: [] for name in JET_CHECKS if name in args.checks}
    # one context per trial seed, shared by the selected per-jet checks
    for seed in range(args.seed, args.seed + args.trials) if rows else ():
        ctx = PipelineContext(random_point_jet(seed, m), m)
        for name, checked in rows.items():
            checked.append(JET_CHECKS[name][0](seed, ctx))
    if "theorem" in rows and m >= 2:
        rows["theorem"] += _theorem_case_rows(args.seed, m)
    results = [_jet_check(name, rows[name]) if name in rows else JET_FREE_CHECKS[name](args)
               for name in args.checks]
    exit_code = EXIT_OK if all(r["passed"] for r in results) else EXIT_DISCREPANCY
    lines = [f"{r['name']:<10} {'PASS' if r['passed'] else 'DISCREPANCY':<12} {r['summary']}"
             for r in results]
    return _report(args, {
        "command": "verify",
        "config": {"dim_m": m, "seed": args.seed, "trials": args.trials,
                   "checks": list(args.checks)},
        "checks": results, "exit_code": exit_code}, lines + [f"exit code: {exit_code}"])


def cmd_instance(args: argparse.Namespace) -> int:
    _emit(args, _dump_json(jet_to_dict(random_point_jet(args.seed, args.dim_m))))
    return EXIT_OK


def cmd_density(args: argparse.Namespace) -> int:
    try:
        with open(args.input_path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # too deeply nested
        raise UsageError(f"cannot read instance: {exc}") from None
    try:
        jet = jet_from_dict(data)
    except InstanceError as exc:
        raise UsageError(f"invalid instance: {exc}") from None
    ctx = PipelineContext(jet, jet.m)
    theorem = ctx.compare("theorem")
    rows = {
        "metric": format_rational(ctx.compare("metric").engine),
        "part1": format_rational(ctx.compare("part1").engine),
        "part2": format_rational(ctx.compare("part2").engine),
        "theorem": format_rational(theorem.expected),
        "total_matches_theorem": theorem.match,
        "prefactor": PREFACTOR,
        "normalization": "per tr[id] * Vol(S^{n-1})",
    }
    exit_code = EXIT_OK if rows["total_matches_theorem"] else EXIT_DISCREPANCY
    return _report(args, {"command": "density", "densities": rows, "exit_code": exit_code},
                   [f"{k}: {v}" for k, v in rows.items()])


def cmd_audit(args: argparse.Namespace) -> int:
    reports = [(seed, audit(random_point_jet(seed, args.dim_m), args.dim_m))
               for seed in range(args.seed, args.seed + args.trials)]
    exit_code = EXIT_OK if all(rep.clean for _, rep in reports) else EXIT_DISCREPANCY
    lines = []
    for seed, rep in reports:
        lines.append(f"audit seed={seed} m={rep.m}")
        for e in rep.entries:
            flag = "ok " if e.match else ("rec" if e.reconciled else "BAD")
            lines.append(f"  [{flag}] {e.label:<8} engine={format_rational(e.engine)}"
                         f" printed={format_rational(e.printed)}"
                         + (f"  ({e.note})" if e.note else ""))
        for name, row in rep.totals.items():
            lines.append(f"  total {name}: engine={row['engine']}"
                         f" printed={row['printed']} match={row['match']}")
        for note in rep.convention_notes:
            lines.append(f"  note: {note}")
    return _report(args, {
        "command": "audit",
        "config": {"dim_m": args.dim_m, "seed": args.seed, "trials": args.trials},
        "reports": [{"seed": seed, **rep.to_json()} for seed, rep in reports],
        "all_reconciled": all(rep.ok for _, rep in reports),
        "exit_code": exit_code}, lines + [f"exit code: {exit_code}"])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wres-torsion",
        description="Exact verification of spectral Einstein densities for "
                    "the torsion Dirac operator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials_default=None):
        p.add_argument("--dim", "-m", type=int, default=2, dest="dim_m",
                       help="half-dimension m (n = 2m); supported: "
                            + ", ".join(map(str, SUPPORTED_M)))
        p.add_argument("--seed", type=int, default=0)
        if trials_default:  # not for instance, which prints one jet as JSON
            p.add_argument("--trials", type=int, default=trials_default)
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", dest="output_path", default=None)

    p_verify = sub.add_parser("verify", help="run verification checks")
    common(p_verify, trials_default=5)
    p_verify.add_argument("--checks", default="all",
                          help="comma-separated subset of: "
                               + ",".join(ALL_CHECKS) + ",all")

    p_instance = sub.add_parser("instance", help="emit a random admissible instance")
    common(p_instance)

    p_density = sub.add_parser("density", help="compute densities for an instance file")
    p_density.add_argument("--input", dest="input_path", required=True)
    p_density.add_argument("--format", choices=("text", "json"), default="text")
    p_density.add_argument("--output", dest="output_path", default=None)

    p_audit = sub.add_parser("audit", help="step-by-step comparison report")
    common(p_audit, trials_default=1)
    return parser


def _parse_checks(raw: str) -> Sequence[str]:
    """The named checks, each once, in order of first mention (at least one)."""
    names = list(dict.fromkeys(x.strip() for x in raw.split(",") if x.strip()))
    if not names:
        raise UsageError(f"empty check selection {raw!r}")
    for name in names:
        if name not in ALL_CHECKS and name != "all":
            raise UsageError(f"unknown check {name!r}")
    if "all" in names:
        return ALL_CHECKS
    return tuple(names)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    commands = {"verify": cmd_verify, "instance": cmd_instance,
                "density": cmd_density, "audit": cmd_audit}
    try:
        if args.command != "density" and args.dim_m not in SUPPORTED_M:
            raise UsageError(f"unsupported dimension m={args.dim_m}")
        if args.command in ("verify", "audit") and args.trials < 1:
            raise UsageError("trials must be >= 1")
        if args.command == "verify":
            args.checks = _parse_checks(args.checks)
        return commands[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # the engine's own fault, never a discrepancy
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n"
                         + traceback.format_exc())
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
