"""Exact cosphere integration and the density pipelines.

Every density below is the rational content of a trace integral over the
unit cosphere: values are reported per tr[id] * Vol(S^{n-1}), i.e. the
common factor 2^m * 2*pi^m/Gamma(m) is stripped so that all comparisons
happen in a pi-free exact domain (the CLI prints the transcendental
prefactor as a symbolic string only).

``sphere_moment`` is the closed double-factorial formula for normalized
monomial moments; ``sphere_moment_bruteforce`` recomputes the same number
by enumerating perfect pairings, and stays independent of the closed
formula: the two are compared term-for-term in the verification suite.

The two density pipelines:

* part 1 traces c(v)c(w) against the order -2m symbol of the (2m-2)-th
  inverse power of the torsion Dirac operator;
* part 2 assembles the order -2m grade of the composed product symbol
  (grades 2, 1, 0 of the two-factor product against the three inverse
  Laplacian-type symbols, Leibniz derivatives up to |alpha| = 2),

and both are compared against their closed forms, whose sum is the
spectral Einstein density

    -(1/6) G(v,w) + (73/16) |T|^2 g(v,w)
    - (25/16) sum T(v,e_j,e_l) T(w,e_j,e_l)
    + (11/4) sum (nabla_{e_a} T)(e_a,v,w) + (17/4) sum T(v, nabla_j w, e_j).

``audit`` reproduces the reference derivation step by step (labels I-A ..
II-6) and reports every display that disagrees with the engine, together
with the exact engine value.  The one load-bearing disagreement is the
ordering of one cross term in the grade-1 product symbol: the reference
chain carries c(w)c(xi)c(v)tau where the composition rule produces
c(v)tau c(w)c(xi).  The closed forms track the former; the strict
composition shifts the part-2 density by exactly (3/4) sum T(v,..)T(w,..),
which the audit reports jet by jet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .clifford import CliffordElement, word_indices
from .geometry import PointJet
from .numerics import I, ONE, format_rational
from .symbols import (
    SymbolExpr,
    build_sigma_ab_composed,
    build_sigma_ab_printed_parts,
    build_sigma_delta_inv_parts,
    build_sigma_delta_lead,
    build_sigma_dtpow_parts,
    leibniz_pairs,
    printed_grades,
    x_partials,
)

# ---------------------------------------------------------------------------
# sphere moments
# ---------------------------------------------------------------------------


def sphere_moment(alpha: Sequence[int], n: int) -> Fraction:
    """Normalized moment of xi^alpha over S^{n-1}.

    Vanishes unless every exponent is even; otherwise equals
    prod_a (alpha_a - 1)!! / prod_{k=0}^{|alpha|/2 - 1} (n + 2k).
    """
    if n < 2 or n % 2:
        raise ValueError(f"dimension n={n} must be even and >= 2")
    if any(a < 0 for a in alpha):
        raise ValueError("negative exponent in moment multidegree")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    total = sum(alpha)
    if not total:
        return Fraction(1)
    num = 1
    for a in alpha:
        for k in range(a - 1, 0, -2):
            num *= k
    den = 1
    for k in range(total // 2):
        den *= n + 2 * k
    return Fraction(num, den)


def sphere_moment_bruteforce(alpha: Sequence[int], n: int) -> Fraction:
    """Independent oracle: enumerate perfect pairings of the index word.

    The normalized moment equals (number of pairings of the multiset of
    indices in which every pair is equal) divided by n(n+2)...(n+2k-2).
    """
    if n < 2 or n % 2:
        raise ValueError(f"dimension n={n} must be even and >= 2")
    word: List[int] = []
    for index, a in enumerate(alpha):
        word.extend([index] * a)
    if len(word) % 2:
        return Fraction(0)
    if not word:
        return Fraction(1)

    def pairings(items: Tuple[int, ...]) -> int:
        if not items:
            return 1
        head, rest = items[0], items[1:]
        total = 0
        for pos in range(len(rest)):
            if rest[pos] == head:
                total += pairings(rest[:pos] + rest[pos + 1:])
        return total

    count = pairings(tuple(word))
    den = 1
    for k in range(len(word) // 2):
        den *= n + 2 * k
    return Fraction(count, den)


# ---------------------------------------------------------------------------
# trace integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Density:
    """Exact density per tr[id] * Vol(S^{n-1})."""

    value: Fraction

    def __str__(self):
        return format_rational(self.value)


class PipelineError(ValueError):
    """Internal consistency violation in a trace-integral pipeline."""


_I_POWERS = (ONE, I, -ONE, -I)  # i^k for k mod 4


def _require_traceable(expr: SymbolExpr, m: int) -> None:
    """Raise unless every term is x-free of xi-homogeneity -2m."""
    for xdeg, xideg, p, _ in expr.terms:
        if any(xdeg):
            raise PipelineError("trace integral of an x-dependent expression")
        if sum(xideg) + p != -2 * m:
            raise PipelineError(
                f"term has xi-homogeneity {sum(xideg) + p}, expected {-2 * m}")


def _real_trace(moments: Dict[Tuple[int, ...], int], n: int, phase: int,
                den: int) -> Fraction:
    """The cosphere trace of a term sum given as xi-exponent -> summed int
    numerator of r, over the common denominator ``den``.

    Only even xi-monomials have a moment, so the sum over keys of
    (-1)^(|nu|/2) r * moment is i^-phase times the exact complex trace.
    That value is rebuilt and must be real: an imaginary part is a
    pipeline bug and raises.
    """
    total = Fraction(0)
    for xi, r in moments.items():
        if not r:
            continue
        moment = sphere_moment(xi, n)
        if moment:
            total += -r * moment if sum(xi) & 2 else r * moment
    value = _I_POWERS[-phase % 4] * (total / den)
    if value.im:
        raise PipelineError(f"trace integral has imaginary part {value.im}")
    return value.re


def trace_integral(expr: SymbolExpr, m: int) -> Density:
    """Integrate tr[expr]/2^m over the unit cosphere, exactly.

    Requires an x-independent expression of pure xi-homogeneity -2m; the
    norm factors are 1 on the sphere.  Only the identity word is traced
    (nonempty canonical words are traceless), and a term contributes
    i^(|nu| - phase) r times its moment.
    """
    _require_traceable(expr, m)
    return Density(_real_trace(
        {xideg: r for (_, xideg, _, word), r in expr.terms.items() if not word},
        expr.n, expr.phase, expr.den))


_ODD_MASKS: Dict[Tuple[int, ...], int] = {}


def _odd_mask(xi: Tuple[int, ...]) -> int:
    """Bit i set when the exponent of xi_i is odd; one memo entry per
    exponent tuple, since the traces meet the same few again and again."""
    mask = _ODD_MASKS.get(xi)
    if mask is None:
        mask = _ODD_MASKS[xi] = sum(1 << i for i, e in enumerate(xi) if e & 1)
    return mask


def _trace_integral_product(left: SymbolExpr, right: SymbolExpr, m: int) -> Fraction:
    """Cosphere trace of the grade -2m, x-degree-0 part of left*right.

    Equivalent to ``trace_integral(at_x0(xi_grade(left * right, -2m)), m)``
    but joins terms by Clifford word: tr(w_a w_b) vanishes unless the two
    canonical words coincide, in which case the product is the
    transposition parity of w into w times the identity (the c_i^2 signs
    cancel against the phase of the lost grade).  Only pairs whose xi-exponents
    have the same parities have an even, moment-bearing sum, so terms are
    also joined by that parity mask.  The signed int products are summed per
    xi-exponent before any moment is taken, and the total is divided once by
    the product of the two denominators.
    """
    if left.n != right.n:
        raise ValueError("dimension mismatch")
    grade = -2 * m
    by_word: Dict[Tuple[int, int], List] = {}
    for (xdeg, xideg, p, word), r in right.terms.items():
        if not any(xdeg):
            by_word.setdefault((word, _odd_mask(xideg)), []).append(
                (xideg, sum(xideg) + p, r))
    moments: Dict[Tuple[int, ...], int] = {}
    for (xa, xia, pa, word), ca in left.terms.items():
        bucket = by_word.get((word, _odd_mask(xia)))
        if bucket is None or any(xa):
            continue
        want = grade - sum(xia) - pa
        # interleaving w into w takes C(k, 2) transpositions for k = grade(w),
        # an odd number exactly when k % 4 is 2 or 3
        if word.bit_count() & 2:
            ca = -ca
        for xib, order_b, cb in bucket:
            if order_b == want:
                xi = tuple(map(sum, zip(xia, xib)))
                moments[xi] = moments.get(xi, 0) + ca * cb
    return _real_trace(moments, left.n, left.phase + right.phase,
                       left.den * right.den)


# ---------------------------------------------------------------------------
# density pipelines and closed forms
# ---------------------------------------------------------------------------


class PipelineContext:
    """The per-(jet, m) artifacts of the density pipelines, each built once.

    Every field is built on first use and reused by every later consumer:
    c(v)c(w), the inverse-power channels of parts 1 and 2, the printed and
    composed product-symbol grades, and the table alpha -> d_x^alpha
    sigma_Delta |x0 (|alpha| <= 2) that every Leibniz sum of part 2 reads.
    One public call (a density, a closed form, ``audit``, one jet of a CLI
    command) makes one context and drops it on return; the derived scalars
    belong to the jet (``jet.derived``), so all calls on one jet share them.
    A jet whose dimension is not 2m is rejected before any field is built.
    """

    def __init__(self, jet: PointJet, m: int):
        if jet.n != 2 * m:
            raise ValueError(f"jet dimension n={jet.n} does not match m={m}")
        self.jet, self.m, self.n = jet, m, jet.n

    @cached_property
    def cvw(self) -> SymbolExpr:
        cv = CliffordElement.from_vector(self.n, self.jet.v)
        cw = CliffordElement.from_vector(self.n, self.jet.w)
        return SymbolExpr.from_clifford(cv * cw)

    @cached_property
    def dtpow_parts(self) -> Dict[str, SymbolExpr]:
        return build_sigma_dtpow_parts(self.jet)

    @cached_property
    def delta_inv_parts(self) -> Tuple[Dict[str, SymbolExpr], ...]:
        return build_sigma_delta_inv_parts(self.jet)

    @cached_property
    def delta_dx(self) -> Dict[Tuple[int, ...], SymbolExpr]:
        """alpha -> d_x^alpha sigma_Delta |x0, sigma_Delta the sum of every
        inverse-power channel."""
        return x_partials(SymbolExpr.sum_of(self.n, (
            part for parts in self.delta_inv_parts for part in parts.values())))

    @cached_property
    def ab_printed_parts(self) -> Dict[str, SymbolExpr]:
        return build_sigma_ab_printed_parts(self.jet)

    @cached_property
    def ab_printed(self) -> Tuple[SymbolExpr, SymbolExpr, SymbolExpr]:
        return printed_grades(self.ab_printed_parts)

    @cached_property
    def ab_composed(self) -> Tuple[SymbolExpr, SymbolExpr, SymbolExpr]:
        return build_sigma_ab_composed(self.jet)

    def _trace_cvw(self, expr: SymbolExpr) -> Density:
        """trace_integral(cvw * expr), joined by word: cvw is x-free of
        xi-homogeneity 0, so the product is traceable exactly when expr is,
        and only the words of expr that match a word of cvw survive."""
        _require_traceable(expr, self.m)
        return Density(_trace_integral_product(self.cvw, expr, self.m))

    def metric(self) -> Density:
        return self._trace_cvw(build_sigma_delta_lead(self.jet))

    def part1(self) -> Density:
        return self._trace_cvw(SymbolExpr.sum_of(self.n, self.dtpow_parts.values()))

    def part2(self, ab_source: str = "printed") -> Density:
        if ab_source == "printed":
            grades = self.ab_printed
        elif ab_source == "composed":
            grades = self.ab_composed
        else:
            raise ValueError(f"unknown ab_source {ab_source!r}")
        sigma_ab = SymbolExpr.sum_of(self.n, grades)
        return Density(sum((_trace_integral_product(dl, dr, self.m)
                            for dl, dr in leibniz_pairs(sigma_ab, self.delta_dx)),
                           Fraction(0)))

    def part1_closed(self) -> Density:
        der, m = self.jet.derived, self.m
        return Density(Fraction(m - 1, 12) * der.s * der.g_vw
                       - Fraction(3 * (m - 1), 4) * der.norm_t2 * der.g_vw)

    def part2_closed(self) -> Density:
        der, m = self.jet.derived, self.m
        return Density(-Fraction(1, 6) * (der.ric_vw - der.s * der.g_vw / 2)
                       - Fraction(m - 1, 12) * der.s * der.g_vw
                       + Fraction(12 * m + 61, 16) * der.norm_t2 * der.g_vw
                       - Fraction(25, 16) * der.tt_vw
                       + Fraction(11, 4) * der.div_t_vw
                       + Fraction(17, 4) * der.t_dw)

    def theorem(self) -> Density:
        der = self.jet.derived
        return Density(-Fraction(1, 6) * der.einstein_vw
                       + Fraction(73, 16) * der.norm_t2 * der.g_vw
                       - Fraction(25, 16) * der.tt_vw
                       + Fraction(11, 4) * der.div_t_vw
                       + Fraction(17, 4) * der.t_dw)


def metric_density(jet: PointJet, m: int) -> Density:
    """Trace of c(v)c(w) against the leading inverse symbol: exactly -g(v,w)."""
    return PipelineContext(jet, m).metric()


def part1_density(jet: PointJet, m: int) -> Density:
    return PipelineContext(jet, m).part1()


def part1_closed(jet: PointJet, m: int) -> Density:
    """(m-1)/12 s g(v,w) - 3(m-1)/4 |T|^2 g(v,w)."""
    return PipelineContext(jet, m).part1_closed()


def part2_density(jet: PointJet, m: int, ab_source: str = "printed") -> Density:
    """Order -2m grade of the product-symbol composition, traced.

    ``ab_source`` selects the reference ("printed") product-symbol grades
    or the strict Leibniz composition ("composed"); the two differ by the
    documented grade-1 ordering finding.
    """
    return PipelineContext(jet, m).part2(ab_source)


def part2_closed(jet: PointJet, m: int) -> Density:
    """Closed reference form of the second density."""
    return PipelineContext(jet, m).part2_closed()


def theorem_density(jet: PointJet, m: int) -> Density:
    """-(1/6) G + (73/16)|T|^2 g - (25/16) TT + (11/4) divT + (17/4) T.dw."""
    return PipelineContext(jet, m).theorem()


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    label: str
    engine: Fraction
    printed: Fraction
    match: bool
    reconciled: bool = False
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "engine": format_rational(self.engine),
            "printed": format_rational(self.printed),
            "match": self.match,
        }
        if self.reconciled:
            out["reconciled"] = True
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class DensityReport:
    m: int
    entries: List[AuditEntry] = field(default_factory=list)
    totals: Dict[str, Dict[str, str]] = field(default_factory=dict)
    convention_notes: List[str] = field(default_factory=list)
    lemma36_diff: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every mismatching entry is a named reconciliation and
        all totals agree."""
        entries_ok = all(e.match or e.reconciled for e in self.entries)
        totals_ok = all(t["match"] == "true" for t in self.totals.values())
        return entries_ok and totals_ok

    @property
    def clean(self) -> bool:
        """True only if nothing at all disagrees with the reference."""
        return all(e.match for e in self.entries) and not self.lemma36_diff.get(
            "differing_terms")

    def to_json(self) -> dict:
        return {
            "schema": "wres-torsion-audit-v1",
            "m": self.m,
            "entries": [e.to_json() for e in self.entries],
            "totals": self.totals,
            "convention_notes": list(self.convention_notes),
            "lemma36_diff": self.lemma36_diff,
            "ok": self.ok,
            "clean": self.clean,
        }


def _entry(label: str, engine: Fraction, printed: Fraction,
           reconciled: bool = False, note: str = "") -> AuditEntry:
    return AuditEntry(label=label, engine=engine, printed=printed,
                      match=engine == printed, reconciled=reconciled, note=note)


def _expr_diff_terms(a: SymbolExpr, b: SymbolExpr, limit: int = 12) -> List[dict]:
    """Per-term diff of two expressions (a = composed, b = displayed)."""
    keys = set(a.terms) | set(b.terms)
    rows = []
    for key in sorted(keys):
        ca, cb = a.coefficient(key), b.coefficient(key)
        if ca != cb:
            xdeg, xideg, p, word = key
            rows.append({
                "xdeg": list(xdeg), "xideg": list(xideg), "normpow": p,
                "word": list(word_indices(word)),
                "composed": str(ca), "displayed": str(cb),
            })
            if len(rows) >= limit:
                break
    return rows


def audit(jet: PointJet, m: int) -> DensityReport:
    """Step-by-step comparison of the engine against the reference chain."""
    ctx = PipelineContext(jet, m)
    der = jet.derived
    report = DensityReport(m=m)
    g, s, ric_vw = der.g_vw, der.s, der.ric_vw
    nt2, tt, divt, tdw = der.norm_t2, der.tt_vw, der.div_t_vw, der.t_dw

    def tr(left: SymbolExpr, right: SymbolExpr) -> Fraction:
        return _trace_integral_product(left, right, m)

    # ---- part 1 sub-terms -------------------------------------------------
    p1_engine: Dict[str, Fraction] = {
        key: tr(ctx.cvw, part) for key, part in ctx.dtpow_parts.items()}
    p1_printed = {
        "ric": ("I-A", -Fraction(m - 1, 6) * s * g, False, ""),
        "tt_xx": ("I-B", -Fraction(27 * (m - 1), 4) * nt2 * g, False, ""),
        "tt_scalar": ("I-C", Fraction(27 * (m - 1), 4) * nt2 * g, False, ""),
        "div_t": ("I-D", Fraction(0), True,
                  "displayed as 0 via a sign-slipped four-factor trace bracket;"
                  " cancels exactly against I-F"),
        "r_xx": ("I-E", Fraction(0), False, ""),
        "dt_xx": ("I-F", Fraction(0), True,
                  "displayed as 0 via the same bracket; cancels exactly"
                  " against I-D"),
        "e_scalar": ("I-G", Fraction(m - 1) * (s / 4 - Fraction(3, 4) * nt2) * g,
                     False, ""),
        "dt4": ("I-H", Fraction(0), False,
                "four-form channel; no displayed evaluation, trace vanishes"),
    }
    for key, (label, printed, reconciled, note) in p1_printed.items():
        report.entries.append(_entry(label, p1_engine[key], printed,
                                     reconciled, note))
    if p1_engine["div_t"] + p1_engine["dt_xx"]:
        report.convention_notes.append(
            "I-D + I-F failed to cancel; part-1 pipeline inconsistent")

    # ---- part 2 sub-terms ---------------------------------------------------
    ab_parts = ctx.ab_printed_parts
    parts_m, parts_m1, parts_m2 = ctx.delta_inv_parts
    # the trace keeps only the x-degree-0 terms of the right factor
    sm = SymbolExpr.sum_of(jet.n, parts_m.values())
    sm1 = SymbolExpr.sum_of(jet.n, parts_m1.values())

    report.entries.append(_entry(
        "II-1-A", tr(ab_parts["s0_tt"], sm),
        Fraction(1, 16) * nt2 * g - Fraction(1, 16) * tt,
        note="displayed with a dangling summation index; printed value read"
             " without the extra index sum"))
    report.entries.append(_entry(
        "II-1-B", tr(ab_parts["s0_r"], sm),
        Fraction(1, 4) * s * g - Fraction(1, 2) * ric_vw,
        note="displayed curvature term carries the opposite sign pairing;"
             " the engine keeps the jet-consistent pairing, which reproduces"
             " exactly this displayed value"))
    report.entries.append(_entry(
        "II-1-C", tr(ab_parts["s0_dt"], sm), -Fraction(1, 4) * divt))
    report.entries.append(_entry(
        "II-1-D", tr(ab_parts["s0_tdw"], sm), -Fraction(1, 4) * tdw))

    report.entries.append(_entry(
        "II-2-A", tr(ab_parts["s1_tt"], sm1),
        -Fraction(9, 4) * nt2 * g + Fraction(3, 4) * tt,
        note="reference chain value; the strict composition ordering of the"
             " grade-1 cross term shifts this sub-term, see lemma36_diff"))
    report.entries.append(_entry(
        "II-2-B", tr(ab_parts["s1_dw"], sm1), Fraction(9, 2) * tdw))

    s2 = ab_parts["s2"]
    p2_3_printed = {
        "ric": ("II-3-A", Fraction(m, 6) * s * g - Fraction(1, 3) * ric_vw,
                False, ""),
        "tt_xx": ("II-3-B", Fraction(27, 4) * (2 - m) * nt2 * g
                  - Fraction(9, 4) * tt, True,
                  "compensating pair with II-3-C: the engine channel carries"
                  " (27/4) m |T|^2 g - (9/4) TT (the displayed |T|^2 content"
                  " is shuffled between the two displays); pair sum matches"
                  " exactly"),
        "tt_scalar": ("II-3-C", Fraction(27, 4) * (m - 1) * nt2 * g, True,
                      "compensating pair with II-3-B: the engine channel"
                      " carries -(27/4)(m-1) |T|^2 g, the negative of the"
                      " display; pair sum matches exactly"),
        "div_t": ("II-3-D", Fraction(3 * (m - 1), 2) * divt, False, ""),
        "r_xx": ("II-3-E", Fraction(0), False, ""),
        "dt_xx": ("II-3-F", -Fraction(3 * (m + 1), 2) * divt, False, ""),
        "e_scalar": ("II-3-G", (1 - m) * (s / 4 - Fraction(3, 4) * nt2) * g,
                     False, ""),
        "dt4": ("II-3-H", Fraction(0), False, ""),
    }
    p2_3_engine: Dict[str, Fraction] = {}
    for key, (label, printed, reconciled, note) in p2_3_printed.items():
        p2_3_engine[key] = tr(s2, parts_m2[key])
        report.entries.append(_entry(label, p2_3_engine[key], printed,
                                     reconciled, note))
    pair_sum_printed = (p2_3_printed["tt_xx"][1] + p2_3_printed["tt_scalar"][1])
    if p2_3_engine["tt_xx"] + p2_3_engine["tt_scalar"] != pair_sum_printed:
        report.convention_notes.append(
            "II-3-B + II-3-C failed to compensate; part-2 pipeline inconsistent")

    def alpha_trace(left: SymbolExpr, right: SymbolExpr, order: int) -> Fraction:
        """The |alpha| = order Leibniz terms of left o right, traced."""
        return sum((tr(dl, dr) for dl, dr in leibniz_pairs(
            left, x_partials(right, order), (order,))), Fraction(0))

    report.entries.append(_entry(
        "II-4-A", alpha_trace(s2, parts_m1["ric_jet"], 1),
        Fraction(2, 3) * (2 * ric_vw - s * g)))
    report.entries.append(_entry(
        "II-4-B", alpha_trace(s2, parts_m1["r_jet"], 1), Fraction(0)))
    report.entries.append(_entry(
        "II-4-C", alpha_trace(s2, parts_m1["dt_jet"], 1), 6 * divt))
    report.entries.append(_entry(
        "II-5", alpha_trace(ctx.ab_printed[1], sm, 1), Fraction(0)))
    report.entries.append(_entry(
        "II-6", alpha_trace(s2, parts_m["r_jet"], 2),
        -Fraction(1, 3) * (2 * ric_vw - s * g)))

    # ---- totals -------------------------------------------------------------
    p1 = ctx.part1().value
    p1c = ctx.part1_closed().value
    p2 = ctx.part2("printed").value
    p2c = ctx.part2_closed().value
    p2_composed = ctx.part2("composed").value
    thm = ctx.theorem().value
    metric = ctx.metric().value

    def total_row(engine: Fraction, printed: Fraction) -> Dict[str, str]:
        return {"engine": format_rational(engine),
                "printed": format_rational(printed),
                "match": "true" if engine == printed else "false"}

    report.totals["part1"] = total_row(p1, p1c)
    report.totals["part2"] = total_row(p2, p2c)
    report.totals["theorem"] = total_row(p1 + p2, thm)
    report.totals["metric"] = total_row(metric, -der.g_vw)
    report.totals["part2_composed_vs_printed_shift"] = total_row(
        p2_composed - p2, Fraction(3, 4) * tt)

    # ---- grade-by-grade product-symbol comparison ---------------------------
    c2, c1, c0 = ctx.ab_composed
    g2, g1, g0 = ctx.ab_printed
    diff_rows = _expr_diff_terms(c1, g1)
    report.lemma36_diff = {
        "grade2_equal": c2 == g2,
        "grade1_equal": c1 == g1,
        "grade0_equal": c0 == g0,
        "differing_terms": diff_rows,
        "density_shift": format_rational(p2_composed - p2),
        "density_shift_formula": "3/4 * sum_{j,l} T(v,e_j,e_l) T(w,e_j,e_l)",
    }

    report.convention_notes.extend(_CONVENTION_NOTES)
    return report


_CONVENTION_NOTES = (
    "torsion prefactor of the zeroth-order Dirac symbol: the chain uses"
    " 1/4 on increasing triples as displayed; the operator definition"
    " itself carries 3/2 (ratio 6) and the connection-correction"
    " contraction carries 9/2 (ratio 18); only 1/4 is consistent with"
    " the displayed product-symbol grades and the closed forms",
    "part-1 closed form: the bracket is -3(m-1)/4 |T|^2 g(v,w); the"
    " stray 73/16 |T|^2 display belongs to the part-1 + part-2 total"
    " only",
    "grade-0 product-symbol curvature channel: displayed index pairing"
    " is off by one transposition (a sign); the engine keeps the"
    " jet-consistent pairing, which matches the displayed evaluation"
    " of that channel (II-1-B)",
    "grade-1 product-symbol cross term: displayed as"
    " sigma_1(B) sigma_0(A) instead of the composition's"
    " sigma_0(A) sigma_1(B); the closed forms track the displayed"
    " order; strict composition shifts the part-2 density by"
    " +3/4 sum T(v,e_j,e_l)T(w,e_j,e_l), i.e. a -13/16 coefficient in"
    " place of -25/16 in the end-to-end density",
    "four-factor trace display: the bracket v_j w_l + v_l w_j has a"
    " sign slip (the trace gives -v_j w_l + v_l w_j); its two uses"
    " (I-D, I-F) produce opposite nonzero values that cancel in the"
    " part-1 total",
    "two torsion double sums are displayed with dangling summation"
    " indices (II-1-A, II-3-B); the engine asserts its first-principles"
    " traces, which match the values read without the extra sum",
    "the torsion-square channels of the grade-2 product against the"
    " order -(2m+2) symbol (II-3-B, II-3-C) are displayed with their"
    " |T|^2 g content shuffled: the engine finds (27/4) m |T|^2 g -"
    " (9/4) TT and -(27/4)(m-1) |T|^2 g respectively; the displayed"
    " pair and the engine pair have identical sums",
)
