"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  All comparisons are exact rational equality.

Two criteria compare the engine against *displayed* reference expressions
that are reproducibly wrong and are therefore expected failures, kept
red-by-design with strict xfail markers and fully characterized companions:

* criterion 3, four-factor family: the displayed bracket (v_j w_l + v_l w_j)
  has a sign slip; the trace gives (-v_j w_l + v_l w_j).  The corrected
  identity is asserted in a companion test.
* criterion 5: the displayed grade-1 product symbol swaps one cross term
  (sigma_1(B) sigma_0(A) in place of sigma_0(A) sigma_1(B)); grades 2 and 0
  match the strict composition exactly, grade 1 does not.  The closed-form
  densities track the displayed order, and the induced density shift is
  exactly (3/4) sum_jl T(v,e_j,e_l) T(w,e_j,e_l) (companion test below and
  in tests/test_residue.py).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from wres_torsion.clifford import (
    CliffordElement,
    build_gamma,
    trace,
    trace_via_rep,
)
from wres_torsion.geometry import (
    derived_scalars,
    make_point_jet,
    random_point_jet,
)
from wres_torsion.numerics import GaussianRational
from wres_torsion.residue import (
    audit,
    metric_density,
    part1_closed,
    part1_density,
    part2_closed,
    part2_density,
    sphere_moment,
    sphere_moment_bruteforce,
    theorem_density,
)
from wres_torsion.symbols import build_sigma_ab_composed, build_sigma_ab_printed

from test_clifford import dense, dense_mul

TRIALS_PER_M = 25


def _report(k: int, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {k}: {status} - {detail} ({time.monotonic() - started:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Clifford foundation
# ---------------------------------------------------------------------------

def test_criterion_1_clifford_foundation():
    started = time.monotonic()
    for m in (1, 2, 3):
        n = 2 * m
        rep = build_gamma(m)
        size = rep.dim
        gammas = [dense(g) for g in rep.matrices]
        for i in range(n):
            for j in range(n):
                ab = dense_mul(gammas[i], gammas[j])
                ba = dense_mul(gammas[j], gammas[i])
                for r in range(size):
                    for c in range(size):
                        want = GaussianRational(-2 if (i == j and r == c) else 0)
                        assert ab[r][c] + ba[r][c] == want
        assert trace(CliffordElement.identity(n), m) == GaussianRational(1 << m)
    elapsed = time.monotonic() - started
    _report(1, True, "gamma anticommutators exact, tr[id] = 2^m, m in {1,2,3}",
            started)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. trace oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_trace_oracle_500_elements():
    started = time.monotonic()
    rng = random.Random(2024)
    for m in (1, 2, 3):
        n = 2 * m
        rep = build_gamma(m)
        for _ in range(500):
            elem = CliffordElement.zero(n)
            for _ in range(rng.randint(1, 10)):
                word = rng.randrange(1 << n)
                coeff = GaussianRational(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                elem = elem + CliffordElement(n, {word: coeff})
            assert trace(elem, m) == trace_via_rep(elem, rep)
    elapsed = time.monotonic() - started
    _report(2, True, "trace == matrix-oracle trace on 500 elements per m", started)
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. printed trace identities
# ---------------------------------------------------------------------------

def _random_vw(rng, n):
    v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    w = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    return v, w


def _six_bracket(v, w, g_vw, j, l, jh, lh):
    d = lambda a, b: 1 if a == b else 0
    return (v[lh] * w[l] * d(j, jh) - v[lh] * w[j] * d(l, jh)
            - v[jh] * w[l] * d(j, lh) + v[jh] * w[j] * d(l, lh)
            - v[l] * w[lh] * d(j, jh) + v[l] * w[jh] * d(j, lh)
            + v[j] * w[lh] * d(l, jh) - v[j] * w[jh] * d(l, lh)
            - d(j, lh) * d(l, jh) * g_vw + d(j, jh) * d(l, lh) * g_vw)


def test_criterion_3_six_factor_identity():
    started = time.monotonic()
    for m in (2, 3):
        n = 2 * m
        gens = [CliffordElement.generator(n, i) for i in range(1, n + 1)]
        pair = [[gens[j] * gens[l] for l in range(n)] for j in range(n)]
        rng = random.Random(300 + m)
        for _ in range(100):
            v, w = _random_vw(rng, n)
            cvw = (CliffordElement.from_vector(n, v)
                   * CliffordElement.from_vector(n, w))
            g_vw = sum(a * b for a, b in zip(v, w))
            scale = 1 << m
            for j in range(n):
                for l in range(n):
                    if j == l:
                        continue
                    left = cvw * pair[j][l]
                    for jh in range(n):
                        for lh in range(n):
                            if jh == lh:
                                continue
                            t = trace(left * pair[jh][lh], m)
                            br = _six_bracket(v, w, g_vw, j, l, jh, lh)
                            assert t == GaussianRational(br * scale)
    elapsed = time.monotonic() - started
    _report(3, True, "six-factor trace identity, 100 (v,w) per m in {2,3}",
            started)
    assert elapsed < 30.0


def test_criterion_3_eight_factor_identities():
    started = time.monotonic()
    for m in (2, 3):
        n = 2 * m
        gens = [CliffordElement.generator(n, i) for i in range(1, n + 1)]
        rng = random.Random(800 + m)
        for _ in range(100):
            v, w = _random_vw(rng, n)
            cv = CliffordElement.from_vector(n, v)
            cw = CliffordElement.from_vector(n, w)
            # random four-generator right factor c_j c_l c_jh c_lh (j!=l, jh!=lh)
            j, l = rng.sample(range(n), 2)
            jh, lh = rng.sample(range(n), 2)
            x = gens[j] * gens[l] * gens[jh] * gens[lh]
            lhs = CliffordElement.zero(n)
            acc = GaussianRational(0)
            for f in range(n):
                acc = acc + trace(cv * gens[f] * cw * gens[f] * x, m)
            rhs = trace(cv * cw * x, m) * (2 * m)
            for f in range(n):
                rhs = rhs - trace(cv * gens[f] * x, m) * GaussianRational(2 * w[f])
            assert acc == rhs
            # symmetrized two-slot insertion
            for _pair in range(4):
                a, b = rng.randrange(n), rng.randrange(n)
                lhs2 = trace(cv * gens[a] * cw * gens[b] * x, m) \
                    + trace(cv * gens[b] * cw * gens[a] * x, m)
                rhs2 = (trace(cv * cw * x, m) * GaussianRational(2 if a == b else 0)
                        - trace(cv * gens[b] * x, m) * GaussianRational(2 * w[a])
                        - trace(cv * gens[a] * x, m) * GaussianRational(2 * w[b]))
                assert lhs2 == rhs2
    elapsed = time.monotonic() - started
    _report(3, True, "eight-factor region identities, 100 (v,w) per m", started)
    assert elapsed < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="the displayed four-factor bracket (v_j w_l + v_l w_j) has a sign "
           "slip; the exact trace gives (-v_j w_l + v_l w_j).  Its two "
           "downstream uses produce compensating nonzero values (audit "
           "entries I-D and I-F), so every total is unaffected.  The "
           "corrected identity is asserted in the companion test below.")
def test_criterion_3_four_factor_identity_as_displayed():
    started = time.monotonic()
    for m in (2, 3):
        n = 2 * m
        gens = [CliffordElement.generator(n, i) for i in range(1, n + 1)]
        rng = random.Random(400 + m)
        for _ in range(100):
            v, w = _random_vw(rng, n)
            cvw = (CliffordElement.from_vector(n, v)
                   * CliffordElement.from_vector(n, w))
            scale = 1 << m
            for j in range(n):
                for l in range(n):
                    if j == l:
                        continue
                    t = trace(cvw * gens[j] * gens[l], m)
                    if t != GaussianRational((v[j] * w[l] + v[l] * w[j]) * scale):
                        _report(3, False,
                                "four-factor display: tr(c(v)c(w)c_j c_l) != "
                                "(v_j w_l + v_l w_j) tr[id]; corrected bracket "
                                "is (-v_j w_l + v_l w_j)", started)
                        assert t == GaussianRational(
                            (v[j] * w[l] + v[l] * w[j]) * scale)
    _report(3, True, "four-factor identity as displayed", started)


def test_criterion_3_four_factor_identity_corrected():
    started = time.monotonic()
    for m in (2, 3):
        n = 2 * m
        gens = [CliffordElement.generator(n, i) for i in range(1, n + 1)]
        rng = random.Random(400 + m)
        for _ in range(100):
            v, w = _random_vw(rng, n)
            cvw = (CliffordElement.from_vector(n, v)
                   * CliffordElement.from_vector(n, w))
            scale = 1 << m
            for j in range(n):
                for l in range(n):
                    if j == l:
                        continue
                    t = trace(cvw * gens[j] * gens[l], m)
                    assert t == GaussianRational(
                        (-v[j] * w[l] + v[l] * w[j]) * scale)
    _report(3, True, "four-factor identity with the corrected bracket", started)


# ---------------------------------------------------------------------------
# 4. sphere moments
# ---------------------------------------------------------------------------

def test_criterion_4_sphere_moments():
    started = time.monotonic()

    def multidegrees(dims, total):
        if dims == 1:
            for a in range(total + 1):
                yield (a,)
            return
        for head in range(total + 1):
            for tail in multidegrees(dims - 1, total - head):
                yield (head,) + tail

    for n in (4, 6):
        for alpha in multidegrees(n, 6):
            assert sphere_moment(alpha, n) == sphere_moment_bruteforce(alpha, n)
        # displayed degree-2 and degree-4 formulas
        for a in range(n):
            for b in range(n):
                alpha = [0] * n
                alpha[a] += 1
                alpha[b] += 1
                want = Fraction(1 if a == b else 0, n)
                assert sphere_moment(tuple(alpha), n) == want
        for a in range(n):
            for b in range(n):
                for f in range(n):
                    for g in range(n):
                        alpha = [0] * n
                        for i in (a, b, f, g):
                            alpha[i] += 1
                        d = lambda x, y: 1 if x == y else 0
                        want = Fraction(d(a, b) * d(f, g) + d(a, f) * d(b, g)
                                        + d(a, g) * d(b, f), n * (n + 2))
                        assert sphere_moment(tuple(alpha), n) == want
    elapsed = time.monotonic() - started
    _report(4, True, "closed moments == pairing enumeration through degree 6, "
                     "n in {4,6}; displayed formulas exact", started)
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 5. product-symbol grades (expected failure on grade 1)
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="grades 2 and 0 of the strict Leibniz composition equal the "
           "displayed expressions exactly, grade 1 does not: the displayed "
           "form carries sigma_1(B) sigma_0(A) where the composition rule "
           "produces sigma_0(A) sigma_1(B), and the two differ as Clifford "
           "elements on torsion jets.  The audit report carries the per-term "
           "diff (lemma36_diff) and the exact induced density shift "
           "(3/4) sum T(v,e_j,e_l)T(w,e_j,e_l); the closed-form densities "
           "and the end-to-end certification track the displayed chain.")
def test_criterion_5_lemma36_reproduction():
    started = time.monotonic()
    mismatch = None
    for m in (2, 3):
        for seed in range(TRIALS_PER_M):
            jet = random_point_jet(seed, m)
            c2, c1, c0 = build_sigma_ab_composed(jet)
            p2, p1, p0 = build_sigma_ab_printed(jet)
            assert c2 == p2, "grade 2 must match"
            assert c0 == p0, "grade 0 must match"
            if c1 != p1 and mismatch is None:
                report = audit(jet, m)
                diff = report.lemma36_diff
                assert diff["differing_terms"], "audit must carry per-term diff"
                mismatch = (m, seed, len(diff["differing_terms"]),
                            diff["density_shift"])
    if mismatch:
        _report(5, False,
                f"grade-1 mismatch at m={mismatch[0]} seed={mismatch[1]}: "
                f"{mismatch[2]}+ differing terms in audit report, density "
                f"shift {mismatch[3]} (== 3/4 sum T(v,.)T(w,.))", started)
        raise AssertionError(
            "displayed grade-1 product symbol is not the Leibniz composition "
            "(cross-term ordering); see audit lemma36_diff and ledger")
    _report(5, True, "all grades reproduce the displayed expressions", started)


def test_criterion_5_companion_grades_two_and_zero():
    started = time.monotonic()
    for m in (2, 3):
        for seed in range(TRIALS_PER_M):
            jet = random_point_jet(seed, m)
            c2, c1, c0 = build_sigma_ab_composed(jet)
            p2, p1, p0 = build_sigma_ab_printed(jet)
            assert c2 == p2 and c0 == p0
    elapsed = time.monotonic() - started
    _report(5, True, "companion: grades 2 and 0 match the composition exactly "
                     f"on {TRIALS_PER_M} jets per m", started)
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 6. part 1
# ---------------------------------------------------------------------------

def test_criterion_6_part1():
    started = time.monotonic()
    for m in (2, 3):
        for seed in range(TRIALS_PER_M):
            jet = random_point_jet(seed, m)
            assert part1_density(jet, m).value == part1_closed(jet, m).value
    _report(6, True, f"part1 == closed form on {TRIALS_PER_M} jets per m "
                     "(coefficients (m-1)/12 and -3(m-1)/4)", started)


# ---------------------------------------------------------------------------
# 7. part 2
# ---------------------------------------------------------------------------

def test_criterion_7_part2():
    started = time.monotonic()
    for m in (2, 3):
        for seed in range(TRIALS_PER_M):
            jet = random_point_jet(seed, m)
            assert part2_density(jet, m, "printed").value \
                == part2_closed(jet, m).value
    _report(7, True, f"part2 == closed form on {TRIALS_PER_M} jets per m "
                     "(coefficients (12m+61)/16, -25/16, 11/4, 17/4)", started)


# ---------------------------------------------------------------------------
# 8. theorem end-to-end
# ---------------------------------------------------------------------------

def test_criterion_8_theorem_end_to_end():
    started = time.monotonic()
    for m in (2, 3):
        n = 2 * m
        for seed in range(TRIALS_PER_M):
            jet = random_point_jet(seed, m)
            total = part1_density(jet, m).value + part2_density(jet, m).value
            assert total == theorem_density(jet, m).value
        zt = random_point_jet(7, m, with_torsion=False, with_torsion_jet=False)
        der = derived_scalars(zt)
        total = part1_density(zt, m).value + part2_density(zt, m).value
        assert total == -Fraction(1, 6) * der.einstein_vw

        e = lambda i: [Fraction(1) if k == i else Fraction(0) for k in range(n)]
        jet = make_point_jet(m, T=[(0, 1, 2, 1)], v=e(3), w=e(3))
        assert part1_density(jet, m).value + part2_density(jet, m).value \
            == Fraction(73, 16)
        jet = make_point_jet(m, T=[(0, 1, 2, 1)], v=e(0), w=e(0))
        assert part1_density(jet, m).value + part2_density(jet, m).value \
            == Fraction(73, 16) - 2 * Fraction(25, 16)
        jet = make_point_jet(m, dT1=[(0, 0, 1, 2, 1)], v=e(1), w=e(2))
        assert part1_density(jet, m).value + part2_density(jet, m).value \
            == Fraction(11, 4)
        dw = [[Fraction(0)] * n for _ in range(n)]
        dw[2][1] = Fraction(1)
        jet = make_point_jet(m, T=[(0, 1, 2, 1)], v=e(0), w=e(3), dw=dw)
        assert part1_density(jet, m).value + part2_density(jet, m).value \
            == Fraction(17, 4)
    _report(8, True, "part1 + part2 == theorem density; zero-torsion gives "
                     "-1/6 G(v,w); one-hot extraction recovers 73/16, -25/16, "
                     "11/4, 17/4", started)


# ---------------------------------------------------------------------------
# 9. m-independence of the torsion density
# ---------------------------------------------------------------------------

def test_criterion_9_torsion_density_m_independent():
    started = time.monotonic()
    rng = random.Random(99)
    for trial in range(5):
        T, dT1 = [], []
        for a in range(4):
            for j in range(a + 1, 4):
                for l in range(j + 1, 4):
                    T.append((a, j, l, Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
                    for b in range(4):
                        dT1.append((b, a, j, l,
                                    Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
        v4 = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
        w4 = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
        dw4 = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
               for _ in range(4)]
        totals = {}
        for m in (2, 3):
            n = 2 * m
            pad = lambda xs: list(xs) + [Fraction(0)] * (n - 4)
            dw = [[Fraction(0)] * n for _ in range(n)]
            for j in range(4):
                for g in range(4):
                    dw[j][g] = dw4[j][g]
            jet = make_point_jet(m, T=T, dT1=dT1, v=pad(v4), w=pad(w4), dw=dw)
            totals[m] = part1_density(jet, m).value + part2_density(jet, m).value
        assert totals[2] == totals[3]
    _report(9, True, "torsion density bit-identical between m=2 and m=3 on "
                     "matched data", started)


# ---------------------------------------------------------------------------
# 10. metric functional
# ---------------------------------------------------------------------------

def test_criterion_10_metric_functional():
    started = time.monotonic()
    rng = random.Random(1010)
    for m in (2, 3):
        n = 2 * m
        for _ in range(50):
            v, w = _random_vw(rng, n)
            jet = make_point_jet(m, v=v, w=w)
            g = sum(a * b for a, b in zip(v, w))
            assert metric_density(jet, m).value == -g
    _report(10, True, "metric density == -g(v,w) on 100 random (v,w)", started)


# ---------------------------------------------------------------------------
# 11. audit integrity
# ---------------------------------------------------------------------------

def test_criterion_11_audit_integrity():
    started = time.monotonic()
    quoted_comparators = ("I-A", "I-E", "II-1-B", "II-2-B", "II-3-A",
                          "II-4-A", "II-5", "II-6")
    for m in (2, 3):
        for seed in (0, 1):
            jet = random_point_jet(seed, m)
            report = audit(jet, m)
            # criterion 8 on the self-consistent chain
            assert report.totals["theorem"]["match"] == "true"
            assert report.totals["part1"]["match"] == "true"
            assert report.totals["part2"]["match"] == "true"
            by_label = {e.label: e for e in report.entries}
            for label in quoted_comparators:
                assert by_label[label].match, label
            # every reconciled display is named with both exact values
            for entry in report.entries:
                if not entry.match:
                    assert entry.reconciled, entry.label
                    assert entry.note, entry.label
            assert report.ok
            # the known display anomalies are reported
            notes = " ".join(report.convention_notes)
            assert "73/16" in notes            # part-1 bracket placement
            assert "prefactor" in notes        # torsion prefactor variants
            assert "sigma_1(B) sigma_0(A)" in notes  # ordering finding
            assert report.lemma36_diff["differing_terms"]
    _report(11, True, "audit reconciles every display discrepancy; quoted "
                      "comparators match exactly; theorem certified on the "
                      "self-consistent chain", started)
