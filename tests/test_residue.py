"""Cosphere moments, trace integrals, density pipelines, and the audit."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from wres_torsion.clifford import CliffordElement, blade_mul
from wres_torsion.geometry import (
    derived_scalars,
    make_point_jet,
    random_point_jet,
)
from wres_torsion import residue
from wres_torsion.numerics import GaussianRational, I, ONE
from wres_torsion.residue import (
    PipelineContext,
    PipelineError,
    _trace_integral_product,
    audit,
    metric_density,
    part1_closed,
    part1_density,
    part2_closed,
    part2_density,
    sphere_moment,
    sphere_moment_bruteforce,
    theorem_density,
    trace_integral,
)
from test_symbols import leibniz_compose
from wres_torsion.symbols import (
    SymbolExpr,
    at_x0,
    build_sigma_ab_printed,
    build_sigma_delta_inv_parts,
    xi_grade,
)


# ---------------------------------------------------------------------------
# sphere moments
# ---------------------------------------------------------------------------

def test_moment_degree_two():
    assert sphere_moment((2, 0, 0, 0), 4) == Fraction(1, 4)


def test_moment_odd_exponent_vanishes():
    assert sphere_moment((1, 1, 0, 0), 4) == 0
    assert sphere_moment((1, 1, 0, 0, 0, 0), 6) == 0


def test_moment_degree_four():
    # brute-force pairing enumeration gives 3/(n(n+2)) and 1/(n(n+2))
    assert sphere_moment((4, 0, 0, 0), 4) == Fraction(1, 8)
    assert sphere_moment((2, 2, 0, 0), 4) == Fraction(1, 24)


@pytest.mark.parametrize("n", [4, 6])
def test_moment_matches_bruteforce_to_degree_six(n):
    def multidegrees(dims, total):
        if dims == 1:
            for a in range(total + 1):
                yield (a,)
            return
        for head in range(total + 1):
            for tail in multidegrees(dims - 1, total - head):
                yield (head,) + tail

    for alpha in multidegrees(n, 6):
        assert sphere_moment(alpha, n) == sphere_moment_bruteforce(alpha, n)


def test_moment_rejects_odd_dimension():
    with pytest.raises(ValueError):
        sphere_moment((2,), 3)


# ---------------------------------------------------------------------------
# trace integrals
# ---------------------------------------------------------------------------

def _symbol_norm_id(n, m):
    e = SymbolExpr(n)
    e.add_term((0,) * n, (0,) * n, -2 * m, 0, ONE)
    return e


def test_trace_integral_identity():
    assert trace_integral(_symbol_norm_id(4, 2), 2).value == 1


def test_trace_integral_cv_cw():
    n, m = 4, 2
    rng = random.Random(1)
    for _ in range(10):
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        w = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        cv = CliffordElement.from_vector(n, v)
        cw = CliffordElement.from_vector(n, w)
        e = SymbolExpr.from_clifford(cv * cw, normpow=-2 * m)
        g = sum(a * b for a, b in zip(v, w))
        assert trace_integral(e, m).value == -g


def test_trace_integral_ricci_contraction():
    # sum Ric_ab xi_a xi_b ||xi||^{-2m-2} integrates to s/(2m)
    m = 2
    jet = random_point_jet(4, m, with_torsion=False, with_torsion_jet=False)
    der = derived_scalars(jet)
    n = jet.n
    e = SymbolExpr(n)
    for (a, b), x in der.ric.items():
        xi = tuple((1 if i == a else 0) + (1 if i == b else 0) for i in range(n))
        e.add_term((0,) * n, xi, -2 * m - 2, 0, GaussianRational(x))
    assert trace_integral(e, m).value == der.s / (2 * m)


def test_trace_integral_homogeneity_error():
    e = SymbolExpr(4)
    e.add_term((0,) * 4, (0,) * 4, -2, 0, ONE)
    with pytest.raises(PipelineError, match="homogeneity"):
        trace_integral(e, 2)


def test_trace_integral_x_dependence_error():
    e = SymbolExpr(4)
    e.add_term((1, 0, 0, 0), (0,) * 4, -4, 0, ONE)
    with pytest.raises(PipelineError, match="x-dependent"):
        trace_integral(e, 2)


def test_trace_integral_imaginary_error():
    e = SymbolExpr(4)
    e.add_term((0,) * 4, (0,) * 4, -4, 0, I)
    with pytest.raises(PipelineError, match="imaginary"):
        trace_integral(e, 2)


def _phase_coeff(xi, word, phase, r):
    """i^(|xi| + grade(word) - phase) r: the coefficient the phase rule allows."""
    e = (sum(xi) + bin(word).count("1") - phase) % 4
    value = -r if e >= 2 else r
    return GaussianRational(0, value) if e % 2 else GaussianRational(value)


def test_fast_product_trace_equals_generic():
    rng = random.Random(8)
    n, m = 4, 2
    for trial in range(30):
        left = SymbolExpr(n)
        right = SymbolExpr(n)
        phase = trial % 2  # both even, or both odd (an even product)
        for _ in range(6):
            xi = [0] * n
            for _ in range(rng.randint(0, 2)):
                xi[rng.randrange(n)] += 1
            word = rng.randrange(1 << n)
            r = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            left.add_term((0,) * n, tuple(xi), -sum(xi), word,
                          _phase_coeff(xi, word, phase, r))
        for _ in range(6):
            xi = [0] * n
            for _ in range(rng.randint(0, 2)):
                xi[rng.randrange(n)] += 1
            xd = [0] * n
            if rng.random() < 0.4:
                xd[rng.randrange(n)] += 1
            word = rng.randrange(1 << n)
            r = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            right.add_term(tuple(xd), tuple(xi), -2 * m - sum(xi), word,
                           _phase_coeff(xi, word, phase, r))
        generic = trace_integral(at_x0(xi_grade(left * right, -2 * m)), m).value
        assert _trace_integral_product(left, right, m) == generic


def _oracle_trace(expr, n):
    """sum of coefficient * sphere_moment over the identity-word terms, as an
    exact complex number that must be real."""
    total = GaussianRational(0)
    for key in expr.terms:
        if not key[3]:
            total += expr.coefficient(key) * sphere_moment(key[1], n)
    assert not total.im
    return total.re


def _oracle_product_trace(left, right, m):
    """The x-free, grade -2m part of left * right traced pair by pair: the
    two exact coefficients, the sign of w * w, and the sphere moment of the
    summed xi-exponent."""
    total = GaussianRational(0)
    for ka in left.terms:
        for kb in right.terms:
            (xa, xia, pa, wa), (xb, xib, pb, wb) = ka, kb
            if any(xa) or any(xb) or wa != wb or sum(xia) + pa + sum(xib) + pb != -2 * m:
                continue
            xi = tuple(a + b for a, b in zip(xia, xib))
            total += (left.coefficient(ka) * right.coefficient(kb)
                      * (blade_mul(wa, wb)[0] * sphere_moment(xi, left.n)))
    assert not total.im
    return total.re


def _random_traceable(rng, n, phase, orders, x_share=0.0, words=(0, 0b11, 0b101, 0b1110)):
    """Eight phase-consistent terms whose xi-orders |nu| + p are drawn from
    ``orders`` and whose words from ``words``; a share of them x-dependent.
    Exponents are raised by 2 and at most one of xi_1, xi_2 by 1, so that
    many term pairs share a parity and have a moment."""
    expr = SymbolExpr(n)
    for _ in range(8):
        xi = [0] * n
        for _ in range(rng.randint(0, 2)):
            xi[rng.randrange(n)] += 2
        if rng.random() < 0.5:
            xi[rng.randrange(2)] += 1
        xd = [0] * n
        if rng.random() < x_share:
            xd[rng.randrange(n)] += 1
        word = rng.choice(words)
        r = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        expr.add_term(tuple(xd), tuple(xi), rng.choice(orders) - sum(xi), word,
                      _phase_coeff(xi, word, phase, r))
    return expr


@pytest.mark.parametrize("n", [4, 6])
def test_trace_kernel_matches_moment_oracle(n):
    m = n // 2
    rng = random.Random(n)
    for trial in range(40):
        phase = trial % 2
        left = _random_traceable(rng, n, phase, (0, 1, 2), x_share=0.3)
        right = _random_traceable(rng, n, phase, (-2 * m, -2 * m - 1, -2 * m - 2),
                                  x_share=0.3)
        assert _trace_integral_product(left, right, m) == \
            _oracle_product_trace(left, right, m)
        single = _random_traceable(rng, n, 0, (-2 * m,), words=(0, 0, 0b11))
        assert trace_integral(single, m).value == _oracle_trace(single, n)


def test_trace_kernel_exponents_below_128_add_without_carry():
    n, m = 4, 2
    left = SymbolExpr(n, {((0,) * n, (127, 1, 0, 0), -128, 0): ONE})
    right = SymbolExpr(n, {((0,) * n, (1, 127, 0, 0), -132, 0): ONE})
    value = _trace_integral_product(left, right, m)
    assert value == _oracle_product_trace(left, right, m) != 0


def test_trace_kernel_rejects_exponent_128():
    n, m = 4, 2
    big = SymbolExpr(n, {((0,) * n, (128, 0, 0, 0), -132, 0): ONE})
    with pytest.raises(PipelineError, match="128"):
        trace_integral(big, m)
    # packed, 128 + 128 would carry into xi_2's byte: the code of xi_2^1,
    # an odd monomial, whose moment 0 would be returned silently
    left = SymbolExpr(n, {((0,) * n, (128, 0, 0, 0), -128, 0): ONE})
    with pytest.raises(PipelineError, match="128"):
        _trace_integral_product(left, big, m)


def test_odd_phase_traces_raise():
    n, m = 4, 2
    # c(v) against i ||xi||^-4 c_1: an odd times an even symbol has an
    # imaginary trace (here c_1 * i c_1 = -i, so tr[.]/tr[id] = -i)
    cv = SymbolExpr.from_clifford(CliffordElement.from_vector(n, [1, 0, 0, 0]))
    even = SymbolExpr(n, {((0,) * n, (0,) * n, -2 * m, 0b0001): I})
    assert cv.phase == 1 and even.phase == 0
    with pytest.raises(PipelineError, match="imaginary part -1$"):
        _trace_integral_product(cv, even, m)
    with pytest.raises(PipelineError, match="imaginary part -1$"):
        trace_integral(cv * even, m)
    # two odd factors trace to a real number again
    assert _trace_integral_product(cv, cv.scale(I) * even, m) == \
        trace_integral(cv * (cv.scale(I) * even), m).value


@pytest.mark.parametrize("method", ["part1", "metric"])
@pytest.mark.parametrize("bad, message", [
    (((1, 0, 0, 0), (0,) * 4, -4, 0), "x-dependent"),
    (((0,) * 4, (2, 0, 0, 0), -4, 0), "homogeneity -2, expected -4"),
])
def test_cvw_trace_guards(monkeypatch, method, bad, message):
    """part1 and metric trace c(v)c(w) against one symbol by word; that
    symbol must still be x-free of homogeneity -2m, as trace_integral
    demanded of the full product."""
    import wres_torsion.residue as residue

    ctx = residue.PipelineContext(random_point_jet(3, 2), 2)
    expr = SymbolExpr(4, {bad: ONE})
    ctx.dtpow_parts = {"ric": expr}
    monkeypatch.setattr(residue, "build_sigma_delta_lead", lambda jet: expr)
    with pytest.raises(PipelineError, match=message):
        getattr(ctx, method)()


# ---------------------------------------------------------------------------
# metric functional
# ---------------------------------------------------------------------------

def test_metric_examples():
    m, n = 2, 4
    jet = make_point_jet(m, v=[1, 0, 0, 0], w=[1, 0, 0, 0])
    assert metric_density(jet, m).value == -1
    jet = make_point_jet(m, v=[1, 0, 0, 0], w=[0, 1, 0, 0])
    assert metric_density(jet, m).value == 0
    jet = make_point_jet(m, v=[2, 1, 0, 0], w=[1, 0, 0, 0])
    assert metric_density(jet, m).value == -2


@pytest.mark.parametrize("m", [1, 2, 3])
def test_metric_equals_minus_g_random(m):
    for seed in range(5):
        jet = random_point_jet(seed, m)
        assert metric_density(jet, m).value == -derived_scalars(jet).g_vw


# ---------------------------------------------------------------------------
# part 1
# ---------------------------------------------------------------------------

def test_part1_flat_zero_torsion():
    jet = make_point_jet(2)
    assert part1_density(jet, 2).value == 0


def test_part1_closed_coefficients():
    # s = 12, g(v,w) = 1, T = 0, m = 2 -> (m-1)/12 * 12 = 1
    n, kappa = 4, Fraction(1)
    entries = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    val = kappa * ((a == c) * (b == d) - (a == d) * (b == c))
                    if val and a < b and c < d and (a, b) <= (c, d):
                        entries.append((a, b, c, d, val))
    jet = make_point_jet(2, R=entries, v=[1, 0, 0, 0], w=[1, 0, 0, 0])
    assert derived_scalars(jet).s == 12
    assert part1_closed(jet, 2).value == 1
    # s = 0, |T|^2 = 1, g = 1, m = 3 -> -3(m-1)/4 = -3/2
    jet3 = make_point_jet(3, T=[(0, 1, 2, 1)], v=[0, 0, 0, 1, 0, 0],
                          w=[0, 0, 0, 1, 0, 0])
    assert part1_closed(jet3, 3).value == Fraction(-3, 2)


@pytest.mark.parametrize("m", [2, 3])
def test_part1_matches_closed(m):
    for seed in range(4):
        jet = random_point_jet(seed, m)
        assert part1_density(jet, m).value == part1_closed(jet, m).value


@pytest.mark.parametrize("m", [2, 3])
def test_part1_torsion_only_content(m):
    # R = 0, dT = 0: the squared-torsion channels cancel pairwise and the
    # endomorphism channel leaves -3(m-1)/4 |T|^2 g
    jet = random_point_jet(21, m, with_curvature=False, with_torsion_jet=False)
    der = derived_scalars(jet)
    expected = -Fraction(3 * (m - 1), 4) * der.norm_t2 * der.g_vw
    assert part1_density(jet, m).value == expected


# ---------------------------------------------------------------------------
# part 2 and the theorem density
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3])
def test_part2_printed_matches_closed(m):
    for seed in range(3):
        jet = random_point_jet(seed, m)
        assert part2_density(jet, m, "printed").value == part2_closed(jet, m).value


@pytest.mark.parametrize("m", [2, 3])
def test_part2_composed_shift_characterized(m):
    """Strict composition vs reference chain: the difference is exactly
    (3/4) sum_{j,l} T(v,e_j,e_l) T(w,e_j,e_l), frozen here as the
    engine-established value of the grade-1 ordering finding."""
    for seed in range(3):
        jet = random_point_jet(seed, m)
        der = derived_scalars(jet)
        shift = (part2_density(jet, m, "composed").value
                 - part2_density(jet, m, "printed").value)
        assert shift == Fraction(3, 4) * der.tt_vw


def test_part2_flat_constant_w_vanishes():
    jet = random_point_jet(2, 2, with_curvature=False, with_torsion=False,
                           with_torsion_jet=False, with_w_jet=False)
    assert part2_density(jet, 2).value == 0


@pytest.mark.parametrize("m", [2, 3])
def test_part2_curvature_only(m):
    # curvature channel: -1/6 (Ric - s g/2) - (m-1)/12 s g
    jet = random_point_jet(31, m, with_torsion=False, with_torsion_jet=False,
                           with_w_jet=False)
    der = derived_scalars(jet)
    expected = (-Fraction(1, 6) * der.einstein_vw
                - Fraction(m - 1, 12) * der.s * der.g_vw)
    assert part2_density(jet, m).value == expected


def test_part2_closed_examples():
    # |T|^2 = 1, everything else zero, m = 2 -> (12m+61)/16 = 85/16
    jet = make_point_jet(2, T=[(0, 1, 2, 1)], v=[0, 0, 0, 1], w=[0, 0, 0, 1])
    assert part2_closed(jet, 2).value == Fraction(85, 16)
    # one-hot T(v,.)T(w,.) = 2 with |T|^2 g = 1: 85/16 - 2*25/16 = 35/16
    jet = make_point_jet(2, T=[(0, 1, 2, 1)], v=[1, 0, 0, 0], w=[1, 0, 0, 0])
    assert part2_closed(jet, 2).value == Fraction(85 - 50, 16)


def test_part2_via_generic_pipeline():
    """Cross-check the joined product-trace against the fully generic
    compose -> grade -> x0 -> trace route."""
    m = 2
    jet = random_point_jet(13, m)
    s2, s1, s0 = build_sigma_ab_printed(jet)
    s_m, s_m1, s_m2 = (SymbolExpr.sum_of(jet.n, parts.values())
                       for parts in build_sigma_delta_inv_parts(jet))
    full = leibniz_compose(s2 + s1 + s0, s_m + s_m1 + s_m2, 2)
    generic = trace_integral(at_x0(xi_grade(full, -2 * m)), m).value
    assert generic == part2_density(jet, m, "printed").value


@pytest.mark.parametrize("compute", [
    metric_density, part1_density, part1_closed, part2_density,
    lambda jet, m: part2_density(jet, m, "composed"), part2_closed,
    theorem_density, audit,
])
def test_dimension_mismatch_rejected(compute):
    # every closed form too: they read only derived scalars, which exist
    # for any n, so without the check they would return a wrong value
    for jet, m in ((random_point_jet(0, 3), 2), (random_point_jet(0, 2), 3)):
        with pytest.raises(ValueError) as err:
            compute(jet, m)
        assert str(err.value) == f"jet dimension n={jet.n} does not match m={m}"


@pytest.mark.parametrize("m", [2, 3])
def test_theorem_end_to_end(m):
    for seed in range(3):
        jet = random_point_jet(seed, m)
        total = part1_density(jet, m).value + part2_density(jet, m).value
        assert total == theorem_density(jet, m).value


def test_theorem_zero_torsion_is_einstein_functional():
    for m in (2, 3):
        jet = random_point_jet(3, m, with_torsion=False, with_torsion_jet=False)
        der = derived_scalars(jet)
        total = part1_density(jet, m).value + part2_density(jet, m).value
        assert total == -Fraction(1, 6) * der.einstein_vw
        assert theorem_density(jet, m).value == -Fraction(1, 6) * der.einstein_vw


def test_theorem_linearity_example():
    # G(v,w) = 6 with zero torsion gives exactly -1
    n, kappa = 4, Fraction(1)
    entries = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    val = kappa * ((a == c) * (b == d) - (a == d) * (b == c))
                    if val and a < b and c < d and (a, b) <= (c, d):
                        entries.append((a, b, c, d, val))
    jet = make_point_jet(2, R=entries, v=[1, 0, 0, 0], w=[1, 0, 0, 0])
    der = derived_scalars(jet)
    # Ric = 3 delta, s = 12: G(v,v) = 3 - 6 = -3; scale w to land on 6
    jet = make_point_jet(2, R=entries, v=[1, 0, 0, 0], w=[-2, 0, 0, 0])
    der = derived_scalars(jet)
    assert der.einstein_vw == 6
    assert theorem_density(jet, 2).value == -1


@pytest.mark.parametrize("m", [2, 3])
def test_one_hot_coefficient_extraction(m):
    n = 2 * m
    e = lambda i: [Fraction(1) if k == i else Fraction(0) for k in range(n)]

    jet = make_point_jet(m, T=[(0, 1, 2, 1)], v=e(3), w=e(3))
    total = part1_density(jet, m).value + part2_density(jet, m).value
    assert total == Fraction(73, 16)

    jet = make_point_jet(m, T=[(0, 1, 2, 1)], v=e(0), w=e(0))
    total = part1_density(jet, m).value + part2_density(jet, m).value
    assert total == Fraction(73, 16) - 2 * Fraction(25, 16)

    jet = make_point_jet(m, dT1=[(0, 0, 1, 2, 1)], v=e(1), w=e(2))
    total = part1_density(jet, m).value + part2_density(jet, m).value
    assert total == Fraction(11, 4)

    dw = [[Fraction(0)] * n for _ in range(n)]
    dw[2][1] = Fraction(1)
    jet = make_point_jet(m, T=[(0, 1, 2, 1)], v=e(0), w=e(3), dw=dw)
    total = part1_density(jet, m).value + part2_density(jet, m).value
    assert total == Fraction(17, 4)


def test_torsion_density_m_independent():
    """Identical torsion data embedded in n = 4 and n = 6 produces the
    same total density (the torsion coefficients carry no m)."""
    T = [(0, 1, 2, Fraction(1, 2)), (0, 1, 3, Fraction(-2, 3))]
    dT1 = [(0, 0, 1, 2, Fraction(1, 3)), (1, 0, 1, 3, Fraction(1, 2))]
    v4 = [Fraction(1), Fraction(-1, 2), Fraction(2, 3), Fraction(0)]
    w4 = [Fraction(1, 3), Fraction(1), Fraction(0), Fraction(-1)]
    dw4 = [[Fraction((i + 2 * j) % 3, 2) for i in range(4)] for j in range(4)]
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


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_channel_separation_curvature_only():
    m = 2
    jet = random_point_jet(6, m, with_torsion=False, with_torsion_jet=False,
                           with_w_jet=False)
    report = audit(jet, m)
    by_label = {e.label: e for e in report.entries}
    for label in ("I-A", "II-1-B", "II-3-A", "II-4-A", "II-6"):
        assert by_label[label].engine != 0
        assert by_label[label].match
    for label in ("I-B", "I-C", "I-D", "II-1-A", "II-2-A", "II-2-B",
                  "II-3-C", "II-4-C"):
        assert by_label[label].engine == 0


@pytest.mark.parametrize("m", [2, 3])
def test_audit_reconciled_and_totals(m):
    report = audit(random_point_jet(9, m), m)
    assert report.ok
    assert not report.clean  # the known display slips are present
    assert all(row["match"] == "true" for row in report.totals.values())
    # quoted comparator displays match outright
    by_label = {e.label: e for e in report.entries}
    for label in ("I-A", "I-E", "II-1-B", "II-2-B", "II-3-A", "II-4-A",
                  "II-5", "II-6"):
        assert by_label[label].match, label
    # every mismatch is a named reconciliation
    for entry in report.entries:
        if not entry.match:
            assert entry.reconciled and entry.note


def test_audit_compensating_pairs():
    m = 2
    report = audit(random_point_jet(14, m), m)
    by_label = {e.label: e for e in report.entries}
    assert by_label["I-D"].engine + by_label["I-F"].engine == 0
    assert by_label["I-D"].engine != 0
    pair_engine = by_label["II-3-B"].engine + by_label["II-3-C"].engine
    pair_printed = by_label["II-3-B"].printed + by_label["II-3-C"].printed
    assert pair_engine == pair_printed


def test_audit_localizes_curvature_faults():
    """Changing only the curvature channel moves only curvature entries."""
    import dataclasses
    m = 2
    withR = random_point_jet(7, m)
    n = withR.n
    base = dataclasses.replace(withR, R_entries={})
    assert base.R == make_point_jet(m).R and base.R != withR.R
    assert base.T == withR.T and base.dT1 == withR.dT1
    rep_a = {e.label: e.engine for e in audit(base, m).entries}
    rep_b = {e.label: e.engine for e in audit(withR, m).entries}
    curvature_labels = {"I-A", "I-E", "II-1-B", "II-3-A", "II-3-E",
                        "II-3-G", "II-4-A", "II-4-B", "II-6"}
    changed = {label for label in rep_a if rep_a[label] != rep_b[label]}
    assert changed & curvature_labels
    for label in ("I-B", "I-C", "II-1-A", "II-2-A", "II-2-B", "II-3-C"):
        assert rep_a[label] == rep_b[label], label


def test_audit_lemma36_payload():
    m = 2
    report = audit(random_point_jet(9, m), m)
    diff = report.lemma36_diff
    assert diff["grade2_equal"] and diff["grade0_equal"]
    assert not diff["grade1_equal"]
    assert diff["differing_terms"]
    assert diff["density_shift_formula"].startswith("3/4")


def _audit_jets():
    """Seeds 0-4 at m = 2 and 3, and the one-hot jets of each m."""
    from wres_torsion.cli import _one_hot_cases

    for m in (2, 3):
        yield from ((m, random_point_jet(seed, m)) for seed in range(5))
        yield from ((m, make_point_jet(m, **kw)) for _, _, kw in _one_hot_cases(m))


def test_audit_rows_add_up_to_its_totals():
    """The I-* rows split part 1 and the II-* rows split part 2, so a dropped
    or double-counted row shows against the totals."""
    from wres_torsion.numerics import format_rational

    for m, jet in _audit_jets():
        report = audit(jet, m)
        for part, prefix in (("part1", "I-"), ("part2", "II-")):
            rows = sum((e.engine for e in report.entries if e.label.startswith(prefix)),
                       Fraction(0))
            assert format_rational(rows) == report.totals[part]["engine"], (m, jet, part)


@pytest.mark.parametrize("m", [2, 3])
def test_no_engine_call_writes_to_a_jet(m):
    import copy

    jet = random_point_jet(11, m)
    before = (hash(jet), copy.deepcopy(vars(jet)))
    for call in (metric_density, part1_density, part2_density, part1_closed,
                 part2_closed, theorem_density, audit):
        call(jet, m)
    ctx = PipelineContext(jet, m)
    ctx.part2("composed")
    assert ctx.part1().value + ctx.part2().value == ctx.theorem().value
    assert ctx.metric().value == -derived_scalars(jet).g_vw
    assert (hash(jet), vars(jet)) == before


def test_audit_report_serializes():
    import json

    m = 2
    report = audit(random_point_jet(9, m), m)
    payload = report.to_json()
    blob = json.dumps(payload, sort_keys=True)
    assert json.loads(blob) == payload
    row = payload["lemma36_diff"]["differing_terms"][0]
    assert isinstance(row["word"], list)
    assert {"composed", "displayed"} <= set(row)


def _reversed_twin(jet):
    """A hand-built twin of ``jet`` whose channel maps list their entries in
    reverse order, each under a fresh index tuple and a fresh value."""
    from wres_torsion.geometry import PointJet

    def fresh(entries):
        return {tuple(k): Fraction(x) for k, x in reversed(list(entries.items()))}

    return PointJet(m=jet.m, R_entries=fresh(jet.R_entries), T_entries=fresh(jet.T_entries),
                    dT1_entries=fresh(jet.dT1_entries), v=jet.v, w=jet.w, dw=jet.dw)


def _order_jets():
    from wres_torsion.cli import _one_hot_cases

    sparse = [make_point_jet(m, **kw) for m in (2, 3) for _, _, kw in _one_hot_cases(m)]
    return sparse + [random_point_jet(11, 2), random_point_jet(11, 3)]


def test_results_ignore_map_order():
    """No reader depends on the order of a channel map: a twin jet with
    reversed maps gives the same densities and the same audit JSON."""
    import json

    for jet in _order_jets():
        m = jet.m
        twin = _reversed_twin(jet)
        assert twin == jet
        assert list(twin.R_entries) == list(reversed(list(jet.R_entries)))
        assert part1_density(twin, m) == part1_density(jet, m)
        assert part2_density(twin, m) == part2_density(jet, m)
        assert (json.dumps(audit(twin, m).to_json(), sort_keys=True)
                == json.dumps(audit(jet, m).to_json(), sort_keys=True))


def _raise_on_dense_view(monkeypatch):
    from wres_torsion.geometry import PointJet

    def view(name):
        def read(jet):
            raise AssertionError(f"the engine read the dense view jet.{name}")
        return property(read)

    for name in ("R", "T", "dT1"):
        monkeypatch.setattr(PointJet, name, view(name))


def _results(jet, m):
    """The six public calls of the certify-m3 benchmark workload, the audit
    JSON, ``jet_to_dict``, ``validate_symmetries`` and ``derived_scalars``."""
    from wres_torsion.geometry import jet_to_dict, validate_symmetries

    return ([f(jet, m).value for f in (part1_density, part2_density, part1_closed,
                                       part2_closed, theorem_density, metric_density)],
            audit(jet, m).to_json(), jet_to_dict(jet), validate_symmetries(jet),
            derived_scalars(jet))


@pytest.mark.parametrize("m", [2, 3])
def test_engine_reads_no_dense_view(monkeypatch, m):
    """Every result is the same on a jet whose dense R, T and dT1 raise."""
    from wres_torsion.cli import _one_hot_cases

    jets = [random_point_jet(seed, m) for seed in (2, 9)]
    jets += [make_point_jet(m, **kw) for _, _, kw in _one_hot_cases(m)]
    expected = [_results(jet, m) for jet in jets]
    assert all(report.ok for _, _, _, report, _ in expected)
    _raise_on_dense_view(monkeypatch)
    with pytest.raises(AssertionError, match="dense view jet.T"):
        jets[0].T
    for jet, results in zip(jets, expected):
        assert _results(_reversed_twin(jet), m) == results


# ---------------------------------------------------------------------------
# build once
# ---------------------------------------------------------------------------

BUILDERS = ("derived_scalars", "build_sigma_delta_inv_parts",
            "build_sigma_ab_printed_parts", "build_sigma_ab_composed",
            "build_sigma_dtpow_parts")


@pytest.fixture
def build_counts(monkeypatch):
    """Count calls of the per-jet builders through every module binding."""
    import sys
    from collections import Counter

    counts = Counter()
    modules = [mod for name, mod in list(sys.modules.items())
               if name.startswith("wres_torsion.")]
    for fn_name in BUILDERS:
        original = getattr(sys.modules["wres_torsion.symbols"], fn_name)

        def counted(*args, _fn=original, _name=fn_name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if getattr(mod, fn_name, None) is original:
                monkeypatch.setattr(mod, fn_name, counted)
    return counts


def test_audit_builds_each_artifact_once(build_counts):
    audit(random_point_jet(3, 2), 2)
    assert build_counts == {name: 1 for name in BUILDERS}


def test_metric_builds_no_inverse_power_channels(build_counts):
    assert metric_density(random_point_jet(3, 2), 2).value
    assert build_counts["build_sigma_delta_inv_parts"] == 0
    assert build_counts["derived_scalars"] == 0


@pytest.fixture
def input_reads(monkeypatch):
    """Count the engine's reads of a jet's tensors: the curvature pair sums
    (through the ``symbols`` binding), each map turned into its int form
    through the ``geometry``, ``symbols`` and ``clifford`` bindings (by the
    map's id, and the calls and entries in all) and each int form read as
    torsion 3-forms and rows (by the id of the map it was made from)."""
    import wres_torsion.clifford as clifford
    import wres_torsion.geometry as geometry
    import wres_torsion.numerics as numerics
    import wres_torsion.symbols as symbols
    from collections import Counter

    reads = Counter()
    sources = {}  # id of a live int form -> id of the map it was made from

    def int_form(entries, _fn=numerics._integer_form):
        form = _fn(entries)
        reads["int_form", id(entries)] += 1
        reads["int_form calls"] += 1
        reads["int_form entries"] += len(entries)
        sources[id(form)] = id(entries)
        return form

    def torsion_forms(form, n, _fn=symbols._torsion_forms):
        reads["torsion", sources.get(id(form))] += 1
        return _fn(form, n)

    def pair_sums(curvature, n, _fn=symbols._curvature_pair_sums):
        reads["pair_sums"] += 1
        return _fn(curvature, n)

    for mod in (geometry, symbols, clifford):
        monkeypatch.setattr(mod, "_integer_form", int_form)
    monkeypatch.setattr(symbols, "_torsion_forms", torsion_forms)
    monkeypatch.setattr(symbols, "_curvature_pair_sums", pair_sums)
    return reads


def _jet_reads(reads, jet):
    """The counts of ``input_reads`` that concern ``jet``'s maps."""
    ids = {id(jet.R_entries): "R", id(jet.T_entries): "T", id(jet.dT1_entries): "dT1"}
    out = {"pair_sums": reads["pair_sums"]}
    out.update(((name, "int form"), reads["int_form", i]) for i, name in ids.items())
    out.update(((ids.get(key[1]), "3-forms and rows"), count)
               for key, count in reads.items() if key[0] == "torsion")
    return out


@pytest.mark.parametrize("seed", [0, 5])
def test_certify_derives_scalars_once_per_jet(build_counts, input_reads, monkeypatch, seed):
    """The six public calls the certify-m3 benchmark workload makes per jet
    share one context: each builder they use runs once, R, T and dT1 are
    each turned into their int form once (by the derived scalars, whose
    forms the builders read) and the vectors read once; an audit of the same
    jet right after them builds only the composed product symbol."""
    vectors = []
    from_vector = CliffordElement.from_vector.__func__

    def counted(cls, n, coeffs):
        vectors.append(coeffs)
        return from_vector(cls, n, coeffs)

    monkeypatch.setattr(CliffordElement, "from_vector", classmethod(counted))
    jet = random_point_jet(seed, 3)
    g_vw = derived_scalars(jet).g_vw
    input_reads.clear()
    p1, p2 = part1_density(jet, 3).value, part2_density(jet, 3).value
    assert p1 == part1_closed(jet, 3).value
    assert p2 == part2_closed(jet, 3).value
    assert p1 + p2 == theorem_density(jet, 3).value
    assert metric_density(jet, 3).value == -g_vw
    once = {"derived_scalars": 1, "build_sigma_dtpow_parts": 1,
            "build_sigma_delta_inv_parts": 1, "build_sigma_ab_printed_parts": 1}
    assert build_counts == once
    # each channel is converted to ints once, by the derived scalars, and
    # each torsion int form is read once for its 3-forms and rows
    reads = {"pair_sums": 1, ("R", "int form"): 1, ("T", "int form"): 1,
             ("dT1", "int form"): 1, ("T", "3-forms and rows"): 1,
             ("dT1", "3-forms and rows"): 1}
    assert _jet_reads(input_reads, jet) == reads
    assert input_reads["int_form calls"] <= 14
    if seed == 0:
        assert input_reads["int_form entries"] <= 1750
    assert vectors == [jet.v, jet.w]  # c(v) and c(w), once each
    assert audit(jet, 3).ok
    assert build_counts == {**once, "build_sigma_ab_composed": 1}
    assert _jet_reads(input_reads, jet) == reads
    assert vectors == [jet.v, jet.w, *jet.dw]  # the composed symbol adds c(w)'s jet


@pytest.mark.parametrize("m", [2, 3])
def test_identity_calls_derive_scalars_once_per_jet(build_counts, m):
    """The three public calls the identity-m3 workload makes per jet share
    one context, so each builder they use runs once per jet."""
    from wres_torsion.cli import _one_hot_cases

    for _, expected, kw in _one_hot_cases(m):
        jet = make_point_jet(m, **kw)
        before = dict(build_counts)
        total = part1_density(jet, m).value + part2_density(jet, m).value
        assert total == theorem_density(jet, m).value == expected
        assert {name: build_counts[name] - before.get(name, 0) for name in BUILDERS} == {
            "derived_scalars": 1, "build_sigma_dtpow_parts": 1,
            "build_sigma_delta_inv_parts": 1, "build_sigma_ab_printed_parts": 1,
            "build_sigma_ab_composed": 0}


def test_audit_builds_the_xi_table_of_s2_once(monkeypatch):
    """II-4-A, II-4-B, II-4-C and II-6 read one order-2 d_xi table of s2; the
    other d_xi tables of an audit are those of II-5, of the composed product
    symbol (order 1) and of the printed and composed part-2 totals (order 2)."""
    import wres_torsion.symbols as symbols

    orders = []
    partials = symbols._partials

    def counted(expr, d, alpha_max):
        if d is symbols.d_xi:
            orders.append(alpha_max)
        return partials(expr, d, alpha_max)
    monkeypatch.setattr(symbols, "_partials", counted)
    assert audit(random_point_jet(3, 2), 2).ok
    assert sorted(orders) == [1, 1, 2, 2, 2]


# ---------------------------------------------------------------------------
# the held context
# ---------------------------------------------------------------------------

def _held():
    return residue._held[1]


def test_interleaved_jets_match_fresh_contexts():
    j1, j2 = random_point_jet(1, 2), random_point_jet(2, 2)
    a = part1_density(j1, 2).value
    b = part1_density(j2, 2).value
    c = part2_density(j1, 2).value
    assert _held().jet is j1
    assert (a, b, c) == (PipelineContext(j1, 2).part1().value,
                         PipelineContext(j2, 2).part1().value,
                         PipelineContext(j1, 2).part2().value)


def test_an_equal_jet_gets_its_own_context():
    jet, twin = random_point_jet(4, 2), random_point_jet(4, 2)
    assert jet == twin and jet is not twin
    part1_density(jet, 2)
    held = _held()
    assert part2_density(twin, 2).value == PipelineContext(twin, 2).part2().value
    assert _held() is not held and _held().jet is twin


def test_a_wrong_m_raises_and_keeps_the_held_context():
    jet = random_point_jet(6, 2)
    p1 = part1_density(jet, 2).value
    held = _held()
    with pytest.raises(ValueError, match="does not match m=3"):
        part1_density(jet, 3)
    assert _held() is held
    assert part2_density(jet, 2).value == PipelineContext(jet, 2).part2().value
    assert p1 == PipelineContext(jet, 2).part1().value
    assert _held() is held


def test_a_replaced_context_is_released():
    import gc
    import weakref

    j1, j2 = random_point_jet(1, 2), random_point_jet(2, 2)
    part1_density(j1, 2)
    ref = weakref.ref(_held())
    part1_density(j2, 2)
    gc.collect()
    assert ref() is None
    assert part1_density(j1, 2).value == PipelineContext(j1, 2).part1().value


def test_a_rebound_builder_bypasses_the_held_context(monkeypatch):
    jet = random_point_jet(8, 2)
    p1 = part1_density(jet, 2).value
    assert p1
    held = _held()
    monkeypatch.setattr(residue, "build_sigma_dtpow_parts", lambda jet, inputs=None: {})
    assert part1_density(jet, 2).value == PipelineContext(jet, 2).part1().value == 0
    assert _held() is not held
    monkeypatch.undo()
    assert part1_density(jet, 2).value == p1


def test_engine_functions_carry_no_wrapped():
    """A caching decorator (functools.lru_cache, functools.cache) sets
    __wrapped__ on an engine function; the benchmark's tracer, which wraps
    and restores functions by module namespace, would report it as a leaked
    wrapper of its own."""
    import sys

    wrapped = [f"{name}.{attr}" for name, mod in list(sys.modules.items())
               if mod is not None and name.split(".")[0] == "wres_torsion"
               for attr, value in vars(mod).items()
               if callable(value) and hasattr(value, "__wrapped__")]
    assert wrapped == []


def test_public_api_names():
    """The package's public surface; any change to it shows here."""
    import types

    import wres_torsion

    assert sorted(name for name, value in vars(wres_torsion).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)) == [
        "CliffordElement", "Density", "DensityReport", "DerivedScalars", "GammaRep",
        "GaussianRational", "PipelineContext", "PointJet", "SymbolExpr", "ValidationReport",
        "at_x0", "audit", "build_gamma", "build_sigma_ab_composed", "build_sigma_ab_printed",
        "build_sigma_dt", "canonicalize", "d_x", "d_xi", "derived_scalars",
        "format_rational", "jet_from_dict", "jet_to_dict", "make_point_jet",
        "metric_density", "parse_rational", "part1_closed", "part1_density",
        "part2_closed", "part2_density", "random_point_jet", "sphere_moment",
        "sphere_moment_bruteforce", "theorem_density", "trace", "trace_integral",
        "trace_via_rep", "validate_symmetries", "xi_grade",
    ]


def test_jet_construction_derives_no_scalars(build_counts):
    from wres_torsion.cli import _one_hot_cases
    from wres_torsion.geometry import jet_from_dict, jet_to_dict, validate_symmetries

    jets = [make_point_jet(m, **kw) for m in (2, 3) for _, _, kw in _one_hot_cases(m)]
    for m in (1, 2, 3):
        jets += [random_point_jet(7, m), jet_from_dict(jet_to_dict(random_point_jet(8, m)))]
    assert all(validate_symmetries(jet).ok for jet in jets)
    assert build_counts["derived_scalars"] == 0
