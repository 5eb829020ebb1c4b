"""Cosphere moments, trace integrals, density pipelines, and the audit."""

from __future__ import annotations

import dataclasses
import random
import re
from fractions import Fraction
from functools import cached_property, partial

import pytest
from hypothesis import example, given, settings, strategies as st

from wres_torsion.clifford import CliffordElement, blade_mul
from wres_torsion.geometry import (
    derived_scalars,
    make_point_jet,
    random_point_jet,
)
from wres_torsion import residue, symbols
from wres_torsion.numerics import GaussianRational, I, ONE
from wres_torsion.residue import (
    PipelineContext,
    PipelineError,
    _leibniz_trace,
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
from test_geometry import _front_jets, _hand_built
from test_symbols import _expr, leibniz_compose, traced_channels
from wres_torsion.symbols import (
    TORSION_PREFACTOR,
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
    return SymbolExpr(n, {((0,) * n, (0,) * n, -2 * m, 0): ONE})


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
    e = _expr(*(((0,) * n, tuple((1 if i == a else 0) + (1 if i == b else 0) for i in range(n)),
                 -2 * m - 2, 0, GaussianRational(x)) for (a, b), x in der.ric.items()), n=n)
    assert trace_integral(e, m).value == der.s / (2 * m)


def test_trace_integral_homogeneity_error():
    e = SymbolExpr(4, {((0,) * 4, (0,) * 4, -2, 0): ONE})
    with pytest.raises(PipelineError, match="homogeneity"):
        trace_integral(e, 2)


def test_trace_integral_x_dependence_error():
    e = SymbolExpr(4, {((1, 0, 0, 0), (0,) * 4, -4, 0): ONE})
    with pytest.raises(PipelineError, match="x-dependent"):
        trace_integral(e, 2)


def test_trace_integral_imaginary_error():
    e = SymbolExpr(4, {((0,) * 4, (0,) * 4, -4, 0): I})
    with pytest.raises(PipelineError, match="imaginary"):
        trace_integral(e, 2)


def _phase_coeff(xi, word, phase, r):
    """i^(|xi| + grade(word) - phase) r: the coefficient the phase rule allows."""
    e = (sum(xi) + bin(word).count("1") - phase) % 4
    value = -r if e >= 2 else r
    return GaussianRational(0, value) if e % 2 else GaussianRational(value)


def test_fast_product_trace_equals_generic():
    """The kernel against the generic arithmetic: a left operand without a
    norm power against a right one with x-jets up to degree 2, traced by the
    kernel and through ``trace_integral`` of the order -2m part of
    ``leibniz_compose``.  The same left terms, given the norm powers that
    make each of xi-order 0, are traced through ``trace_integral`` of the x0
    product, against the pair-by-pair oracle.  Exponents sit on xi_1, xi_2
    and x_1, x_2 and words on 0 and c_1 c_2, so that many pairs meet."""
    rng = random.Random(8)
    n, m = 4, 2
    hits = [0, 0, 0]  # nonzero traces, of them with an |alpha| >= 1 part, nonzero normed ones
    for trial in range(30):
        left, normed, right = [], [], []
        phase = trial % 2  # both even, or both odd (an even product)
        for _ in range(6):
            xi = [0] * n
            for _ in range(rng.randint(0, 2)):
                xi[rng.randrange(2)] += 1
            word = rng.choice((0, 0b11))
            coeff = _phase_coeff(xi, word, phase, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            left.append(((0,) * n, xi, 0, word, coeff))
            normed.append(((0,) * n, xi, -sum(xi), word, coeff))
        for _ in range(6):
            xi = [0] * n
            for _ in range(rng.randint(0, 2)):
                xi[rng.randrange(2)] += 1
            xd = [0] * n
            if rng.random() < 0.6:
                for _ in range(rng.randint(1, 2)):
                    xd[rng.randrange(2)] += 1
            word = rng.choice((0, 0b11))
            r = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            right.append((xd, xi, -2 * m - rng.randint(0, 2) - sum(xi), word,
                          _phase_coeff(xi, word, phase, r)))
        left, normed, right = (_expr(*terms, n=n) for terms in (left, normed, right))
        value = _leibniz_trace(left, right, m)
        assert value == trace_integral(
            at_x0(xi_grade(leibniz_compose(left, right), -2 * m)), m).value
        product_value = trace_integral(at_x0(xi_grade(normed * right, -2 * m)), m).value
        assert product_value == _oracle_product_trace(normed, right, m)
        hits = [h + bool(v) for h, v in zip(hits, (
            value, value - _leibniz_trace(left, at_x0(right), m), product_value))]
    assert all(hits), hits


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
    terms = []
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
        terms.append((xd, xi, rng.choice(orders) - sum(xi), word,
                      _phase_coeff(xi, word, phase, r)))
    return _expr(*terms, n=n)


def _bare(expr):
    """The x0 terms of ``expr`` without their norm powers (summed where two
    then meet)."""
    n = expr.n
    return SymbolExpr.sum_of(n, (SymbolExpr._of(n, {(0, xi, 0, word): r}, expr.den, expr.phase)
                                 for (x, xi, _, word), r in expr.nums.items() if not x))


@pytest.mark.parametrize("n", [4, 6])
def test_trace_kernel_matches_moment_oracle(n):
    """Product traces against the pair-by-pair oracle: a left operand with
    norm powers through ``trace_integral`` of the x0 product, and the kernel
    itself on the same left terms without them against the x-free right, so
    that alpha = () alone pairs."""
    m = n // 2
    rng = random.Random(n)
    for trial in range(40):
        phase = trial % 2
        left = _random_traceable(rng, n, phase, (0, 1, 2), x_share=0.3)
        right = _random_traceable(rng, n, phase, (-2 * m, -2 * m - 1, -2 * m - 2),
                                  x_share=0.3)
        assert trace_integral(at_x0(xi_grade(left * right, -2 * m)), m).value == \
            _oracle_product_trace(left, right, m)
        bare = _bare(left)
        assert _leibniz_trace(bare, at_x0(right), m) == _oracle_product_trace(bare, right, m)
        single = _random_traceable(rng, n, 0, (-2 * m,), words=(0, 0, 0b11))
        assert trace_integral(single, m).value == _oracle_trace(single, n)


def test_trace_kernel_exponents_below_128_add_without_carry():
    """127 + 1 in the kernel's packed sum: the left term takes no norm power,
    and against an x-free right alpha = () alone pairs."""
    n, m = 4, 2
    left = SymbolExpr(n, {((0,) * n, (127, 1, 0, 0), 0, 0): ONE})
    right = SymbolExpr(n, {((0,) * n, (1, 127, 0, 0), -260, 0): ONE})
    value = _leibniz_trace(left, right, m)
    assert value == _oracle_product_trace(left, right, m) != 0


def test_trace_kernel_rejects_exponent_128():
    n, m = 4, 2
    big = SymbolExpr(n, {((0,) * n, (128, 0, 0, 0), -132, 0): ONE})
    with pytest.raises(PipelineError, match="128"):
        trace_integral(big, m)
    # packed, 128 + 128 would carry into xi_2's byte: the code of xi_2^1,
    # an odd monomial, whose moment 0 would be returned silently; a right
    # exponent of 128 is refused as it is bucketed, a left one as it is read
    left = SymbolExpr(n, {((0,) * n, (128, 0, 0, 0), 0, 0): ONE})
    with pytest.raises(PipelineError, match="128"):
        _leibniz_trace(left, big, m)
    with pytest.raises(PipelineError, match="128"):
        _leibniz_trace(left, SymbolExpr(n, {((0,) * n, (0,) * n, -132, 0): ONE}), m)


def test_odd_phase_traces_raise():
    n, m = 4, 2
    # c(v) against i ||xi||^-4 c_1: an odd times an even symbol has an
    # imaginary trace (here c_1 * i c_1 = -i, so tr[.]/tr[id] = -i)
    cv = SymbolExpr.from_clifford(CliffordElement.from_vector(n, [1, 0, 0, 0]))
    even = SymbolExpr(n, {((0,) * n, (0,) * n, -2 * m, 0b0001): I})
    assert cv.phase == 1 and even.phase == 0
    with pytest.raises(PipelineError, match="imaginary part -1$"):
        _leibniz_trace(cv, even, m)
    with pytest.raises(PipelineError, match="imaginary part -1$"):
        trace_integral(cv * even, m)
    # two odd factors trace to a real number again
    assert _leibniz_trace(cv, cv.scale(I) * even, m) == \
        trace_integral(cv * (cv.scale(I) * even), m).value


@st.composite
def _leibniz_cases(draw):
    """m and a pair of one phase: a left symbol whose x0 terms carry no norm
    power and a right one of xi-orders -2m, -2m-1 and -2m-2, both with x-jets
    up to degree 2 and xi-exponents up to 4.  Some right terms are drawn as
    partners of a left x0 term r xi^nu word: at x^alpha for an alpha <= nu
    with |alpha| <= 2, on the same word, with the parities of nu - alpha and
    the order that completes -2m (when |nu - alpha| <= 2)."""
    n, phase = draw(st.sampled_from((2, 4, 6))), draw(st.integers(0, 1))
    m = n // 2
    index = st.one_of(st.integers(0, 1), st.integers(0, n - 1))

    def counts(idx):
        return tuple(map(idx.count, range(n)))
    xdeg = st.lists(index, max_size=2).map(counts)
    xideg = st.lists(index, max_size=4).map(counts)
    words = st.sampled_from(sorted({0, 0b11, (1 << n) - 1}))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    left, right = {}, {}
    for x, xi, p, word, r in draw(st.lists(st.tuples(
            xdeg, xideg, st.sampled_from([0, -2]), words, coeffs), min_size=1, max_size=8)):
        left[x, xi, p if any(x) else 0, word] = _phase_coeff(xi, word, phase, r)
    x0_terms = [(xi, word) for x, xi, _, word in left if not any(x)]
    for _ in range(draw(st.integers(1, 10))):
        if x0_terms and draw(st.booleans()):
            xi, word = draw(st.sampled_from(x0_terms))
            picked = draw(st.permutations([i for i, e in enumerate(xi) for _ in range(e)]))
            x = counts(picked[:draw(st.integers(0, min(2, len(picked))))])
            rest = [e - a for e, a in zip(xi, x)]
            raised = counts(draw(st.lists(index, max_size=1)))
            xi_b = tuple(e % 2 + 2 * a for e, a in zip(rest, raised))
            k = min(sum(rest), 2)
        else:
            x, xi_b, k, word = draw(st.tuples(xdeg, xideg, st.integers(0, 2), words))
        right[x, xi_b, -2 * m - k - sum(xi_b), word] = _phase_coeff(
            xi_b, word, phase, draw(coeffs))
    return m, SymbolExpr(n, left), SymbolExpr(n, right)


def _second_x_derivative_case(n, j, k):
    """xi_j xi_k on the identity word and on c_1 c_2 against x_j x_k on the
    same words, where |alpha| = 2 at (j, k) pairs them and d_x^alpha reads
    2 x_j^2 when j == k, and against one x0 term of order -2m-2, where
    alpha = () does."""
    m, x0, unit = n // 2, (0,) * n, [tuple(int(i == j) for i in range(n)) for j in range(n)]
    pair = tuple(a + b for a, b in zip(unit[j], unit[k]))
    terms = [(x0, pair, 0, 0), (x0, pair, 0, 0b11)]
    right = [(pair, x0, -2 * m, 0), (pair, x0, -2 * m, 0b11), (x0, x0, -2 * m - 2, 0)]
    return m, SymbolExpr(n, {key: _phase_coeff(key[1], key[3], 0, Fraction(i + 2, 3))
                             for i, key in enumerate(terms)}), \
        SymbolExpr(n, {key: _phase_coeff(key[1], key[3], 0, Fraction(5, i + 1))
                       for i, key in enumerate(right)})


@settings(max_examples=80, deadline=None)
@given(_leibniz_cases())
@example(_second_x_derivative_case(4, 0, 0))
@example(_second_x_derivative_case(6, 5, 5))
@example(_second_x_derivative_case(6, 1, 4))
def test_leibniz_trace_matches_the_table_oracle(case):
    """The one-pass Leibniz trace equals the moment-oracle trace of the
    order -2m part of ``symbols.compose(L, R)``, the composition at x0."""
    m, left, right = case
    composed = xi_grade(symbols.compose(left, right), -2 * m)
    assert residue._leibniz_trace(left, right, m) == _oracle_trace(composed, left.n)


def test_leibniz_trace_refuses_a_left_norm_power_by_name():
    """d_xi would differentiate ||xi||^p: a left x0 term with a norm power
    is refused by name, by the kernel whatever the right (an x-free one
    too) and by ``compose``; the x0 product traces it through
    ``trace_integral``."""
    n, m = 4, 2
    normed = ((0,) * n, (2, 0, 0, 0), -2, 0)
    left = SymbolExpr(n, {normed: ONE, ((0,) * n, (0, 2, 0, 0), 0, 0): ONE})
    right = SymbolExpr(n, {((0,) * n, (2, 0, 0, 0), -6, 0): ONE,
                           ((1, 0, 0, 0), (1, 0, 0, 0), -5, 0): I})
    refused = re.escape(f"term {normed} has a norm power")
    for call in (lambda: residue._leibniz_trace(left, right, m),
                 lambda: residue._leibniz_trace(left, at_x0(right), m),
                 lambda: symbols.compose(left, right)):
        with pytest.raises(ValueError, match=refused):
            call()
    assert trace_integral(at_x0(xi_grade(left * right, -2 * m)), m).value == \
        _oracle_product_trace(left, right, m) == Fraction(1, 8)


@pytest.mark.parametrize("method", ["part1", "metric"])
@pytest.mark.parametrize("bad, message", [
    (((1, 0, 0, 0), (0,) * 4, -4, 0), "x-dependent"),
    (((0,) * 4, (2, 0, 0, 0), -4, 0), "homogeneity -2, expected -4"),
])
def test_cvw_trace_guards(method, bad, message):
    """part1 and metric trace c(v)c(w) against their channels by word, which
    must still be x-free of homogeneity -2m, as trace_integral demanded of
    the full product: every bucket of the metric's emitted lead and of part
    1's emitted channels (the bad term is emitted by ``_entries`` as channel
    0, the lead among the lead's entries and part 1's ric among dT1's part-1
    entries)."""
    import wres_torsion.residue as residue

    ctx = residue.PipelineContext(random_point_jet(3, 2), 2)
    entries = residue._entries(4, 0, SymbolExpr(4, {bad: ONE}).nums.items(), 0, bad[2], False)
    ctx.dt_emitted = (ctx.dt_emitted[0], {**ctx.dt_emitted[1], **entries}, {})
    ctx.lead_entries = {**ctx.lead_entries, **entries}
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


def test_audit_diff_rows_follow_exponent_tuple_order():
    """The lemma-3.6 rows list the differing terms in the order of their
    exponent-tuple keys, truncated at 12, whatever the order of the stored
    monomial codes: here the code order puts xi_1 before xi_2 (and x_1
    before x_2), the tuple order the reverse."""
    from wres_torsion.clifford import word_indices
    from wres_torsion.residue import _expr_diff_terms

    n = 4
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    keys = [(x, xi, -2, word) for x in ((0,) * n, *units[:2]) for xi in units
            for word in (0b0001, 0b0110)]
    a = SymbolExpr(n, {key: _phase_coeff(key[1], key[3], 0, Fraction(i + 1, 3))
                       for i, key in enumerate(keys)})
    # b agrees with a on every third key
    b = SymbolExpr(n, {key: _phase_coeff(key[1], key[3], 0, Fraction(i + 1, 5 if i % 3 else 3))
                       for i, key in enumerate(keys)})
    codes = sorted(a.nums)
    assert [symbols._key(c, n) for c in codes] != sorted(a.terms)
    differing = sorted(key for i, key in enumerate(keys) if i % 3)
    assert len(differing) > 12
    rows = _expr_diff_terms(a, b)
    assert [(tuple(r["xdeg"]), tuple(r["xideg"]), r["normpow"], r["word"]) for r in rows] == [
        (x, xi, p, list(word_indices(word))) for x, xi, p, word in differing[:12]]
    assert [(r["composed"], r["displayed"]) for r in rows] == [
        (str(a.coefficient(key)), str(b.coefficient(key))) for key in differing[:12]]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_densities_and_audit_rows_have_weight_two(m):
    """Weight grading: scaling (R, dT1, T, dw) by (lambda^2, lambda^2, lambda,
    lambda) scales part 1, both part-2 sources, the theorem, the composed
    shift and every audit row, engine and display, by lambda^2, and leaves
    the metric as it was."""
    import dataclasses

    def values(jet):
        report = audit(jet, m)
        ctx = _held()
        graded = [ctx.part2("composed").value]
        graded += [x for e in report.entries for x in (e.engine, e.printed)]
        graded += [x for name in residue.COMPARISONS if name != "metric"
                   for x in ctx.compare(name)]
        return graded, ctx.compare("metric")

    def scaled(entries, factor):
        return {k: factor * x for k, x in entries.items()}

    for seed in range(3):
        jet = random_point_jet(seed, m)
        graded, metric = values(jet)
        assert all(graded[:2]) and metric.engine
        for lam in (Fraction(2), Fraction(-1, 3)):
            got, got_metric = values(dataclasses.replace(
                jet, R_entries=scaled(jet.R_entries, lam ** 2),
                dT1_entries=scaled(jet.dT1_entries, lam ** 2),
                T_entries=scaled(jet.T_entries, lam),
                dw=tuple(tuple(lam * x for x in row) for row in jet.dw)))
            assert got == [lam ** 2 * x for x in graded], (seed, lam)
            assert got_metric == metric


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
    """No public call changes a jet's fields, each channel map copied by
    ``dict`` (in its order) and the rest deep-copied, nor its record."""
    import copy

    jet = random_point_jet(11, m)
    maps = ("R_entries", "T_entries", "dT1_entries")

    def state():
        fields = vars(jet)
        return (hash(jet), {name: list(dict(fields[name]).items()) for name in maps},
                copy.deepcopy({k: x for k, x in fields.items() if k not in maps}))
    before = state()
    for call in (metric_density, part1_density, part2_density, part1_closed,
                 part2_closed, theorem_density, audit):
        call(jet, m)
    ctx = PipelineContext(jet, m)
    ctx.part2("composed")
    assert ctx.part1().value + ctx.part2().value == ctx.theorem().value
    assert ctx.metric().value == -derived_scalars(jet).g_vw
    assert state() == before


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
# the JetInputs methods that build a set of channels: sigma_Delta's, the order
# -(2mm+2) ones for one mm, and the printed products of one side of the split
# into the part the trace reads and the rest
CHANNEL_SETS = ("sigma_delta", "order2_parts", "products")


@pytest.fixture
def build_counts(monkeypatch):
    """Count calls of the per-jet builders through every module binding, of
    the ``JetInputs`` channel-set methods by name and of ``residue._filled``,
    which makes a table's buckets of emitted channels."""
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
    for name in CHANNEL_SETS:
        def counted_method(self, *args, _fn=getattr(symbols.JetInputs, name), _name=name,
                           **kwargs):
            counts[_name] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(symbols.JetInputs, name, counted_method)

    def counted_filled(*args, _fn=residue._filled):
        counts["_filled"] += 1
        return _fn(*args)
    monkeypatch.setattr(residue, "_filled", counted_filled)
    return counts


def _shares_read_parts(ctx):
    """Whether the public printed parts of a context hold its s2 itself and
    were summed from the read products its table was built from."""
    return (ctx.ab_printed_parts["s2"] is ctx.s2
            and "read_products" in vars(ctx))


# what the traced path of one jet's context builds: the derived scalars, the
# printed products the part-2 trace reads and the buckets of its two tables of
# emitted channels (part 1's and sigma_Delta's), and no symbol channel set of
# an inverse power (``sigma_delta``, ``order2_parts``); a certification adds
# the metric's table of the emitted lead
TRACED = {"derived_scalars": 1, "products": 1, "_filled": 2}
CERTIFIED = {**TRACED, "_filled": 3}


def test_audit_builds_each_artifact_once(build_counts):
    """An audit builds each channel set once: the traced ones (each table's
    emitted buckets once, the metric's lead included), the composed product
    symbol and, for its lemma-3.6 comparison, the public printed parts from
    the read products and the products of the rest.  It calls neither public
    builder of the inverse-power channels."""
    audit(random_point_jet(3, 2), 2)
    assert build_counts == {**CERTIFIED, "products": 2, "build_sigma_ab_composed": 1,
                            "build_sigma_ab_printed_parts": 1}


def test_metric_builds_no_inverse_power_channels(build_counts, monkeypatch):
    """The metric alone fills one table, of the emitted lead only, with no
    derived scalars and no inverse-power channel set."""
    filled, real_filled = [], residue._filled

    def recording_filled(n, keys, *args):
        filled.append(tuple(keys))
        return real_filled(n, keys, *args)
    monkeypatch.setattr(residue, "_filled", recording_filled)
    assert metric_density(random_point_jet(3, 2), 2).value
    assert build_counts["build_sigma_delta_inv_parts"] == build_counts["sigma_delta"] == 0
    assert build_counts["derived_scalars"] == 0 and filled == [("lead",)]


@pytest.mark.parametrize("m", [2, 3])
def test_a_context_builds_no_symbol_twice(monkeypatch, m):
    """The six public calls of a certification and an audit, all on one held
    context, get no nonzero (nums, den, phase) from two ``symbols._symbol``
    calls: sigma_Delta's leading channel, which the metric traces too, is
    built once."""
    built = []

    def recording_symbol(*args, _fn=symbols._symbol):
        out = _fn(*args)
        if out:
            built.append((frozenset(out.nums.items()), out.den, out.phase))
        return out
    monkeypatch.setattr(symbols, "_symbol", recording_symbol)
    for seed in range(3):
        jet, built[:] = random_point_jet(seed, m), []
        part1_density(jet, m)
        held = _held()
        for call in (part2_density, part1_closed, part2_closed, theorem_density,
                     metric_density, audit):
            call(jet, m)
        assert _held() is held
        assert built and len(set(built)) == len(built), (m, seed)


@pytest.fixture
def input_reads(monkeypatch):
    """Count the engine's reads of a jet's tensors: each map turned into its
    int form through the ``geometry``, ``symbols`` and ``clifford`` bindings
    of ``_integer_form`` (by the map's id, and the calls and entries in all),
    each map read by ``geometry._read`` (by the map's id, and whether it was
    read orbit by orbit), each read spread by a rule (``geometry._spread``,
    through every binding, by channel and rule name) and each decision of
    ``geometry._is_curvature``."""
    import wres_torsion.clifford as clifford
    import wres_torsion.geometry as geometry
    import wres_torsion.numerics as numerics
    import wres_torsion.symbols as symbols
    from collections import Counter

    reads = Counter()

    def int_form(entries, _fn=numerics._integer_form):
        reads["int_form", id(entries)] += 1
        reads["int_form calls"] += 1
        reads["int_form entries"] += len(entries)
        return _fn(entries)

    def read(name, entries, record, _fn=geometry._read):
        got = _fn(name, entries, record)
        reads["read", id(entries), got.whole] += 1
        return got

    def spread(got, rule, n, _fn=geometry._spread):
        rule_name = getattr(rule, "func", rule).__name__
        reads["spread", got.name, rule_name + (" traced" if getattr(
            rule, "keywords", {}).get("traced") else "")] += 1
        return _fn(got, rule, n)

    def is_curvature(R, _fn=geometry._is_curvature):
        reads["is_curvature"] += 1
        return _fn(R)

    for mod in (geometry, symbols, clifford):
        monkeypatch.setattr(mod, "_integer_form", int_form)
    for mod in (geometry, symbols, residue):
        monkeypatch.setattr(mod, "_spread", spread)
    monkeypatch.setattr(geometry, "_read", read)
    monkeypatch.setattr(geometry, "_is_curvature", is_curvature)
    return reads


def _jet_reads(reads, jet):
    """The counts of ``input_reads`` that concern ``jet``'s maps and their reads."""
    ids = {id(jet.R_entries): "R", id(jet.T_entries): "T", id(jet.dT1_entries): "dT1"}
    out = {(name, "int form"): reads["int_form", i] for i, name in ids.items()}
    out.update(((ids[key[1]], "read whole" if key[2] else "read by entry"), count)
               for key, count in reads.items() if key[0] == "read" and key[1] in ids)
    out.update(((key[1], key[2]), count) for key, count in reads.items() if key[0] == "spread")
    out["is_curvature"] = reads["is_curvature"]
    return out


@pytest.mark.parametrize("seed", [0, 5])
def test_certify_derives_scalars_once_per_jet(build_counts, input_reads, monkeypatch, seed):
    """The six public calls the certify-m3 benchmark workload makes per jet
    share one context: each channel set they use is built once, R, T and dT1
    are each read once, orbit by orbit, by the derived scalars (whose reads
    the builders take), with no ``_integer_form`` call, no int-form dict of R
    or dT1 (no spread of the map itself, ``_entry``), no ``_is_curvature``
    decision and one spread per rule they need (R's and dT1's traced channels
    one ``_emitted`` spread each, dT1's for both tables), and v, w and dw are
    converted once (by ``vector_forms``,
    whose forms the derived scalars keep and c(v), c(w), c(v) c(dw) and the
    composed symbol's c(w)-jet are read off, so no Clifford vector is built
    from the jet's rationals).  The tables read the traced channels, so no
    public builder of the inverse powers or the printed parts runs.  An
    audit of the same jet right after them builds the composed product
    symbol and, for its lemma-3.6 comparison, the public printed parts from
    the read products and those of the rest."""
    vectors, from_vectors = [], []
    from_vector, vector_forms = CliffordElement.from_vector.__func__, symbols.vector_forms

    def counted(cls, n, coeffs):
        from_vectors.append(coeffs)
        return from_vector(cls, n, coeffs)

    def counted_forms(jet):
        vectors.append(jet)
        return vector_forms(jet)

    monkeypatch.setattr(CliffordElement, "from_vector", classmethod(counted))
    monkeypatch.setattr(symbols, "vector_forms", counted_forms)
    jet = random_point_jet(seed, 3)
    g_vw = derived_scalars(jet).g_vw
    input_reads.clear()
    p1, p2 = part1_density(jet, 3).value, part2_density(jet, 3).value
    assert p1 == part1_closed(jet, 3).value
    assert p2 == part2_closed(jet, 3).value
    assert p1 + p2 == theorem_density(jet, 3).value
    assert metric_density(jet, 3).value == -g_vw
    assert build_counts == CERTIFIED
    # each channel is read once, orbit by orbit, by the derived scalars, with
    # no conversion, and spread once per rule: R into Ric and its Bianchi sums
    # and into sigma_Delta's emitted r_jets, T into its int form (no R or dT1
    # int form) and its 3-form and rows, dT1 into dT and div T, its 3-forms
    # and the emitted channels of both tables; only v, w and dw are converted
    reads = {("R", "int form"): 0, ("T", "int form"): 0, ("dT1", "int form"): 0,
             ("R", "read whole"): 1, ("T", "read whole"): 1, ("dT1", "read whole"): 1,
             ("R", "_r_terms"): 1, ("R", "_emitted"): 1, ("T", "_entry"): 1,
             ("T", "_torsion"): 1, ("dT1", "_dt1_terms"): 1, ("dT1", "_torsion"): 1,
             ("dT1", "_emitted"): 1, "is_curvature": 0}
    assert _jet_reads(input_reads, jet) == reads
    assert input_reads["int_form calls"] <= 3
    assert input_reads["int_form entries"] <= 2 * 6 + 6 * 6  # v, w and at most all of dw
    assert vectors == [jet] and from_vectors == []
    assert audit(jet, 3).ok
    assert build_counts == {**CERTIFIED, "products": 2, "build_sigma_ab_composed": 1,
                            "build_sigma_ab_printed_parts": 1}
    assert _shares_read_parts(_held())
    assert _jet_reads(input_reads, jet) == reads
    assert vectors == [jet] and from_vectors == []


@pytest.mark.parametrize("m", [2, 3])
def test_identity_calls_derive_scalars_once_per_jet(build_counts, m):
    """The three public calls the identity-m3 workload makes per jet share
    one context, so each channel set they use is built once per jet, and
    part 2 builds no public printed parts, only the products its trace
    reads."""
    from wres_torsion.cli import _one_hot_cases

    for _, expected, kw in _one_hot_cases(m):
        jet = make_point_jet(m, **kw)
        before = dict(build_counts)
        total = part1_density(jet, m).value + part2_density(jet, m).value
        assert total == theorem_density(jet, m).value == expected
        assert {name: build_counts[name] - before.get(name, 0)
                for name in (*BUILDERS, *CHANNEL_SETS, *TRACED)} == {
            **dict.fromkeys((*BUILDERS, *CHANNEL_SETS), 0), **TRACED}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_context_filters_each_row_once_and_places_no_r_xx(monkeypatch, m, seed):
    """Through part 1, both part-2 sources and the metric, a context builds
    no bivector row of dT1 and places no order -(2mm+2) family: its traced
    channels are emitted off dT1's orbits, whose templates apply the
    ``_near`` filter once, when they are built (sigma_Delta's r_jets likewise
    off R's), and the grade-0 families are int sums (``read_families``); it
    reads each channel once per rule, and no bucket entry of either table is
    tagged r_xx, whose (a, b) and (b, a) placements cancel, or dt4, which no
    trace reads."""
    spreads, real_spread = [], symbols._spread

    def counted_spread(read, rule, n):
        spreads.append((read.name, getattr(rule, "func", rule).__name__))
        return real_spread(read, rule, n)

    for mod in (symbols, residue):
        monkeypatch.setattr(mod, "_spread", counted_spread)
    ctx = PipelineContext(random_point_jet(seed, m), m)
    assert ctx.dt_emitted[0] and ctx.dt_emitted[1]
    ctx.part1(), ctx.part2(), ctx.part2("composed"), ctx.metric()
    assert sorted(spreads) == [("R", "_emitted"), ("T", "_torsion"), ("dT1", "_emitted"),
                               ("dT1", "_torsion")]
    # the families are placed by ``order2`` alone, and dT1's whole terms are not read
    assert not {"order2", "dt_terms"} & set(vars(ctx))
    shift, tags = residue._tag_shift(ctx.n), set()
    for _, keys, _, _, buckets in (ctx.part1_buckets, ctx.delta_buckets):
        tags |= {keys[xi >> shift] for bucket in buckets.values() for xi, _ in bucket}
    assert not tags & {"r_xx", "dt4", (2, "r_xx"), (2, "dt4")}
    assert {"ric", "dt_xx", (2, "ric"), (2, "dt_xx"), (1, "dt_jet"), (0, "r_jet")} <= tags


@pytest.mark.parametrize("m", [2, 3])
def test_context_refuses_a_curvature_not_antisymmetric_in_its_last_pair(monkeypatch, m):
    """sigma_Delta's r_jets walk R only over s < t and j <= k, which is
    sound because the context refuses, through its derived scalars, an R
    with R_{bast} != -R_{bats} before any r_jet term is formed (no symbol
    term or bucket entry at an x-degree, which only R, dT1 and dw give, is
    formed at all), whichever reader of R is asked first."""
    import dataclasses

    formed, real_symbol, real_filled = [], symbols._symbol, residue._filled

    def counted_symbol(n, nums, den, coeff=1):
        nums = list(nums)
        formed.extend(key for key, _ in nums if key[0])
        return real_symbol(n, nums, den, coeff)

    def counted_filled(n, keys, channels, *parts):
        formed.extend(key for part in parts for key, _ in part if key[0])
        return real_filled(n, keys, channels, *parts)

    monkeypatch.setattr(symbols, "_symbol", counted_symbol)
    monkeypatch.setattr(residue, "_filled", counted_filled)
    jet = random_point_jet(0, m)
    (b, a, t, s), x = next((k, x) for k, x in jet.R_entries.items() if k[2] < k[3])
    jet = dataclasses.replace(jet, R_entries={**jet.R_entries, (b, a, s, t): x})
    for read in (lambda c: c.part1(), lambda c: c.part2(), lambda c: c.delta_buckets,
                 lambda c: c.word_sums, lambda c: c.order2):
        with pytest.raises(ValueError):
            read(PipelineContext(jet, m))
    assert formed == []
    # the counter sees r_jet's bucket entries when R is sound
    PipelineContext(random_point_jet(0, m), m).delta_buckets
    assert formed


def test_audit_builds_one_xi_table_and_one_sigma_delta_table(monkeypatch):
    """An audit makes one ``compose`` call, on the composed product symbol's
    left factor sigma(D_T) at x0, and makes four kernel passes over two
    tables of emitted channels and one bucketing: part 1's 8 channels are
    emitted once for its table, sigma_Delta's 14 once for both part-2
    tables, and the metric's lead channel is bucketed once for its one cell.
    The printed pass reads the public s2 itself, of s1_tt and s1_dw their
    grade-2 parts and of each grade-0 channel its scalar part.  No
    ``SymbolExpr.sum_of`` sums an inverse-power channel (a term with a norm
    power), and part1, part2 and every ``verify`` check on the traced
    context read the tables with no further pass."""
    from wres_torsion import cli

    jet = random_point_jet(3, 2)
    # the right keys of the public builders' channels
    sigma_delta = [(g, key) for g, parts in enumerate(build_sigma_delta_inv_parts(jet))
                   for key in parts]
    dtpow = list(symbols.build_sigma_dtpow_parts(jet))
    composed, buckets, passes, sums = [], [], [], []
    compose, bucketed, trace_table = symbols.compose, residue._bucketed, residue._trace_table
    sum_of, filled = SymbolExpr.sum_of.__func__, residue._filled

    def counted(left, right):
        composed.append(left)
        return compose(left, right)

    def counted_buckets(n, rights):
        buckets.append(list(rights))
        return bucketed(n, rights)

    def counted_filled(n, keys, channels, *parts):
        buckets.append(list(keys))
        return filled(n, keys, channels, *parts)

    def counted_passes(lefts, right, m):
        passes.append(lefts)
        return trace_table(lefts, right, m)

    def counted_sums(cls, n, exprs):
        exprs = list(exprs)
        sums.append(exprs)
        return sum_of(cls, n, exprs)
    monkeypatch.setattr(symbols, "compose", counted)
    monkeypatch.setattr(residue, "_bucketed", counted_buckets)
    monkeypatch.setattr(residue, "_filled", counted_filled)
    monkeypatch.setattr(residue, "_trace_table", counted_passes)
    monkeypatch.setattr(SymbolExpr, "sum_of", classmethod(counted_sums))
    assert audit(jet, 2).ok
    ctx = _held()
    assert len(sigma_delta) == 14
    assert buckets == [dtpow, sigma_delta, ["lead"]]
    assert [list(lefts) for lefts in passes] == [
        ["cvw"], list(ctx.ab_printed_parts), [0, 1, 2], ["cvw"]]
    printed, full = passes[1], ctx.ab_printed_parts
    assert printed["s2"] is full["s2"]
    for key, grade in (("s1_tt", 2), ("s1_dw", 2), *((key, 0) for key in (
            "s0_tt", "s0_r", "s0_dt", "s0_tdw"))):
        assert printed[key] == SymbolExpr._of(jet.n, {
            k: c for k, c in full[key].nums.items() if k[3].bit_count() == grade},
            full[key].den, full[key].phase), key
    assert sums and not any(key[2] for exprs in sums for e in exprs for key in e.nums)
    sigma = at_x0(sum_of(SymbolExpr, jet.n, symbols.build_sigma_dt(jet)))
    assert composed == [sigma]
    count = (len(composed), len(buckets), len(passes))
    assert ctx.part1() == part1_density(jet, 2) and ctx.part2("composed").value
    assert ctx.part2("printed") == part2_density(jet, 2)
    assert all(row(3, ctx) for row, _ in cli.JET_CHECKS.values())
    assert (len(composed), len(buckets), len(passes)) == count


def _summed_trace(lefts, rights, m, pairs):
    """The trace of one composition of the summed channels of each side: by
    the moment oracle on ``symbols.compose`` (``pairs``), else by the
    one-cell kernel."""
    n = 2 * m
    left, right = SymbolExpr.sum_of(n, lefts), SymbolExpr.sum_of(n, rights)
    if not pairs:
        return residue._leibniz_trace(left, right, m)
    return _oracle_trace(xi_grade(symbols.compose(left, right), -2 * m), n)


# label -> (printed channels, sigma_Delta grade (0, 1, 2 for the orders -2m,
# -2m-1, -2m-2), its channels or None for all of them)
_PART2_ROWS = {
    "II-1-A": (("s0_tt",), 0, None), "II-1-B": (("s0_r",), 0, None),
    "II-1-C": (("s0_dt",), 0, None), "II-1-D": (("s0_tdw",), 0, None),
    "II-2-A": (("s1_tt",), 1, None), "II-2-B": (("s1_dw",), 1, None),
    **{f"II-3-{label}": (("s2",), 2, (key,)) for label, key in zip("ABCDEFGH", (
        "ric", "tt_xx", "tt_scalar", "div_t", "r_xx", "dt_xx", "e_scalar", "dt4"))},
    "II-4-A": (("s2",), 1, ("ric_jet",)), "II-4-B": (("s2",), 1, ("r_jet",)),
    "II-4-C": (("s2",), 1, ("dt_jet",)), "II-5": (("s1_tt", "s1_dw"), 0, None),
    "II-6": (("s2",), 0, ("r_jet",)),
}


def test_audit_rows_and_totals_match_the_summed_path():
    """Every audit row and the part-1, part-2 and composed-shift totals (and
    the metric) equal one trace of the row's channels summed on each side,
    the traced channels as symbols (``traced_channels``, off a fresh
    context): by the moment oracle on ``symbols.compose`` at
    m = 2 and on the one-hot jets, by the one-cell kernel on the m = 3
    seeds.  The rows are read off shared tables, so they add up to the
    totals by construction; this checks both against a path that sums
    before it traces."""
    from wres_torsion.cli import _one_hot_cases
    from wres_torsion.numerics import format_rational

    for m in (2, 3):
        jets = [(random_point_jet(seed, m), m == 2) for seed in range(5)]
        jets += [(make_point_jet(m, **kw), True) for _, _, kw in _one_hot_cases(m)]
        for jet, pairs in jets:
            report, ctx = audit(jet, m), PipelineContext(jet, m)
            engine = {e.label: e.engine for e in report.entries}
            dtpow, sigma = traced_channels(ctx)
            expected = {f"I-{label}": _summed_trace([ctx.cvw], [part], m, pairs)
                        for label, part in zip("ABCDEFGH", dtpow.values())}
            for label, (lefts, g, rights) in _PART2_ROWS.items():
                expected[label] = _summed_trace(
                    [ctx.ab_printed_parts[key] for key in lefts],
                    [part for key, part in sigma[g].items() if rights is None or key in rights],
                    m, pairs)
            assert engine == expected, (m, jet)
            everything = [part for parts in sigma for part in parts.values()]
            p1 = _summed_trace([ctx.cvw], dtpow.values(), m, pairs)
            p2 = _summed_trace(ctx.ab_printed_parts.values(), everything, m, pairs)
            shift = _summed_trace(ctx.ab_composed, everything, m, pairs) - p2
            metric = _summed_trace([ctx.cvw], [symbols.build_sigma_delta_lead(jet)], m, pairs)
            assert {name: report.totals[name]["engine"] for name in (
                "part1", "part2", "part2_composed_vs_printed_shift", "metric")} == {
                "part1": format_rational(p1), "part2": format_rational(p2),
                "part2_composed_vs_printed_shift": format_rational(shift),
                "metric": format_rational(metric)}, (m, jet)


def test_printed_table_cells_match_the_full_printed_parts():
    """Every (printed channel, sigma_Delta channel) cell of the context's
    table, which reads the grade-0 channels as scalar parts, traces to the
    value of the same cell traced from the full public printed parts."""
    from itertools import product
    from wres_torsion.cli import _one_hot_cases

    for m in (1, 2, 3):
        jets = [random_point_jet(seed, m) for seed in range(5)] + [make_point_jet(m)]
        jets += [make_point_jet(m, **kw) for _, _, kw in _one_hot_cases(m)] if m > 1 else []
        for jet in jets:
            ctx = PipelineContext(jet, m)
            full = residue._trace_table(ctx.ab_printed_parts, ctx.delta_buckets, m)
            for left, right in product(ctx.ab_printed_parts, ctx.delta_buckets[1]):
                assert (ctx.printed_table.trace({left}, {right})
                        == full.trace({left}, {right})), (m, jet, left, right)
            assert ctx.part2().value == full.trace()


def test_trace_table_refuses_a_key_it_does_not_hold():
    """A left or right key that names none of a table's channels raises
    ValueError naming it, where it would otherwise read as an empty cell
    (the r_xx cell of part 1, which no term reaches, is 0)."""
    ctx = PipelineContext(random_point_jet(3, 2), 2)
    order_m = {(0, "lead"), (0, "r_jet")}
    assert ctx.part1_table.trace(("cvw",), ("r_xx",)) == 0
    assert ctx.printed_table.trace({"s0_tdw"}, order_m) == -Fraction(1, 4) * ctx.derived.t_dw
    with pytest.raises(ValueError, match="'s0_tdwx'"):
        ctx.printed_table.trace({"s0_tdwx"}, order_m)
    with pytest.raises(ValueError, match="'nope'"):
        ctx.part1_table.trace(("cvw",), ("nope",))
    with pytest.raises(ValueError, match=re.escape("(2, 'lead')")):
        ctx.printed_table.trace({"s2"}, {(2, "lead")})
    with pytest.raises(ValueError, match="'cvw'"):
        ctx.printed_table.trace(("cvw",), ())


def test_trace_table_refuses_an_empty_selection():
    """A selection with no left or no right key raises ValueError naming the
    empty side, where it would otherwise read as 0; ``trace()`` is the
    whole table."""
    ctx = PipelineContext(random_point_jet(3, 2), 2)
    assert ctx.part1_table.trace() == Fraction(-5915, 1944)
    for call, side in ((lambda: ctx.part1_table.trace(("cvw",)), "no right channel"),
                       (lambda: ctx.printed_table.trace({"s2"}), "no right channel"),
                       (lambda: ctx.printed_table.trace({"s2"}, ()), "no right channel"),
                       (lambda: ctx.printed_table.trace((), {(0, "lead")}), "no left channel"),
                       (lambda: ctx.printed_table.trace(rights={(0, "lead")}), "no left channel"),
                       (lambda: ctx.metric_table.trace((), ()), "no left or right channel")):
        with pytest.raises(ValueError, match=side):
            call()


@pytest.mark.parametrize("m", range(1, 9))
def test_every_audit_row_names_cells_of_its_table(m):
    """Each of the 27 audit rows names channels its table holds, so none
    reads 0 from a misspelt key, at every supported m: the channel keys do
    not depend on the jet, which is zero here so that m = 8 stays cheap."""
    ctx = PipelineContext(make_point_jet(m), m)
    rows = residue._audit_rows(m, ctx.derived)
    assert len({row.label for row in rows}) == len(rows) == 27
    for row in rows:
        table = getattr(ctx, row.table)
        assert row.lefts and row.rights, row.label
        assert set(row.lefts) <= set(table.left_keys), row.label
        assert set(row.rights) <= set(table.right_keys), row.label
    assert [e.label for e in audit(ctx.jet, m).entries] == [row.label for row in rows]


@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_audit_beyond_m3_keeps_its_findings(m, seed):
    """Past m = 3 the audit is ok with the same reconciled mismatches as at
    m = 2 and 3 (I-D, I-F, II-3-B and II-3-C), the composed source shifts
    part 2 by (3/4) TT, and part 1 + part 2 is the theorem."""
    jet = random_point_jet(seed, m)
    report, tt = audit(jet, m), derived_scalars(jet).tt_vw
    assert report.ok and tt
    mismatches = [e for e in report.entries if not e.match]
    assert [e.label for e in mismatches] == ["I-D", "I-F", "II-3-B", "II-3-C"]
    assert all(e.reconciled for e in mismatches)
    ctx = _held()
    assert ctx.part2("composed").value - ctx.part2("printed").value == Fraction(3, 4) * tt
    assert (part1_density(jet, m).value + part2_density(jet, m).value
            == theorem_density(jet, m).value)


@pytest.mark.parametrize("m", range(4, 9))
def test_one_hot_cases_match_their_totals_beyond_m3(m):
    from wres_torsion.cli import _one_hot_cases

    for label, expected, kw in _one_hot_cases(m):
        jet = make_point_jet(m, **kw)
        total = part1_density(jet, m).value + part2_density(jet, m).value
        assert total == theorem_density(jet, m).value == expected, (m, label)


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
    composed = part2_density(jet, 2, "composed").value
    assert composed
    held = _held()
    monkeypatch.setattr(residue, "build_sigma_ab_composed",
                        lambda jet, inputs=None: (SymbolExpr(jet.n),) * 3)
    assert part2_density(jet, 2, "composed").value == \
        PipelineContext(jet, 2).part2("composed").value == 0
    assert _held() is not held
    monkeypatch.undo()
    assert part2_density(jet, 2, "composed").value == composed


@pytest.mark.parametrize("m", [2, 3])
def test_a_composed_builder_swapped_for_the_printed_one_fails_the_audit(monkeypatch, m):
    """Every product-symbol builder takes one argument, so the printed
    builder can stand in for the composed one: the audit then runs to its
    report, grade 1 reads equal, and the composed source's part 2 loses the
    (3/4) TT shift, so the report is not ok."""
    jet = random_point_jet(9, m)
    tt = derived_scalars(jet).tt_vw
    assert tt
    monkeypatch.setattr(residue, "build_sigma_ab_composed", build_sigma_ab_printed)
    report = audit(jet, m)
    assert not report.ok
    shift = report.totals[residue.SHIFT]
    assert (Fraction(shift["engine"]), Fraction(shift["printed"]), shift["match"]) == (
        0, Fraction(3, 4) * tt, "false")
    assert report.lemma36_diff["grade1_equal"] is True


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


# ---------------------------------------------------------------------------
# traced channels against the full public ones
# ---------------------------------------------------------------------------

def _whole_delta_buckets(jet):
    """The whole channels of ``build_sigma_delta_inv_parts``, keyed (g, name)
    as in ``PipelineContext.delta_buckets``, bucketed."""
    return residue._bucketed(jet.n, {(g, name): part for g, parts in enumerate(
        build_sigma_delta_inv_parts(jet)) for name, part in parts.items()})


def _full_tables(jet, m):
    """The part-1, printed and composed part-2 tables traced from the full
    channels of the public builders, (left keys, right keys) with each."""
    n = jet.n
    delta = _whole_delta_buckets(jet)
    dtpow = residue._bucketed(n, symbols.build_sigma_dtpow_parts(jet))
    cvw = SymbolExpr.from_clifford(CliffordElement.from_vector(n, jet.v)
                                   * CliffordElement.from_vector(n, jet.w))
    printed = symbols.build_sigma_ab_printed_parts(jet)
    composed = dict(enumerate(symbols.build_sigma_ab_composed(jet)))
    return {"part1_table": (residue._trace_table({"cvw": cvw}, dtpow, m), ["cvw"], dtpow[1]),
            "printed_table": (residue._trace_table(printed, delta, m), list(printed), delta[1]),
            "composed_table": (residue._trace_table(composed, delta, m), [0, 1, 2], delta[1])}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_traced_table_cells_match_the_full_public_channels(m):
    """Every cell of the context's part-1 and part-2 tables, traced from the
    channels projected on what the trace reads, equals the cell traced
    from the full channels of the public builders (seeds 0-4, the zero jet
    and the one-hot coefficient jets)."""
    from itertools import product
    from wres_torsion.cli import _one_hot_cases

    jets = [random_point_jet(seed, m) for seed in range(5)] + [make_point_jet(m)]
    jets += [make_point_jet(m, **kw) for _, _, kw in _one_hot_cases(m)] if m > 1 else []
    for jet in jets:
        ctx = PipelineContext(jet, m)
        for name, (full, lefts, rights) in _full_tables(jet, m).items():
            table = getattr(ctx, name)
            for left, right in product(lefts, rights):
                assert table.trace({left}, {right}) == full.trace({left}, {right}), (
                    m, jet, name, left, right)
            assert table.trace() == full.trace()


def _bucket_values(bucketed):
    """(right keys, phase, {(bucket key, tagged xi-code): nonzero summed value
    over the table's denominator}) of a ``Bucketed``."""
    n, keys, den, phase, buckets = bucketed
    sums = {}
    for key, entries in buckets.items():
        for xi, r in entries:
            sums[key, xi] = sums.get((key, xi), 0) + r
    return keys, phase, {k: Fraction(r, den) for k, r in sums.items() if r}


@pytest.mark.parametrize("m", [1, 2, 3, 4, *(pytest.param(m, marks=pytest.mark.slow)
                                              for m in (5, 6, 7, 8))])
def test_emitted_buckets_match_the_traced_channels(m):
    """Part 1's and sigma_Delta's buckets, emitted off R's and dT1's orbit
    templates and the int sums with no symbol, hold per (bucket key, tagged
    xi-code) the value that ``_bucketed`` gives the traced channels as
    symbols (``traced_channels``), under the same right keys and phase: on
    every front's jet (``_front_jets``: each ``with_*`` flag off, parsed,
    made, one-hot) and on the first one's hand-built and replaced copies,
    which are read entry by entry."""
    jets = _front_jets(m)
    jets += [_hand_built(jets[0]), dataclasses.replace(jets[0])]
    for jet in jets:
        ctx = PipelineContext(jet, m)
        dtpow, delta = traced_channels(ctx)
        oracle = (residue._bucketed(jet.n, dtpow), residue._bucketed(jet.n, {
            (g, name): part for g, parts in enumerate(delta) for name, part in parts.items()}))
        for got, expected in zip((ctx.part1_buckets, ctx.delta_buckets), oracle):
            assert _bucket_values(got) == _bucket_values(expected), (m, jet)
    assert _bucket_values(oracle[1])[2]


@pytest.mark.parametrize("xdeg, xideg, word, coeff", [
    ((2, 0, 0, 0), (1, 1, 0, 0), 0, 3),               # x_1^2: 2!, and i^2 flips the sign
    ((0, 1, 0, 0), (1, 0, 0, 0), 0, 5 * I),           # imaginary at odd |nu|, as ric_jet
    ((0,) * 4, (0, 1, 0, 0), 0b0101, -7 * I),         # a word, as tt
    ((0,) * 4, (2, 0, 0, 2), 0, Fraction(1, 1)),      # i^4
    ((1, 0, 0, 1), (0, 0, 3, 0), 0b1000, 2)])         # i^4 again, at odd xi and grade
def test_entries_place_a_term_as_bucketed_places_its_symbol(xdeg, xideg, word, coeff):
    """``_entries`` gives a term i^imag c x^mu xi^nu word at norm power p the
    bucket entry that ``_bucketed`` gives it as a phase-0 symbol: mu! times
    i^(|nu| + grade - imag) c, under the key of its word, odd mask and
    xi-order |nu| + p; where ``even``, nothing at an odd xi-monomial."""
    n, p, imag = 4, -6, int(isinstance(coeff, GaussianRational) and bool(coeff.im))
    symbol = SymbolExpr(n, {(xdeg, xideg, p, word): coeff})
    (key, _), = symbol.nums.items()
    c = int(coeff.im if imag else GaussianRational(coeff).re)
    assert symbol.phase == 0 and symbol.den == 1
    entries = residue._entries(n, 0, [(key, c)], imag, p, 0)
    assert _bucket_values((n, [0], 1, 0, {k: [(xi, r)] for (k, xi), r in entries.items()})) \
        == _bucket_values(residue._bucketed(n, {0: symbol}))
    assert residue._entries(n, 0, [(key, c)], imag, p, 1) == ({} if any(
        e % 2 for e in xideg) else entries)
    with pytest.raises(ValueError, match="breaks the phase rule"):
        residue._entries(n, 0, [(key, c)], 1 - imag, p, 0)
    big = (key[0], key[1] + 128 * ((1 << 8 * n) + 1), p, word)
    with pytest.raises(PipelineError, match="cannot be packed"):
        residue._entries(n, 0, [(big, c)], imag, p, 0)


@pytest.mark.parametrize("rule, broken, error, message", [
    (rule, broken, error, message) for rule in ("_R_EMITTED", "_DT_EMITTED")
    for broken, error, message in (("word", ValueError, "breaks the phase rule"),
                                   ("xi", PipelineError, "cannot be packed"))])
def test_emission_checks_each_template_term(monkeypatch, rule, broken, error, message):
    """R's and dT1's templates check each term of their traced rule once,
    when they are built, as ``_symbol`` and ``_bucketed`` checked each
    channel term: a term whose key breaks the phase rule of its phase-0
    channel (a word of the other grade parity) raises ValueError, and one
    whose xi-code could carry in the kernel (an exponent past 127)
    PipelineError."""
    emitting = getattr(residue, rule)
    n = 4

    def bent(index, n, _rule=emitting.keywords["rule"]):
        for part, (x, xi, p, word), c in _rule(index, n):
            if broken == "word":
                word ^= 1 << n - 1
            else:
                xi += 200 * ((1 << 8 * n) + 1)
            yield part, (x, xi, p, word), c
    monkeypatch.setattr(residue, rule, partial(emitting.func, rule=bent,
                                               outs=emitting.keywords["outs"]))
    with pytest.raises(error, match=message):
        PipelineContext(random_point_jet(0, n // 2), n // 2).part2()


def test_a_certified_jet_forms_eight_symbols_and_no_bucketing(monkeypatch):
    """The six public calls of a certification of one m = 3 jet form eight
    symbols through ``symbols._symbol`` (c(v)c(w) and the seven printed
    channels), bucket no symbol (``_bucketed``) and fill three tables in
    three kernel passes: every inverse-power channel of parts 1 and 2, and
    the metric's lead, is emitted into its table's buckets.  The int sums of
    ``JetInputs.sums`` are formed once, and the context's public sigma_Delta
    channels read the same ones."""
    from collections import Counter

    calls = Counter()
    for module, name in ((symbols, "_symbol"), (residue, "_bucketed"), (residue, "_filled"),
                         (residue, "_trace_table")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)

    def counted_sums(self, _fn=symbols.JetInputs.sums.func):
        calls["sums"] += 1
        return _fn(self)
    sums = cached_property(counted_sums)
    sums.__set_name__(symbols.JetInputs, "sums")
    monkeypatch.setattr(symbols.JetInputs, "sums", sums)
    jet, m = random_point_jet(4, 3), 3
    p1, p2 = part1_density(jet, m).value, part2_density(jet, m).value
    assert p1 == part1_closed(jet, m).value and p2 == part2_closed(jet, m).value
    assert p1 + p2 == theorem_density(jet, m).value
    assert metric_density(jet, m).value == -derived_scalars(jet).g_vw
    assert calls == {"_symbol": 8, "_filled": 3, "_trace_table": 3, "sums": 1}
    ctx, calls["_symbol"] = _held(), 0
    whole = ctx.sigma_delta()[1]
    assert calls["sums"] == 1 and calls["_symbol"] > 0
    # sigma_delta reads the context's sums: halving them halves its channels
    for name in ("ric_jet", "tt"):
        nums, den = ctx.sums[name]
        ctx.sums = {**ctx.sums, name: (nums, 2 * den)}
        assert ctx.sigma_delta()[1][name] == whole[name].scale(Fraction(1, 2)), name


@pytest.mark.parametrize("m", [2, 3, 4])
def test_delta_buckets_serve_the_spectral_torsion_channels(m):
    """The spectral-torsion left channels c(u)c(v)c(w) sigma_1(D_T) and
    c(u)c(v)c(w) sigma_0(D_T) at x0 read the same cells from the context's
    ``delta_buckets`` (sigma_Delta projected on what parts 1 and 2 read) as
    from the whole channels of ``build_sigma_delta_inv_parts`` (seeds 0-2,
    random integer u).  Each reaches a nonzero cell, and the sigma_1 trace is
    -18 times the sigma_0 one: -(9/2) T(u, v, w) against (1/4) T(u, v, w)."""
    from itertools import product

    for seed in range(3):
        jet = random_point_jet(seed, m)
        n, rng = jet.n, random.Random(seed)
        u = [rng.randint(-3, 3) for _ in range(n)]
        cuvw = SymbolExpr.from_clifford(CliffordElement.from_vector(n, u)
                                        * CliffordElement.from_vector(n, jet.v)
                                        * CliffordElement.from_vector(n, jet.w))
        sigma1, sigma0 = symbols.build_sigma_dt(jet)
        lefts = {"sigma1": cuvw * sigma1, "sigma0": at_x0(cuvw * sigma0)}
        whole = _whole_delta_buckets(jet)
        traced = residue._trace_table(lefts, PipelineContext(jet, m).delta_buckets, m)
        full = residue._trace_table(lefts, whole, m)
        for left, right in product(lefts, whole[1]):
            assert traced.trace({left}, {right}) == full.trace({left}, {right}), (
                m, seed, left, right)
        totals = {left: full.trace({left}, whole[1]) for left in lefts}
        assert totals["sigma0"] and totals["sigma1"] == -18 * totals["sigma0"], (m, seed)


def test_traced_channels_bucket_fewer_entries():
    """The traced sigma_Delta channels and part-1 channels hold fewer terms
    than the full ones on a dense jet, and so do the tables' emitted buckets
    (one entry per term); the traced grade-4 dt4 is empty."""
    jet = random_point_jet(1, 3)
    ctx = PipelineContext(jet, 3)
    size = lambda parts: sum(len(e.nums) for e in parts.values())
    entries = lambda bucketed: sum(map(len, bucketed[4].values()))
    dtpow, delta = traced_channels(ctx)
    traced = sum(map(size, delta))
    assert 2 * traced < sum(map(size, build_sigma_delta_inv_parts(jet)))
    assert 2 * size(dtpow) < size(symbols.build_sigma_dtpow_parts(jet))
    assert (entries(ctx.delta_buckets), entries(ctx.part1_buckets)) == (traced, size(dtpow))
    assert not dtpow["dt4"] and not delta[2]["dt4"]
    assert symbols.build_sigma_dtpow_parts(jet)["dt4"]


def test_audit_forms_no_clifford_product_twice(monkeypatch):
    """Per audit jet no two Clifford factors are multiplied on overlapping
    grades: the public printed parts are the read products plus the
    products of the other grades, and c(v) tau c(w) is built once."""
    from collections import defaultdict

    formed, held = defaultdict(list), []
    mul, graded = CliffordElement.__mul__, symbols._graded

    def counted_mul(a, b):
        held.append((a, b))
        formed[id(a), id(b)].append(set(range(a.n + 1)))
        return mul(a, b)

    def counted_graded(a, b, grades):
        held.append((a, b))
        formed[id(a), id(b)].append({k for k in range(a.n + 1) if k in grades})
        return graded(a, b, grades)
    monkeypatch.setattr(CliffordElement, "__mul__", counted_mul)
    monkeypatch.setattr(symbols, "_graded", counted_graded)
    for m in (2, 3):
        formed.clear()
        assert audit(random_point_jet(1, m), m).ok
        split = [grades for grades in formed.values() if len(grades) > 1]
        assert split and all(len(set.union(*g)) == sum(map(len, g)) for g in split)


def test_audit_multiplies_fewer_symbol_word_pairs(monkeypatch):
    """One m = 4 audit (seed 0) makes 2m + 4 = 12 ``SymbolExpr`` products
    over fewer than 30,000 word pairs (len(a.nums) * len(b.nums) per
    product; 22,944 here).  With c(v) in ``compose``'s left factor, each
    alpha's product met up to n times the left terms: 39,781 pairs."""
    mul, calls, pairs = SymbolExpr.__mul__, [], []

    def counted(a, b):
        calls.append(1)
        pairs.append(len(a.nums) * len(b.nums))
        return mul(a, b)
    monkeypatch.setattr(SymbolExpr, "__mul__", counted)
    assert audit(random_point_jet(0, 4), 4).ok
    assert len(calls) == 12 and sum(pairs) < 30000, (len(calls), sum(pairs))


@pytest.mark.parametrize("m", range(2, 7))
def test_hand_typed_note_numbers_match_the_engine(m):
    """The numbers that the convention notes and the row notes type by hand
    are the engine's at m = 2-6, on seed 0 and the two torsion one-hot jets
    (T_123 = 1 with v = w = e_4, where TT = 0, and with v = w = e_1):
    II-3-B's engine value (27/4) m |T|^2 g - (9/4) TT, II-3-C's
    -(27/4)(m-1) |T|^2 g, part 1's bracket -3(m-1)/4 |T|^2 g beside
    (m-1)/12 s g, the TT coefficient -13/16 = -25/16 + 3/4 of the strictly
    composed density (73/16 |T|^2 g - 13/16 TT on the torsion-only jets)
    and the prefactor ratios 6 and 18."""
    from wres_torsion.cli import _one_hot_cases

    rows = {row.label: row for row in residue._audit_rows(m, derived_scalars(make_point_jet(m)))}
    notes = " ".join(residue._CONVENTION_NOTES)
    typed = {"II-3-B": "(27/4) m |T|^2 g - (9/4) TT", "II-3-C": "-(27/4)(m-1) |T|^2 g"}
    for label, text in typed.items():
        assert text in rows[label].note and text in notes, label
    first, printed = TORSION_PREFACTOR["first_principles"], TORSION_PREFACTOR["printed"]
    for text in ("the bracket is -3(m-1)/4 |T|^2 g(v,w)", "+3/4 sum T(v,e_j,e_l)T(w,e_j,e_l)",
                 "-13/16 coefficient in place of -25/16", f"uses {printed} on increasing",
                 f"carries 3/2 (ratio {Fraction(3, 2) / printed})",
                 f"carries {first} (ratio {first / printed})"):
        assert text in notes, text
    assert residue._TT + Fraction(3, 4) == Fraction(-13, 16) and first / printed == 18

    torsion_only = [make_point_jet(m, **kw) for _, _, kw in list(_one_hot_cases(m))[:2]]
    for jet in [random_point_jet(0, m), *torsion_only]:
        ctx, der = PipelineContext(jet, m), derived_scalars(jet)
        nt2_g, tt = der.norm_t2 * der.g_vw, der.tt_vw
        cell = lambda label: ctx.printed_table.trace(rows[label].lefts, rows[label].rights)
        assert cell("II-3-B") == Fraction(27, 4) * m * nt2_g - Fraction(9, 4) * tt
        assert cell("II-3-C") == -Fraction(27, 4) * (m - 1) * nt2_g
        assert ctx.part1().value == (Fraction(m - 1, 12) * der.s * der.g_vw
                                     - Fraction(3 * (m - 1), 4) * nt2_g)
    for jet in torsion_only:
        ctx, der = PipelineContext(jet, m), derived_scalars(jet)
        assert der.norm_t2 * der.g_vw and ctx.part1().value + ctx.part2("composed").value == (
            Fraction(73, 16) * der.norm_t2 * der.g_vw - Fraction(13, 16) * der.tt_vw)
    assert derived_scalars(torsion_only[1]).tt_vw


@pytest.mark.parametrize("m", range(2, 9))
def test_one_hot_jets_form_linearly_many_clifford_products(monkeypatch, m):
    """Part 1 + part 2 of a jet with one-hot v and w (and one T, dT1, dw or
    curvature entry) form at most 3n Clifford products and at most 4n graded
    ones, counted as in ``test_audit_forms_no_clifford_product_twice``: s2
    by the Clifford relation takes n one-word products where the sum over
    (f, g) took n^2, and no product with an empty factor is formed."""
    from wres_torsion.cli import _one_hot_cases

    counts = {"mul": 0, "graded": 0}
    mul, graded = CliffordElement.__mul__, symbols._graded

    def counted_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    def counted_graded(a, b, grades):
        counts["graded"] += 1
        return graded(a, b, grades)
    monkeypatch.setattr(CliffordElement, "__mul__", counted_mul)
    monkeypatch.setattr(symbols, "_graded", counted_graded)
    n = 2 * m
    e3 = [Fraction(int(k == 2)) for k in range(n)]
    for kw in [kw for _, _, kw in _one_hot_cases(m)] + [dict(R=[[0, 1, 0, 1, 1]], v=e3, w=e3)]:
        ctx = PipelineContext(make_point_jet(m, **kw), m)
        counts.update(mul=0, graded=0)
        ctx.part1(), ctx.part2()
        assert counts["mul"] <= 3 * n and counts["graded"] <= 4 * n, (kw, counts)


def test_closed_forms_and_audit_displays_are_linear_in_m():
    """On each one-hot coefficient jet and on the curvature jets R_1212 = 1
    with v = w = e_1 and with v = w = e_3, whose derived scalars do not
    depend on m, the closed forms, the densities and every audit row
    (engine and display) are fitted as a + b m from m = 2 and 3, and the fit
    is exact at every m from 4 to 8.  This is evidence for m <= 8, not a
    proof for all m."""
    from wres_torsion.cli import _one_hot_cases

    def cases(m):
        yield from _one_hot_cases(m)
        for i in (0, 2):
            e = [Fraction(int(k == i)) for k in range(2 * m)]
            yield f"R_1212 = 1, v = w = e_{i + 1}", None, dict(R=[[0, 1, 0, 1, 1]], v=e, w=e)

    def values(m):
        out = {}
        for label, expected, kw in cases(m):
            jet = make_point_jet(m, **kw)
            der = derived_scalars(jet)
            out[label, "scalars"] = (der.g_vw, der.s, der.norm_t2, der.tt_vw, der.div_t_vw,
                                     der.t_dw)
            for f in (part1_density, part1_closed, part2_density, part2_closed,
                      theorem_density, metric_density):
                out[label, f.__name__] = f(jet, m).value
            for entry in audit(jet, m).entries:
                out[label, entry.label] = (entry.engine, entry.printed)
        return out

    two, three = values(2), values(3)
    # the curvature rows are reached: on the e_3 jet these engine values are not 0
    assert all(two["R_1212 = 1, v = w = e_3", row][0]
               for row in ("I-A", "II-1-B", "II-3-A", "II-4-A", "II-6"))
    for m in range(4, 9):
        got = values(m)
        assert got.keys() == two.keys()
        for key, value in got.items():
            if key[1] == "scalars":
                assert value == two[key] == three[key], (m, key)
                continue
            at2, at3 = (x if isinstance(x, tuple) else (x,) for x in (two[key], three[key]))
            fit = tuple(a + (b - a) * (m - 2) for a, b in zip(at2, at3))
            assert (value if isinstance(value, tuple) else (value,)) == fit, (m, key)
