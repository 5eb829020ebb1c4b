"""Symbol term algebra, calculus, composition, and the graded builders."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import re
import types
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from test_geometry import _front_jets, _hand_built, _walked

from wres_torsion import geometry, symbols
from wres_torsion.clifford import CliffordElement, blade_mul, canonicalize, word_from_indices
from wres_torsion.geometry import (
    SUPPORTED_M,
    derived_scalars,
    make_point_jet,
    random_point_jet,
)
from wres_torsion.numerics import GaussianRational, I, ONE, _collected, _integer_form, _reduced
from wres_torsion.symbols import (
    X_TRUNCATION,
    SymbolExpr,
    TORSION_PREFACTOR,
    at_x0,
    build_sigma_ab_composed,
    build_sigma_ab_printed,
    build_sigma_delta_inv_parts,
    build_sigma_dt,
    build_sigma_dtpow_parts,
    d_x,
    d_xi,
    xi_grade,
)

N = 4


def _expr(*terms, n=N):
    """The expression of (xdeg, xideg, p, word, coeff) terms, through the
    constructor, with the coefficients of a repeated key summed first."""
    summed = {}
    for xdeg, xideg, p, word, coeff in terms:
        key = (tuple(xdeg), tuple(xideg), p, word)
        summed[key] = summed.get(key, 0) + coeff
    return SymbolExpr(n, summed)


def _unit(j, value=1):
    return tuple(value if i == j else 0 for i in range(N))


Z = (0,) * N


# ---------------------------------------------------------------------------
# ring and calculus
# ---------------------------------------------------------------------------

def test_product_of_xi_monomials():
    a = _expr((Z, _unit(0), 0, 0b0001, ONE))      # xi_1 c_1
    b = _expr((Z, _unit(1), 0, 0b0010, ONE))      # xi_2 c_2
    prod = a * b
    assert prod == _expr((Z, (1, 1, 0, 0), 0, 0b0011, ONE))


def test_norm_power_exponents_add():
    a = _expr((Z, Z, -2, 0, ONE))
    assert a * a == _expr((Z, Z, -4, 0, ONE))


def test_x_truncation_drops_degree_three():
    a = _expr((_unit(0), Z, 0, 0, ONE))
    b = _expr(((1, 1, 0, 0), Z, 0, 0, ONE))
    assert not (a * b).terms


def test_d_xi_monomial():
    e = _expr((Z, (1, 1, 0, 0), 0, 0, ONE))
    assert d_xi(e, 1) == _expr((Z, _unit(1), 0, 0, ONE))


def test_d_xi_norm_power():
    e = _expr((Z, Z, -2, 0, ONE))
    assert d_xi(e, 1) == _expr((Z, _unit(0), -4, 0, GaussianRational(-2)))


def test_d_xi_product_rule_mixed():
    # d/dxi_1 (xi_1 ||xi||^{-2m-2}) at m = 2
    e = _expr((Z, _unit(0), -6, 0, ONE))
    expected = _expr((Z, Z, -6, 0, ONE),
                     (Z, _unit(0, 2), -8, 0, GaussianRational(-6)))
    assert d_xi(e, 1) == expected


def test_d_x_examples():
    e = _expr(((1, 1, 0, 0), Z, 0, 0b0001, ONE))
    assert d_x(e, 1) == _expr((_unit(1), Z, 0, 0b0001, ONE))
    sq = _expr((_unit(0, 2), Z, 0, 0b0001, ONE))
    assert d_x(sq, 1) == _expr((_unit(0), Z, 0, 0b0001, GaussianRational(2)))
    assert not d_x(_expr((Z, _unit(1), 0, 0b0001, ONE)), 1).terms


def _phase_coeff(xideg, word, phase, r):
    """The coefficient i^(|xideg| + grade(word) - phase) r, as a Gaussian rational."""
    e = (sum(xideg) + bin(word).count("1") - phase) % 4
    value = -r if e >= 2 else r
    return GaussianRational(0, value) if e % 2 else GaussianRational(value)


def _random_expr(rng, n=N, terms=8, phase=None):
    """Random phase-consistent expression (phase drawn when not given)."""
    phase = rng.randint(0, 1) if phase is None else phase
    out = []
    for _ in range(terms):
        xdeg = [0] * n
        for _ in range(rng.randint(0, 2)):
            xdeg[rng.randrange(n)] += 1
        xideg = [0] * n
        for _ in range(rng.randint(0, 3)):
            xideg[rng.randrange(n)] += 1
        p = rng.choice([0, -2, -4, -6])
        word = rng.randrange(1 << n)
        r = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out.append((xdeg, xideg, p, word, _phase_coeff(xideg, word, phase, r)))
    return _expr(*out, n=n)


def test_partials_commute():
    rng = random.Random(2)
    for _ in range(25):
        e = _random_expr(rng)
        assert d_xi(d_xi(e, 1), 3) == d_xi(d_xi(e, 3), 1)
        assert d_x(d_x(e, 2), 4) == d_x(d_x(e, 4), 2)


def test_grade_partition():
    rng = random.Random(5)
    for _ in range(20):
        e = _random_expr(rng)
        grades = {sum(k[1]) + k[2] for k in e.terms}
        total = SymbolExpr(N)
        for d in grades:
            total = total + xi_grade(e, d)
        assert total == e
        assert not xi_grade(e, 99).terms


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def _alphas(n, alpha_max):
    """The multi-indices of order <= alpha_max, as sorted 1-based index tuples."""
    for k in range(alpha_max + 1):
        yield from itertools.combinations_with_replacement(range(1, n + 1), k)


def _partials(expr, d, alpha_max):
    """alpha -> d^alpha(expr) for |alpha| <= alpha_max by repeated d, zero
    entries dropped; each entry is one derivative of the entry for alpha
    minus its last index."""
    table = {(): expr}
    for alpha in _alphas(expr.n, alpha_max):
        prev = table.get(alpha[:-1]) if alpha else None
        if prev:
            der = d(prev, alpha[-1])
            if der:
                table[alpha] = der
    return table


def _multidegree(n, alpha):
    """The exponent tuple of a 1-based index tuple alpha."""
    return tuple(alpha.count(j) for j in range(1, n + 1))


def leibniz_compose(left, right, alpha_max=2, at=None):
    """sum_{|alpha| <= alpha_max} (-i)^|alpha|/alpha! d_xi^alpha(L) d_x^alpha(R).

    The full x-dependent composition, the independent oracle of
    ``symbols.compose``.  The derivatives are looked up in the
    ``symbols`` module, so ``oracle_arithmetic`` swaps them; the Leibniz
    factor is the tests' ``oracle_alpha_coefficient``.  With ``at`` (an
    ``at_x0``), each pair of derivatives is evaluated before its product:
    that is the composition at x0, since x-degrees add and none is negative,
    without the x-dependent products."""
    left._check(right)
    parts = []
    for alpha in _alphas(left.n, alpha_max):
        dl, dr = left, right
        for j in alpha:
            dl = symbols.d_xi(dl, j)
        if not dl:
            continue
        for j in alpha:
            dr = symbols.d_x(dr, j)
        if at:
            dl, dr = at(dl), at(dr)
        if not (dl and dr):
            continue
        parts.append(dl.scale(oracle_alpha_coefficient(alpha)) * dr)
    return type(left).sum_of(left.n, parts)


def test_compose_canonical_commutation():
    # L = xi_1, R = x_1:  x_1 xi_1 - i
    L = _expr((Z, _unit(0), 0, 0, ONE))
    R = _expr((_unit(0), Z, 0, 0, ONE))
    expected = _expr((_unit(0), _unit(0), 0, 0, ONE), (Z, Z, 0, 0, -I))
    assert leibniz_compose(L, R, 1) == expected


def test_compose_with_x_independent_right_is_product():
    rng = random.Random(9)
    for _ in range(10):
        L = _random_expr(rng)
        R = at_x0(_random_expr(rng))
        assert leibniz_compose(L, R, 2) == L * R


def test_compose_xi_independent_left_is_product():
    rng = random.Random(10)
    for _ in range(10):
        L = _expr((Z, Z, 0, 0b0101, GaussianRational(Fraction(2, 3))))
        R = _random_expr(rng)
        assert leibniz_compose(L, R, 2) == L * R


def _product_factors(jet):
    """The two factors c(v) sigma(D_T) and c(w) sigma(D_T) of the product
    symbol, w with its first jet, as full x-dependent symbols."""
    n = jet.n

    def c(vector, xdeg=(0,) * n):
        return SymbolExpr.from_clifford(CliffordElement.from_vector(n, vector), xdeg=xdeg)

    sigma = SymbolExpr.sum_of(n, build_sigma_dt(jet))
    cw = SymbolExpr.sum_of(n, [c(jet.w)] + [
        c(row, tuple(int(i == j) for i in range(n))) for j, row in enumerate(jet.dw)])
    return c(jet.v) * sigma, cw * sigma


def test_compose_at_x0_matches_generic():
    left, right = _product_factors(random_point_jet(4, 2))
    assert at_x0(leibniz_compose(left, right, 2)) == symbols.compose(left, right)


@pytest.mark.parametrize("seed, m", [(seed, m) for m in (2, 3) for seed in range(3)]
                         + [(seed, 1) for seed in range(3)] + [(0, 4)])
def test_composed_grades_match_full_composition(m, seed):
    """The first-order builder equals grades 2, 1, 0 of the full x-dependent
    composition with |alpha| <= 2, evaluated at x0."""
    jet = random_point_jet(seed, m)
    full = at_x0(leibniz_compose(*_product_factors(jet), 2))
    assert build_sigma_ab_composed(jet) == tuple(xi_grade(full, d) for d in (2, 1, 0))


def test_x_partials_one_pass_matches_repeated_d_x():
    """``compose`` buckets the right operand by x-code in one pass: against
    an x0 monomial xi^alpha word on the left, for every |alpha| <= 2, it is
    the Leibniz sum of the left's d_xi^beta with the table of d_x^beta R at
    x0 by repeated d_x, in canonical form."""
    rng = random.Random(12)
    for _ in range(40):
        expr = _random_expr(rng, terms=rng.randint(0, 12))
        repeated = repeated_x_partials(expr, X_TRUNCATION)
        for alpha in _alphas(N, X_TRUNCATION):
            nu, word = _multidegree(N, alpha), rng.randrange(1 << N)
            left = _expr((Z, nu, 0, word, _phase_coeff(nu, word, 0, Fraction(rng.randint(1, 5)))))
            composed = symbols.compose(left, expr)
            assert composed == SymbolExpr.sum_of(N, (
                dl.scale(oracle_alpha_coefficient(beta)) * repeated[beta]
                for beta, dl in _partials(left, symbols.d_xi, X_TRUNCATION).items()
                if beta in repeated))
            _assert_canonical(composed)


@st.composite
def _xi_partials_cases(draw):
    """A dimension, a phase-consistent expression of it with xi-exponents up
    to 4 (norm powers only on terms with x != 0) and one x0 term with a norm
    power."""
    n, phase = draw(st.sampled_from((2, 4, 6, 8))), draw(st.integers(0, 1))

    def degree(draw_exponents):
        return draw_exponents.map(lambda d: tuple(d.get(i, 0) for i in range(n)))
    xdeg = degree(st.dictionaries(st.integers(0, n - 1), st.integers(1, 2), max_size=1))
    xideg = degree(st.dictionaries(st.integers(0, n - 1), st.integers(1, 4), max_size=3))
    terms = {}
    for x, xi, p, word, r in draw(st.lists(st.tuples(
            xdeg, xideg, st.sampled_from([0, -2]), st.integers(0, (1 << n) - 1),
            st.fractions(min_value=-4, max_value=4, max_denominator=6)), max_size=6)):
        terms[x, xi, p if any(x) else 0, word] = _phase_coeff(xi, word, phase, r)
    normed = ((0,) * n, draw(xideg), -2, draw(st.integers(0, (1 << n) - 1)))
    return n, SymbolExpr(n, terms), normed


@settings(max_examples=60, deadline=None)
@given(_xi_partials_cases())
def test_xi_partials_one_pass_matches_repeated_d_xi(case):
    """``compose`` reads the left operand's Leibniz factors in one pass:
    against the right operand x^mu, for every |alpha| <= 2 of multidegree
    mu, it is mu! times the repeated-d_xi entry for alpha at x0 with the
    Leibniz factor, in canonical form at the expression's phase; terms with
    x != 0 are ignored, and an x0 term with a norm power is refused by
    name."""
    n, expr, normed = case
    table, x0 = repeated_xi_partials(expr), (0,) * n
    for alpha in _alphas(n, X_TRUNCATION):
        mu = _multidegree(n, alpha)
        right = SymbolExpr(n, {(mu, x0, 0, 0): ONE})
        entry = symbols.compose(expr, right)
        assert entry == table.get(alpha, SymbolExpr(n)).scale(
            math.prod(map(math.factorial, mu)))
        _assert_canonical(entry)
        assert not entry or entry.phase == expr.phase
        assert symbols.compose(at_x0(expr), right) == entry
    bad = SymbolExpr.sum_of(n, (expr, SymbolExpr(n, {
        normed: _phase_coeff(normed[1], normed[3], expr.phase, Fraction(1, 3))})))
    with pytest.raises(ValueError, match=re.escape(str(normed))):
        symbols.compose(bad, SymbolExpr(n, {(x0, x0, 0, 0): ONE}))


@st.composite
def _compose_cases(draw):
    """A dimension, a left and a right expression of it, each of a drawn
    phase, with x-jets up to degree 2 and xi-exponents up to 4 (norm powers
    on the right, and on the left only on terms with x != 0), and one left
    x0 term with a norm power.  Some right terms sit at x^alpha for an
    alpha <= nu of a left x0 term xi^nu, where |alpha| >= 1 pairs them."""
    n = draw(st.sampled_from((2, 4, 6, 8)))
    index = st.one_of(st.integers(0, 1), st.integers(0, n - 1))

    def counts(idx):
        return tuple(map(idx.count, range(n)))
    xideg = st.lists(index, max_size=4).map(counts)

    def expr(xdeg, left):
        phase, terms = draw(st.integers(0, 1)), {}
        for x, xi, p, word, r in draw(st.lists(st.tuples(
                xdeg, xideg, st.sampled_from([0, -2, -4]), st.integers(0, (1 << n) - 1),
                st.fractions(min_value=-4, max_value=4, max_denominator=6)),
                min_size=1, max_size=6)):
            terms[x, xi, p if any(x) or not left else 0, word] = _phase_coeff(xi, word, phase, r)
        return SymbolExpr(n, terms)
    xdeg = st.lists(index, max_size=2).map(counts)
    left = expr(xdeg, True)
    partners = sorted({counts(alpha) for key in left.terms if not any(key[0])
                       for k in (1, 2) for alpha in itertools.combinations(
                           [i for i, e in enumerate(key[1]) for _ in range(e)], k)})
    right = expr(st.one_of(xdeg, st.sampled_from(partners)) if partners else xdeg, False)
    return n, left, right, ((0,) * n, draw(xideg), -2, draw(st.integers(0, (1 << n) - 1)))


def _second_x_derivative_compose(n, j, k):
    """xi_j xi_k c_1 c_2 against x_j x_k c_1 (2 x_j^2 when j == k) and an x0
    term with a norm power, which |alpha| = 2 and alpha = () pair with it."""
    x0, pair = (0,) * n, tuple((i == j) + (i == k) for i in range(n))
    left = SymbolExpr(n, {(x0, pair, 0, 0b11): _phase_coeff(pair, 0b11, 0, Fraction(2, 3))})
    right = SymbolExpr(n, {(pair, x0, -4, 0b1): _phase_coeff(x0, 0b1, 1, Fraction(5)),
                           (x0, pair, -6, 0b10): _phase_coeff(pair, 0b10, 1, Fraction(1, 2))})
    return n, left, right, (x0, pair, -2, 0)


@settings(max_examples=60, deadline=None)
@given(_compose_cases())
@example(_second_x_derivative_compose(4, 0, 0))
@example(_second_x_derivative_compose(6, 1, 4))
def test_compose_matches_the_full_composition_at_x0(case):
    """``compose`` equals the full composition with |alpha| <= 2 at x0, in
    canonical form at the summed phase; the left terms with x != 0 are
    ignored, and a left x0 term with a norm power is refused by name."""
    n, left, right, normed = case
    composed = symbols.compose(left, right)
    assert composed == at_x0(leibniz_compose(left, right, 2))
    _assert_canonical(composed)
    assert not composed or composed.phase == left.phase ^ right.phase
    assert symbols.compose(at_x0(left), right) == composed
    bad = SymbolExpr.sum_of(n, (left, SymbolExpr(n, {
        normed: _phase_coeff(normed[1], normed[3], left.phase, Fraction(1, 3))})))
    with pytest.raises(ValueError, match=re.escape(str(normed))):
        symbols.compose(bad, right)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_sigma_dt_leading_symbol():
    jet = make_point_jet(2)
    s1, s0 = build_sigma_dt(jet)
    assert s1 == _expr(*((Z, _unit(a), 0, 1 << a, I) for a in range(4)))
    assert not s0.terms


def test_sigma_dt_curvature_jet_channel():
    # the x^b channel of sigma_0 must contain (1/8) R_{bats} c_a c_s c_t
    jet = random_point_jet(6, 2, with_torsion=False, with_torsion_jet=False,
                           with_w_jet=False)
    _, s0 = build_sigma_dt(jet)
    n = jet.n
    terms = []
    for b in range(n):
        for a in range(n):
            for t in range(n):
                for s in range(n):
                    val = jet.R[b][a][t][s]
                    if val:
                        elem = (CliffordElement.generator(n, a + 1)
                                * CliffordElement.generator(n, s + 1)
                                * CliffordElement.generator(n, t + 1))
                        elem = elem.scale(GaussianRational(val * Fraction(1, 8)))
                        for word, coeff in elem.terms.items():
                            terms.append((tuple(1 if i == b else 0 for i in range(n)),
                                          (0,) * n, 0, word, coeff))
    assert s0 == _expr(*terms, n=n)


def test_sigma_dt_variant_ratio():
    # printed torsion prefactor 1/4; alternative carries 9/2 (ratio 18)
    jet = random_point_jet(7, 2, with_curvature=False, with_torsion_jet=False,
                           with_w_jet=False)
    _, s0_printed = build_sigma_dt(jet, "printed")
    _, s0_alt = build_sigma_dt(jet, "first_principles")
    assert TORSION_PREFACTOR["first_principles"] / TORSION_PREFACTOR["printed"] == 18
    assert s0_alt == s0_printed.scale(18)


def test_sigma_delta_inv_flat():
    jet = make_point_jet(2)
    s_m, s_m1, s_m2 = (SymbolExpr.sum_of(4, parts.values())
                       for parts in build_sigma_delta_inv_parts(jet))
    assert s_m == _expr(*((Z, _unit(a, 2), -6, 0, ONE) for a in range(4)))
    assert not s_m1.terms and not s_m2.terms


def test_sigma_delta_inv_displayed_coefficients():
    # Ricci x-jet channel coefficient -2mi/3 and scalar channel -m/4 s
    m = 2
    jet = random_point_jet(3, m, with_torsion=False, with_torsion_jet=False)
    parts_m, parts_m1, parts_m2 = build_sigma_delta_inv_parts(jet)
    der = derived_scalars(jet)
    n = jet.n
    expected_ric = _expr(*((_unit(b), _unit(a), -2 * m - 2, 0,
                            GaussianRational(0, Fraction(-2 * m, 3)) * GaussianRational(x))
                           for (a, b), x in der.ric.items()), n=n)
    assert parts_m1["ric_jet"] == expected_ric
    e_term = parts_m2["e_scalar"]
    assert e_term == _expr((Z, Z, -2 * m - 2, 0,
                            GaussianRational(Fraction(-m) * der.s / 4)))


def test_sigma_dtpow_coefficients():
    # Ricci channel m(m-1)/3, scalar channel -(m-1)(s/4 - 3|T|^2/4)
    m = 2
    jet = random_point_jet(12, m)
    parts = build_sigma_dtpow_parts(jet)
    der = derived_scalars(jet)
    n = jet.n
    expected_ric = _expr(*((Z, tuple((1 if i == a else 0) + (1 if i == b else 0)
                                     for i in range(n)), -2 * m - 2, 0,
                            GaussianRational(Fraction(m * (m - 1), 3) * x))
                           for (a, b), x in der.ric.items()), n=n)
    assert parts["ric"] == expected_ric
    e_val = Fraction(-(m - 1)) * (der.s / 4 - Fraction(3, 4) * der.norm_t2)
    assert parts["e_scalar"] == _expr((Z, Z, -2 * m, 0, GaussianRational(e_val)))


@pytest.mark.parametrize("m", [2, 3])
def test_dt4_channel_is_the_four_form_of_dT1(m):
    # -3mm/2 (dT)_{ijkt} c_i c_j c_k c_t ||xi||^{-2mm-2}, with dT alternated
    # from the dense dT1 here, for mm = m (inverse power) and m-1 (dtpow)
    jet = random_point_jet(6, m)
    n, d = jet.n, jet.dT1
    dT = {word_from_indices((i + 1, j + 1, k + 1, t + 1)):
          d[i][j][k][t] - d[j][i][k][t] + d[k][i][j][t] - d[t][i][j][k]
          for i, j, k, t in itertools.combinations(range(n), 4)}
    assert any(dT.values())
    for mm, parts in ((m, build_sigma_delta_inv_parts(jet)[2]),
                      (m - 1, build_sigma_dtpow_parts(jet))):
        elem = CliffordElement(n, {w: Fraction(-3 * mm, 2) * x for w, x in dT.items()})
        assert parts["dt4"] == SymbolExpr.from_clifford(elem, normpow=-2 * mm - 2)


def test_dtpow_vanishes_at_m1():
    jet = random_point_jet(2, 1)
    parts = build_sigma_dtpow_parts(jet)
    assert all(not part.terms for part in parts.values())


# ---------------------------------------------------------------------------
# product-symbol grades: composed vs displayed
# ---------------------------------------------------------------------------

def test_sigma2_printed_form():
    # sigma_2 for v = w = e_1 is -c(v)c(xi)c(w)c(xi)
    jet = make_point_jet(2, v=[1, 0, 0, 0], w=[1, 0, 0, 0])
    s2, _, _ = build_sigma_ab_printed(jet)
    n = 4
    terms = []
    g1 = CliffordElement.generator(n, 1)
    for f in range(n):
        for g in range(n):
            elem = (g1 * CliffordElement.generator(n, f + 1) * g1
                    * CliffordElement.generator(n, g + 1)).scale(-1)
            xi = tuple((1 if i == f else 0) + (1 if i == g else 0) for i in range(n))
            terms += [(Z, xi, 0, word, coeff) for word, coeff in elem.terms.items()]
    assert s2 == _expr(*terms, n=n)


def test_printed_vanishes_without_sources():
    jet = random_point_jet(5, 2, with_curvature=False, with_torsion=False,
                           with_torsion_jet=False, with_w_jet=False)
    s2, s1, s0 = build_sigma_ab_printed(jet)
    assert not s0.terms
    # grade 1 keeps no torsion and no dw channel either
    assert not s1.terms
    assert s2.terms


@pytest.mark.parametrize("m", [2, 3])
def test_grades_two_and_zero_match_composition(m):
    for seed in range(3):
        jet = random_point_jet(seed, m)
        c2, c1, c0 = build_sigma_ab_composed(jet)
        p2, p1, p0 = build_sigma_ab_printed(jet)
        assert c2 == p2
        assert c0 == p0


@pytest.mark.parametrize("m", [2, 3])
def test_grade_one_difference_is_the_cross_term_commutator(m):
    """The displayed grade-1 symbol replaces sigma_0(A) sigma_1(B) by
    sigma_1(B) sigma_0(A); their difference is a nonzero commutator on
    torsion jets, characterized exactly here."""
    n = 2 * m
    for seed in range(3):
        jet = random_point_jet(seed, m)
        _, c1, _ = build_sigma_ab_composed(jet)
        _, p1, _ = build_sigma_ab_printed(jet)
        cv = CliffordElement.from_vector(n, jet.v)
        cw = CliffordElement.from_vector(n, jet.w)
        tau = CliffordElement.zero(n)
        for f in range(n):
            for a in range(f + 1, n):
                for b in range(a + 1, n):
                    if jet.T[f][a][b]:
                        word = (CliffordElement.generator(n, f + 1)
                                * CliffordElement.generator(n, a + 1)
                                * CliffordElement.generator(n, b + 1))
                        tau = tau + word.scale(GaussianRational(jet.T[f][a][b]))
        terms = []
        iq = GaussianRational(0, Fraction(1, 4))
        for a in range(n):
            gen = CliffordElement.generator(n, a + 1)
            elem = (cw * gen * cv * tau) - (cv * tau * cw * gen)
            terms += [((0,) * n, tuple(1 if i == a else 0 for i in range(n)), 0, word,
                       coeff * iq) for word, coeff in elem.terms.items()]
        assert (p1 - c1) == _expr(*terms, n=n)
        assert (p1 - c1).terms  # nonzero for generic torsion


def test_sigma1_coefficients_read_back():
    s1, _ = build_sigma_dt(random_point_jet(1, 2))
    assert {key: s1.coefficient(key) for key in s1.terms} == {
        (Z, _unit(a), 0, 1 << a): I for a in range(N)}


# ---------------------------------------------------------------------------
# oracle: the Gaussian-rational symbol arithmetic
# ---------------------------------------------------------------------------
#
# The engine stores one rational per term and reads the phase off the key.
# The oracle below is the arithmetic it replaced: every coefficient a full
# GaussianRational, the product signed by the complete Clifford sign table
# (c_i^2 = -1 included), d_xi without a phase, and the Leibniz factor
# (-i)^|alpha|/alpha! multiplied out.  Running the module's own builders and
# Leibniz kernel on it and comparing expanded coefficients checks the phase
# bookkeeping on every channel the pipelines use.

def _gauss(c):
    return c if isinstance(c, GaussianRational) else GaussianRational(c)


class OracleExpr:
    """Symbol expression with one GaussianRational per term."""

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = _gauss(coeff)

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def from_clifford(cls, elem, *, xdeg=None, xideg=None, normpow=0):
        n = elem.n
        xdeg = xdeg or (0,) * n
        xideg = xideg or (0,) * n
        return cls(n, {(xdeg, xideg, normpow, w): c for w, c in elem.terms.items()})

    @classmethod
    def sum_of(cls, n, exprs):
        out = cls(n)
        for expr in exprs:
            out._check(expr)
            for key, coeff in expr.terms.items():
                out.add_term(*key, coeff)
        return out

    def add_term(self, xdeg, xideg, normpow, word, coeff):
        if not coeff:
            return
        key = (xdeg, xideg, normpow, word)
        acc = self.terms.get(key)
        acc = _gauss(coeff) if acc is None else acc + coeff
        if acc:
            self.terms[key] = acc
        else:
            del self.terms[key]

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")

    def __add__(self, other):
        return OracleExpr.sum_of(self.n, (self, other))

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, scalar):
        s = _gauss(scalar)
        out = OracleExpr(self.n)
        if s:
            out.terms = {k: c * s for k, c in self.terms.items()}
        return out

    def __neg__(self):
        return self.scale(-ONE)

    def __mul__(self, other):
        self._check(other)
        acc = {}
        for (xa, xia, pa, wa), ca in self.terms.items():
            for (xb, xib, pb, wb), cb in other.terms.items():
                if sum(xa) + sum(xb) > X_TRUNCATION:
                    continue
                key = (tuple(map(sum, zip(xa, xb))), tuple(map(sum, zip(xia, xib))),
                       pa + pb, wa ^ wb)
                c = ca * cb
                if blade_mul(wa, wb)[0] < 0:
                    c = -c
                acc[key] = acc[key] + c if key in acc else c
        out = OracleExpr(self.n)
        out.terms = {k: c for k, c in acc.items() if c}
        return out

    def __eq__(self, other):
        return self.n == other.n and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)


def oracle_d_xi(expr, j):
    jj = j - 1
    out = OracleExpr(expr.n)
    for (xdeg, xideg, p, word), coeff in expr.terms.items():
        e = xideg[jj]
        if e:
            lowered = xideg[:jj] + (e - 1,) + xideg[jj + 1:]
            out.add_term(xdeg, lowered, p, word, coeff * e)
        if p:
            raised = xideg[:jj] + (e + 1,) + xideg[jj + 1:]
            out.add_term(xdeg, raised, p - 2, word, coeff * p)
    return out


def oracle_d_x(expr, j):
    jj = j - 1
    out = OracleExpr(expr.n)
    for (xdeg, xideg, p, word), coeff in expr.terms.items():
        e = xdeg[jj]
        if e:
            lowered = xdeg[:jj] + (e - 1,) + xdeg[jj + 1:]
            out.add_term(lowered, xideg, p, word, coeff * e)
    return out


def oracle_xi_grade(expr, degree):
    out = OracleExpr(expr.n)
    out.terms = {k: c for k, c in expr.terms.items() if sum(k[1]) + k[2] == degree}
    return out


def oracle_at_x0(expr):
    out = OracleExpr(expr.n)
    out.terms = {k: c for k, c in expr.terms.items() if not any(k[0])}
    return out


def oracle_alpha_coefficient(alpha):
    coeff = GaussianRational(Fraction(1, math.prod(
        math.factorial(alpha.count(j)) for j in set(alpha))))
    for _ in alpha:
        coeff = coeff * -I
    return coeff


def oracle_family(n, placed, coeff=1):
    """``symbols._family`` computed term by term: each placement, its
    monomial codes decoded, through from_clifford, summed, then scaled."""
    return OracleExpr.sum_of(n, (
        OracleExpr.from_clifford(elem, xdeg=symbols._decode(x, n),
                                 xideg=symbols._decode(xi, n), normpow=p)
        for x, xi, p, elem in placed)).scale(coeff)


def oracle_symbol(n, nums, den, coeff=1):
    """``symbols._symbol`` computed term by term: each numerator over den as
    an exact coefficient at its decoded key, then scale."""
    return OracleExpr(n, {symbols._key(key, n): Fraction(c, den)
                          for key, c in nums}).scale(coeff)


def repeated_x_partials(expr, alpha_max=2):
    """alpha -> d_x^alpha(expr) at x0 by repeated d_x, then evaluation at x0:
    the reference of the right operand's x-code buckets in ``compose``."""
    out = {}
    for alpha, der in _partials(expr, symbols.d_x, alpha_max).items():
        der = symbols.at_x0(der)
        if der:
            out[alpha] = der
    return out


def repeated_xi_partials(expr):
    """alpha -> (-i)^|alpha|/alpha! d_xi^alpha(expr) at x0 for |alpha| <= 2,
    nonzero only, by evaluation at x0, then repeated d_xi, then the Leibniz
    factor: the reference of the left operand's Leibniz factors in
    ``compose``."""
    return {alpha: der.scale(oracle_alpha_coefficient(alpha)) for alpha, der in
            _partials(symbols.at_x0(expr), symbols.d_xi, X_TRUNCATION).items() if der}


def composed_at_x0(left, right):
    """``symbols.compose`` as the composition at x0 by ``leibniz_compose``,
    each derivative pair evaluated by ``at_x0`` before its product (the full
    product is tested against ``compose`` directly); ``at_x0`` is looked up
    in the ``symbols`` module, so ``oracle_arithmetic`` swaps it."""
    return leibniz_compose(left, right, at=symbols.at_x0)


@contextmanager
def oracle_arithmetic():
    """Run the symbols module's builders and Leibniz kernel on OracleExpr."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("SymbolExpr", OracleExpr), ("d_xi", oracle_d_xi),
                            ("d_x", oracle_d_x), ("xi_grade", oracle_xi_grade),
                            ("at_x0", oracle_at_x0), ("_family", oracle_family),
                            ("_symbol", oracle_symbol), ("compose", composed_at_x0)):
            mp.setattr(symbols, name, value)
        yield


def expand(expr):
    """key -> exact complex coefficient of an engine expression."""
    return {key: expr.coefficient(key) for key in expr.terms}


def _pipeline_symbols(jet, m):
    """Every builder channel, the printed and composed grades and, at m = 2,
    their compositions with sigma_Delta (part 2's Leibniz sum), under
    whichever arithmetic is installed.  At m = 3 a composition has about
    10,000 terms, and the oracle's products take about 9 s per jet."""
    n = jet.n
    out = {f"dt.{i}": e for i, e in enumerate(symbols.build_sigma_dt(jet))}
    out.update((f"dt_first_principles.{i}", e) for i, e in
               enumerate(symbols.build_sigma_dt(jet, "first_principles")))
    out["lead"] = symbols.build_sigma_delta_lead(jet)
    delta = symbols.build_sigma_delta_inv_parts(jet)
    for order, parts in zip(("m", "m1", "m2"), delta):
        out.update((f"delta_{order}.{k}", e) for k, e in parts.items())
    out.update((f"dtpow.{k}", e) for k, e in
               symbols.build_sigma_dtpow_parts(jet).items())
    for mm in (m - 1, m):
        out.update((f"per_mm{mm}.{k}", e) for k, e in _per_mm_order2_parts(jet, mm).items())
    printed = symbols.build_sigma_ab_printed_parts(jet)
    out.update((f"printed.{k}", e) for k, e in printed.items())
    sigma_delta = symbols.SymbolExpr.sum_of(
        n, (e for parts in delta for e in parts.values()))
    for source, grades in (("printed", symbols.printed_grades(printed)),
                           ("composed", symbols.build_sigma_ab_composed(jet))):
        out.update((f"{source}_grade{2 - i}", e) for i, e in enumerate(grades))
        if m == 2:
            out[f"{source}_composition"] = symbols.compose(
                symbols.SymbolExpr.sum_of(n, grades), sigma_delta)
    return out


def _assert_pipeline_matches_complex_oracle(jet, m, dense=True):
    engine = _pipeline_symbols(jet, m)
    with oracle_arithmetic():
        oracle = _pipeline_symbols(jet, m)
    assert engine.keys() == oracle.keys()
    for name, expr in engine.items():
        assert isinstance(oracle[name], OracleExpr)
        assert expand(expr) == oracle[name].terms, name
    # the mm-free families (engine sums, factor 2 on the off-diagonal tt pairs)
    # against the per-mm channels summed and scaled by the oracle alone
    for mm, built in ((m - 1, "dtpow"), (m, "delta_m2")):
        for k in _per_mm_order2_parts(jet, mm):
            assert oracle[f"{built}.{k}"].terms == oracle[f"per_mm{mm}.{k}"].terms, (mm, k)
    # every traced symbol is even; sigma(D_T) is odd
    assert {e.phase for k, e in engine.items() if e and not k.startswith("dt")} == {0}
    if dense:
        assert {engine["dt.0"].phase, engine["dt.1"].phase} == {1}
    else:  # sigma0 of D_T vanishes on a jet without torsion
        assert {engine[k].phase for k in ("dt.0", "dt.1") if engine[k]} == {1}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_pipeline_symbols_match_complex_oracle(m, seed):
    _assert_pipeline_matches_complex_oracle(random_point_jet(seed, m), m)


_CHANNEL_FLAGS = ("with_curvature", "with_torsion", "with_torsion_jet", "with_w_jet")


def _sparse_jet(m, case):
    """One of the four one-hot coefficient jets, or a random jet with one
    channel off: jets whose zero torsion and curvature rows are skipped."""
    if case in _CHANNEL_FLAGS:
        return random_point_jet(11, m, **{case: False})
    from wres_torsion.cli import _one_hot_cases
    return make_point_jet(m, **list(_one_hot_cases(m))[case][2])


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("case", [0, 1, 2, 3, *_CHANNEL_FLAGS])
def test_sparse_pipeline_symbols_match_complex_oracle(m, case):
    _assert_pipeline_matches_complex_oracle(_sparse_jet(m, case), m, dense=False)


def test_builders_pass_no_terms_to_the_exact_constructor(monkeypatch):
    """Every builder channel is built from int numerators by
    ``symbols._symbol``: no builder hands terms to the exact-coefficient
    constructor ``SymbolExpr(n, terms)``, on dense jets and on the one-hot
    coefficient jets."""
    jets = [(random_point_jet(seed, m), m) for m in (2, 3) for seed in (0, 5)]
    jets += [(_sparse_jet(m, case), m) for m in (2, 3) for case in range(4)]
    passed = []
    init = SymbolExpr.__init__

    def counting_init(self, n, terms=None):
        passed.extend(terms or ())
        init(self, n, terms)
    monkeypatch.setattr(SymbolExpr, "__init__", counting_init)
    for jet, m in jets:
        symbols.build_sigma_dt(jet)
        symbols.build_sigma_ab_printed_parts(jet)
        symbols.build_sigma_ab_composed(jet)
        symbols.build_sigma_delta_inv_parts(jet)
        symbols.build_sigma_dtpow_parts(jet)
    assert passed == []
    SymbolExpr(N, {(Z, Z, 0, 0): ONE})   # the instrument counts
    assert len(passed) == 1


def _channels(built):
    """The symbols a builder returns, in order, through its dicts and tuples."""
    if isinstance(built, SymbolExpr):
        return [built]
    return [e for part in (built.values() if isinstance(built, dict) else built)
            for e in _channels(part)]


@pytest.mark.parametrize("m", [2, 3])
def test_builders_make_one_symbol_call_per_channel(monkeypatch, m):
    """Each channel of the four Clifford-family builders is made by one
    ``symbols._symbol`` call: its term families are summed as int numerators
    first, not built one by one and added as expressions."""
    jet = random_point_jet(4, m)
    calls = []
    symbol = symbols._symbol

    def counting_symbol(*args):
        calls.append(args)
        return symbol(*args)
    monkeypatch.setattr(symbols, "_symbol", counting_symbol)
    for build, count in ((symbols.build_sigma_dt, 2), (symbols.build_sigma_delta_inv_parts, 14),
                         (symbols.build_sigma_dtpow_parts, 8),
                         (symbols.build_sigma_ab_printed_parts, 7)):
        calls.clear()
        channels = _channels(build(jet))
        assert len(calls) == len(channels) == count, build.__name__


_degs = st.lists(st.integers(0, N - 1), max_size=3).map(
    lambda idx: tuple(idx.count(i) for i in range(N)))
_terms = st.lists(st.tuples(
    _degs.filter(lambda d: sum(d) <= 2), _degs, st.sampled_from([0, -2, -4, -6]),
    st.integers(0, (1 << N) - 1),
    st.fractions(min_value=-4, max_value=4, max_denominator=12)), max_size=6)
_scalars = st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                     st.booleans()).map(
    lambda t: GaussianRational(0, t[0]) if t[1] else GaussianRational(t[0]))


def _assert_canonical(expr):
    """The integer form: nonzero int numerators over one positive
    denominator, reduced, and den = 1 for the zero expression."""
    assert type(expr.den) is int and expr.den > 0
    assert all(type(c) is int and c for c in expr.terms.values())
    assert math.gcd(expr.den, *expr.terms.values()) == 1
    assert expr.terms or expr.den == 1


def _pair_of(terms, phase, n=N):
    oracle, coeffs = OracleExpr(n), []
    for xdeg, xideg, p, word, r in terms:
        coeff = _phase_coeff(xideg, word, phase, r)
        coeffs.append((xdeg, xideg, p, word, coeff))
        oracle.add_term(xdeg, xideg, p, word, coeff)
    return _expr(*coeffs, n=n), oracle


@settings(max_examples=150, deadline=None)
@given(_terms, _terms, _terms, st.integers(0, 1), st.integers(0, 1),
       st.integers(1, N), _scalars)
def test_phase_arithmetic_matches_complex_oracle(ta, tb, tc, pa, pb, j, z):
    a, oa = _pair_of(ta, pa)
    b, ob = _pair_of(tb, pb)
    c, oc = _pair_of(tc, pa)
    # the negated terms of a, then c: sums with a cancel partly or fully
    d, od = _pair_of([t[:4] + (-t[4],) for t in ta] + tc, pa)
    with oracle_arithmetic():
        oracle_compose = leibniz_compose(oa, ob, 2)
    cases = [
        (a, oa), (d, od), (a * b, oa * ob), (b * a, ob * oa),
        (d_xi(a, j), oracle_d_xi(oa, j)),
        (d_xi(d_xi(b, j), 1), oracle_d_xi(oracle_d_xi(ob, j), 1)),
        (d_x(a, j), oracle_d_x(oa, j)),
        (xi_grade(a, 1), oracle_xi_grade(oa, 1)), (at_x0(b), oracle_at_x0(ob)),
        (a.scale(z), oa.scale(z)), (a.scale(z).scale(z), oa.scale(z).scale(z)),
        (SymbolExpr.sum_of(N, (a, c, a)), OracleExpr.sum_of(N, (oa, oc, oa))),
        (a - c, oa - oc), (a - a, oa - oa), (a + d, oa + od),
        (SymbolExpr.sum_of(N, (d, b.scale(0), a)), OracleExpr.sum_of(N, (od, oa))),
        (leibniz_compose(a, b, 2), oracle_compose),
    ]
    for engine, oracle in cases:
        _assert_canonical(engine)
        assert expand(engine) == oracle.terms
    assert a - a == SymbolExpr(N) and (a + d) == c


# ---------------------------------------------------------------------------
# monomial codes
# ---------------------------------------------------------------------------

_CODE_DIMS = (2, 4, 6, 8, 16)


def _exponents(n, top):
    return st.lists(st.integers(0, top), min_size=n, max_size=n).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_CODE_DIMS).flatmap(lambda n: st.tuples(
    st.just(n), _exponents(n, 255), _exponents(n, 255), _exponents(n, 127), _exponents(n, 127))))
def test_monomial_codes_decode_add_and_read_off(case):
    """A tuple key's codes decode back to it; codes of exponents below 128
    add to the code of the summed exponents; ``_unit`` and ``_pair`` are the
    codes of x_i and x_i x_k; the odd mask and the total read off a code are
    the odd exponents and |e|."""
    n, xdeg, xideg, a, b = case
    key = (xdeg, xideg, -4, (1 << n) - 1)
    coded = symbols._coded(key, n)
    assert all(type(c) is int for c in coded)
    assert symbols._key(coded, n) == key

    def code(d):
        return symbols._coded((d, d, 0, 0), n)[0]
    assert code(a) + code(b) == code(tuple(x + y for x, y in zip(a, b)))
    for i in range(n):  # the builders' unit and pair codes
        k = 7 * i % n
        assert symbols._unit(n, i) == code(tuple(int(t == i) for t in range(n)))
        assert symbols._pair(n, i, k) == code(tuple((t == i) + (t == k) for t in range(n)))
    for d in (xdeg, a):
        assert code(d) >> 8 * n == sum(d)
        assert symbols._decode(code(d) & symbols._ones(n), n) == tuple(e & 1 for e in d)
        assert (code(d) & symbols._ones(n) << 7 != 0) == (max(d) >= 128)


@st.composite
def _expr_cases(draw):
    """A dimension, two random expressions of it (each as engine and
    OracleExpr), a 1-based index and a xi-grade."""
    n = draw(st.sampled_from(_CODE_DIMS))
    deg = st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda idx: tuple(idx.count(i) for i in range(n)))
    terms = st.lists(st.tuples(
        deg.filter(lambda d: sum(d) <= 2), deg, st.sampled_from([0, -2, -4]),
        st.integers(0, (1 << n) - 1),
        st.fractions(min_value=-4, max_value=4, max_denominator=6)), max_size=5)
    pairs = [_pair_of(draw(terms), draw(st.integers(0, 1)), n) for _ in range(2)]
    return n, pairs, draw(st.integers(1, n)), draw(st.integers(-4, 3))


@settings(max_examples=60, deadline=None)
@given(_expr_cases())
def test_code_keyed_calculus_matches_tuple_keyed_oracle(case):
    """d_xi, d_x, the product, xi_grade and at_x0 on code keys equal the
    tuple-keyed OracleExpr, for n up to 16."""
    n, ((a, oa), (b, ob)), j, grade = case
    cases = [(d_xi(a, j), oracle_d_xi(oa, j)), (d_x(a, j), oracle_d_x(oa, j)),
             (a * b, oa * ob), (xi_grade(a, grade), oracle_xi_grade(oa, grade)),
             (at_x0(a), oracle_at_x0(oa))]
    for engine, oracle in cases:
        _assert_canonical(engine)
        assert expand(engine) == oracle.terms


def test_exponents_past_255_are_refused_by_name():
    """Building a term with an exponent outside 0..255 (or a multidegree of
    the wrong length) raises ValueError naming its key."""
    for key in ((Z, (256, 0, 0, 0), 0, 0), ((0, 0, 0, 300), Z, 0, 0),
                (Z, (-1, 0, 0, 0), 0, 0), ((0, 0, 0), Z, 0, 0)):
        with pytest.raises(ValueError, match=re.escape(str(key))):
            SymbolExpr(N, {key: ONE})
    with pytest.raises(ValueError, match=re.escape(str((Z, (256, 0, 0, 0), 0, 0)))):
        SymbolExpr.from_clifford(CliffordElement.identity(N), xideg=(256, 0, 0, 0))
    top = (Z, (255, 0, 0, 255), 0, 0)
    assert expand(SymbolExpr(N, {top: ONE})) == {top: ONE}


def test_products_and_d_xi_raise_instead_of_carrying():
    """A xi-exponent past 255 would carry into the next field of the code
    (the last field carries into the total): a product or a d_xi that
    raises an exponent from ||xi||^p that far raises ValueError."""
    def mono(*xi, p=0):
        return SymbolExpr(N, {(Z, xi, p, 0): ONE})
    for a, b in (((200, 0, 0, 0), (56, 0, 0, 0)), ((0, 0, 0, 255), (0, 0, 0, 1)),
                 ((3, 128, 0, 0), (0, 128, 0, 0))):
        with pytest.raises(ValueError, match="pass 255"):
            mono(*a) * mono(*b)
    # exponents of 128 and more that stay within their fields multiply exactly
    assert mono(200, 0, 0, 128) * mono(55, 9, 0, 127) == mono(255, 9, 0, 255)
    with pytest.raises(ValueError, match="past 255"):
        d_xi(mono(255, 0, 0, 0, p=-2), 1)
    with pytest.raises(ValueError, match="past 255"):
        d_xi(mono(0, 0, 0, 255, p=-2), 4)
    assert d_xi(mono(254, 0, 0, 0, p=-2), 1) == _expr(
        (Z, (253, 0, 0, 0), -2, 0, GaussianRational(254)),
        (Z, (255, 0, 0, 0), -4, 0, GaussianRational(-2)))
    assert d_xi(mono(255, 0, 0, 0, p=-2), 2) == _expr(
        (Z, (255, 1, 0, 0), -4, 0, GaussianRational(-2)))


def test_phase_violation_raises_at_construction():
    key = (Z, _unit(0), -2, 0b0011)           # |nu| + grade = 3
    with pytest.raises(ValueError, match=re.escape(str(key))):
        SymbolExpr(N, {(Z, Z, 0, 0): ONE, key: GaussianRational(2)})
    with pytest.raises(ValueError, match=re.escape(str(key))):
        SymbolExpr(N, {key: GaussianRational(1, 1)})
    e = _expr((Z, Z, 0, 0, ONE))
    with pytest.raises(ValueError, match="phase rule"):
        e.scale(GaussianRational(1, 1))
    with pytest.raises(ValueError, match="phase"):
        SymbolExpr.sum_of(N, (e, e.scale(I)))
    # the same term is fine where the phase makes it imaginary or odd
    # a Clifford element whose words differ in grade parity
    with pytest.raises(ValueError, match=re.escape(str((Z, Z, 0, 0b0011)))):
        SymbolExpr.from_clifford(CliffordElement(N, {0b0001: Fraction(1), 0b0011: Fraction(1)}))
    with pytest.raises(ValueError, match=re.escape(str((Z, _unit(0), 0, 0b0001)))):
        symbols._family(N, [(0, symbols._unit(N, 0), 0, CliffordElement(
            N, {0: Fraction(1, 3), 0b0001: Fraction(2)}))], I)
    assert SymbolExpr(N, {key: I}).phase == 0
    assert SymbolExpr(N, {key: GaussianRational(2)}).phase == 1
    assert SymbolExpr(N, {(Z, Z, 0, 0): ONE, key: I}).coefficient(key) == I


@pytest.mark.parametrize("coeffs", [{0b0001: I}, {0b0001: GaussianRational(Fraction(3, 2))},
                                    {0: GaussianRational(0, 2), 0b0011: GaussianRational(0, -1)}])
def test_from_clifford_takes_exact_gaussian_coefficients(coeffs):
    """An element with ``GaussianRational`` coefficients enters as its terms
    do through ``SymbolExpr(n, terms)``: i c_1 at phase 0 with numerator 1."""
    elem, xideg = CliffordElement(N, coeffs), _unit(1)
    expr = SymbolExpr.from_clifford(elem, xideg=xideg, normpow=-2)
    expected = SymbolExpr(N, {(Z, xideg, -2, w): c for w, c in coeffs.items()})
    assert (expr.nums, expr.den, expr.phase) == (expected.nums, expected.den, expected.phase)
    assert {w: expr.coefficient((Z, xideg, -2, w)) for w in coeffs} == coeffs
    if coeffs == {0b0001: I}:
        assert SymbolExpr.from_clifford(elem).nums == {(0, 0, 0, 0b0001): 1}
        assert SymbolExpr.from_clifford(elem).phase == 0


def test_from_clifford_refuses_a_coefficient_neither_real_nor_imaginary():
    with pytest.raises(ValueError, match="phase rule"):
        SymbolExpr.from_clifford(CliffordElement(N, {0b0001: GaussianRational(1, 1)}))


def test_coefficients_read_back_exactly():
    e = _expr((Z, _unit(0), 0, 0b0001, GaussianRational(Fraction(3, 4))),   # e = 2
              (Z, _unit(1), 0, 0, GaussianRational(0, Fraction(-1, 2))))    # e = 1
    assert Fraction(e.terms[(Z, _unit(0), 0, 0b0001)], e.den) == Fraction(-3, 4)
    assert expand(e) == {(Z, _unit(0), 0, 0b0001): GaussianRational(Fraction(3, 4)),
                         (Z, _unit(1), 0, 0): GaussianRational(0, Fraction(-1, 2))}
    assert e.coefficient((Z, Z, 0, 0)) == 0


def test_constructor_builds_the_canonical_form():
    """2,048 terms with repeated keys, exact cancellations and growing
    denominators, summed per key and given to the constructor in two key
    orders, give one reduced (nums, den, phase) that reads back every sum."""
    rng, n = random.Random(2048), 6
    keys = [((0,) * n, tuple(rng.randint(0, 3) for _ in range(n)), -2, word)
            for word in (0, 0b11, 0b1111) for _ in range(400)]
    total = {}
    for i in range(2048):
        key = rng.choice(keys)
        if i % 7 == 0 and key in total:  # cancel the key's running sum exactly
            r = -total[key]
        else:
            r = Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 4, 6, 35)))
        total[key] = total.get(key, 0) + r
    assert sum(not r for r in total.values()) > 10
    coeffs = {key: _phase_coeff(key[1], key[3], 1, r) for key, r in total.items()}
    built = SymbolExpr(n, coeffs)
    _assert_canonical(built)
    assert built.phase == 1 and expand(built) == {k: c for k, c in coeffs.items() if c}
    again = SymbolExpr(n, dict(reversed(coeffs.items())))
    assert (again.nums, again.den, again.phase) == (built.nums, built.den, built.phase)


_families = st.lists(st.tuples(
    st.sampled_from([Z, _unit(0), _unit(1, 2)]), st.sampled_from([Z, _unit(2), _unit(0, 2)]),
    st.sampled_from([0, -2]),
    st.lists(st.tuples(st.integers(0, (1 << N) - 1),
                       st.fractions(min_value=-3, max_value=3, max_denominator=12)),
             max_size=4),
    st.booleans()), max_size=6)


@settings(max_examples=150, deadline=None)
@given(_families, st.integers(0, 1), _scalars)
def test_family_matches_summed_term_families(families, parity, coeff):
    """``_family`` sums its placements per key before its one ``_symbol``
    call: it equals the per-element term families scaled and added as
    expressions, and the complex oracle, over shared keys, mixed
    denominators, empty elements and sums that cancel."""
    placed = []
    for xdeg, xideg, p, words, negated in families:
        # one grade parity per |nu| keeps the whole family in one phase
        elem = CliffordElement(N, _collected(
            (w ^ ((w.bit_count() + sum(xideg) + parity) & 1), c) for w, c in words))
        placed.append((xdeg, xideg, p, elem))
        if negated:   # the same element negated at the same key: the key cancels
            placed.append((xdeg, xideg, p, -elem))
    # the private constructors take monomial codes
    coded = [(*symbols._coded((xdeg, xideg, p, 0), N)[:3], elem)
             for xdeg, xideg, p, elem in placed]
    family = symbols._family(N, coded, coeff)
    summed = SymbolExpr.sum_of(N, (
        SymbolExpr.from_clifford(elem, xdeg=xdeg, xideg=xideg, normpow=p).scale(coeff)
        for xdeg, xideg, p, elem in placed))
    _assert_canonical(family)
    assert (family.terms, family.den) == (summed.terms, summed.den)
    assert not family or family.phase == summed.phase
    assert expand(family) == oracle_family(N, coded, coeff).terms


def test_family_of_no_placements_is_zero():
    for coeff in (1, I, Fraction(-2, 3)):
        zero = symbols._family(N, [], coeff)
        assert zero == SymbolExpr(N) and zero.den == 1


# ---------------------------------------------------------------------------
# the entry walks that the orbit reads replaced, kept as their oracles
# ---------------------------------------------------------------------------

def _torsion_forms(form, n, lead):
    """(3-forms, rows) of a torsion channel, in one pass over the int form of
    its nonzero entries, by its ``lead`` leading indices: T (keys (f, a, b),
    lead 0) gives the 3-form sum_{f<a<b} T_fab c_f c_a c_b under key () and
    the rows sum_{a<b} T_fab c_a c_b by f, dT1 (keys (c, f, a, b), lead 1) a
    3-form by c and a row by (c, f)."""
    (nums, den), forms, rows = form, {}, {}
    for key, x in nums.items():
        f, a, b = key[lead], key[lead + 1], key[lead + 2]
        if a < b:
            rows.setdefault(key[:2] if lead else f, {})[(1 << a) | (1 << b)] = x
            if f < a:
                forms.setdefault(key[0] if lead else (), {})[(1 << f) | (1 << a) | (1 << b)] = x
    return tuple({k: CliffordElement._of(n, ws, den) for k, ws in t.items()} for t in (forms, rows))


def _near(elem, a, b):
    """``elem`` or (a != b) its words that meet e_a or e_b."""
    return elem if a == b else CliffordElement._of(
        elem.n, {w: c for w, c in elem.nums.items() if w >> a & 1 or w >> b & 1}, elem.den)


def _walked_dt_channels(dT1, n, traced):
    """sigma_Delta's dt_jet at coefficient 1 and the dt_xx and div_t families
    of the order -(2mm+2) channels, each as (nums, den) at norm power 0, by the
    walk over the int form of the dT1 map ``dT1`` into its bivector rows by
    (c, f), each filtered by ``_near`` when traced."""
    pairs = symbols._pairs(n)
    rows = _torsion_forms(_integer_form(dT1), n, 1)[1]
    dtau = {k: _near(row, *k) for k, row in rows.items()} if traced else rows
    return (symbols._placed((symbols._unit(n, b), symbols._unit(n, a), 0, row)
                            for (b, a), row in dtau.items()),
            symbols._placed((0, pairs[a][b], 0, row) for (b, a), row in dtau.items()),
            symbols._placed((0, 0, 0, row) for (b, a), row in dtau.items() if a == b))


def _values(nums, den):
    """A (nums, den) pair in lowest terms, its zeros dropped: equal exactly
    when the two pairs' values are."""
    return _reduced({key: x for key, x in nums.items() if x}, den)


@pytest.mark.parametrize("m", range(1, 9))
def test_orbit_read_channels_match_the_entry_walks(m):
    """On every front's jet (read orbit by orbit) and on the hand-built copy
    of the first and (m <= 4) its replaced copy (read entry by entry), the
    torsion 3-forms and T's rows equal ``_torsion_forms`` on the maps' int
    forms, dT1's channel terms, whole and traced, equal the walk over its
    rows (``_walked_dt_channels``), and sigma_Delta's two r_jets, whole and
    traced, equal the walks over R's int form that built them before: every
    entry by ``_collected`` (a = b alone when traced), and the curvature pair
    sums placed at x^b xi_a, ``_near``-filtered when traced; every rule's
    terms at norm power 0.  Each walk runs once per distinct map."""
    jets = _front_jets(m)
    jets += [_hand_built(jets[0]), *[dataclasses.replace(jets[0])][:m <= 4]]
    walks = []  # (channel, map, its walks), one per distinct map (``_walked``)

    def t_walk(T):
        forms, rows = _torsion_forms(_integer_form(T), n, 0)
        return _raw(forms), _raw(rows)

    def dt1_walk(dT1):
        return _raw(_torsion_forms(_integer_form(dT1), n, 1)[0]), _integer_form(dT1)[1], [
            [_values(*part) for part in _walked_dt_channels(dT1, n, traced)]
            for traced in (False, True)]

    def r_walk(R):
        form = _integer_form(R)
        (nums, den), pair_sums = form, _curvature_pair_sums(form, n)
        return den, [(_values(_collected(((pairs[j][k], pairs[a][b], p, 0), c)
                                         for (a, j, b, k), c in nums.items()
                                         if a == b or not traced), den),
                       _values(*symbols._placed(
                           (units(n, b), units(n, a), p, _near(e, a, b) if traced else e)
                           for (b, a), e in pair_sums.items()))) for traced in (False, True)]

    for jet in jets:
        n, p, pairs, units = jet.n, 0, symbols._pairs(jet.n), symbols._unit
        t_forms, t_rows = _walked(walks, "T", jet.T_entries, t_walk)
        dt_forms, d_dt1, dt = _walked(walks, "dT1", jet.dT1_entries, dt1_walk)
        den, r_jets = _walked(walks, "R", jet.R_entries, r_walk)
        inputs = symbols.JetInputs(jet)
        assert _raw(inputs.forms) == (t_forms, dt_forms) and _raw(inputs.rows) == t_rows
        for traced, dt_walked, r_walked in zip((False, True), dt, r_jets):
            terms = dt_terms_read(inputs) if traced else inputs.dt_terms
            assert [_values(t, d_dt1) for t in terms] == dt_walked
            got = geometry._spread(inputs.reads["R"], symbols._R_JETS[traced], n)
            assert (_values(got[0], den), _values(got[1], den)) == r_walked


# ---------------------------------------------------------------------------
# the traced channels as symbols: the oracle of the emitted buckets
# ---------------------------------------------------------------------------

def dt_terms_read(inputs):
    """dT1's traced channel terms (``symbols._dt`` with ``traced``): sigma_Delta's
    dt_jet and the dt_xx and div_t families on the words a trace reads."""
    return geometry._spread(inputs.reads["dT1"], symbols._DT[True], inputs.n)


def traced_sources(inputs):
    """sigma_Delta's channels (g, name) in the tables' order, on the terms a
    trace reads, each as its int terms at norm power 0 over one den, placed
    here: the lead sum_a xi_a^2; the r_jets and dT1's channels off the traced
    rules (``symbols._r_jets``, ``symbols._dt``); Ric_ab at x^b xi_a and T's
    rows at xi_f; and the order -(2mm+2) families, tau_a tau_b on grade 0
    alone, r_xx and dt4 empty."""
    n, der, pairs, (ric, ric_den), tau = inputs.n, inputs.derived, symbols._pairs(inputs.n), \
        inputs.ric, inputs.rows
    R, dT1, units = inputs.reads["R"], inputs.reads["dT1"].den, [
        symbols._unit(n, a) for a in range(n)]
    r_jets, (dt_jet, dt_xx, div_t) = geometry._spread(R, symbols._R_JETS[True], n), \
        dt_terms_read(inputs)
    scalar = der.s / 4 - Fraction(3, 4) * der.norm_t2
    tt = {(a, b): symbols._graded(tau[a], tau[b], (0,))
          for a, b in itertools.combinations_with_replacement(tau, 2)}
    return {
        (0, "lead"): ({(0, pairs[a][a], 0, 0): 1 for a in range(n)}, 1),
        (0, "r_jet"): (r_jets[0], R.den),
        (1, "ric_jet"): ({(units[b], units[a], 0, 0): x for (a, b), x in ric.items()}, ric_den),
        (1, "tt"): symbols._placed((0, units[a], 0, row) for a, row in tau.items()),
        (1, "r_jet"): (r_jets[1], R.den), (1, "dt_jet"): (dt_jet, dT1),
        (2, "ric"): symbols._placed((0, pairs[a][b], 0, CliffordElement._of(n, {0: x}, ric_den))
                                    for (a, b), x in ric.items()),
        (2, "tt_xx"): symbols._placed((0, pairs[a][b], 0, ab.scale(1 + (a != b)))
                                      for (a, b), ab in tt.items()),
        (2, "tt_scalar"): symbols._placed((0, 0, 0, tt[a, a]) for a in tau),
        (2, "div_t"): (div_t, dT1), (2, "r_xx"): ({}, 1), (2, "dt_xx"): (dt_xx, dT1),
        (2, "e_scalar"): ({(0, 0, 0, 0): scalar.numerator} if scalar else {},
                          scalar.denominator),
        (2, "dt4"): ({}, 1)}


def delta_scales(mm):
    """(g, name) -> (prefactor, norm power, imag) of sigma_Delta's channel at
    mm, as the reference derivation prints them: the channel is i^imag times
    the prefactor times its terms at that norm power."""
    p2, p4, k = -2 * mm - 2, -2 * mm - 4, mm * (mm + 1)
    return {(0, "lead"): (1, p2, 0), (0, "r_jet"): (Fraction(-mm, 3), p2, 0),
            (1, "ric_jet"): (Fraction(-2 * mm, 3), p2, 1), (1, "tt"): (3 * mm, p2, 1),
            (1, "r_jet"): (Fraction(mm, 4), p2, 1), (1, "dt_jet"): (3 * mm, p2, 1),
            (2, "ric"): (Fraction(k, 3), p4, 0), (2, "tt_xx"): (Fraction(-9 * k, 2), p4, 0),
            (2, "tt_scalar"): (Fraction(9 * mm, 4), p2, 0),
            (2, "div_t"): (Fraction(3 * mm, 2), p2, 0), (2, "r_xx"): (Fraction(-k, 4), p4, 0),
            (2, "dt_xx"): (-3 * k, p4, 0), (2, "e_scalar"): (-mm, p2, 0),
            (2, "dt4"): (Fraction(-3 * mm, 2), p2, 0)}


def delta_weights(mm):
    """(g, name) -> the int weight of sigma_Delta's channel at mm, the part of
    its ``delta_scales`` prefactor that carries mm: mm (mm+1) at the norm
    power -2mm-4, else mm, and the lead's 1."""
    return {key: 1 if key == (0, "lead") else mm * (mm + 1) if p == -2 * mm - 4 else mm
            for key, (_, p, _) in delta_scales(mm).items()}


def traced_channels(inputs):
    """(part 1's channels, sigma_Delta's three channel dicts) as symbols on the
    terms the context's traces read (``traced_sources``, scaled and placed by
    ``delta_scales``): the inverse (2m-2)-th power's order -2m channels, the
    g = 2 ones at mm = m - 1, at even xi-monomials, and the channels of
    ``build_sigma_delta_inv_parts`` at mm = m.  The context emits sigma_Delta's
    buckets with no symbol; ``_bucketed`` of the latter is what they must
    equal once weighted (``delta_weights``), and part 1's cells are the
    cells of the former."""
    m, n, odd, sources = inputs.jet.m, inputs.n, symbols._ones(inputs.n), traced_sources(inputs)

    def channels(g, mm, even=False):
        scales = delta_scales(mm)
        return {name: symbols._symbol(n, [((x, xi, p, w), k) for (x, xi, _, w), k in nums.items()
                                          if not (even and xi & odd)], den,
                                      GaussianRational(0, c) if imag else c)
                for (h, name), (nums, den) in sources.items() if h == g
                for c, p, imag in [scales[h, name]]}
    return channels(2, m - 1, even=True), tuple(channels(g, m) for g in range(3))


# ---------------------------------------------------------------------------
# sparse curvature helpers against the dense loops
# ---------------------------------------------------------------------------

def _dense_curvature_word_sum(jet, b, scale):
    """scale * sum_{a,t,s} R_{bats} c_a c_s c_t over every dense entry."""
    n = jet.n
    total = CliffordElement.zero(n)
    for a, t, s in itertools.product(range(n), repeat=3):
        if jet.R[b][a][t][s]:
            sign, word = canonicalize([a + 1, s + 1, t + 1], n)
            total = total + CliffordElement(
                n, {word_from_indices(word): sign * jet.R[b][a][t][s] * scale})
    return total


def _dense_curvature_pair_sum(jet, b, a):
    """sum_{t,s} R_{bats} c_s c_t with the printed pairing (s < t kept)."""
    n = jet.n
    total = CliffordElement.zero(n)
    for t, s in itertools.product(range(n), repeat=2):
        val = jet.R[b][a][t][s]
        if t != s and val:
            word = (1 << s) | (1 << t)
            total = total + CliffordElement(n, {word: val if s < t else -val})
    return total


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sparse_curvature_sums_match_dense(m):
    jets = [random_point_jet(seed, m) for seed in range(3)]
    jets += [make_point_jet(m), make_point_jet(m, R=[(0, 1, 0, 1, Fraction(2, 3))])]
    for jet in jets:
        n = jet.n
        curvature = _integer_form(jet.R_entries)
        words = symbols.JetInputs(jet).word_sums
        pairs = _curvature_pair_sums(curvature, n)
        assert all(words.values())
        for b in range(n):
            assert words.get(b, CliffordElement.zero(n)) == \
                _dense_curvature_word_sum(jet, b, Fraction(1, 8))
            for a in range(n):
                assert pairs.get((b, a), CliffordElement.zero(n)) == \
                    _dense_curvature_pair_sum(jet, b, a)


def _curvature_pair_sums(curvature, n):
    """(b, a) -> sum_{t,s} R_{bats} c_s c_t with the printed index pairing, for
    the pairs with a nonzero entry of R's int form ``curvature``: 2 R_{bats}
    c_s c_t over s < t, as R_{bast} = -R_{bats}.  sigma_Delta's x^1 r_jet
    read these sums before it read R's int form term by term."""
    (nums, den), rows = curvature, {}
    for (b, a, t, s), val in nums.items():
        if s < t:
            rows.setdefault((b, a), {})[(1 << s) | (1 << t)] = 2 * val
    return {ba: CliffordElement._of(n, row, den) for ba, row in rows.items()}


def _two_sided_pair_sums(curvature, n):
    """The curvature pair sums by the two-sided walk: every entry with
    t != s, the word c_s c_t at R_{bats} for s < t and at -R_{bats} for
    s > t, summed per word by ``_collected``."""
    nums, den = curvature
    terms = {}
    for (b, a, t, s), val in nums.items():
        if t != s:
            terms.setdefault((b, a), []).append(((1 << s) | (1 << t), val if s < t else -val))
    return {ba: CliffordElement._of(n, _collected(row), den) for ba, row in terms.items()}


@pytest.mark.parametrize("m", range(1, 7))
def test_pair_sums_over_s_below_t_match_the_two_sided_walk(m):
    """The pair sums read off the entries with s < t alone (2 R_{bats} per
    word) equal, numerators and denominator, the two-sided walk on the jets
    of ``_m_fit_jets``."""
    n = 2 * m
    for jet in _m_fit_jets(m):
        curvature = _integer_form(jet.R_entries)
        oracle = _two_sided_pair_sums(curvature, n)
        assert oracle
        assert _raw(_curvature_pair_sums(curvature, n)) == _raw(oracle)


def _m_fit_jets(m):
    """Seeds 0-4 and the curvature jets of the linear-in-m fit (R_1212 = 1
    with v = w = e_1 and, from m = 2, with v = w = e_3)."""
    n = 2 * m
    jets = [random_point_jet(seed, m) for seed in range(5)]
    for i in (0, 2)[:m]:
        e = [Fraction(int(k == i)) for k in range(n)]
        jets.append(make_point_jet(m, R=[[0, 1, 0, 1, 1]], v=e, w=e))
    return jets


def _old_r_jets(inputs, traced):
    """sigma_Delta's two r_jets as they were built before they read R's int
    form directly: the order -2m one by ``_collected`` over every kept
    entry (a = b alone when traced), the order -2m-1 one as the pair sums
    placed at x^b xi_a, each filtered by ``_near`` when traced."""
    m, n = inputs.jet.m, inputs.n
    p, (nums, den), pairs = -2 * m - 2, _integer_form(inputs.jet.R_entries), symbols._pairs(n)
    order_2m = symbols._symbol(n, _collected(
        ((pairs[j][k], pairs[a][b], p, 0), c) for (a, j, b, k), c in nums.items()
        if a == b or not traced).items(), den, Fraction(-m, 3))
    order_2m1 = symbols._family(n, [
        (symbols._unit(n, b), symbols._unit(n, a), p, _near(e, a, b) if traced else e)
        for (b, a), e in _curvature_pair_sums((nums, den), n).items()],
        GaussianRational(0, Fraction(m, 4)))
    return order_2m, order_2m1


@pytest.mark.parametrize("m", range(1, 7))
def test_sigma_delta_r_jets_match_the_old_walks(m):
    """On the jets of ``_m_fit_jets``, both r_jets, whole and traced, equal
    (numerators, denominator and phase) the old walks of ``_old_r_jets``:
    the traced order -2m one, now read over j <= k with 2 R_{ajak} at j < k,
    and the order -2m-1 one, now read off R's entries with s < t where it
    was the pair sums, placed and (traced) filtered by ``_near``."""
    for jet in _m_fit_jets(m):
        inputs = symbols.JetInputs(jet)
        for traced in (False, True):
            parts_m, parts_m1, _ = traced_channels(inputs)[1] if traced else (
                inputs.channels(m, 0), inputs.channels(m, 1), None)
            old_m, old_m1 = _old_r_jets(inputs, traced)
            assert old_m and old_m1, (m, traced)
            for new, old in ((parts_m["r_jet"], old_m), (parts_m1["r_jet"], old_m1)):
                assert (new.nums, new.den, new.phase) == (old.nums, old.den, old.phase)


# ---------------------------------------------------------------------------
# one product per distinct factor pair, against the all-ordered-pairs loops
# ---------------------------------------------------------------------------

def _dense_torsion_cube(values, n):
    """sum_{f<a<b} values[f][a][b] c_f c_a c_b over every triple."""
    return CliffordElement(n, {(1 << f) | (1 << a) | (1 << b): values[f][a][b]
                               for f, a, b in itertools.combinations(range(n), 3)})


def _dense_torsion_pair(values_a, n):
    """sum_{j<l} values_a[j][l] c_j c_l over every pair, zero entries included."""
    return CliffordElement(n, {(1 << j) | (1 << l): values_a[j][l]
                               for j, l in itertools.combinations(range(n), 2)})


def _deg(n, *indices):
    """The exponent tuple of the product of x_i (or xi_i) over ``indices``."""
    return tuple(indices.count(i) for i in range(n))


def _term_family(elem, coeff=1, *, xdeg=None, xideg=None, normpow=0):
    """coeff * elem as one term family: ``from_clifford``, then ``scale``.
    ``SymbolExpr`` is looked up in the ``symbols`` module, so
    ``oracle_arithmetic`` swaps it."""
    return symbols.SymbolExpr.from_clifford(elem, xdeg=xdeg, xideg=xideg,
                                            normpow=normpow).scale(coeff)


def _clifford_sum(n, elems):
    return sum(elems, CliffordElement.zero(n))


def _ordered_pair_order2_channels(jet, mm):
    """tt_xx and tt_scalar from all n^2 ordered products tau_a tau_b of the
    dense torsion rows."""
    n = jet.n
    p2, p4 = -2 * mm - 2, -2 * mm - 4
    tau_a = [_dense_torsion_pair(jet.T[a], n) for a in range(n)]
    return {
        "tt_xx": symbols.SymbolExpr.sum_of(n, (
            _term_family(tau_a[a] * tau_a[b], Fraction(-9 * mm * (mm + 1), 2),
                         xideg=_deg(n, a, b), normpow=p4)
            for a in range(n) for b in range(n))),
        "tt_scalar": _term_family(_clifford_sum(n, (t * t for t in tau_a)),
                                  Fraction(9 * mm, 4), normpow=p2),
    }


def _per_pair_printed_parts(jet):
    """The printed channels with every operator product written out per
    (f, g) and per a, as displayed, and every term family summed as an
    expression."""
    n = jet.n
    sum_of = symbols.SymbolExpr.sum_of
    cv = CliffordElement.from_vector(n, jet.v)
    cw = CliffordElement.from_vector(n, jet.w)
    tau = _dense_torsion_cube(jet.T, n)
    gens = [CliffordElement.generator(n, i) for i in range(1, n + 1)]
    curvature = [_dense_curvature_word_sum(jet, b, Fraction(1, 8)) for b in range(n)]
    dw = _clifford_sum(n, (gens[j] * CliffordElement.from_vector(n, row)
                           for j, row in enumerate(jet.dw)))
    return {
        "s2": sum_of(n, (
            _term_family(cv * gens[f] * cw * gens[g], -1, xideg=_deg(n, f, g))
            for f in range(n) for g in range(n))),
        "s1_tt": sum_of(n, (
            _term_family((cv * gens[a] * cw + cw * gens[a] * cv) * tau,
                         GaussianRational(0, Fraction(1, 4)), xideg=_deg(n, a))
            for a in range(n))),
        "s1_dw": sum_of(n, (
            _term_family(cv * dw * gens[a], I, xideg=_deg(n, a))
            for a in range(n))),
        "s0_tt": _term_family(cv * tau * cw * tau, Fraction(1, 16)),
        "s0_r": sum_of(n, (_term_family(cv * gens[j] * cw * curvature[j])
                           for j in range(n))),
        "s0_dt": sum_of(n, (
            _term_family(cv * gens[j] * cw * _dense_torsion_cube(jet.dT1[j], n),
                         Fraction(1, 4))
            for j in range(n))),
        "s0_tdw": _term_family(cv * dw * tau, Fraction(1, 4)),
    }


def _factor_pair_jets(m):
    """Random jets, each one-channel jet, the zero jet and (m >= 2) a
    torsion jet whose last tau_a vanish."""
    channels = ("with_curvature", "with_torsion", "with_torsion_jet", "with_w_jet")
    jets = [random_point_jet(seed, m) for seed in range(5)]
    jets += [random_point_jet(7, m, **{c: c == on for c in channels}) for on in channels]
    jets.append(make_point_jet(m))
    if m >= 2:
        base = random_point_jet(3, m)
        jets.append(make_point_jet(m, T=[(0, 1, 2, Fraction(-2, 3))], v=base.v,
                                   w=base.w, dw=base.dw))
    return jets


def _all_rows(jet, sparse):
    """The element builder ``sparse`` (symbols._elements), except that T's
    bivector rows are those of every leading index, zero rows included,
    built from the dense view.  A ``JetInputs`` builds T's 3-form, dT1's
    3-forms and T's rows in this order, so the calls cycle through the three
    (dT1 has no rows: its channels are read off its entries' terms)."""
    calls = itertools.cycle(range(3))

    def elements(n, terms, den):
        if next(calls) == 2:
            assert all(word.bit_count() == 2 for _, word in terms)
            return {a: _dense_torsion_pair(jet.T[a], n) for a in range(n)}
        return sparse(n, terms, den)
    return elements


def _zero_row_jets(m):
    """Jets whose zero torsion rows come before nonzero ones."""
    if m < 2:
        return [make_point_jet(m)]
    base = random_point_jet(5, m)
    return [make_point_jet(m, T=[(1, 2, 3, Fraction(3, 5))], v=base.v, w=base.w),
            make_point_jet(m, dT1=[(1, 1, 2, 3, Fraction(-1, 2)), (3, 1, 2, 3, 2)],
                           R=[(0, 1, 0, 1, 1)], v=base.v, w=base.w)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_skipped_torsion_rows_change_no_channel(monkeypatch, m):
    jets = _factor_pair_jets(m) + _zero_row_jets(m)
    if m >= 2:
        jets += [_sparse_jet(m, case) for case in (0, 1, 2, 3)]
    sparse = [(build_sigma_delta_inv_parts(jet), build_sigma_dtpow_parts(jet))
              for jet in jets]
    reader = symbols._elements
    for jet, (delta, dtpow) in zip(jets, sparse):
        monkeypatch.setattr(symbols, "_elements", _all_rows(jet, reader))
        for parts, dense in zip(delta, build_sigma_delta_inv_parts(jet)):
            _assert_same_channels(parts, dense)
        _assert_same_channels(dtpow, build_sigma_dtpow_parts(jet))


def _assert_same_channels(engine, oracle):
    for name, expr in oracle.items():
        assert (engine[name].terms, engine[name].den, engine[name].phase) == (
            expr.terms, expr.den, expr.phase), name


@pytest.mark.parametrize("m", [1, 2, 3])
def test_order2_channels_match_ordered_pair_loop(m):
    for jet in _factor_pair_jets(m):
        _assert_same_channels(build_sigma_delta_inv_parts(jet)[2],
                              _ordered_pair_order2_channels(jet, m))
        _assert_same_channels(build_sigma_dtpow_parts(jet),
                              _ordered_pair_order2_channels(jet, m - 1))


def _per_mm_order2_parts(jet, mm):
    """The order -(2mm+2) channels built for one mm, as the builders built
    them before the mm-free families: the inputs, the Clifford products and
    every term family made anew for each mm.  The symbol helpers are looked
    up in the ``symbols`` module, so ``oracle_arithmetic`` swaps them;
    ``symbols._symbol`` takes monomial codes, the term families tuples."""
    n, der = jet.n, derived_scalars(jet)
    p2, p4 = -2 * mm - 2, -2 * mm - 4
    pairs = _curvature_pair_sums(_integer_form(jet.R_entries), n)
    tau, dtau = (_torsion_forms(_integer_form(entries), n, lead)[1]
                 for entries, lead in ((jet.T_entries, 0), (jet.dT1_entries, 1)))
    ric = _integer_form(der.ric)
    e_val = Fraction(-mm) * (der.s / 4 - Fraction(3, 4) * der.norm_t2)
    dt4 = CliffordElement(n, {(1 << i) | (1 << j) | (1 << k) | (1 << t): x
                              for (i, j, k, t), x in der.dT4.items()})
    tt = {(a, b): tau[a] * tau[b] for a, b in itertools.combinations_with_replacement(tau, 2)}
    c_tt = Fraction(-9 * mm * (mm + 1), 2)
    SymbolExpr = symbols.SymbolExpr  # the installed arithmetic, as in the builders
    return {
        "ric": symbols._symbol(n, symbols._collected(((0, symbols._pair(n, a, b), p4, 0), x)
                                                     for (a, b), x in ric[0].items()).items(),
                               ric[1], Fraction(mm * (mm + 1), 3)),
        "tt_xx": SymbolExpr.sum_of(n, (
            _term_family(symbols._grades(prod, 0, 4), c_tt if a == b else 2 * c_tt,
                         xideg=_deg(n, a, b), normpow=p4)
            for (a, b), prod in tt.items())),
        "tt_scalar": SymbolExpr.sum_of(n, (
            _term_family(tt[a, a], Fraction(9 * mm, 4), normpow=p2) for a in tau)),
        "div_t": SymbolExpr.sum_of(n, (
            _term_family(row, Fraction(3 * mm, 2), normpow=p2)
            for (b, a), row in dtau.items() if a == b)),
        "r_xx": SymbolExpr.sum_of(n, (
            _term_family(pair, Fraction(-mm * (mm + 1), 4), xideg=_deg(n, a, b), normpow=p4)
            for (b, a), pair in pairs.items())),
        "dt_xx": SymbolExpr.sum_of(n, (
            _term_family(row, -3 * mm * (mm + 1), xideg=_deg(n, a, b), normpow=p4)
            for (b, a), row in dtau.items())),
        "e_scalar": symbols._symbol(n, [((0, 0, p2, 0), 1)], 1, e_val),
        "dt4": _term_family(dt4, Fraction(-3 * mm, 2), normpow=p2),
    }


def _assert_order2_matches_per_mm(jet):
    m = jet.m
    inputs = symbols.JetInputs(jet)
    for mm, built in ((m - 1, build_sigma_dtpow_parts(jet)),
                      (m, build_sigma_delta_inv_parts(jet)[2])):
        parts, per_mm = inputs.channels(mm, 2), _per_mm_order2_parts(jet, mm)
        assert list(parts) == list(per_mm) == list(built)
        _assert_same_channels(parts, per_mm)
        _assert_same_channels(built, per_mm)
        if mm == 0:
            assert not any(parts.values())
    return inputs


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_order2_families_match_per_mm_channels(m, seed):
    inputs = _assert_order2_matches_per_mm(random_point_jet(seed, m))
    assert any(inputs.channels(m, 2).values())


@pytest.mark.parametrize("m", [2, 3])
def test_order2_families_match_per_mm_channels_without_e_scalar(m):
    """On a jet with s = 3|T|^2 the e_scalar family is zero."""
    import dataclasses

    jet = random_point_jet(2, m)
    der = derived_scalars(jet)
    scale = 3 * der.norm_t2 / der.s
    jet = dataclasses.replace(jet, R_entries={k: x * scale for k, x in jet.R_entries.items()})
    der = derived_scalars(jet)
    assert der.s == 3 * der.norm_t2 != 0
    inputs = _assert_order2_matches_per_mm(jet)
    assert not inputs.sums["e_scalar"][0] and "e_scalar" not in inputs.whole
    assert all(inputs.channels(mm, 2)["ric"] for mm in (m - 1, m))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_r_xx_family_holds_no_term(m):
    """The r_xx family places each curvature pair sum sum_{t,s} R_{bats}
    c_s c_t at the symmetric key xi_a xi_b, and R_{bats} = -R_{abts}, so the
    (a, b) and (b, a) placements cancel: no term is left (seeds 0-4 and the
    one-hot coefficient jets)."""
    from wres_torsion.cli import _one_hot_cases

    jets = [random_point_jet(seed, m) for seed in range(5)]
    jets += [make_point_jet(m, **kw) for _, _, kw in (_one_hot_cases(m) if m > 1 else ())]
    assert any(_curvature_pair_sums(_integer_form(jet.R_entries), jet.n) for jet in jets)
    for jet in jets:
        assert not symbols.JetInputs(jet).channels(jet.m, 2)["r_xx"]


def _map_torsion_forms(entries, n, rows=False):
    """The torsion reader as it read a jet map before the derived scalars
    handed their int forms on: the map converted anew on each call, and
    the 3-forms or (``rows``) the bivector rows, one kind per call."""
    nums, den = _integer_form(entries)
    table = {}
    for (*lead, f, a, b), x in nums.items():
        if rows and a < b:
            table.setdefault((*lead, f) if lead else f, {})[(1 << a) | (1 << b)] = x
        elif not rows and f < a < b:
            table.setdefault(lead[0] if lead else (), {})[(1 << f) | (1 << a) | (1 << b)] = x
    return {key: CliffordElement._of(n, words, den) for key, words in table.items()}


def _raw(value):
    """``value`` with each Clifford element as its (nums, den) pair, so that
    == compares the stored form, not only the value."""
    if isinstance(value, CliffordElement):
        return value.nums, value.den
    if isinstance(value, dict):
        return {k: _raw(x) for k, x in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_raw, value))
    return value


@pytest.mark.parametrize("m", [1, 2, 3])
def test_jet_inputs_match_inputs_converted_from_the_maps(m):
    """Every ``JetInputs`` field, read off the reads and int forms that the
    derived scalars hand on, equals the one built from the jet's maps, each
    converted anew: R's read expanded and Ric's int form against
    ``_integer_form`` of ``jet.R_entries`` and of ``derived.ric``, the torsion
    3-forms and T's rows by the map reader above, dT1's channel terms, whole
    and (``dt_terms_read``) traced, by the walk over its rows
    (``_walked_dt_channels``, by value), the int sums and what the whole
    channels add to them from those (and the grade-0 families of the sums, by
    value, as ``traced_sources`` places them on T's rows), and c(v), c(w) and c(v) sum (d_j
    w_g) c_j c_g from the jet's rational vectors and the generators'
    products (on seeds 0-4, the one-hot coefficient jets, the jets with one
    channel off and a constant curvature 1/(n-1), whose Ric is integral
    while R's denominator is n-1)."""
    n = 2 * m
    jets = [random_point_jet(seed, m) for seed in range(5)]
    jets += [_sparse_jet(m, case) for case in (*(range(4) if m >= 2 else ()), *_CHANNEL_FLAGS)]
    jets.append(make_point_jet(m, R=[(a, b, a, b, Fraction(1, n - 1))
                                     for a, b in itertools.combinations(range(n), 2)]))
    for jet in jets:
        n, der = jet.n, derived_scalars(jet)
        curvature, ric = _integer_form(jet.R_entries), _integer_form(der.ric)
        maps = (jet.T_entries, jet.dT1_entries)
        rows = _map_torsion_forms(jet.T_entries, n, rows=True)
        d_t = _integer_form(jet.T_entries)[1]
        sums = symbols.JetInputs.sums.func(types.SimpleNamespace(
            n=n, derived=der, ric=ric, reads={"T": types.SimpleNamespace(den=d_t)},
            t_terms=(None, {(f, w): c * (d_t // e.den) for f, e in rows.items()
                            for w, c in e.nums.items()})))
        d_dt1 = _integer_form(jet.dT1_entries)[1]
        walked = [[_over(d_dt1, *part) for part in _walked_dt_channels(jet.dT1_entries, n, traced)]
                  for traced in (False, True)]
        gens = [CliffordElement.generator(n, i) for i in range(1, n + 1)]
        dw = CliffordElement.zero(n)
        for j, row in enumerate(jet.dw):
            for g, x in enumerate(row):
                dw = dw + (gens[j] * gens[g]).scale(x)
        cv = CliffordElement.from_vector(n, jet.v)
        oracle = {
            "cv": cv, "cw": CliffordElement.from_vector(n, jet.w), "cv_dw": cv * dw,
            "ric": ric, "forms": tuple(_map_torsion_forms(entries, n) for entries in maps),
            "rows": rows, "dt_terms": tuple(walked[0]), "sums": sums,
            "word_sums": {b: e for b in range(n)
                          if (e := _dense_curvature_word_sum(jet, b, Fraction(1, 8)))},
            # what JetInputs.whole adds to the sums, over the inputs converted anew
            "whole": symbols.JetInputs.whole.func(types.SimpleNamespace(
                n=n, derived=der, rows=rows, dt_terms=walked[0],
                reads={"R": der.int_forms["R"], "dT1": types.SimpleNamespace(den=d_dt1)})),
        }
        inputs = symbols.JetInputs(jet)
        read = inputs.reads["R"]
        assert (geometry._spread(read, geometry._entry, n)[0], read.den) == curvature
        for name, expected in oracle.items():
            assert _raw(getattr(inputs, name)) == _raw(expected), name
        assert _raw(tuple(dt_terms_read(inputs))) == _raw(tuple(walked[1]))
        families = {name: _by_xi({xi: c for (_, xi, _, _), c in nums.items()}, den)
                    for (g, name), (nums, den) in traced_sources(inputs).items()
                    if g == 2 and name in inputs.sums}
        assert families == {name: _by_xi({xi: c for (_, xi, _, _), c in nums.items()}, den)
                            for name, (nums, den) in inputs.sums.items() if name in families}


def _by_xi(nums, den):
    """xi-code -> the nonzero value of its numerator over ``den``."""
    return {xi: Fraction(c, den) for xi, c in nums.items() if c}


def _over(den, nums, d):
    """The (nums, d) pair's numerators over ``den``, a multiple of its value's
    denominators."""
    assert all(x * den % d == 0 for x in nums.values())
    return {key: x * den // d for key, x in nums.items()}


def test_factor_pair_jets_cover_a_vanishing_tau():
    jet = _factor_pair_jets(2)[-1]
    tau_a = [_dense_torsion_pair(jet.T[a], jet.n) for a in range(jet.n)]
    assert any(tau_a) and not all(tau_a)
    assert _ordered_pair_order2_channels(jet, 2)["tt_xx"].terms


@pytest.mark.parametrize("m", [1, 2, 3])
def test_printed_parts_match_per_pair_products(m):
    for jet in _factor_pair_jets(m):
        engine = symbols.build_sigma_ab_printed_parts(jet)
        oracle = _per_pair_printed_parts(jet)
        assert engine.keys() == oracle.keys()
        _assert_same_channels(engine, oracle)


# ---------------------------------------------------------------------------
# the rules the traced channels rely on
# ---------------------------------------------------------------------------

def _read_rule_breaks(expr):
    """The keys of a left channel that break what ``JetInputs``' traced
    channels assume of it: a word of grade other than 0 and 2 (rule 1), or
    at xi_a xi_b with a != b a nonempty word meeting neither e_a nor e_b
    (rule 3)."""
    breaks = []
    for key in expr.nums:
        word = key[3]
        mask = sum(1 << i for i, e in enumerate(symbols._decode(key[1], expr.n)) if e)
        if word.bit_count() not in (0, 2) or (
                mask.bit_count() == 2 and word and not word & mask):
            breaks.append(symbols._key(key, expr.n))
    return breaks


def _grade2_channels(jet):
    """The printed s2 and the composed grade 2: both depend on v and w alone."""
    return symbols.JetInputs(jet).s2, build_sigma_ab_composed(jet)[0]


@pytest.mark.parametrize("m", SUPPORTED_M)
def test_trace_read_rules_hold_on_every_basis_pair(m):
    """The printed s2 and the composed grade 2 carry grades 0 and 2 alone,
    and at xi_a xi_b with a != b only words that meet e_a or e_b.  Both are
    bilinear in (v, w), and the support of a sum lies in the union of the
    supports, so checking every pair of basis vectors proves both rules for
    every jet at each supported n = 2m."""
    n = 2 * m
    unit = [[int(k == i) for k in range(n)] for i in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        for channel in _grade2_channels(make_point_jet(m, v=unit[i], w=unit[j])):
            assert channel and _read_rule_breaks(channel) == [], (m, i, j)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3, 4]).flatmap(lambda m: st.tuples(
    st.just(m), *(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                           min_size=2 * m, max_size=2 * m) for _ in "vw"))))
def test_trace_read_rules_hold_on_random_vectors(case):
    """The rules of the test above on random rational v and w, n in {2, 4,
    6, 8}."""
    m, v, w = case
    for channel in _grade2_channels(make_point_jet(m, v=v, w=w)):
        assert _read_rule_breaks(channel) == []


# ---------------------------------------------------------------------------
# s2 and P_f by the Clifford relation
# ---------------------------------------------------------------------------

def _n2_product_forms(jet):
    """The n^2-product forms that ``JetInputs`` replaces by the relation
    c(xi) c(w) c(xi) = |xi|^2 c(w) - 2 <w, xi> c(xi): P_f = c(v) c_f c(w) as
    two products each, and s2 = -sum_{f,g} P_f c_g xi_f xi_g as one symbol
    per (f, g), summed."""
    n = jet.n
    gens = [CliffordElement.generator(n, i) for i in range(1, n + 1)]
    cv, cw = CliffordElement.from_vector(n, jet.v), CliffordElement.from_vector(n, jet.w)
    cvc = [cv * c_f * cw for c_f in gens]
    deg = lambda f, g: tuple((k == f) + (k == g) for k in range(n))
    s2 = SymbolExpr.sum_of(n, (SymbolExpr.from_clifford(cvc[f] * gens[g], xideg=deg(f, g))
                               for f in range(n) for g in range(n))).scale(-1)
    return cvc, s2


def _relation_jets(m):
    """Jets whose v and w are dense random rationals, one-hot, or (w) zero."""
    n, rng = 2 * m, random.Random(f"relation:{m}")
    dense = lambda: [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
    unit = [[int(k == i) for k in range(n)] for i in range(n)]
    return [*(make_point_jet(m, v=dense(), w=dense()) for _ in range(3)),
            make_point_jet(m, v=dense(), w=unit[n - 1]), make_point_jet(m, v=dense()),
            *(make_point_jet(m, v=unit[i], w=unit[j]) for i, j in ((0, 0), (0, n - 1), (n - 1, 1)))]


@pytest.mark.parametrize("m", SUPPORTED_M)
def test_s2_and_p_f_by_the_relation_match_the_n2_products(m):
    """s2 and P_f, built by the Clifford relation from one c(v) c(w) and n
    one-word products c(v) c_g, store the same (nums, den, phase) as their
    n^2-product forms, on dense, one-hot and zero-w jets."""
    for jet in _relation_jets(m):
        cvc, s2 = _n2_product_forms(jet)
        inputs = symbols.JetInputs(jet)
        assert _raw(inputs.cvc) == _raw(cvc)
        assert (inputs.s2.nums, inputs.s2.den, inputs.s2.phase) == (s2.nums, s2.den, s2.phase)
        assert s2 or not any(jet.w)


# ---------------------------------------------------------------------------
# c(v) after compose, and the printed channels against plain products
# ---------------------------------------------------------------------------

def _cv_inside_compose(jet):
    """Grades 2, 1, 0 of compose(c(v) sigma(x0), w0 sigma + w1 sigma(x0)),
    c(w(x)) = w0 + w1: the association with c(v) in ``compose``'s left
    factor, which the builder used before it applied c(v) after ``compose``."""
    n = jet.n
    c = lambda vector, xdeg=None: SymbolExpr.from_clifford(
        CliffordElement.from_vector(n, vector), xdeg=xdeg)
    sigma = SymbolExpr.sum_of(n, build_sigma_dt(jet))
    s0 = at_x0(sigma)
    w1 = SymbolExpr.sum_of(n, [c(row, tuple(int(i == j) for i in range(n)))
                               for j, row in enumerate(jet.dw)])
    full = symbols.compose(c(jet.v) * s0, c(jet.w) * sigma + w1 * s0)
    return tuple(xi_grade(full, d) for d in (2, 1, 0))


def _plain_product_parts(jet):
    """The printed channels with each factor pair's plain product x * y in
    place of its read products plus the words of its other grades."""
    inputs = symbols.JetInputs(jet)
    return inputs.printed(inputs.products(lambda x, y, _: x * y))


@pytest.mark.parametrize("m, seeds", [
    *(pytest.param(m, range(5), id=f"{m}-seeds") for m in range(2, 5)),
    *(pytest.param(m, range(5), id=f"{m}-seeds", marks=pytest.mark.slow) for m in (5, 6)),
    *(pytest.param(m, (), id=f"{m}-one-hot") for m in range(2, 9))])
def test_product_symbols_match_the_previous_rules(m, seeds):
    """Each composed grade, with c(v) applied after ``compose``, stores the
    (nums, den, phase) of the association above, and each printed channel,
    the read products plus the other grades, that of the plain products, on
    seeds 0-4 at m <= 6 (m = 5, 6 in the slow set) and on the one-hot
    coefficient jets at every m from 2 to 8."""
    from wres_torsion.cli import _one_hot_cases

    stored = lambda e: (e.nums, e.den, e.phase if e else None)
    jets = [random_point_jet(seed, m) for seed in seeds] or [
        make_point_jet(m, **kw) for _, _, kw in _one_hot_cases(m)]
    for jet in jets:
        composed, oracle = build_sigma_ab_composed(jet), _cv_inside_compose(jet)
        assert list(map(stored, composed)) == list(map(stored, oracle)), (m, jet)
        parts, oracle = symbols.build_sigma_ab_printed_parts(jet), _plain_product_parts(jet)
        assert parts.keys() == oracle.keys()
        for name, expr in oracle.items():
            assert stored(parts[name]) == stored(expr), (m, jet, name)
