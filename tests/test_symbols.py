"""Symbol term algebra, calculus, composition, and the graded builders."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from wres_torsion.clifford import CliffordElement
from wres_torsion.geometry import make_point_jet, random_point_jet, zero_point_jet
from wres_torsion.numerics import GaussianRational, I, ONE
from wres_torsion.symbols import (
    SymbolExpr,
    TORSION_PREFACTOR,
    at_x0,
    build_sigma_ab_composed,
    build_sigma_ab_printed,
    build_sigma_delta_inv,
    build_sigma_delta_inv_parts,
    build_sigma_dt,
    build_sigma_dtpow_parts,
    d_x,
    d_xi,
    leibniz_compose,
    leibniz_compose_at_x0,
    xi_grade,
)

N = 4


def _expr(*terms):
    out = SymbolExpr(N)
    for xdeg, xideg, p, word, coeff in terms:
        out.add_term(tuple(xdeg), tuple(xideg), p, word, coeff)
    return out


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


def _random_expr(rng, n=N, terms=8):
    out = SymbolExpr(n)
    for _ in range(terms):
        xdeg = [0] * n
        for _ in range(rng.randint(0, 2)):
            xdeg[rng.randrange(n)] += 1
        xideg = [0] * n
        for _ in range(rng.randint(0, 3)):
            xideg[rng.randrange(n)] += 1
        p = rng.choice([0, -2, -4, -6])
        word = rng.randrange(1 << n)
        coeff = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                 Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        out.add_term(tuple(xdeg), tuple(xideg), p, word, coeff)
    return out


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


def test_compose_at_x0_matches_generic():
    # the two factors c(v) D_T and c(w) D_T of the product symbol, w with its jet
    def c(vector, xdeg=Z):
        return SymbolExpr.from_clifford(CliffordElement.from_vector(N, vector), xdeg=xdeg)

    jet = random_point_jet(4, 2)
    sigma = SymbolExpr.sum_of(N, build_sigma_dt(jet))
    cw = SymbolExpr.sum_of(N, [c(jet.w)] + [c(row, _unit(j))
                                            for j, row in enumerate(jet.dw)])
    left, right = c(jet.v) * sigma, cw * sigma
    assert at_x0(leibniz_compose(left, right, 2)) == leibniz_compose_at_x0(left, right, 2)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_sigma_dt_leading_symbol():
    jet = zero_point_jet(2)
    s1, s0 = build_sigma_dt(jet)
    assert s1 == _expr(*((Z, _unit(a), 0, 1 << a, I) for a in range(4)))
    assert not s0.terms


def test_sigma_dt_curvature_jet_channel():
    # the x^b channel of sigma_0 must contain (1/8) R_{bats} c_a c_s c_t
    jet = random_point_jet(6, 2, with_torsion=False, with_torsion_jet=False,
                           with_w_jet=False)
    _, s0 = build_sigma_dt(jet)
    n = jet.n
    expected = SymbolExpr(n)
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
                            expected.add_term(tuple(1 if i == b else 0 for i in range(n)),
                                              (0,) * n, 0, word, coeff)
    assert s0 == expected


def test_sigma_dt_variant_ratio():
    # printed torsion prefactor 1/4; alternative carries 9/2 (ratio 18)
    jet = random_point_jet(7, 2, with_curvature=False, with_torsion_jet=False,
                           with_w_jet=False)
    _, s0_printed = build_sigma_dt(jet, "printed")
    _, s0_alt = build_sigma_dt(jet, "first_principles")
    assert TORSION_PREFACTOR["first_principles"] / TORSION_PREFACTOR["printed"] == 18
    assert s0_alt == s0_printed.scale(18)


def test_sigma_delta_inv_flat():
    jet = zero_point_jet(2)
    s_m, s_m1, s_m2 = build_sigma_delta_inv(jet, 2)
    lead = SymbolExpr(4)
    for a in range(4):
        lead.add_term(Z, _unit(a, 2), -6, 0, ONE)
    assert s_m == lead
    assert not s_m1.terms and not s_m2.terms


def test_sigma_delta_inv_displayed_coefficients():
    # Ricci x-jet channel coefficient -2mi/3 and scalar channel -m/4 s
    m = 2
    jet = random_point_jet(3, m, with_torsion=False, with_torsion_jet=False)
    parts_m, parts_m1, parts_m2 = build_sigma_delta_inv_parts(jet, m)
    from wres_torsion.geometry import derived_scalars
    der = derived_scalars(jet)
    n = jet.n
    expected_ric = SymbolExpr(n)
    for a in range(n):
        for b in range(n):
            if der.ric[a][b]:
                expected_ric.add_term(_unit(b), _unit(a), -2 * m - 2, 0,
                                      GaussianRational(0, Fraction(-2 * m, 3))
                                      * GaussianRational(der.ric[a][b]))
    assert parts_m1["ric_jet"] == expected_ric
    e_term = parts_m2["e_scalar"]
    assert e_term == _expr((Z, Z, -2 * m - 2, 0,
                            GaussianRational(Fraction(-m) * der.s / 4)))


def test_sigma_dtpow_coefficients():
    # Ricci channel m(m-1)/3, scalar channel -(m-1)(s/4 - 3|T|^2/4)
    m = 2
    jet = random_point_jet(12, m)
    parts = build_sigma_dtpow_parts(jet, m)
    from wres_torsion.geometry import derived_scalars
    der = derived_scalars(jet)
    n = jet.n
    expected_ric = SymbolExpr(n)
    for a in range(n):
        for b in range(n):
            if der.ric[a][b]:
                xi = tuple((1 if i == a else 0) + (1 if i == b else 0)
                           for i in range(n))
                expected_ric.add_term(Z, xi, -2 * m - 2, 0,
                                      GaussianRational(Fraction(m * (m - 1), 3)
                                                       * der.ric[a][b]))
    assert parts["ric"] == expected_ric
    e_val = Fraction(-(m - 1)) * (der.s / 4 - Fraction(3, 4) * der.norm_t2)
    assert parts["e_scalar"] == _expr((Z, Z, -2 * m, 0, GaussianRational(e_val)))


def test_dtpow_vanishes_at_m1():
    jet = random_point_jet(2, 1)
    parts = build_sigma_dtpow_parts(jet, 1)
    assert all(not part.terms for part in parts.values())


# ---------------------------------------------------------------------------
# product-symbol grades: composed vs displayed
# ---------------------------------------------------------------------------

def test_sigma2_printed_form():
    # sigma_2 for v = w = e_1 is -c(v)c(xi)c(w)c(xi)
    jet = make_point_jet(2, v=[1, 0, 0, 0], w=[1, 0, 0, 0])
    s2, _, _ = build_sigma_ab_printed(jet)
    n = 4
    expected = SymbolExpr(n)
    g1 = CliffordElement.generator(n, 1)
    for f in range(n):
        for g in range(n):
            elem = (g1 * CliffordElement.generator(n, f + 1) * g1
                    * CliffordElement.generator(n, g + 1)).scale(-1)
            xi = tuple((1 if i == f else 0) + (1 if i == g else 0) for i in range(n))
            for word, coeff in elem.terms.items():
                expected.add_term(Z, xi, 0, word, coeff)
    assert s2 == expected


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
        expected = SymbolExpr(n)
        iq = GaussianRational(0, Fraction(1, 4))
        for a in range(n):
            gen = CliffordElement.generator(n, a + 1)
            elem = (cw * gen * cv * tau) - (cv * tau * cw * gen)
            for word, coeff in elem.terms.items():
                expected.add_term(Z[:0] + (0,) * n,
                                  tuple(1 if i == a else 0 for i in range(n)),
                                  0, word, coeff * iq)
        assert (p1 - c1) == expected
        assert (p1 - c1).terms  # nonzero for generic torsion


def test_pretty_printer_deterministic():
    jet = random_point_jet(1, 2)
    _, s0 = build_sigma_dt(jet)
    assert s0.pretty() == s0.pretty()
    assert "c" in s0.pretty()


def test_term_list_view():
    jet = random_point_jet(1, 2)
    s1, _ = build_sigma_dt(jet)
    terms = s1.term_list()
    assert len(terms) == 4
    for term in terms:
        assert term.xi_homogeneity == 1
        assert len(term.word_indices) == 1
        assert term.coeff == I
