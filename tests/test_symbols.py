"""Symbol term algebra, calculus, composition, and the graded builders."""

from __future__ import annotations

import itertools
import math
import random
import re
import types
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wres_torsion import symbols
from wres_torsion.clifford import CliffordElement, blade_mul, canonicalize, word_from_indices
from wres_torsion.geometry import (
    derived_scalars,
    make_point_jet,
    random_point_jet,
)
from wres_torsion.numerics import GaussianRational, I, ONE, _collected, _integer_form
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


def _phase_coeff(xideg, word, phase, r):
    """The coefficient i^(|xideg| + grade(word) - phase) r, as a Gaussian rational."""
    e = (sum(xideg) + bin(word).count("1") - phase) % 4
    value = -r if e >= 2 else r
    return GaussianRational(0, value) if e % 2 else GaussianRational(value)


def _random_expr(rng, n=N, terms=8, phase=None):
    """Random phase-consistent expression (phase drawn when not given)."""
    phase = rng.randint(0, 1) if phase is None else phase
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
        r = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out.add_term(tuple(xdeg), tuple(xideg), p, word,
                     _phase_coeff(xideg, word, phase, r))
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

def leibniz_compose(left, right, alpha_max=2):
    """sum_{|alpha| <= alpha_max} (-i)^|alpha|/alpha! d_xi^alpha(L) d_x^alpha(R).

    The full x-dependent composition, the independent oracle of
    ``symbols.leibniz_pairs``.  The derivatives and the Leibniz factor are
    looked up in the ``symbols`` module, so ``oracle_arithmetic`` swaps them."""
    left._check(right)
    total = type(left)(left.n)
    for alpha in symbols._iter_alphas(left.n, alpha_max):
        dl, dr = left, right
        for j in alpha:
            dl = symbols.d_xi(dl, j)
        if not dl:
            continue
        for j in alpha:
            dr = symbols.d_x(dr, j)
        if not dr:
            continue
        total = total + (dl.scale(symbols._alpha_coefficient(alpha)) * dr)
    return total


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
    assert at_x0(leibniz_compose(left, right, 2)) == SymbolExpr.sum_of(N, (
        dl * dr for dl, dr in symbols.leibniz_pairs(left, symbols.x_partials(right, 2))))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_composed_grades_match_full_composition(m, seed):
    """The first-order builder equals grades 2, 1, 0 of the full x-dependent
    composition with |alpha| <= 2, evaluated at x0."""
    jet = random_point_jet(seed, m)
    full = at_x0(leibniz_compose(*_product_factors(jet), 2))
    assert build_sigma_ab_composed(jet) == tuple(xi_grade(full, d) for d in (2, 1, 0))


def test_x_partials_one_pass_matches_repeated_d_x():
    rng = random.Random(12)
    for _ in range(40):
        expr = _random_expr(rng, terms=rng.randint(0, 12))
        for alpha_max in (0, 1, 2):
            one_pass = symbols.x_partials(expr, alpha_max)
            repeated = repeated_x_partials(expr, alpha_max)
            assert list(one_pass) == list(repeated)
            assert one_pass == repeated
            for part in one_pass.values():
                _assert_canonical(part)


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
    jet = make_point_jet(2)
    s_m, s_m1, s_m2 = (SymbolExpr.sum_of(4, parts.values())
                       for parts in build_sigma_delta_inv_parts(jet))
    lead = SymbolExpr(4)
    for a in range(4):
        lead.add_term(Z, _unit(a, 2), -6, 0, ONE)
    assert s_m == lead
    assert not s_m1.terms and not s_m2.terms


def test_sigma_delta_inv_displayed_coefficients():
    # Ricci x-jet channel coefficient -2mi/3 and scalar channel -m/4 s
    m = 2
    jet = random_point_jet(3, m, with_torsion=False, with_torsion_jet=False)
    parts_m, parts_m1, parts_m2 = build_sigma_delta_inv_parts(jet)
    der = derived_scalars(jet)
    n = jet.n
    expected_ric = SymbolExpr(n)
    for (a, b), x in der.ric.items():
        expected_ric.add_term(_unit(b), _unit(a), -2 * m - 2, 0,
                              GaussianRational(0, Fraction(-2 * m, 3)) * GaussianRational(x))
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
    expected_ric = SymbolExpr(n)
    for (a, b), x in der.ric.items():
        xi = tuple((1 if i == a else 0) + (1 if i == b else 0) for i in range(n))
        expected_ric.add_term(Z, xi, -2 * m - 2, 0,
                              GaussianRational(Fraction(m * (m - 1), 3) * x))
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
    """``symbols._family`` computed term by term: each placement through
    from_clifford, summed, then scaled."""
    return OracleExpr.sum_of(n, (
        OracleExpr.from_clifford(elem, xdeg=xdeg, xideg=xideg, normpow=p)
        for xdeg, xideg, p, elem in placed)).scale(coeff)


def oracle_symbol(n, nums, den, coeff=1):
    """``symbols._symbol`` computed term by term: each numerator over den as
    an exact coefficient at its key, then scale."""
    return OracleExpr(n, {key: Fraction(c, den) for key, c in nums}).scale(coeff)


def repeated_x_partials(expr, alpha_max=2):
    """alpha -> d_x^alpha(expr) at x0 by repeated d_x, then evaluation at x0:
    the reference of the one-pass ``symbols.x_partials``.  ``d_x`` and
    ``at_x0`` are looked up in the ``symbols`` module, so
    ``oracle_arithmetic`` swaps them."""
    out = {}
    for alpha, der in symbols._partials(expr, symbols.d_x, alpha_max).items():
        der = symbols.at_x0(der)
        if der:
            out[alpha] = der
    return out


@contextmanager
def oracle_arithmetic():
    """Run the symbols module's builders and Leibniz kernel on OracleExpr."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("SymbolExpr", OracleExpr), ("d_xi", oracle_d_xi),
                            ("d_x", oracle_d_x), ("xi_grade", oracle_xi_grade),
                            ("at_x0", oracle_at_x0), ("_family", oracle_family),
                            ("_symbol", oracle_symbol), ("x_partials", repeated_x_partials),
                            ("_alpha_coefficient", oracle_alpha_coefficient)):
            mp.setattr(symbols, name, value)
        yield


def expand(expr):
    """key -> exact complex coefficient of an engine expression."""
    return {key: expr.coefficient(key) for key in expr.terms}


def _pipeline_symbols(jet, m):
    """Every builder channel, the printed and composed grades and the
    Leibniz pairs of part 2, under whichever arithmetic is installed."""
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
    right_dx = symbols.x_partials(sigma_delta)
    for source, grades in (("printed", symbols.printed_grades(printed)),
                           ("composed", symbols.build_sigma_ab_composed(jet))):
        out.update((f"{source}_grade{2 - i}", e) for i, e in enumerate(grades))
        left = symbols.SymbolExpr.sum_of(n, grades)
        for i, (dl, dr) in enumerate(symbols.leibniz_pairs(left, right_dx)):
            out[f"{source}_pair{i}.left"] = dl
            out[f"{source}_pair{i}.right"] = dr
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


def _pair_of(terms, phase):
    engine, oracle = SymbolExpr(N), OracleExpr(N)
    for xdeg, xideg, p, word, r in terms:
        coeff = _phase_coeff(xideg, word, phase, r)
        engine.add_term(xdeg, xideg, p, word, coeff)
        oracle.add_term(xdeg, xideg, p, word, coeff)
    return engine, oracle


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


def test_phase_violation_raises_at_construction():
    key = (Z, _unit(0), -2, 0b0011)           # |nu| + grade = 3
    with pytest.raises(ValueError, match=re.escape(str(key))):
        SymbolExpr(N, {(Z, Z, 0, 0): ONE, key: GaussianRational(2)})
    with pytest.raises(ValueError, match=re.escape(str(key))):
        SymbolExpr(N, {key: GaussianRational(1, 1)})
    e = _expr((Z, Z, 0, 0, ONE))
    with pytest.raises(ValueError, match="phase rule"):
        e.add_term(*key, GaussianRational(2))
    with pytest.raises(ValueError, match="phase rule"):
        e.scale(GaussianRational(1, 1))
    with pytest.raises(ValueError, match="phase"):
        SymbolExpr.sum_of(N, (e, e.scale(I)))
    # the same term is fine where the phase makes it imaginary or odd
    # a Clifford element whose words differ in grade parity
    with pytest.raises(ValueError, match=re.escape(str((Z, Z, 0, 0b0011)))):
        SymbolExpr.from_clifford(CliffordElement(N, {0b0001: Fraction(1), 0b0011: Fraction(1)}))
    with pytest.raises(ValueError, match=re.escape(str((Z, _unit(0), 0, 0b0001)))):
        symbols._family(N, [(Z, _unit(0), 0, CliffordElement(
            N, {0: Fraction(1, 3), 0b0001: Fraction(2)}))], I)
    assert SymbolExpr(N, {key: I}).phase == 0
    assert SymbolExpr(N, {key: GaussianRational(2)}).phase == 1
    assert e.add_term(*key, I) is None and e.coefficient(key) == I


def test_coefficients_read_back_exactly():
    e = SymbolExpr(N)
    e.add_term(Z, _unit(0), 0, 0b0001, GaussianRational(Fraction(3, 4)))   # e = 2
    e.add_term(Z, _unit(1), 0, 0, GaussianRational(0, Fraction(-1, 2)))    # e = 1
    assert Fraction(e.terms[(Z, _unit(0), 0, 0b0001)], e.den) == Fraction(-3, 4)
    assert expand(e) == {(Z, _unit(0), 0, 0b0001): GaussianRational(Fraction(3, 4)),
                         (Z, _unit(1), 0, 0): GaussianRational(0, Fraction(-1, 2))}
    assert e.coefficient((Z, Z, 0, 0)) == 0


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
    family = symbols._family(N, placed, coeff)
    summed = SymbolExpr.sum_of(N, (
        SymbolExpr.from_clifford(elem, xdeg=xdeg, xideg=xideg, normpow=p).scale(coeff)
        for xdeg, xideg, p, elem in placed))
    _assert_canonical(family)
    assert (family.terms, family.den) == (summed.terms, summed.den)
    assert not family or family.phase == summed.phase
    assert expand(family) == oracle_family(N, placed, coeff).terms


def test_family_of_no_placements_is_zero():
    for coeff in (1, I, Fraction(-2, 3)):
        zero = symbols._family(N, [], coeff)
        assert zero == SymbolExpr(N) and zero.den == 1


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
        words = symbols._curvature_word_sums(curvature, n)
        pairs = symbols._curvature_pair_sums(curvature, n)
        for b in range(n):
            assert words[b] == _dense_curvature_word_sum(jet, b, Fraction(1, 8))
            for a in range(n):
                assert pairs.get((b, a), CliffordElement.zero(n)) == \
                    _dense_curvature_pair_sum(jet, b, a)


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
                         xideg=symbols._pair(n, a, b), normpow=p4)
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
    curvature = symbols._curvature_word_sums(_integer_form(jet.R_entries), n)
    dw = _clifford_sum(n, (gens[j] * CliffordElement.from_vector(n, row)
                           for j, row in enumerate(jet.dw)))
    return {
        "s2": sum_of(n, (
            _term_family(cv * gens[f] * cw * gens[g], -1, xideg=symbols._pair(n, f, g))
            for f in range(n) for g in range(n))),
        "s1_tt": sum_of(n, (
            _term_family((cv * gens[a] * cw + cw * gens[a] * cv) * tau,
                         GaussianRational(0, Fraction(1, 4)), xideg=symbols._unit(n, a))
            for a in range(n))),
        "s1_dw": sum_of(n, (
            _term_family(cv * dw * gens[a], I, xideg=symbols._unit(n, a))
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


def _all_torsion_forms(jet, sparse):
    """The reader ``sparse`` (symbols._torsion_forms) on the channels of
    ``jet``, except that its rows are those of every leading index, zero
    rows included, built from the dense views.  A ``JetInputs`` reads T's
    int form and then dT1's, so the calls alternate between the two."""
    channels = itertools.cycle(("T", "dT1"))

    def forms(form, n):
        name = next(channels)
        assert form == _integer_form(getattr(jet, f"{name}_entries"))
        if name == "T":
            return sparse(form, n)[0], {a: _dense_torsion_pair(jet.T[a], n) for a in range(n)}
        return sparse(form, n)[0], {(b, a): _dense_torsion_pair(jet.dT1[b][a], n)
                                    for b in range(n) for a in range(n)}
    return forms


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
    reader = symbols._torsion_forms
    for jet, (delta, dtpow) in zip(jets, sparse):
        monkeypatch.setattr(symbols, "_torsion_forms", _all_torsion_forms(jet, reader))
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
    up in the ``symbols`` module, so ``oracle_arithmetic`` swaps them."""
    n, der = jet.n, derived_scalars(jet)
    _pair = symbols._pair
    x0 = (0,) * n
    p2, p4 = -2 * mm - 2, -2 * mm - 4
    pairs = symbols._curvature_pair_sums(_integer_form(jet.R_entries), n)
    tau, dtau = (symbols._torsion_forms(_integer_form(entries), n)[1]
                 for entries in (jet.T_entries, jet.dT1_entries))
    ric = _integer_form(der.ric)
    e_val = Fraction(-mm) * (der.s / 4 - Fraction(3, 4) * der.norm_t2)
    dt4 = CliffordElement(n, {(1 << i) | (1 << j) | (1 << k) | (1 << t): x
                              for (i, j, k, t), x in der.dT4.items()})
    tt = {(a, b): tau[a] * tau[b] for a, b in itertools.combinations_with_replacement(tau, 2)}
    c_tt = Fraction(-9 * mm * (mm + 1), 2)
    SymbolExpr = symbols.SymbolExpr  # the installed arithmetic, as in the builders
    return {
        "ric": symbols._symbol(n, symbols._collected(((x0, _pair(n, a, b), p4, 0), x)
                                                     for (a, b), x in ric[0].items()).items(),
                               ric[1], Fraction(mm * (mm + 1), 3)),
        "tt_xx": SymbolExpr.sum_of(n, (
            _term_family(symbols._grades(prod, 0, 4), c_tt if a == b else 2 * c_tt,
                         xideg=_pair(n, a, b), normpow=p4)
            for (a, b), prod in tt.items())),
        "tt_scalar": SymbolExpr.sum_of(n, (
            _term_family(tt[a, a], Fraction(9 * mm, 4), normpow=p2) for a in tau)),
        "div_t": SymbolExpr.sum_of(n, (
            _term_family(row, Fraction(3 * mm, 2), normpow=p2)
            for (b, a), row in dtau.items() if a == b)),
        "r_xx": SymbolExpr.sum_of(n, (
            _term_family(pair, Fraction(-mm * (mm + 1), 4), xideg=_pair(n, a, b), normpow=p4)
            for (b, a), pair in pairs.items())),
        "dt_xx": SymbolExpr.sum_of(n, (
            _term_family(row, -3 * mm * (mm + 1), xideg=_pair(n, a, b), normpow=p4)
            for (b, a), row in dtau.items())),
        "e_scalar": symbols._symbol(n, [((x0, x0, p2, 0), 1)], 1, e_val),
        "dt4": _term_family(dt4, Fraction(-3 * mm, 2), normpow=p2),
    }


def _assert_order2_matches_per_mm(jet):
    m = jet.m
    inputs = symbols.JetInputs(jet)
    for mm, built in ((m - 1, build_sigma_dtpow_parts(jet)),
                      (m, build_sigma_delta_inv_parts(jet)[2])):
        parts, per_mm = inputs.order2_parts(mm), _per_mm_order2_parts(jet, mm)
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
    assert any(inputs.order2_parts(m).values())


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
    assert not inputs.order2["e_scalar"][2]
    assert all(inputs.order2_parts(mm)["ric"] for mm in (m - 1, m))


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
    """Every ``JetInputs`` field, read off the int forms that the derived
    scalars hand on, equals the one built from the jet's maps, each
    converted anew: R's int form and Ric's from ``_integer_form`` of
    ``jet.R_entries`` and of ``derived.ric``, the torsion 3-forms and rows
    by the map reader above, and the sums and order -(2mm+2) families from
    those (on seeds 0-4, the one-hot coefficient jets, the jets with one
    channel off and a constant curvature 1/(n-1), whose Ric is integral while
    R's denominator is n-1)."""
    n = 2 * m
    jets = [random_point_jet(seed, m) for seed in range(5)]
    jets += [_sparse_jet(m, case) for case in (*(range(4) if m >= 2 else ()), *_CHANNEL_FLAGS)]
    jets.append(make_point_jet(m, R=[(a, b, a, b, Fraction(1, n - 1))
                                     for a, b in itertools.combinations(range(n), 2)]))
    for jet in jets:
        n, der = jet.n, derived_scalars(jet)
        curvature, ric = _integer_form(jet.R_entries), _integer_form(der.ric)
        maps = (jet.T_entries, jet.dT1_entries)
        rows = tuple(_map_torsion_forms(entries, n, rows=True) for entries in maps)
        pair_sums = symbols._curvature_pair_sums(curvature, n)
        oracle = {
            "curvature": curvature, "ric": ric,
            "forms": tuple(_map_torsion_forms(entries, n) for entries in maps),
            "rows": rows,
            "word_sums": symbols._curvature_word_sums(curvature, n),
            "pair_sums": pair_sums,
            # the families of JetInputs.order2 over the inputs converted anew
            "order2": symbols.JetInputs.order2.func(types.SimpleNamespace(
                n=n, derived=der, rows=rows, ric=ric, pair_sums=pair_sums)),
        }
        inputs = symbols.JetInputs(jet)
        for name, expected in oracle.items():
            assert _raw(getattr(inputs, name)) == _raw(expected), name


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
