"""Canonicalization, products, traces, and the gamma-matrix oracle."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wres_torsion import clifford
from wres_torsion.clifford import (
    CliffordElement,
    blade_mul,
    build_gamma,
    canonicalize,
    trace,
    trace_via_rep,
    word_from_indices,
    word_indices,
)
from wres_torsion.numerics import GaussianRational, I, ONE, ZERO


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------

def test_single_transposition():
    assert canonicalize([2, 1], 4) == (-ONE, (1, 2))


def test_square_is_minus_one():
    assert canonicalize([1, 1], 4) == (-ONE, ())


def test_double_square():
    # two applications of c_i^2 = -1
    assert canonicalize([1, 2, 2, 1], 4) == (ONE, ())


def test_index_out_of_range():
    with pytest.raises(ValueError):
        canonicalize([5], 4)


def _slow_canonicalize(indices, n):
    """Reference rewriter: bubble-sort with explicit relation applications."""
    seq = list(indices)
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(seq) - 1:
            if seq[i] == seq[i + 1]:
                del seq[i:i + 2]
                sign = -sign
                changed = True
            elif seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
            else:
                i += 1
    return (ONE if sign > 0 else -ONE), tuple(seq)


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=8))
def test_canonicalize_matches_slow_reference(indices):
    assert canonicalize(indices, 6) == _slow_canonicalize(indices, 6)


def test_blade_mul_matches_slow_reference():
    # every word pair of every n <= 6
    for a in range(1 << 6):
        for b in range(1 << 6):
            sign, word = _slow_canonicalize(word_indices(a) + word_indices(b), 6)
            assert blade_mul(a, b) == (sign, word_from_indices(word))


# ---------------------------------------------------------------------------
# element algebra
# ---------------------------------------------------------------------------

def _gen(n, i):
    return CliffordElement.generator(n, i)


def test_generator_square():
    n = 4
    assert _gen(n, 1) * _gen(n, 1) == CliffordElement.identity(n).scale(-1)


def test_expand_and_canonicalize():
    n = 4
    lhs = (_gen(n, 1) + _gen(n, 2)) * _gen(n, 1)
    expected = CliffordElement.identity(n).scale(-1) - CliffordElement(n, {0b0011: 1})
    assert lhs == expected


def test_identity_law():
    n = 4
    x = CliffordElement(n, {0b0101: GaussianRational(Fraction(2, 7))})
    assert CliffordElement.identity(n) * x == x


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        _gen(4, 1) * _gen(6, 1)
    # an empty factor of the wrong dimension still raises
    for a, b in ((CliffordElement.zero(4), _gen(6, 1)), (_gen(4, 1), CliffordElement.zero(6)),
                 (CliffordElement.zero(4), CliffordElement.zero(6))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            a * b


def _random_element(rng, n, terms=6):
    elem = CliffordElement.zero(n)
    for _ in range(terms):
        word = rng.randrange(1 << n)
        coeff = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        elem = elem + CliffordElement(n, {word: coeff})
    return elem


def test_mul_associative_on_random_triples():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([2, 4, 6, 12])
        a, b, c = (_random_element(rng, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)


# A rational element stores int numerators over one denominator, and the
# product multiplies numerators and denominators.  The oracle is the
# coefficient-by-coefficient loop over exact coefficients.

def _coefficientwise_mul(a, b):
    acc = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            c = ca * cb if blade_mul(wa, wb)[0] > 0 else -(ca * cb)
            acc[wa ^ wb] = acc[wa ^ wb] + c if wa ^ wb in acc else c
    return CliffordElement(a.n, acc)


def _assert_canonical(elem):
    """The integer form of a rational element: nonzero int numerators over
    one positive denominator, reduced, and den = 1 for the zero element."""
    assert type(elem.den) is int and elem.den > 0
    assert all(type(c) is int and c for c in elem.nums.values())
    assert math.gcd(elem.den, *elem.nums.values()) == 1
    assert elem.nums or elem.den == 1


_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_ints = st.integers(-9, 9)
_gaussians = st.builds(GaussianRational, _fractions, _fractions)


@st.composite
def _element_pairs(draw):
    n = draw(st.sampled_from([2, 4, 6, 12]))
    words = st.integers(0, (1 << n) - 1)
    kinds = ["fraction", "int", "gaussian", "mixed"] + ["zero divisor"] * (n >= 4)
    kind = draw(st.sampled_from(kinds))
    left, right = {"int": (_ints, _ints), "gaussian": (_gaussians, _gaussians),
                   "mixed": (_fractions, _gaussians)}.get(kind, (_fractions, _fractions))
    a = CliffordElement(n, draw(st.dictionaries(words, left, max_size=8)))
    b = CliffordElement(n, draw(st.dictionaries(words, right, max_size=8)))
    if kind == "zero divisor":
        # w = c1 c2 c3 c4 squares to 1, so (a (1 + w)) ((1 - w) b) = 0
        one, w = CliffordElement.identity(n), CliffordElement(n, {0b1111: Fraction(1)})
        a, b = _coefficientwise_mul(a, one + w), _coefficientwise_mul(one - w, b)
    return kind, a, b


@settings(max_examples=300, deadline=None)
@given(_element_pairs())
def test_integer_product_matches_coefficientwise_loop(pair):
    kind, a, b = pair
    if kind == "zero divisor":
        assert a * b == CliffordElement.zero(a.n) and (a * b).terms == {}
    for x, y in ((a, b), (b, a)):
        product = x * y
        assert product == _coefficientwise_mul(x, y)
        assert all(product.terms.values())
        if kind in ("fraction", "int", "zero divisor"):
            for elem in (x, y, product):
                _assert_canonical(elem)
                assert all(type(c) is Fraction for c in elem.terms.values())
        else:
            assert product.den == 1


@pytest.mark.parametrize("n", [2, 4, 6])
def test_integer_product_edge_cases(n):
    c1, c2 = _gen(n, 1), _gen(n, 2)
    zero = CliffordElement.zero(n)
    x = c1.scale(Fraction(2, 3)) + c2.scale(Fraction(-5, 4))
    # mixed denominators that cancel: (x c1 c2)(c2 c1) - x = 0
    assert x * (c1 * c2) * (c2 * c1) - x == zero
    assert (x * (c1 * c2)) * (c2.scale(Fraction(3, 7)) * c1.scale(Fraction(7, 3))) \
        + x.scale(-1) == zero
    # c1 y + y c1 = -2 g(e1, y): the c1 c2 words cancel between the products
    y = c1.scale(Fraction(1, 6)) + c2.scale(Fraction(1, 10))
    assert c1 * y + y * c1 == CliffordElement.identity(n).scale(Fraction(-1, 3))
    # a product whose sums cancel inside the loop stores no zero
    cancel = (c1 + c2) * (c1 - c2)
    assert cancel == (c1 * c2).scale(-2)
    assert (c1 + c2).scale(Fraction(1, 2)) * (c1 + c2).scale(Fraction(1, 3)) \
        == CliffordElement.identity(n).scale(Fraction(-1, 3))
    odd = c1 * c2 * c1.scale(Fraction(1, 5))
    assert odd * odd.scale(0) == zero and (odd * odd.scale(0)).terms == {}
    assert zero * x == zero and x * zero == zero and (x * zero).terms == {}
    assert all(type(c) is Fraction for c in (x * x * c2).terms.values())
    assert (x * x).terms == {0: Fraction(-(16 * 4 + 9 * 25), 144)}


# ---------------------------------------------------------------------------
# trace-directed kernels, each against the general pair loop
# ---------------------------------------------------------------------------

_scalars = st.one_of(_fractions, _ints, _gaussians)


@st.composite
def _kernel_pairs(draw, grade=None):
    """Two elements of one dimension n in {2, ..., 10}, on words of ``grade``
    alone when given; the right one often repeats words of the left one."""
    n = draw(st.sampled_from([2, 4, 6, 8, 10]))
    pool = [w for w in range(1 << n) if grade is None or w.bit_count() == grade]
    words = st.sampled_from(pool)
    a = draw(st.dictionaries(words, _scalars, max_size=8))
    if a:
        words = st.one_of(words, st.sampled_from(sorted(a)))
    return CliffordElement(n, a), CliffordElement(n, draw(st.dictionaries(words, _scalars,
                                                                          max_size=8)))


def _assert_rational_canonical(elem, *factors):
    if all(type(c) is int for f in factors for c in f.nums.values()):
        _assert_canonical(elem)


@settings(max_examples=100, deadline=None)
@given(_kernel_pairs())
def test_scalar_part_is_the_identity_coefficient_of_the_product(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        part = clifford.scalar_part(x, y)
        coeff = (x * y).terms.get(0, 0)
        assert part == CliffordElement(x.n, {0: coeff})
        _assert_rational_canonical(part, x, y)


@settings(max_examples=100, deadline=None)
@given(_kernel_pairs(), st.data())
def test_one_word_product_matches_the_pair_loop(pair, data):
    """A product by one word (its own path in ``__mul__``) against the
    coefficient-by-coefficient loop over all word pairs."""
    a, _ = pair
    word = data.draw(st.integers(0, (1 << a.n) - 1))
    right = CliffordElement(a.n, {word: data.draw(_scalars.filter(bool))})
    product = a * right
    assert product == _coefficientwise_mul(a, right)
    _assert_rational_canonical(product, a, right)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_kernel_pairs(), _kernel_pairs(grade=2)),
       st.sets(st.integers(0, 6)).map(lambda g: tuple(sorted(g))))
@example(pair=(CliffordElement(4, {0b0011: 2, 0b1100: Fraction(1, 3)}),
               CliffordElement(4, {0b0011: -1, 0b0110: 5, 0b1100: 3})), grades=(0, 4))
def test_graded_product_matches_the_projected_product(pair, grades):
    """``_graded`` keeps the words of x * y whose grade is in ``grades``: the
    projection of the full product, on any elements and on bivectors, whose
    grades 0 and 4 the public order -(2mm+2) families read."""
    from wres_torsion.symbols import _grades

    x, y = pair
    for a, b in ((x, y), (y, x)):
        part = clifford._graded(a, b, grades)
        assert part == _grades(a * b, *grades)
        _assert_rational_canonical(part, a, b)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_trace_identity_is_2m():
    assert trace(CliffordElement.identity(4), 2) == GaussianRational(4)


def test_trace_of_nonempty_word_vanishes():
    assert trace(CliffordElement(4, {0b0011: 1}), 2) == ZERO


def test_trace_cv_cw_equals_minus_g():
    # v = w = e_1, m = 2: matches -g(v,w) tr[id] via the gamma oracle too
    n, m = 4, 2
    cv = CliffordElement.from_vector(n, [1, 0, 0, 0])
    assert trace(cv * cv, m) == GaussianRational(-4)
    rep = build_gamma(m)
    assert trace_via_rep(cv * cv, rep) == GaussianRational(-4)


def test_trace_bilinear_form_random():
    rng = random.Random(3)
    for m in (1, 2, 3):
        n = 2 * m
        for _ in range(20):
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            w = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            g = sum(a * b for a, b in zip(v, w))
            cv = CliffordElement.from_vector(n, v)
            cw = CliffordElement.from_vector(n, w)
            assert trace(cv * cw, m) == GaussianRational(-g * (1 << m))


# ---------------------------------------------------------------------------
# gamma representation
# ---------------------------------------------------------------------------

# The dense oracle of the monomial rows: 2^m x 2^m matrices of
# GaussianRational entries, the Kronecker construction and the product
# written out entry by entry.

def dense_mul(a, b):
    size = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(size)), ZERO) for j in range(size))
        for i in range(size)
    )


def _dense_kron(a, b):
    na, nb = len(a), len(b)
    return tuple(
        tuple(a[i // nb][j // nb] * b[i % nb][j % nb] for j in range(na * nb))
        for i in range(na * nb)
    )


def _dense_eye(size):
    return tuple(tuple(ONE if i == j else ZERO for j in range(size)) for i in range(size))


_DENSE_X = ((ZERO, ONE), (-ONE, ZERO))
_DENSE_Y = ((ZERO, I), (I, ZERO))
_DENSE_Z = ((ONE, ZERO), (ZERO, -ONE))


def dense_gammas(m):
    """The dense gamma matrices of the iterated tensor construction."""
    gammas = [_DENSE_X, _DENSE_Y]
    for _ in range(m - 1):
        eye = _dense_eye(len(gammas[0]))
        gammas = [_dense_kron(g, _DENSE_Z) for g in gammas]
        gammas += [_dense_kron(eye, _DENSE_X), _dense_kron(eye, _DENSE_Y)]
    return gammas


def dense(mat):
    """The dense matrix of monomial rows (column, entry)."""
    size = len(mat)
    return tuple(tuple(x if j == col else ZERO for j in range(size)) for col, x in mat)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gamma_matches_dense_construction(m):
    """Every gamma matrix and every word matrix (all 2^n words), expanded
    to dense form, is the dense construction and the dense product."""
    rep = build_gamma(m)
    n = 2 * m
    gammas = dense_gammas(m)
    assert [dense(g) for g in rep.matrices] == gammas
    words = {0: _dense_eye(1 << m)}
    assert dense(rep.word_matrix(0)) == words[0]
    for word in range(1, 1 << n):
        low = word & -word
        words[word] = dense_mul(gammas[low.bit_length() - 1], words[word ^ low])
        assert dense(rep.word_matrix(word)) == words[word]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gamma_relations_exact(m):
    rep = build_gamma(m)
    n = 2 * m
    size = rep.dim
    assert size == 1 << m
    gammas = [dense(g) for g in rep.matrices]
    for i in range(n):
        for j in range(n):
            anti = dense_mul(gammas[i], gammas[j])
            anti2 = dense_mul(gammas[j], gammas[i])
            for r in range(size):
                for c in range(size):
                    want = GaussianRational(-2 if (i == j and r == c) else 0)
                    assert anti[r][c] + anti2[r][c] == want


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gamma_entries_exact_units(m):
    rep = build_gamma(m)
    allowed = {GaussianRational(0), GaussianRational(1), GaussianRational(-1),
               I, -I}
    for mat in rep.matrices:
        assert sorted(col for col, _ in mat) == list(range(rep.dim))
        for row in dense(mat):
            for entry in row:
                assert entry in allowed


@pytest.mark.parametrize("m", [1, 2, 3])
def test_generators_traceless(m):
    rep = build_gamma(m)
    for i in range(2 * m):
        elem = CliffordElement.generator(2 * m, i + 1)
        assert trace_via_rep(elem, rep) == ZERO


def test_oracle_equivalence_random_elements():
    rng = random.Random(11)
    for m in (1, 2, 3):
        rep = build_gamma(m)
        n = 2 * m
        for _ in range(40):
            elem = _random_element(rng, n, terms=rng.randint(1, 12))
            assert trace(elem, m) == trace_via_rep(elem, rep)


def test_oracle_on_dense_element_m3():
    rng = random.Random(50)
    elem = _random_element(rng, 6, terms=50)
    rep = build_gamma(3)
    assert trace(elem, 3) == trace_via_rep(elem, rep)


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_oracle_equivalence_beyond_supported_m(m):
    rng = random.Random(f"oracle:{m}")
    rep = build_gamma(m)
    for _ in range(2):
        elem = _random_element(rng, 2 * m, terms=12)
        assert trace(elem, m) == trace_via_rep(elem, rep)


def test_oracle_independent_of_sign_rule(monkeypatch):
    """The oracle multiplies matrices: with the bit-mask sign rule gone, it
    still agrees with ``trace`` on elements built without products."""
    def gone(*args):
        raise AssertionError("the oracle used the bit-mask sign rule")
    monkeypatch.setattr(clifford, "_below", gone)
    monkeypatch.setattr(clifford, "blade_mul", gone)
    rng = random.Random(5)
    for m in (1, 2, 3, 4):
        rep = build_gamma(m)
        for _ in range(5):
            elem = _random_element(rng, 2 * m, terms=rng.randint(1, 12))
            assert trace(elem, m) == trace_via_rep(elem, rep)


def test_rep_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_via_rep(CliffordElement.identity(4), build_gamma(3))


def test_word_roundtrip():
    assert word_indices(word_from_indices([1, 3, 6])) == (1, 3, 6)
