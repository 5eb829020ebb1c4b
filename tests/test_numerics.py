"""Field laws and parsing for the exact scalar layer."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wres_torsion.numerics import (
    GaussianRational,
    I,
    ONE,
    ZERO,
    format_rational,
    parse_rational,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_exact_fraction_addition():
    assert GaussianRational(Fraction(1, 2)) + GaussianRational(Fraction(1, 3)) \
        == GaussianRational(Fraction(5, 6))


def test_i_squared_is_minus_one():
    assert I * I == -ONE


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.re = Fraction(2)


@settings(max_examples=1000)
@given(gaussians, gaussians, gaussians)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_additive_and_multiplicative_inverse(a):
    assert a + (-a) == ZERO


@given(gaussians, rationals)
def test_hash_agrees_with_equality(a, q):
    """Equal values hash alike, so a real GaussianRational finds its
    Fraction or int in a set or dict, and the reverse."""
    real = GaussianRational(q)
    assert real == q and hash(real) == hash(q)
    assert real in {q} and q in {real}
    b = GaussianRational(a.re, a.im)
    assert b == a and hash(b) == hash(a)
    assert GaussianRational(1) in {1} and {GaussianRational(3): 0}[3] == 0
    assert GaussianRational(1, 1) not in {1} and I not in {1, 0}


@given(rationals)
def test_rational_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_decimal_and_integer_strings():
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 3/4 ") == Fraction(3, 4)


@pytest.fixture
def int_str_limit():
    """Set the interpreter's int-string digit limit for one test."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("mark", ["e", "E"])
@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_parse_refuses_an_exponent_past_the_int_string_limit(int_str_limit, mark, sign):
    """Fraction builds 10**exponent in full, so an exponent of magnitude
    above the int-string digit limit is refused, as a literal of that many
    digits is; one at the limit is read exactly."""
    int_str_limit(4300)
    power = Fraction(10) ** (-4300 if sign == "-" else 4300)
    assert parse_rational(f"1{mark}{sign}4300") == power
    assert parse_rational(f" 2.5{mark}{sign}4300 ") == Fraction(5, 2) * power
    for text in (f"1{mark}{sign}4301", f"1{mark}{sign}100000000", f"1{mark}{sign}{'9' * 5000}"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_parse_exponent_bound_follows_the_int_string_limit(int_str_limit):
    int_str_limit(5000)
    assert parse_rational("1e5000") == 10 ** 5000
    with pytest.raises(ValueError):
        parse_rational("1e-5001")
    int_str_limit(0)  # no limit
    assert parse_rational("1e-10000") == Fraction(1, 10 ** 10000)


def test_format_is_p_over_q():
    assert format_rational(Fraction(-25, 16)) == "-25/16"
    assert format_rational(Fraction(4)) == "4"


@pytest.mark.parametrize("digits", [4301, 5000, 123_457])
def test_format_prints_past_the_int_string_limit(digits):
    # str() of an int over 4300 digits raises unless the limit is lifted
    big = 10 ** (digits - 1) + 7
    tail = "0" * (digits - 2) + "7"
    assert format_rational(Fraction(-big, 3)) == "-1" + tail + "/3"
    assert format_rational(Fraction(2, big)) == "2/1" + tail
    assert format_rational(Fraction(big)) == "1" + tail


def test_normalized_invariants_hold():
    q = parse_rational("-6/8")
    assert q.denominator > 0
    assert q.numerator == -3 and q.denominator == 4
