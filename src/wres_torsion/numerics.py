"""Exact scalar arithmetic: rationals, Gaussian rationals, numerator forms.

Exactness is non-negotiable: intermediate symbol coefficients overflow
64-bit ranges already for half-dimension m = 3, so every scalar is built
from arbitrary-precision ``fractions.Fraction`` values, which already keep
the normal form gcd(|p|, q) = 1, q > 0.

The engine computes in rationals.  A symbol coefficient is purely real or
purely imaginary, and its phase follows from its key (see ``symbols``), so
a symbol term stores one rational: an int numerator over the expression's
one denominator, the form ``_integer_form`` gives.  A rational Clifford
element stores its coefficients the same way, so a builder goes from the
jet's nonzero entries to its symbols in ints.  Three functions own that
numerator form for both: ``_reduced`` makes (numerators, denominator)
canonical (ints reduce by gcd; any other ring element, such as a
``GaussianRational``, keeps den = 1), ``_summed`` adds such pairs over the
lcm of their denominators, and ``_collected`` sums values per key.

``GaussianRational`` (``a + b*i`` with rational ``a``, ``b``) is the exact
complex scalar of the gamma-matrix oracle, whose monomial matrices hold
one entry in {+-1, +-i} per row, and the type in which a symbol's exact
complex coefficients are given and read back, and in which a summed trace
is checked to be real.
"""

from __future__ import annotations

import decimal
import math
import re
import sys
from fractions import Fraction
from typing import Dict, Hashable, Iterable, Tuple


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or decimal strings into an exact rational.  An
    exponent past ``sys.get_int_max_str_digits()`` (0: none) in magnitude
    raises ValueError before 10**exponent is built, as such a literal does."""
    exponent = re.search(r"[eE]([-+]?[\d_]+)\s*$", text)
    if exponent and abs(int(exponent[1])) > (sys.get_int_max_str_digits() or math.inf):
        raise ValueError(f"decimal exponent {exponent[1]} is past the int-string digit limit")
    return Fraction(text.strip())


def format_rational(value: Fraction) -> str:
    """Render as "p" or "p/q" (the on-disk form; never a binary float), at
    any length."""
    if value.denominator == 1:
        return _digits(value.numerator)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def _digits(n: int) -> str:
    """``str(n)``, also past the interpreter's int-to-string digit limit."""
    try:
        return str(n)
    except ValueError:
        pass
    with decimal.localcontext() as ctx:  # exact: an inexact step would raise
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return ("-" if n < 0 else "") + str(_decimal(abs(n), abs(n).bit_length()))


def _decimal(k: int, bits: int) -> decimal.Decimal:
    """0 <= k < 2**bits, from its halves joined by a decimal product: a
    subquadratic change of base, where ``Decimal(k)`` alone is quadratic."""
    if bits <= 1024:
        return decimal.Decimal(k)
    half = bits // 2
    return (_decimal(k >> half, bits - half) * decimal.Decimal(2) ** half
            + _decimal(k & ((1 << half) - 1), half))


def _integer_form(entries: Dict[Hashable, Fraction]) -> Tuple[Dict[Hashable, int], int]:
    """The entries times one common positive denominator, as ints, and that
    denominator.  Scaling by a positive constant keeps every equality, sign
    and zero test, so the symmetry scans compare plain ints, a contraction
    is an int sum divided once, and a Clifford element or symbol expression
    keeps this form as its storage; a jet's R, T and dT1 get it once each,
    in ``geometry.derived_scalars``, whose result hands it to the builders."""
    den = math.lcm(*{x.denominator for x in entries.values()})
    return {k: x.numerator * (den // x.denominator) for k, x in entries.items()}, den


def _reduced(nums: Dict, den: int) -> Tuple[Dict, int]:
    """(nums, den) in canonical form, for nonzero numerators over den > 0:
    int numerators share no factor with den (den = 1 when there are none),
    and any other ring element is divided by den, leaving den = 1."""
    if den == 1:
        return nums, 1
    try:
        g = math.gcd(den, *nums.values())
    except TypeError:  # numerators that are not ints
        return {k: c * Fraction(1, den) for k, c in nums.items()}, 1
    if g == 1:
        return nums, den
    return {k: c // g for k, c in nums.items()}, den // g


def _summed(parts: Iterable[Tuple[Dict, int]]) -> Tuple[Dict, int]:
    """The sum of the (nums, den) pairs over the lcm of their denominators,
    zero sums dropped; not yet reduced."""
    parts = list(parts)
    den = math.lcm(*[d for _, d in parts])
    acc: Dict = {}
    for nums, d in parts:
        f = den // d
        if not acc:
            acc = dict(nums) if f == 1 else {k: c * f for k, c in nums.items()}
            continue
        for k, c in nums.items():
            if f != 1:
                c *= f
            c += acc.get(k, 0)
            if c:
                acc[k] = c
            else:
                del acc[k]
    return acc, den


def _collected(pairs: Iterable[Tuple[Hashable, object]]) -> Dict:
    """Key -> the sum of its values over the (key, value) pairs, zeros dropped."""
    acc: Dict = {}
    for k, c in pairs:
        prev = acc.get(k)
        acc[k] = c if prev is None else prev + c
    return {k: c for k, c in acc.items() if c}


class GaussianRational:
    """Element of Q(i): exact complex-rational scalar.

    Immutable; ``i * i == -1``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        # fast paths: purely real / purely imaginary operands dominate
        if not b:
            return GaussianRational(a * c, a * d)
        if not d:
            return GaussianRational(a * c, b * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    # -- comparisons / hashing ------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its Fraction, so it hashes as one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return format_rational(self.re)
        if not self.re:
            return f"{format_rational(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}*i"


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
