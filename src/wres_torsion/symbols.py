"""Pseudodifferential symbol terms over truncated coordinate jets.

A symbol expression is a finite sum of terms

    coeff * x^mu * xi^nu * ||xi||^p * (canonical Clifford word)

with exact coefficients.  The x-multidegree is hard truncated at total
degree 2 (the deepest jet any builder carries, and at most two
x-derivatives are ever applied), while ||xi||^p stays symbolic: the
cosphere integrals later set p-factors to 1, and the homogeneity of a term
is |nu| + p throughout.  Terms are keyed by (x-degree, xi-degree, p, word),
so equality of expressions is structural.

Every coefficient is purely real or purely imaginary, and which one
follows from the key: the coefficient of key (mu, nu, p, word) is

    i^(|nu| + grade(word) - phase) * r,   r rational,

with one phase bit per expression.  The phase is 0 for the even symbols
that the pipelines trace (a term is imaginary exactly when |nu| + grade is
odd) and 1 for odd ones such as sigma(D_T), c(v) and c(w); it flips under
each d/dxi and under multiplication by i.  So a term stores r alone, as a
reduced int numerator over the expression's one denominator: a product
multiplies ints and the two denominators, a sum rescales to their lcm,
and a trace sums ints and divides once.  In a product the phases add, and
the (-1) of each common generator (c_i^2 = -1) cancels against the i^2 of
the grade it removes, so the product's sign is the plain transposition
parity of the two words.  The Leibniz factor (-i)^|alpha| turns back the
phase that d_xi^alpha flips, and a cosphere trace is real exactly when the
phase is even.  Exact ``GaussianRational`` coefficients are accepted where
a term is given (``SymbolExpr(n, terms)``, ``add_term``, ``scale``, the
scalar of a Clifford term family) and rebuilt where one is read
(``coefficient``, ``term_list``, ``pretty``); a coefficient that breaks
the phase rule raises ValueError naming its key.

Builders at the bottom of the module produce every graded symbol the
density pipelines consume.  Torsion enters the zeroth-order Dirac symbol
with coefficient ``kappa`` on strictly increasing triples:

* variant "printed":           kappa = 1/4  (the reference chain; the
  product-symbol grades and the closed-form densities are consistent with
  this choice and only this choice),
* variant "first_principles":  kappa = 9/2, i.e. minus the contraction of
  the frame Clifford action with the full connection correction term
  (3/2 per increasing index pair); the audit reports the ratio.

The curvature jet of the zeroth-order symbol pairs R_{bats} with the word
c(e_s)c(e_t) exactly as in the trusted heat-coefficient inputs; the same
pairing reappears (against xi_a xi_b) in the inverse-Laplacian symbols.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Dict, Iterable, List, Sequence, Tuple

from dataclasses import dataclass

from .clifford import CliffordElement, Word, _below, word_indices
# derived_scalars stays bound for bench/test_bench.py; builders read jet.derived
from .geometry import PointJet, _nonzero, derived_scalars  # noqa: F401
from .numerics import GaussianRational, I, _integer_form

Deg = Tuple[int, ...]
Key = Tuple[Deg, Deg, int, Word]

X_TRUNCATION = 2


@dataclass(frozen=True)
class SymbolTerm:
    """One canonical term: coeff * x^xdeg * xi^xideg * ||xi||^normpow * word."""

    coeff: GaussianRational
    xdeg: Deg
    xideg: Deg
    normpow: int
    word: Word

    @property
    def word_indices(self) -> Tuple[int, ...]:
        return word_indices(self.word)

    @property
    def xi_homogeneity(self) -> int:
        return sum(self.xideg) + self.normpow


def _split(scalar) -> Tuple[Fraction, Fraction | int]:
    """(real part, imaginary part) of an exact scalar."""
    if isinstance(scalar, GaussianRational):
        return scalar.re, scalar.im
    return (scalar if isinstance(scalar, Fraction) else Fraction(scalar)), 0


def _exponent(key: Key, phase: int) -> int:
    """e with coefficient = i^e * r for the key: |nu| + grade - phase mod 4."""
    return (sum(key[1]) + key[3].bit_count() - phase) & 3


def _phase_error(key: Key, coeff, phase: int) -> ValueError:
    kind = "imaginary" if _exponent(key, phase) & 1 else "real"
    return ValueError(f"coefficient {coeff} of term {key} breaks the phase rule:"
                      f" in a phase-{phase} expression it must be {kind}")


def _real_or_imaginary(scalar) -> Tuple[Fraction, int]:
    """(s, imag) with scalar = i^imag * s, s rational."""
    re, im = _split(scalar)
    if re and im:
        raise ValueError(f"scaling by {scalar} breaks the phase rule:"
                         " the scalar is neither real nor imaginary")
    return (im, 1) if im else (re, 0)


def _phase_of(key: Key, coeff) -> int:
    """The phase in which the exact coefficient ``coeff`` at ``key`` obeys
    the phase rule."""
    return (sum(key[1]) + key[3].bit_count() + bool(_split(coeff)[1])) & 1


def _real(key: Key, coeff, phase: int) -> Fraction:
    """The rational r of an exact coefficient ``coeff`` = i^e * r at ``key``."""
    re, im = _split(coeff)
    e = _exponent(key, phase)
    value, stray = (im, re) if e & 1 else (re, im)
    if stray:
        raise _phase_error(key, coeff, phase)
    return -value if e & 2 else value


def _accumulate(terms: Dict[Key, int], key: Key, value: int) -> None:
    prev = terms.get(key)
    if prev is None:
        terms[key] = value
    else:
        value += prev
        if value:
            terms[key] = value
        else:
            del terms[key]


class SymbolExpr:
    """Canonical sum of symbol terms; no zero coefficients stored.

    ``terms`` maps each key to the int numerator of the rational r of its
    coefficient i^(|nu| + grade(word) - phase) * r, over the one
    denominator ``den`` > 0 of the expression; gcd(den, *numerators) = 1,
    and den = 1 when the expression is zero.  ``phase`` is 0 or 1 and means
    nothing while the expression is zero.
    """

    __slots__ = ("n", "terms", "den", "phase")

    def __init__(self, n: int, terms: Dict[Key, object] | None = None):
        self.n = n
        self.phase = 0
        rationals: Dict[Key, Fraction] = {}
        for key, coeff in (terms or {}).items():
            if coeff:
                if not rationals:
                    self.phase = _phase_of(key, coeff)
                rationals[key] = _real(key, coeff, self.phase)
        self.terms, self.den = _integer_form(rationals)

    @classmethod
    def _of(cls, n: int, terms: Dict[Key, int], den: int, phase: int) -> "SymbolExpr":
        """The expression (nonzero int numerators over ``den`` > 0), reduced."""
        out = cls.__new__(cls)
        g = math.gcd(den, *terms.values())
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
            den //= g
        out.n, out.terms, out.den, out.phase = n, terms, den, phase
        return out

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SymbolExpr":
        return cls(n)

    @classmethod
    def from_clifford(cls, elem: CliffordElement, *, xdeg: Deg | None = None,
                      xideg: Deg | None = None, normpow: int = 0) -> "SymbolExpr":
        """The rational Clifford element as one term family of the given degrees."""
        return _sym(elem, xdeg=xdeg, xideg=xideg, normpow=normpow)

    @classmethod
    def sum_of(cls, n: int, exprs: Iterable["SymbolExpr"]) -> "SymbolExpr":
        """Sum of expressions, rescaled to the lcm of their denominators and
        accumulated in one term dictionary; the nonzero summands must share
        one phase."""
        parts = []
        for expr in exprs:
            if expr.n != n:
                raise ValueError(f"dimension mismatch: {n} != {expr.n}")
            if expr.terms:
                if parts and expr.phase != parts[0].phase:
                    raise ValueError("sum of expressions of different phase breaks"
                                     " the phase rule")
                parts.append(expr)
        if not parts:
            return cls(n)
        den = math.lcm(*(expr.den for expr in parts))
        terms: Dict[Key, int] = {}
        for expr in parts:
            f = den // expr.den
            for key, c in expr.terms.items():
                if f != 1:
                    c *= f
                prev = terms.get(key)
                terms[key] = c if prev is None else prev + c
        return cls._of(n, {k: c for k, c in terms.items() if c}, den, parts[0].phase)

    def add_term(self, xdeg: Deg, xideg: Deg, normpow: int, word: Word,
                 coeff) -> None:
        """Add an exact (rational or Gaussian-rational) coefficient at a key;
        the first term of a zero expression sets its phase."""
        if not coeff:
            return
        key = (xdeg, xideg, normpow, word)
        if not self.terms:
            self.phase = _phase_of(key, coeff)
        r = _real(key, coeff, self.phase)
        total = SymbolExpr.sum_of(self.n, (self, SymbolExpr._of(
            self.n, {key: r.numerator}, r.denominator, self.phase)))
        self.terms, self.den = total.terms, total.den

    def coefficient(self, key: Key) -> GaussianRational:
        """The exact complex coefficient at ``key`` (zero when absent)."""
        c = self.terms.get(key)
        if c is None:
            return GaussianRational(0)
        e = _exponent(key, self.phase)
        r = Fraction(-c if e & 2 else c, self.den)
        return GaussianRational(0, r) if e & 1 else GaussianRational(r)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "SymbolExpr") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")

    def __add__(self, other: "SymbolExpr") -> "SymbolExpr":
        return SymbolExpr.sum_of(self.n, (self, other))

    def __sub__(self, other: "SymbolExpr") -> "SymbolExpr":
        return self + other.scale(-1)

    def scale(self, scalar) -> "SymbolExpr":
        """scalar * self for a real or purely imaginary exact scalar."""
        if not (self.terms and scalar):
            return SymbolExpr(self.n)
        s, imag = _real_or_imaginary(scalar)
        phase = self.phase
        if imag:
            # i lowers the phase by one; from 0 it wraps to -1 = 1 - 2
            s, phase = (s, 0) if phase else (-s, 1)
        num = s.numerator
        return SymbolExpr._of(self.n, {k: c * num for k, c in self.terms.items()},
                              self.den * s.denominator, phase)

    def __neg__(self) -> "SymbolExpr":
        return self.scale(-1)

    def __mul__(self, other: "SymbolExpr") -> "SymbolExpr":
        """Exact graded product; x-degree truncated at X_TRUNCATION.

        The phases add; two odd phases give i^-2 = -1."""
        self._check(other)
        n = self.n
        flip = self.phase & other.phase
        right = [(xb, sum(xb), xib, pb, wb, _below(wb), cb)
                 for (xb, xib, pb, wb), cb in other.terms.items()]
        acc: Dict[Key, int] = {}
        for (xa, xia, pa, wa), ca in self.terms.items():
            xa_total = sum(xa)
            for xb, xb_total, xib, pb, wb, below, cb in right:
                if xa_total + xb_total > X_TRUNCATION:
                    continue
                x = tuple(map(sum, zip(xa, xb))) if xa_total or xb_total else xa
                key = (x, tuple(map(sum, zip(xia, xib))), pa + pb, wa ^ wb)
                c = ca * cb
                if ((wa & below).bit_count() ^ flip) & 1:
                    c = -c
                prev = acc.get(key)
                acc[key] = c if prev is None else prev + c
        return SymbolExpr._of(n, {k: c for k, c in acc.items() if c},
                              self.den * other.den, self.phase ^ other.phase)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolExpr):
            return NotImplemented
        return (self.n == other.n and self.terms == other.terms
                and self.den == other.den
                and (not self.terms or self.phase == other.phase))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def term_list(self) -> "list[SymbolTerm]":
        """Terms in deterministic (sorted-key) order, with exact coefficients."""
        return [SymbolTerm(self.coefficient(key), *key) for key in sorted(self.terms)]

    def pretty(self) -> str:
        """Deterministic rendering (sorted term order) for reports."""
        if not self.terms:
            return "0"
        lines = []
        for key in sorted(self.terms):
            xdeg, xideg, p, word = key
            factors = [f"({self.coefficient(key)})"]
            for i, d in enumerate(xdeg):
                if d:
                    factors.append(f"x{i+1}" + (f"^{d}" if d > 1 else ""))
            for i, d in enumerate(xideg):
                if d:
                    factors.append(f"xi{i+1}" + (f"^{d}" if d > 1 else ""))
            if p:
                factors.append(f"|xi|^{p}")
            if word:
                factors.append("c" + "c".join(map(str, word_indices(word))))
            lines.append("*".join(factors))
        return " + ".join(lines)

    def __repr__(self):
        return f"SymbolExpr(n={self.n}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def d_xi(expr: SymbolExpr, j: int) -> SymbolExpr:
    """d/d(xi_j), 1-based; product rule over the monomial and ||xi||^p.

    The phase flips.  Lowering nu_j keeps i^(|nu| - phase) when the phase
    goes 1 -> 0 and turns it by i^-2 = -1 when it goes 0 -> 1 (which wraps
    to 1); raising nu_j (from ||xi||^p) does the opposite."""
    jj = j - 1
    s = 1 if expr.phase else -1
    out: Dict[Key, int] = {}
    for (xdeg, xideg, p, word), r in expr.terms.items():
        e = xideg[jj]
        if e:
            lowered = xideg[:jj] + (e - 1,) + xideg[jj + 1:]
            _accumulate(out, (xdeg, lowered, p, word), r * (s * e))
        if p:
            raised = xideg[:jj] + (e + 1,) + xideg[jj + 1:]
            _accumulate(out, (xdeg, raised, p - 2, word), r * (-s * p))
    return SymbolExpr._of(expr.n, out, expr.den, expr.phase ^ 1)


def d_x(expr: SymbolExpr, j: int) -> SymbolExpr:
    """d/d(x_j), 1-based; formal partial on the x-monomial (phase kept)."""
    jj = j - 1
    out: Dict[Key, int] = {}
    for (xdeg, xideg, p, word), r in expr.terms.items():
        e = xdeg[jj]
        if e:
            lowered = xdeg[:jj] + (e - 1,) + xdeg[jj + 1:]
            _accumulate(out, (lowered, xideg, p, word), r * e)
    return SymbolExpr._of(expr.n, out, expr.den, expr.phase)


def xi_grade(expr: SymbolExpr, degree: int) -> SymbolExpr:
    """Terms of xi-homogeneity |xideg| + normpow == degree."""
    return SymbolExpr._of(expr.n, {k: c for k, c in expr.terms.items()
                                   if sum(k[1]) + k[2] == degree}, expr.den, expr.phase)


def at_x0(expr: SymbolExpr) -> SymbolExpr:
    """Evaluate at the base point: keep x-degree-zero terms."""
    return SymbolExpr._of(expr.n, {k: c for k, c in expr.terms.items()
                                   if not any(k[0])}, expr.den, expr.phase)


def _alpha_coefficient(alpha: Sequence[int]) -> GaussianRational:
    # (-i)^|alpha| / alpha!; (-i)^k is 1, -i, -1, i for k = 0, 1, 2, 3 mod 4
    k = len(alpha)
    fact = 1
    run = 1
    for a, b in zip(alpha, alpha[1:]):
        run = run + 1 if a == b else 1
        fact *= run
    r = Fraction(1 if k % 4 in (0, 3) else -1, fact)
    return GaussianRational(0, r) if k % 2 else GaussianRational(r)


def _iter_alphas(n: int, alpha_max: int) -> Iterable[Tuple[int, ...]]:
    for k in range(alpha_max + 1):
        yield from combinations_with_replacement(range(1, n + 1), k)


def _partials(expr: SymbolExpr, d, alpha_max: int) -> Dict[Deg, SymbolExpr]:
    """alpha -> d^alpha(expr) for |alpha| <= alpha_max, zero entries dropped;
    each entry is one derivative of the entry for alpha minus its last index."""
    table = {(): expr}
    for alpha in _iter_alphas(expr.n, alpha_max):
        prev = table.get(alpha[:-1]) if alpha else None
        if prev:
            der = d(prev, alpha[-1])
            if der:
                table[alpha] = der
    return table


def x_partials(expr: SymbolExpr, alpha_max: int = 2) -> Dict[Deg, SymbolExpr]:
    """alpha -> d_x^alpha(expr) at x0 for |alpha| <= alpha_max, nonzero only."""
    out = {}
    for alpha, der in _partials(expr, d_x, alpha_max).items():
        der = at_x0(der)
        if der:
            out[alpha] = der
    return out


def leibniz_pairs(left: SymbolExpr, right_dx: Dict[Deg, SymbolExpr],
                  orders: Sequence[int] = (0, 1, 2)
                  ) -> Iterable[Tuple[SymbolExpr, SymbolExpr]]:
    """The Leibniz kernel at x0: pairs ((-i)^|alpha|/alpha! d_xi^alpha(L)|x0,
    d_x^alpha(R)|x0) for |alpha| in ``orders``, with ``right_dx`` the
    ``x_partials`` table of R.  Multiplying and summing the pairs gives the
    x0-evaluation of the composition; tracing them gives its density."""
    left_dxi = _partials(left, d_xi, max(orders))
    for alpha, dr in right_dx.items():
        if len(alpha) in orders and alpha in left_dxi:
            dl = at_x0(left_dxi[alpha])
            if dl:
                yield dl.scale(_alpha_coefficient(alpha)), dr


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

TORSION_PREFACTOR = {
    "printed": Fraction(1, 4),
    "first_principles": Fraction(9, 2),
}


def _unit(n: int, j: int) -> Deg:
    return tuple(1 if i == j else 0 for i in range(n))


def _pair(n: int, a: int, b: int) -> Deg:
    """Multidegree of x_a x_b (or xi_a xi_b)."""
    return tuple((i == a) + (i == b) for i in range(n))


def _sym(elem: CliffordElement, coeff=1, *, xdeg: Deg | None = None,
         xideg: Deg | None = None, normpow: int = 0) -> SymbolExpr:
    """coeff * elem as a symbol term family of the given degrees, for a
    rational element and a real or purely imaginary exact ``coeff``.

    The element's int numerators times coeff's numerator become the terms
    over the product of the two denominators; the first word sets the
    phase, and a word of the other grade parity breaks the phase rule."""
    n = elem.n
    if not (elem.terms and coeff):
        return SymbolExpr(n)
    s, imag = _real_or_imaginary(coeff)
    xdeg = xdeg or (0,) * n
    xideg = xideg or (0,) * n
    nums, den = _integer_form(elem.terms)
    # coeff * c = i^imag * s * c = i^e * r, so r = i^(imag - e) * s * c
    nu = sum(xideg) - imag
    phase = (nu + next(iter(nums)).bit_count()) & 1
    plus, minus = s.numerator, -s.numerator
    terms: Dict[Key, int] = {}
    for word, c in nums.items():
        key = (xdeg, xideg, normpow, word)
        e = nu + word.bit_count() - phase
        if e & 1:
            raise _phase_error(key, coeff * elem.terms[word], phase)
        terms[key] = c * (minus if e & 2 else plus)
    return SymbolExpr._of(n, terms, den * s.denominator, phase)


def _elem_sum(n: int, elems: Iterable[CliffordElement]) -> CliffordElement:
    return sum(elems, CliffordElement.zero(n))


def _grades(elem: CliffordElement, *grades: int) -> CliffordElement:
    """The part of ``elem`` on words of the given grades."""
    return CliffordElement(elem.n, {w: c for w, c in elem.terms.items()
                                    if w.bit_count() in grades})


def _check_dim(jet: PointJet, m: int) -> None:
    if jet.n != 2 * m:
        raise ValueError(f"jet dimension n={jet.n} does not match m={m}")


def _elem(n: int, terms: Iterable[Tuple[Word, int]], den: int) -> CliffordElement:
    """Sum of (c / den) * word over (word, int c) pairs; zero sums dropped."""
    acc: Dict[Word, int] = {}
    for word, c in terms:
        acc[word] = acc.get(word, 0) + c
    return CliffordElement(n, {w: Fraction(c, den) for w, c in acc.items()})


def _torsion_cube(values, n: int, scale: Fraction) -> CliffordElement:
    """scale * sum_{f<a<b} values[f][a][b] c_f c_a c_b (indices 0-based)."""
    return CliffordElement(n, {(1 << f) | (1 << a) | (1 << b): values[f][a][b] * scale
                               for f, a, b in combinations(range(n), 3)
                               if values[f][a][b]})


def _torsion_pair(values_a, n: int) -> CliffordElement:
    """sum_{j<l} values_a[j][l] c_j c_l (one frame slot already applied)."""
    return CliffordElement(n, {(1 << j) | (1 << l): values_a[j][l]
                               for j, l in combinations(range(n), 2)})


def _curvature_word_sums(curvature: Dict[Deg, Fraction], n: int,
                         scale: Fraction) -> List[CliffordElement]:
    """[scale * sum_{a,t,s} R_{bats} c_a c_s c_t for b < n] (the x^b jet
    channels), from the nonzero entries ``curvature`` = _nonzero(R)."""
    nums, den = _integer_form(curvature)
    terms: List[list] = [[] for _ in range(n)]
    for (b, a, t, s), val in nums.items():
        # c_a c_s is -1 times its canonical word iff a >= s (a swap or
        # c_a^2 = -1); c_t then passes the generators of that word above t
        # and squares to -1 if it is one of them
        ws = (1 << a) ^ (1 << s)
        odd = (a >= s) + (ws >> t).bit_count()
        terms[b].append((ws ^ (1 << t), -val if odd & 1 else val))
    num = scale.numerator
    return [_elem(n, ((w, c * num) for w, c in row), den * scale.denominator)
            for row in terms]


def _curvature_pair_sums(curvature: Dict[Deg, Fraction], n: int
                         ) -> Dict[Tuple[int, int], CliffordElement]:
    """(b, a) -> sum_{t,s} R_{bats} c_s c_t with the printed index pairing,
    for the pairs with a nonzero entry; ``curvature`` = _nonzero(R)."""
    nums, den = _integer_form(curvature)
    terms: Dict[Tuple[int, int], list] = {}
    for (b, a, t, s), val in nums.items():
        if t != s:
            terms.setdefault((b, a), []).append(
                ((1 << s) | (1 << t), val if s < t else -val))
    return {ba: _elem(n, row, den) for ba, row in terms.items()}


def _scalar_channel(n: int, entries: Dict[Deg, Fraction], key_of,
                    scale: Fraction) -> SymbolExpr:
    """scale * sum of value * (the word-free term key_of(*index)) over the
    nonzero rational ``entries``, summed as int numerators; several indices
    may share one key."""
    nums, den = _integer_form(entries)
    acc: Dict[Key, int] = {}
    for index, c in nums.items():
        key = key_of(*index)
        acc[key] = acc.get(key, 0) + c
    num, den = scale.numerator, scale.denominator * den
    return SymbolExpr(n, {key: Fraction(c * num, den) for key, c in acc.items()})


def build_sigma_dt(jet: PointJet, variant: str = "printed"
                   ) -> Tuple[SymbolExpr, SymbolExpr]:
    """(sigma_1, sigma_0-with-x-jet) of the torsion Dirac operator.

    sigma_1 = i c(xi).  sigma_0 carries the torsion value and jet at the
    chosen prefactor plus the curvature jet (1/8) R_{bats} c_a c_s c_t x^b.
    Both are odd (phase 1).
    """
    kappa = TORSION_PREFACTOR[variant]
    n = jet.n
    x0 = (0,) * n
    sigma1 = SymbolExpr(n, {(x0, _unit(n, a), 0, 1 << a): I for a in range(n)})
    curvature = _curvature_word_sums(_nonzero(jet.R), n, Fraction(1, 8))
    sigma0 = SymbolExpr.sum_of(n, [_sym(_torsion_cube(jet.T, n, kappa))] + [
        _sym(_torsion_cube(jet.dT1[b], n, kappa) + curvature[b], xdeg=_unit(n, b))
        for b in range(n)])
    return sigma1, sigma0


def build_sigma_ab_composed(jet: PointJet, variant: str = "printed"
                            ) -> Tuple[SymbolExpr, SymbolExpr, SymbolExpr]:
    """Grades 2, 1, 0 at x0 of the composed product symbol of the two
    one-form-times-Dirac factors c(v) D_T and c(w) D_T, by the Leibniz
    formula; sigma(D_T) is built once for both factors."""
    n = jet.n
    sigma = SymbolExpr.sum_of(n, build_sigma_dt(jet, variant))
    cv = _sym(CliffordElement.from_vector(n, jet.v))
    # c(w(x)) carries w's first jet
    cw = SymbolExpr.sum_of(n, [_sym(CliffordElement.from_vector(n, jet.w))] + [
        _sym(CliffordElement.from_vector(n, row), xdeg=_unit(n, j))
        for j, row in enumerate(jet.dw)])
    # every term degree is nonnegative, so the x-degree-zero part of the
    # composition is the sum of the products of the x0-evaluated pairs
    full = SymbolExpr.sum_of(n, (dl * dr for dl, dr in leibniz_pairs(
        cv * sigma, x_partials(cw * sigma))))
    return xi_grade(full, 2), xi_grade(full, 1), xi_grade(full, 0)


def build_sigma_ab_printed_parts(jet: PointJet) -> Dict[str, SymbolExpr]:
    """Reference (closed-form) product-symbol grades at x0, by channel.

    These are the displayed expressions of the reference derivation with
    two readings pinned to the self-consistent chain:

    * the grade-0 curvature channel pairs the jet exactly as the composed
      symbol does (the displayed index order differs by one transposition;
      the displayed evaluation of that channel matches this reading);
    * the grade-1 torsion channel keeps the displayed operator order
      c(w) c(xi) c(v) tau for the second cross term.  This is NOT the
      composition-rule order (c(v) tau c(w) c(xi)); the two differ as
      elements, the downstream closed forms track the displayed order, and
      the audit reports the difference.
    """
    n = jet.n
    cv = CliffordElement.from_vector(n, jet.v)
    cw = CliffordElement.from_vector(n, jet.w)
    tau = _torsion_cube(jet.T, n, Fraction(1))
    gens = [CliffordElement.generator(n, i) for i in range(1, n + 1)]
    curvature = _curvature_word_sums(_nonzero(jet.R), n, Fraction(1, 8))
    # sum_{j,g} (d_j w_g) c_j c_g
    dw = _elem_sum(n, (gens[j] * CliffordElement.from_vector(n, row)
                       for j, row in enumerate(jet.dw)))
    # P_f = c(v) c_f c(w), the left factor of s2, s1_tt, s0_r and s0_dt
    cvc = [cv * gens[f] * cw for f in range(n)]
    return {
        # xi_f xi_g = xi_g xi_f: one term family per unordered pair
        "s2": SymbolExpr.sum_of(n, (
            _sym(cvc[f] * gens[g] + cvc[g] * gens[f] if f < g else cvc[f] * gens[f],
                 -1, xideg=_pair(n, f, g))
            for f, g in combinations_with_replacement(range(n), 2))),
        # c(w) c_a c(v) is the reversal of P_a, a sum of grades 1 (kept by
        # reversal) and 3 (negated), so P_a + c(w) c_a c(v) = 2 <P_a>_1
        "s1_tt": SymbolExpr.sum_of(n, (
            _sym(_grades(cvc[a], 1) * tau,
                 GaussianRational(0, Fraction(1, 2)), xideg=_unit(n, a))
            for a in range(n))),
        "s1_dw": SymbolExpr.sum_of(n, (
            _sym(cv * dw * gens[a], I, xideg=_unit(n, a)) for a in range(n))),
        "s0_tt": _sym(cv * tau * cw * tau, Fraction(1, 16)),
        "s0_r": _sym(_elem_sum(n, (cvc[j] * curvature[j] for j in range(n)))),
        "s0_dt": _sym(_elem_sum(n, (
            cvc[j] * _torsion_cube(jet.dT1[j], n, Fraction(1, 4)) for j in range(n)))),
        "s0_tdw": _sym(cv * dw * tau, Fraction(1, 4)),
    }


def printed_grades(parts: Dict[str, SymbolExpr]
                   ) -> Tuple[SymbolExpr, SymbolExpr, SymbolExpr]:
    """Grades 2, 1, 0 from the channels of build_sigma_ab_printed_parts."""
    n = parts["s2"].n
    return (parts["s2"],
            SymbolExpr.sum_of(n, (parts["s1_tt"], parts["s1_dw"])),
            SymbolExpr.sum_of(n, (parts["s0_tt"], parts["s0_r"], parts["s0_dt"],
                                  parts["s0_tdw"])))


def build_sigma_ab_printed(jet: PointJet
                           ) -> Tuple[SymbolExpr, SymbolExpr, SymbolExpr]:
    return printed_grades(build_sigma_ab_printed_parts(jet))


# -- inverse Laplacian-type symbols -----------------------------------------

def build_sigma_delta_lead(jet: PointJet, m: int) -> SymbolExpr:
    """||xi||^{-2m-2} sum_a xi_a^2: the leading, x-free channel of the
    inverse m-th power (all the metric density needs)."""
    _check_dim(jet, m)
    n = jet.n
    return SymbolExpr(n, {((0,) * n, _pair(n, a, a), -2 * m - 2, 0): Fraction(1)
                          for a in range(n)})


def build_sigma_delta_inv_parts(jet: PointJet, m: int) -> Tuple[
        Dict[str, SymbolExpr], Dict[str, SymbolExpr], Dict[str, SymbolExpr]]:
    """Labeled channels of the three graded symbols of the inverse m-th
    power of the Laplace-type square, with their printed truncation orders
    (x^2 jet, x^1 jet, base point)."""
    _check_dim(jet, m)
    n = jet.n
    p = -2 * m - 2
    curvature = _nonzero(jet.R)
    pairs = _curvature_pair_sums(curvature, n)

    # order -2m: ||xi||^{-2m-2} sum (delta_ab - (m/3) R_{ajbk} x^j x^k) xi_a xi_b
    r_jet = _scalar_channel(n, curvature, lambda a, j, b, k: (
        _pair(n, j, k), _pair(n, a, b), p, 0), Fraction(-m, 3))
    parts_m = {"lead": build_sigma_delta_lead(jet, m), "r_jet": r_jet}

    # order -2m-1
    c_ric, ric = Fraction(-2 * m, 3), jet.derived.ric
    c_t = GaussianRational(0, 3 * m)
    parts_m1 = {
        "ric_jet": SymbolExpr(n, {
            (_unit(n, b), _unit(n, a), p, 0): GaussianRational(0, c_ric * ric[a][b])
            for a in range(n) for b in range(n)}),
        "tt": SymbolExpr.sum_of(n, (
            _sym(_torsion_pair(jet.T[a], n), c_t, xideg=_unit(n, a), normpow=p)
            for a in range(n))),
        "r_jet": SymbolExpr.sum_of(n, (
            _sym(pair, GaussianRational(0, Fraction(m, 4)),
                 xdeg=_unit(n, b), xideg=_unit(n, a), normpow=p)
            for (b, a), pair in pairs.items())),
        "dt_jet": SymbolExpr.sum_of(n, (
            _sym(_torsion_pair(jet.dT1[b][a], n), c_t,
                 xdeg=_unit(n, b), xideg=_unit(n, a), normpow=p)
            for b in range(n) for a in range(n))),
    }

    parts_m2 = _sigma_inverse_order2_parts(jet, m, pairs)
    return parts_m, parts_m1, parts_m2


def _sigma_inverse_order2_parts(jet: PointJet, mm: int,
                                pairs: Dict[Tuple[int, int], CliffordElement]
                                ) -> Dict[str, SymbolExpr]:
    """Channels of the order -(2mm+2) symbol of the inverse mm-th power at
    the base point.  Used with mm = m for the second density pipeline and
    with mm = m-1 for the first one; ``pairs`` is _curvature_pair_sums of
    the jet's curvature."""
    n, der = jet.n, jet.derived
    x0 = (0,) * n
    p2, p4 = -2 * mm - 2, -2 * mm - 4
    tau_a = [_torsion_pair(jet.T[a], n) for a in range(n)]

    ric = _scalar_channel(n, _nonzero(der.ric), lambda a, b: (x0, _pair(n, a, b), p4, 0),
                          Fraction(mm * (mm + 1), 3))

    e_val = Fraction(-mm) * (der.s / 4 - Fraction(3, 4) * der.norm_t2)
    dt4 = CliffordElement(n, {(1 << i) | (1 << j) | (1 << k) | (1 << t): der.dT4[i][j][k][t]
                              for i, j, k, t in combinations(range(n), 4)})

    # tau_b tau_a is the reversal of tau_a tau_b (both bivectors), which keeps
    # grades 0 and 4 and negates grade 2: the pair (a, b) and (b, a) share
    # the key xi_a xi_b and add up to twice the grade-0 and grade-4 part
    tt = {(a, b): tau_a[a] * tau_a[b]
          for a, b in combinations_with_replacement(range(n), 2)}
    c_tt = Fraction(-9 * mm * (mm + 1), 2)
    return {
        "ric": ric,
        "tt_xx": SymbolExpr.sum_of(n, (
            _sym(_grades(prod, 0, 4), c_tt if a == b else 2 * c_tt,
                 xideg=_pair(n, a, b), normpow=p4)
            for (a, b), prod in tt.items())),
        "tt_scalar": _sym(_elem_sum(n, (tt[a, a] for a in range(n))),
                          Fraction(9 * mm, 4), normpow=p2),
        "div_t": _sym(_elem_sum(n, (_torsion_pair(jet.dT1[a][a], n) for a in range(n))),
                      Fraction(3 * mm, 2), normpow=p2),
        "r_xx": SymbolExpr.sum_of(n, (
            _sym(pair, Fraction(-mm * (mm + 1), 4), xideg=_pair(n, a, b), normpow=p4)
            for (b, a), pair in pairs.items())),
        "dt_xx": SymbolExpr.sum_of(n, (
            _sym(_torsion_pair(jet.dT1[b][a], n), -3 * mm * (mm + 1),
                 xideg=_pair(n, a, b), normpow=p4)
            for a in range(n) for b in range(n))),
        "e_scalar": SymbolExpr(n, {(x0, x0, p2, 0): e_val}),
        "dt4": _sym(dt4, Fraction(-3 * mm, 2), normpow=p2),
    }


def build_sigma_dtpow_parts(jet: PointJet, m: int) -> Dict[str, SymbolExpr]:
    """Channels of the order -2m symbol of the (2m-2)-th inverse power at
    the base point (prefactors carry m-1 in place of m)."""
    _check_dim(jet, m)
    return _sigma_inverse_order2_parts(jet, m - 1,
                                       _curvature_pair_sums(_nonzero(jet.R), jet.n))
