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
each d/dxi and under multiplication by i.  So a term stores r alone, as an
int numerator over the expression's one denominator, in the form that the
numerator kernel in ``numerics`` owns (``_reduced``, ``_summed``,
``_collected``): a product multiplies ints and the two denominators, a sum
rescales to their lcm, and a trace sums ints and divides once.  In a
product the phases add, and the (-1) of each common generator
(c_i^2 = -1) cancels against the i^2 of the grade it removes, so the
product's sign is the plain transposition parity of the two words.  The
Leibniz factor (-i)^|alpha| turns back the phase that d_xi^alpha flips,
and a cosphere trace is real exactly when the phase is even.  Each builder
channel goes from int numerators to its symbol through one ``_symbol`` call
(``_family`` for a Clifford term family); an exact ``GaussianRational``
enters there and in ``scale`` only as one real or imaginary scalar.
Per-term coefficients are given outside the builders (``SymbolExpr(n,
terms)``, ``add_term``) and read back by ``coefficient``; one that breaks
the phase rule raises ValueError.

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

from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import factorial, prod
from typing import Dict, Iterable, List, Sequence, Tuple

from .clifford import CliffordElement, Word, _below
from .geometry import PointJet, derived_scalars
from .numerics import GaussianRational, I, _collected, _integer_form, _reduced, _summed

Deg = Tuple[int, ...]
Key = Tuple[Deg, Deg, int, Word]

X_TRUNCATION = 2


def _split(scalar) -> Tuple[Fraction | int, Fraction | int]:
    """(real part, imaginary part) of an exact scalar."""
    if isinstance(scalar, GaussianRational):
        return scalar.re, scalar.im
    return scalar, 0


def _exponent(key: Key, phase: int) -> int:
    """e with coefficient = i^e * r for the key: |nu| + grade - phase mod 4."""
    return (sum(key[1]) + key[3].bit_count() - phase) & 3


def _phase_error(key: Key, coeff, phase: int) -> ValueError:
    kind = "imaginary" if _exponent(key, phase) & 1 else "real"
    return ValueError(f"coefficient {coeff} of term {key} breaks the phase rule:"
                      f" in a phase-{phase} expression it must be {kind}")


def _real_or_imaginary(scalar) -> Tuple[int, int, int]:
    """(p, q, imag) with scalar = i^imag * p/q, q > 0."""
    re, im = _split(scalar)
    if re and im:
        raise ValueError(f"scaling by {scalar} breaks the phase rule:"
                         " the scalar is neither real nor imaginary")
    return (im.numerator, im.denominator, 1) if im else (re.numerator, re.denominator, 0)


def _phase_of(key: Key, coeff) -> int:
    """The phase in which the exact coefficient ``coeff`` at ``key`` obeys
    the phase rule."""
    return (sum(key[1]) + key[3].bit_count() + bool(_split(coeff)[1])) & 1


def _real(key: Key, coeff, phase: int) -> Fraction | int:
    """The rational r of an exact coefficient ``coeff`` = i^e * r at ``key``."""
    re, im = _split(coeff)
    e = _exponent(key, phase)
    value, stray = (im, re) if e & 1 else (re, im)
    if stray:
        raise _phase_error(key, coeff, phase)
    return -value if e & 2 else value


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
        out.terms, out.den = _reduced(terms, den)
        out.n, out.phase = n, phase
        return out

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_clifford(cls, elem: CliffordElement, *, xdeg: Deg | None = None,
                      xideg: Deg | None = None, normpow: int = 0) -> "SymbolExpr":
        """The rational Clifford element as one term family of the given degrees."""
        x0 = (0,) * elem.n
        return _family(elem.n, [(xdeg or x0, xideg or x0, normpow, elem)])

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
        return cls._of(n, *_summed((e.terms, e.den) for e in parts), parts[0].phase)

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
        self.terms, self.den = _reduced(*_summed(
            ((self.terms, self.den), ({key: r.numerator}, r.denominator))))

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
        p, q, imag = _real_or_imaginary(scalar)
        phase = self.phase
        if imag:
            # i lowers the phase by one; from 0 it wraps to -1 = 1 - 2
            p, phase = (p, 0) if phase else (-p, 1)
        return SymbolExpr._of(self.n, {k: c * p for k, c in self.terms.items()},
                              self.den * q, phase)

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
    # summed in place: on small symbols a pass through _collected costs more
    out: Dict[Key, int] = {}
    for (xdeg, xideg, p, word), r in expr.terms.items():
        e = xideg[jj]
        if e:
            key = (xdeg, xideg[:jj] + (e - 1,) + xideg[jj + 1:], p, word)
            c = out.get(key, 0) + r * (s * e)
            if c:
                out[key] = c
            else:
                del out[key]
        if p:
            key = (xdeg, xideg[:jj] + (e + 1,) + xideg[jj + 1:], p - 2, word)
            c = out.get(key, 0) - r * (s * p)
            if c:
                out[key] = c
            else:
                del out[key]
    return SymbolExpr._of(expr.n, out, expr.den, expr.phase ^ 1)


def d_x(expr: SymbolExpr, j: int) -> SymbolExpr:
    """d/d(x_j), 1-based; formal partial on the x-monomial (phase kept).
    Lowering x_j is one-to-one on the keys it applies to, so no two terms
    meet."""
    jj = j - 1
    return SymbolExpr._of(expr.n, {
        (xdeg[:jj] + (xdeg[jj] - 1,) + xdeg[jj + 1:], xideg, p, word): r * xdeg[jj]
        for (xdeg, xideg, p, word), r in expr.terms.items() if xdeg[jj]}, expr.den, expr.phase)


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
    """alpha -> d_x^alpha(expr) at x0 for |alpha| <= alpha_max, nonzero only,
    in one pass: d_x^alpha f |x0 = mu! [x^mu] f for the x-multidegree mu of
    alpha, so the terms are bucketed by x-multidegree."""
    n, x0 = expr.n, (0,) * expr.n
    buckets: Dict[Deg, Dict[Key, int]] = {}
    for (xdeg, xideg, p, word), r in expr.terms.items():
        buckets.setdefault(xdeg, {})[x0, xideg, p, word] = r
    out = {}
    for xdeg, terms in buckets.items():
        if sum(xdeg) <= alpha_max:
            fact = prod(map(factorial, xdeg))
            out[tuple(j for j, e in enumerate(xdeg, 1) for _ in range(e))] = SymbolExpr._of(
                n, {k: r * fact for k, r in terms.items()}, expr.den, expr.phase)
    return dict(sorted(out.items(), key=lambda item: (len(item[0]), item[0])))


def leibniz_pairs(left: SymbolExpr, right_dx: Dict[Deg, SymbolExpr],
                  orders: Sequence[int] = (0, 1, 2)
                  ) -> Iterable[Tuple[SymbolExpr, SymbolExpr]]:
    """The Leibniz kernel at x0: pairs ((-i)^|alpha|/alpha! d_xi^alpha(L)|x0,
    d_x^alpha(R)|x0) for |alpha| in ``orders``, with ``right_dx`` the
    ``x_partials`` table of R.  Multiplying and summing the pairs gives the
    x0-evaluation of the composition; tracing them gives its density.  d_xi
    and the evaluation at x0 commute, so L is evaluated once, first."""
    return _paired(_xi_partials(left, max(orders)), right_dx, orders)


def _xi_partials(expr: SymbolExpr, alpha_max: int) -> Dict[Deg, SymbolExpr]:
    """alpha -> d_xi^alpha(expr) at x0 for |alpha| <= alpha_max, nonzero only."""
    return _partials(at_x0(expr), d_xi, alpha_max)


def _paired(left_dxi: Dict[Deg, SymbolExpr], right_dx: Dict[Deg, SymbolExpr],
            orders: Sequence[int]) -> Iterable[Tuple[SymbolExpr, SymbolExpr]]:
    """``leibniz_pairs`` from the ``_xi_partials`` table of L, which may
    reach higher orders than it reads."""
    for alpha, dr in right_dx.items():
        dl = left_dxi.get(alpha)
        if dl and len(alpha) in orders:
            yield dl.scale(_alpha_coefficient(alpha)), dr


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

TORSION_PREFACTOR = {
    "printed": Fraction(1, 4),
    "first_principles": Fraction(9, 2),
}


_DEGREES: Dict[Tuple[int, int, int], Deg] = {}


def _pair(n: int, a: int, b: int) -> Deg:
    """Multidegree of x_a x_b (or xi_a xi_b), one shared tuple per (n, a, b)."""
    return _DEGREES.get((n, a, b)) or _DEGREES.setdefault(
        (n, a, b), tuple((i == a) + (i == b) for i in range(n)))


def _unit(n: int, j: int) -> Deg:
    return _pair(n, j, -1)  # -1 matches no index


def _symbol(n: int, nums: Iterable[Tuple[Key, int]], den: int, coeff=1) -> SymbolExpr:
    """coeff * sum (num/den) * (the term at key) over the (key, nonzero int
    num) pairs ``nums`` with distinct keys, den > 0 and a real or purely
    imaginary exact ``coeff``, reduced; the first key sets the phase, and
    |nu| is summed once per run of keys sharing one xi-degree tuple."""
    if not coeff:
        return SymbolExpr(n)
    p, q, imag = _real_or_imaginary(coeff)
    terms: Dict[Key, int] = {}
    xideg = phase = None
    for key, c in nums:
        if key[1] is not xideg:
            xideg = key[1]
            # coeff * c = i^imag * p/q * c = i^e * r, so r = i^(imag - e) * p/q * c
            nu = sum(xideg) - imag
            if phase is None:
                phase = (nu + key[3].bit_count()) & 1
            nu -= phase
        e = nu + key[3].bit_count()
        if e & 1:
            raise _phase_error(key, coeff * Fraction(c, den), phase)
        terms[key] = -c * p if e & 2 else c * p
    return SymbolExpr._of(n, terms, den * q, phase) if terms else SymbolExpr(n)


Placement = Tuple[Deg, Deg, int, CliffordElement]


def _placed(placed: Iterable[Placement]) -> Tuple[Dict[Key, int], int]:
    """The rational Clifford elements placed at (x-degree, xi-degree, norm
    power), summed per key: int numerators over the lcm of the elements'
    denominators, zero sums dropped, not yet reduced."""
    return _summed(({(xdeg, xideg, p, w): c for w, c in elem.nums.items()}, elem.den)
                   for xdeg, xideg, p, elem in placed)


def _family(n: int, placed: Iterable[Placement], coeff=1) -> SymbolExpr:
    """coeff * the sum of the placed rational Clifford elements, a Clifford
    term family, by one ``_symbol`` call."""
    nums, den = _placed(placed)
    return _symbol(n, nums.items(), den, coeff)


def _grades(elem: CliffordElement, *grades: int) -> CliffordElement:
    """The part of ``elem`` on words of the given grades."""
    return CliffordElement._of(elem.n, {w: c for w, c in elem.nums.items()
                                        if w.bit_count() in grades}, elem.den)


def _torsion_forms(form: Tuple[Dict[Deg, int], int], n: int) -> Tuple[Dict, Dict]:
    """(3-forms, rows) of a torsion channel, in one pass over the int form of
    its nonzero entries, by leading index: T (keys (f, a, b)) gives the 3-form
    sum_{f<a<b} T_fab c_f c_a c_b under key () and the rows sum_{a<b} T_fab
    c_a c_b by f, dT1 (keys (c, f, a, b)) a 3-form by c and a row by (c, f)."""
    nums, den = form
    forms, rows = {}, {}  # leading index -> word -> int numerator
    for (*lead, f, a, b), x in nums.items():
        if a < b:
            rows.setdefault((*lead, f) if lead else f, {})[(1 << a) | (1 << b)] = x
            if f < a:
                forms.setdefault(lead[0] if lead else (), {})[(1 << f) | (1 << a) | (1 << b)] = x
    return tuple({k: CliffordElement._of(n, ws, den) for k, ws in t.items()} for t in (forms, rows))


def _curvature_word_sums(curvature: Tuple[Dict[Deg, int], int], n: int
                         ) -> List[CliffordElement]:
    """[1/8 sum_{a,t,s} R_{bats} c_a c_s c_t for b < n] (the x^b jet
    channels), from the int form ``curvature`` of R's nonzero entries."""
    nums, den = curvature
    terms: List[list] = [[] for _ in range(n)]
    for (b, a, t, s), val in nums.items():
        # c_a c_s is -1 times its canonical word iff a >= s (a swap or
        # c_a^2 = -1); c_t then passes the generators of that word above t
        # and squares to -1 if it is one of them
        ws = (1 << a) ^ (1 << s)
        odd = (a >= s) + (ws >> t).bit_count()
        terms[b].append((ws ^ (1 << t), -val if odd & 1 else val))
    return [CliffordElement._of(n, _collected(row), 8 * den) for row in terms]


def _curvature_pair_sums(curvature: Tuple[Dict[Deg, int], int], n: int
                         ) -> Dict[Tuple[int, int], CliffordElement]:
    """(b, a) -> sum_{t,s} R_{bats} c_s c_t with the printed index pairing,
    for the pairs with a nonzero entry, from R's int form ``curvature``."""
    nums, den = curvature
    terms: Dict[Tuple[int, int], list] = {}
    for (b, a, t, s), val in nums.items():
        if t != s:
            terms.setdefault((b, a), []).append(
                ((1 << s) | (1 << t), val if s < t else -val))
    return {ba: CliffordElement._of(n, _collected(row), den) for ba, row in terms.items()}


class JetInputs:
    """What the builders read of one jet, each built on first read and shared
    by every builder given this object: the derived scalars, c(v) and c(w),
    R's and Ric's int forms (the derived scalars' ``int_forms``), the curvature
    word and pair sums, T's and dT1's 3-forms and bivector rows (``torsion``:
    one pass per channel), and the mm-free order -(2mm+2) families.  A
    builder given only the jet makes its own."""

    def __init__(self, jet: PointJet):
        self.jet, self.n = jet, jet.n

    derived = cached_property(lambda self: derived_scalars(self.jet))
    cv = cached_property(lambda self: CliffordElement.from_vector(self.n, self.jet.v))
    cw = cached_property(lambda self: CliffordElement.from_vector(self.n, self.jet.w))
    curvature = property(lambda self: self.derived.int_forms["R"])
    ric = property(lambda self: self.derived.int_forms["ric"])
    word_sums = cached_property(lambda self: _curvature_word_sums(self.curvature, self.n))
    pair_sums = cached_property(lambda self: _curvature_pair_sums(self.curvature, self.n))
    torsion = cached_property(lambda self: tuple(zip(*(
        _torsion_forms(self.derived.int_forms[name], self.n) for name in ("T", "dT1")))))
    forms = property(lambda self: self.torsion[0])
    rows = property(lambda self: self.torsion[1])

    @cached_property
    def order2(self) -> Dict[str, Tuple[Fraction | int, int, Dict[Key, int], int]]:
        """Channel -> (c, q, nums, den): at mm, the order -(2mm+2) channel at
        x0 is c mm (mm+1)^q times the term family nums/den (``_placed`` at
        norm power 0) moved to the norm power -2mm-2-2q."""
        n, der = self.n, self.derived
        x0 = (0,) * n
        (tau, dtau), (ric, ric_den) = self.rows, self.ric
        # tau_b tau_a is the reversal of tau_a tau_b (both bivectors), which keeps
        # grades 0 and 4 and negates grade 2: the pair (a, b) and (b, a) share
        # the key xi_a xi_b and add up to twice the grade-0 and grade-4 part
        tt = {(a, b): tau[a] * tau[b] for a, b in combinations_with_replacement(tau, 2)}
        families = {  # each as (xi-degree, rational Clifford element) pairs
            "ric": (Fraction(1, 3), 1, [(_pair(n, a, b), CliffordElement._of(n, {0: x}, ric_den))
                                        for (a, b), x in ric.items()]),
            "tt_xx": (Fraction(-9, 2), 1, [(_pair(n, a, b), _grades(ab, 0, 4).scale(1 + (a != b)))
                                           for (a, b), ab in tt.items()]),
            "tt_scalar": (Fraction(9, 4), 0, [(x0, tt[a, a]) for a in tau]),
            "div_t": (Fraction(3, 2), 0, [(x0, row) for (b, a), row in dtau.items() if a == b]),
            "r_xx": (Fraction(-1, 4), 1, [(_pair(n, a, b), pair)
                                          for (b, a), pair in self.pair_sums.items()]),
            "dt_xx": (-3, 1, [(_pair(n, a, b), row) for (b, a), row in dtau.items()]),
            "e_scalar": (-1, 0, [(x0, CliffordElement(
                n, {0: der.s / 4 - Fraction(3, 4) * der.norm_t2}))]),
            "dt4": (Fraction(-3, 2), 0, [(x0, CliffordElement(n, {
                sum(1 << i for i in ijkt): x for ijkt, x in der.dT4.items()}))]),
        }
        return {name: (c, q, *_placed((x0, xideg, 0, e) for xideg, e in family))
                for name, (c, q, family) in families.items()}

    def order2_parts(self, mm: int) -> Dict[str, SymbolExpr]:
        """Channels of the order -(2mm+2) symbol of the inverse mm-th power at
        x0, each family scaled and moved to its norm power by ``_symbol``:
        mm = m for part 2's pipeline, mm = m-1 for part 1's."""
        return {name: _symbol(self.n, (((x, xideg, -2 * mm - 2 - 2 * q, w), k)
                                       for (x, xideg, _, w), k in nums.items()),
                              den, Fraction(c.numerator * mm * (mm + 1) ** q, c.denominator))
                for name, (c, q, nums, den) in self.order2.items()}


def build_sigma_dt(jet: PointJet, variant: str = "printed", inputs: JetInputs | None = None
                   ) -> Tuple[SymbolExpr, SymbolExpr]:
    """(sigma_1, sigma_0-with-x-jet) of the torsion Dirac operator.

    sigma_1 = i c(xi).  sigma_0 carries the torsion value and jet at the
    chosen prefactor plus the curvature jet (1/8) R_{bats} c_a c_s c_t x^b.
    Both are odd (phase 1).
    """
    kappa = TORSION_PREFACTOR[variant]
    n = jet.n
    x0 = (0,) * n
    sigma1 = _symbol(n, (((x0, _unit(n, a), 0, 1 << a), 1) for a in range(n)), 1, I)
    inputs = inputs or JetInputs(jet)
    curvature, (tau, dtau) = inputs.word_sums, inputs.forms
    sigma0 = _family(n, [(x0, x0, 0, form.scale(kappa)) for form in tau.values()] + [
        (_unit(n, b), x0, 0, form.scale(kappa)) for b, form in dtau.items()] + [
        (_unit(n, b), x0, 0, row) for b, row in enumerate(curvature)])
    return sigma1, sigma0


def build_sigma_ab_composed(jet: PointJet, inputs: JetInputs | None = None
                            ) -> Tuple[SymbolExpr, SymbolExpr, SymbolExpr]:
    """Grades 2, 1, 0 at x0 of the composed product symbol of the two
    one-form-times-Dirac factors c(v) D_T and c(w) D_T, by the Leibniz
    formula.  c(v) sigma(D_T) is linear in xi with no norm power, so only
    |alpha| <= 1 terms survive; the value and first x-jet of c(w) sigma(D_T)
    at x0 follow by the product rule from those of its two factors."""
    n = jet.n
    x0, zero = (0,) * n, SymbolExpr(n)
    inputs = inputs or JetInputs(jet)
    sigma = x_partials(SymbolExpr.sum_of(n, build_sigma_dt(jet, inputs=inputs)), 1)
    # c(w(x)) carries w's first jet
    cw = x_partials(_family(n, [(x0, x0, 0, inputs.cw)] + [
        (_unit(n, j), x0, 0, CliffordElement.from_vector(n, row))
        for j, row in enumerate(jet.dw)]), 1)
    s0, w0 = sigma.get((), zero), cw.get((), zero)
    right = {(): w0 * s0, **{(j,): cw.get((j,), zero) * s0 + w0 * sigma.get((j,), zero)
                             for j in range(1, n + 1)}}
    full = SymbolExpr.sum_of(n, (dl * dr for dl, dr in leibniz_pairs(
        SymbolExpr.from_clifford(inputs.cv) * s0, right, (0, 1))))
    return xi_grade(full, 2), xi_grade(full, 1), xi_grade(full, 0)


def build_sigma_ab_printed_parts(jet: PointJet, inputs: JetInputs | None = None
                                 ) -> Dict[str, SymbolExpr]:
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
    inputs = inputs or JetInputs(jet)
    cv, cw, (tau, dtau), curvature = inputs.cv, inputs.cw, inputs.forms, inputs.word_sums
    tau = tau.get((), CliffordElement.zero(n))
    gens = [CliffordElement.generator(n, i) for i in range(1, n + 1)]
    # c(v) sum_{j,g} (d_j w_g) c_j c_g, where c_j c_g is -1 times its word iff j >= g
    cv_dw = cv * CliffordElement(n, _collected(((1 << j) ^ (1 << g), -x if j >= g else x)
                                               for j, row in enumerate(jet.dw)
                                               for g, x in enumerate(row)))
    # P_f = c(v) c_f c(w), the left factor of s2, s1_tt, s0_r and s0_dt
    cvc = [cv * gens[f] * cw for f in range(n)]
    x0 = (0,) * n
    return {
        # xi_f xi_g = xi_g xi_f: the pairs (f, g) and (g, f) land on one key
        "s2": _family(n, [(x0, _pair(n, f, g), 0, cvc[f] * gens[g])
                          for f in range(n) for g in range(n)], -1),
        # c(w) c_a c(v) is the reversal of P_a, a sum of grades 1 (kept by
        # reversal) and 3 (negated), so P_a + c(w) c_a c(v) = 2 <P_a>_1
        "s1_tt": _family(n, [(x0, _unit(n, a), 0, _grades(cvc[a], 1) * tau) for a in range(n)],
                         GaussianRational(0, Fraction(1, 2))),
        "s1_dw": _family(n, [(x0, _unit(n, a), 0, cv_dw * gens[a]) for a in range(n)], I),
        "s0_tt": _family(n, [(x0, x0, 0, cv * tau * cw * tau)], Fraction(1, 16)),
        "s0_r": _family(n, [(x0, x0, 0, cvc[j] * curvature[j]) for j in range(n)]),
        "s0_dt": _family(n, [(x0, x0, 0, cvc[b] * form) for b, form in dtau.items()],
                         Fraction(1, 4)),
        "s0_tdw": _family(n, [(x0, x0, 0, cv_dw * tau)], Fraction(1, 4)),
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

def build_sigma_delta_lead(jet: PointJet) -> SymbolExpr:
    """||xi||^{-2m-2} sum_a xi_a^2: the leading, x-free channel of the
    inverse m-th power (all the metric density needs)."""
    m, n = jet.m, jet.n
    return _symbol(n, ((((0,) * n, _pair(n, a, a), -2 * m - 2, 0), 1) for a in range(n)), 1)


def build_sigma_delta_inv_parts(jet: PointJet, inputs: JetInputs | None = None) -> Tuple[
        Dict[str, SymbolExpr], Dict[str, SymbolExpr], Dict[str, SymbolExpr]]:
    """Labeled channels of the three graded symbols of the inverse m-th
    power of the Laplace-type square, with their printed truncation orders
    (x^2 jet, x^1 jet, base point)."""
    m, n = jet.m, jet.n
    x0, p = (0,) * n, -2 * m - 2
    inputs = inputs or JetInputs(jet)
    curvature, ric, (tau, dtau) = inputs.curvature, inputs.ric, inputs.rows

    # order -2m: ||xi||^{-2m-2} sum (delta_ab - (m/3) R_{ajbk} x^j x^k) xi_a xi_b
    r_jet = _symbol(n, _collected(((_pair(n, j, k), _pair(n, a, b), p, 0), c)
                                  for (a, j, b, k), c in curvature[0].items()).items(),
                    curvature[1], Fraction(-m, 3))
    parts_m = {"lead": build_sigma_delta_lead(jet), "r_jet": r_jet}

    # order -2m-1
    c_t = GaussianRational(0, 3 * m)
    parts_m1 = {
        "ric_jet": _symbol(n, (((_unit(n, b), _unit(n, a), p, 0), x)
                               for (a, b), x in ric[0].items()),
                           ric[1], GaussianRational(0, Fraction(-2 * m, 3))),
        "tt": _family(n, [(x0, _unit(n, a), p, row) for a, row in tau.items()], c_t),
        "r_jet": _family(n, [(_unit(n, b), _unit(n, a), p, pair)
                             for (b, a), pair in inputs.pair_sums.items()],
                         GaussianRational(0, Fraction(m, 4))),
        "dt_jet": _family(n, [(_unit(n, b), _unit(n, a), p, row)
                              for (b, a), row in dtau.items()], c_t),
    }
    return parts_m, parts_m1, inputs.order2_parts(m)


def build_sigma_dtpow_parts(jet: PointJet, inputs: JetInputs | None = None
                            ) -> Dict[str, SymbolExpr]:
    """Channels of the order -2m symbol of the (2m-2)-th inverse power at
    the base point (prefactors carry m-1 in place of m)."""
    return (inputs or JetInputs(jet)).order2_parts(jet.m - 1)
