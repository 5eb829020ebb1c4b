"""Pseudodifferential symbol terms over truncated coordinate jets.

A symbol expression is a finite sum of terms

    coeff * x^mu * xi^nu * ||xi||^p * (canonical Clifford word)

with exact coefficients.  The x-multidegree is hard truncated at total
degree 2 (the deepest jet any builder carries, and at most two
x-derivatives are ever applied), while ||xi||^p stays symbolic: the
cosphere integrals later set p-factors to 1, and the homogeneity of a term
is |nu| + p throughout.  Terms are keyed by four ints (x-code, xi-code, p,
word), so equality of expressions is structural.  A multidegree's monomial
code holds e_i in bits 8i..8i+7 and |e| from bit 8n up: a product adds
codes, d/dx_j and d/dxi_j add or subtract a unit code, and |nu| is ``code
>> 8n``.  An exponent outside 0..255, or a product or d/dxi carrying out of
a field, raises ValueError; the public calls speak in exponent tuples.

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
Leibniz factor (-i)^|alpha| turns back the phase that d_xi^alpha flips, so
it is the int C(nu, alpha) at the code nu - alpha, at the same phase and
denominator (``_leibniz_alphas``, one memo entry per xi-code); a cosphere
trace is real exactly when the phase is even.  The trace kernel in
``residue`` reads those factors for parts 1 and 2 and the audit with no
derivative table; ``compose``, the one symbol-valued Leibniz composition,
reads them for the composed product symbol.  Each builder channel goes
from int numerators to its symbol through one ``_symbol`` call (``_family``
for a Clifford term family); an exact ``GaussianRational`` enters there and
in ``scale`` only as one real or imaginary scalar.
Per-term coefficients are given outside the builders (``SymbolExpr(n,
terms)``) and read back by ``coefficient``; one that breaks the phase rule
raises ValueError.

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
Each channel is defined once, by one row of ``SIGMA_DELTA`` (sigma_Delta's
14 channels, part 1's among them) or ``_PRINTED``, in full or on the terms
that ``residue``'s traces read (``JetInputs``); the latter reach no symbol:
``residue`` emits the traced rules' terms and the int sums of
``JetInputs.sums``, which the public channels read too, into its trace
kernel's buckets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations_with_replacement
from typing import Dict, Hashable, Iterable, List, Tuple

from .clifford import CliffordElement, Word, _below, _graded
from .geometry import PointJet, _spread, derived_scalars, vector_forms
from .numerics import GaussianRational, I, _collected, _integer_form, _reduced, _summed

Deg = Tuple[int, ...]
Key = Tuple[Deg, Deg, int, Word]  # the exponent-tuple form callers give and read
Code = Tuple[int, int, int, Word]  # (x-code, xi-code, p, word), the stored form

X_TRUNCATION = 2


def _ones(n: int) -> int:
    """Bit 8i of each exponent field of a monomial code in dimension n."""
    return ((1 << 8 * n) - 1) // 255


def _decode(code: int, n: int) -> Deg:
    """The exponent tuple of a monomial code."""
    return tuple((code & ((1 << 8 * n) - 1)).to_bytes(n, "little"))


def _key(code: Code, n: int) -> Key:
    return _decode(code[0], n), _decode(code[1], n), code[2], code[3]


def _coded(key: Key, n: int) -> Code:
    """The stored form of a tuple key: ValueError names a malformed one."""
    xdeg, xideg, p, word = key
    if not (len(xdeg) == len(xideg) == n and 0 <= min(xdeg + xideg) and max(xdeg + xideg) < 256):
        raise ValueError(f"term {key} needs {n} exponents in 0..255 per multidegree")
    return (int.from_bytes(bytes(xdeg), "little") + (sum(xdeg) << 8 * n),
            int.from_bytes(bytes(xideg), "little") + (sum(xideg) << 8 * n), p, word)


def _split(scalar) -> Tuple[Fraction | int, Fraction | int]:
    """(real part, imaginary part) of an exact scalar."""
    if isinstance(scalar, GaussianRational):
        return scalar.re, scalar.im
    return scalar, 0


def _exponent(key: Code, phase: int, n: int) -> int:
    """e with coefficient = i^e * r for the key: |nu| + grade - phase mod 4."""
    return ((key[1] >> 8 * n) + key[3].bit_count() - phase) & 3


def _phase_error(key: Code, coeff, phase: int, n: int) -> ValueError:
    kind = "imaginary" if _exponent(key, phase, n) & 1 else "real"
    return ValueError(f"coefficient {coeff} of term {_key(key, n)} breaks the phase rule:"
                      f" in a phase-{phase} expression it must be {kind}")


def _real_or_imaginary(scalar) -> Tuple[int, int, int]:
    """(p, q, imag) with scalar = i^imag * p/q, q > 0."""
    re, im = _split(scalar)
    if re and im:
        raise ValueError(f"scaling by {scalar} breaks the phase rule:"
                         " the scalar is neither real nor imaginary")
    return (im.numerator, im.denominator, 1) if im else (re.numerator, re.denominator, 0)


def _phase_of(key: Code, coeff, n: int) -> int:
    """The phase in which the exact coefficient ``coeff`` at ``key`` obeys
    the phase rule."""
    return _exponent(key, -bool(_split(coeff)[1]), n) & 1


def _real(key: Code, coeff, phase: int, n: int) -> Fraction | int:
    """The rational r of an exact coefficient ``coeff`` = i^e * r at ``key``."""
    re, im = _split(coeff)
    e = _exponent(key, phase, n)
    value, stray = (im, re) if e & 1 else (re, im)
    if stray:
        raise _phase_error(key, coeff, phase, n)
    return -value if e & 2 else value


class SymbolExpr:
    """Canonical sum of symbol terms; no zero coefficients stored, and no
    expression changed once the constructor or ``_of`` has returned it.
    ``nums`` maps each key (x-code, xi-code, p, word) to the int numerator
    of the rational r of its coefficient i^(|nu| + grade(word) - phase) * r,
    over the one denominator ``den`` > 0; gcd(den, *numerators) = 1, and den
    = 1 when the expression is zero.  ``terms`` is the exponent-tuple view.
    ``phase`` is 0 or 1 and means nothing while the expression is zero.
    """

    __slots__ = ("n", "nums", "den", "phase")

    def __init__(self, n: int, terms: Dict[Key, object] | None = None):
        self.n, self.phase, self.nums, self.den = n, 0, {}, 1
        terms = {_coded(key, n): coeff for key, coeff in (terms or {}).items() if coeff}
        if terms:  # the first term sets the phase
            phase = self.phase = _phase_of(*next(iter(terms.items())), n)
            self.nums, self.den = _integer_form({key: _real(key, coeff, phase, n)
                                                 for key, coeff in terms.items()})

    @classmethod
    def _of(cls, n: int, nums: Dict[Code, int], den: int, phase: int) -> "SymbolExpr":
        """The expression (nonzero int numerators over ``den`` > 0), reduced."""
        out = cls.__new__(cls)
        out.nums, out.den = _reduced(nums, den)
        out.n, out.phase = n, phase
        return out

    @property
    def terms(self) -> Dict[Key, int]:
        """Exponent-tuple key -> int numerator over ``den``."""
        return {_key(k, self.n): c for k, c in self.nums.items()}

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_clifford(cls, elem: CliffordElement, *, xdeg: Deg | None = None,
                      xideg: Deg | None = None, normpow: int = 0) -> "SymbolExpr":
        """The Clifford element as one term family of the given degrees; an
        exact coefficient that is not a rational (a ``GaussianRational``)
        enters as through ``SymbolExpr(n, terms)``."""
        x0 = (0,) * elem.n
        if any(type(c) is not int for c in elem.nums.values()):
            return cls(elem.n, {(xdeg or x0, xideg or x0, normpow, w): c
                                for w, c in elem.terms.items()})
        x, xi = _coded((xdeg or x0, xideg or x0, 0, 0), elem.n)[:2] if xdeg or xideg else (0, 0)
        return _family(elem.n, [(x, xi, normpow, elem)])

    @classmethod
    def sum_of(cls, n: int, exprs: Iterable["SymbolExpr"]) -> "SymbolExpr":
        """Sum of expressions, rescaled to the lcm of their denominators and
        accumulated in one term dictionary; the nonzero summands must share
        one phase."""
        parts = []
        for expr in exprs:
            if expr.n != n:
                raise ValueError(f"dimension mismatch: {n} != {expr.n}")
            if expr.nums:
                if parts and expr.phase != parts[0].phase:
                    raise ValueError("sum of expressions of different phase breaks"
                                     " the phase rule")
                parts.append(expr)
        if not parts:
            return cls._of(n, {}, 1, 0)
        return cls._of(n, *_summed((e.nums, e.den) for e in parts), parts[0].phase)

    def coefficient(self, key: Key) -> GaussianRational:
        """The exact complex coefficient at ``key`` (zero when absent)."""
        key = _coded(key, self.n)
        c = self.nums.get(key)
        if c is None:
            return GaussianRational(0)
        e = _exponent(key, self.phase, self.n)
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
        if not (self.nums and scalar):
            return SymbolExpr._of(self.n, {}, 1, 0)
        p, q, imag = _real_or_imaginary(scalar)
        phase = self.phase
        if imag:
            # i lowers the phase by one; from 0 it wraps to -1 = 1 - 2
            p, phase = (p, 0) if phase else (-p, 1)
        return SymbolExpr._of(self.n, {k: c * p for k, c in self.nums.items()},
                              self.den * q, phase)

    def __neg__(self) -> "SymbolExpr":
        return self.scale(-1)

    def __mul__(self, other: "SymbolExpr") -> "SymbolExpr":
        """Exact graded product; x-degree truncated at X_TRUNCATION.

        The phases add (two odd phases give i^-2 = -1), and so do the codes:
        a xi-exponent past 255 would carry into the next field and raises."""
        self._check(other)
        n, flip = self.n, self.phase & other.phase
        s, carry = 8 * n, _ones(n) << 8
        right = [(xb, xb >> s, xib, pb, wb, _below(wb), cb)
                 for (xb, xib, pb, wb), cb in other.nums.items()]
        acc: Dict[Code, int] = {}
        for (xa, xia, pa, wa), ca in self.nums.items():
            xa_total = xa >> s
            for xb, xb_total, xib, pb, wb, below, cb in right:
                if xa_total + xb_total > X_TRUNCATION:
                    continue
                xi = xia + xib
                if (xi ^ xia ^ xib) & carry:
                    raise ValueError(f"xi-exponents {_decode(xia, n)} + {_decode(xib, n)} pass 255")
                key = (xa + xb, xi, pa + pb, wa ^ wb)
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
        return (self.n == other.n and self.nums == other.nums
                and self.den == other.den
                and (not self.nums or self.phase == other.phase))

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __repr__(self):
        return f"SymbolExpr(n={self.n}, {len(self.nums)} terms)"


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def d_xi(expr: SymbolExpr, j: int) -> SymbolExpr:
    """d/d(xi_j), 1-based; product rule over the monomial and ||xi||^p.

    The phase flips.  Lowering nu_j keeps i^(|nu| - phase) when the phase
    goes 1 -> 0 and turns it by i^-2 = -1 when it goes 0 -> 1 (which wraps
    to 1); raising nu_j (from ||xi||^p) does the opposite (past 255: ValueError)."""
    shift, unit, s = 8 * (j - 1), _unit(expr.n, j - 1), (1 if expr.phase else -1)
    # summed in place: on small symbols a pass through _collected costs more
    out: Dict[Code, int] = {}
    for (x, xi, p, word), r in expr.nums.items():
        e = (xi >> shift) & 255
        if e:
            key = (x, xi - unit, p, word)
            c = out.get(key, 0) + r * (s * e)
            if c:
                out[key] = c
            else:
                del out[key]
        if p:
            if e == 255:
                raise ValueError(f"d/dxi_{j} raises xi_{j} past 255 in {_decode(xi, expr.n)}")
            key = (x, xi + unit, p - 2, word)
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
    shift, unit = 8 * (j - 1), _unit(expr.n, j - 1)
    return SymbolExpr._of(expr.n, {
        (x - unit, xi, p, word): r * e for (x, xi, p, word), r in expr.nums.items()
        if (e := (x >> shift) & 255)}, expr.den, expr.phase)


def xi_grade(expr: SymbolExpr, degree: int) -> SymbolExpr:
    """Terms of xi-homogeneity |xideg| + normpow == degree."""
    s = 8 * expr.n
    return SymbolExpr._of(expr.n, {k: c for k, c in expr.nums.items()
                                   if (k[1] >> s) + k[2] == degree}, expr.den, expr.phase)


def at_x0(expr: SymbolExpr) -> SymbolExpr:
    """Evaluate at the base point: keep x-degree-zero terms."""
    return SymbolExpr._of(expr.n, {k: c for k, c in expr.nums.items()
                                   if not k[0]}, expr.den, expr.phase)


_ALPHAS: Dict[int, Tuple[Tuple[int, int], ...]] = {}


def _leibniz_alphas(xi: int, n: int) -> Tuple[Tuple[int, int], ...]:
    """The Leibniz factor of the xi-code ``xi`` = nu: the pairs (alpha code,
    C(nu, alpha)) for every alpha <= nu with |alpha| <= X_TRUNCATION, alpha =
    () first as (0, 1).  (-i)^|alpha|/alpha! d_xi^alpha xi^nu is C(nu, alpha)
    xi^(nu - alpha), with C(nu, alpha) = nu_j, nu_j (nu_j - 1)/2 or nu_j nu_k
    (j < k) and nu - alpha the code xi minus the alpha code, which is also
    the x-code of x^alpha.  One memo entry per code: a nonzero code is a valid
    code of one dimension only, and code 0 gives ((0, 1),) in every one."""
    got = _ALPHAS.get(xi)
    if got is None:
        units, pairs = [(j, e) for j, e in enumerate(_decode(xi, n)) if e], _pairs(n)
        got = _ALPHAS[xi] = ((0, 1), *((_unit(n, j), e) for j, e in units), *(
            (pairs[j][j], e * (e - 1) // 2) for j, e in units if e > 1), *(
            (pairs[j][k], e * f) for i, (j, e) in enumerate(units) for k, f in units[i + 1:]))
    return got


def _norm_power(key: Code, n: int) -> ValueError:
    """The one rule of both Leibniz paths, ``compose`` and ``residue``'s trace
    kernel: an x0 term of the left factor with a norm power is refused by
    name, whatever the right factor, since d_xi would have to differentiate
    ||xi||^p; no engine left factor has one."""
    return ValueError(f"term {_key(key, n)} has a norm power: a Leibniz left factor takes none")


def compose(left: SymbolExpr, right: SymbolExpr) -> SymbolExpr:
    """sum_{|alpha| <= X_TRUNCATION} (-i)^|alpha|/alpha! d_xi^alpha L
    d_x^alpha R at x0, read off the codes.  d_x^alpha R at x0 is mu! [x^mu] R
    for the x-multidegree mu of alpha, so R's terms are bucketed by x-code
    (mu! is 2 exactly for an x_j^2 term); each x0 term r xi^nu word of L
    gives C(nu, alpha) r xi^(nu - alpha) word at L's phase and denominator
    (``_leibniz_alphas``) for each alpha whose bucket exists, and each
    alpha's two parts are multiplied once.  An x0 term of L with a norm
    power raises ValueError naming it."""
    left._check(right)
    n, twos = left.n, _ones(left.n) << 1
    buckets: Dict[int, Dict[Code, int]] = {}
    for (x, xi, p, word), r in right.nums.items():
        buckets.setdefault(x, {})[0, xi, p, word] = 2 * r if x & twos else r
    parts: Dict[int, Dict[Code, int]] = {}
    for key, r in left.nums.items():
        x, xi, p, word = key
        if not x:
            if p:
                raise _norm_power(key, n)
            for a, c in _leibniz_alphas(xi, n):
                if a in buckets:
                    parts.setdefault(a, {})[0, xi - a, 0, word] = c * r
    return SymbolExpr.sum_of(n, (SymbolExpr._of(n, nums, left.den, left.phase)
                                 * SymbolExpr._of(n, buckets[a], right.den, right.phase)
                                 for a, nums in parts.items()))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

TORSION_PREFACTOR = {
    "printed": Fraction(1, 4),
    "first_principles": Fraction(9, 2),
}


def _pair(n: int, a: int, b: int) -> int:
    """Monomial code of x_a x_b (or xi_a xi_b)."""
    return (1 << 8 * a) + (1 << 8 * b) + (2 << 8 * n)


_PAIRS: Dict[int, Tuple[Tuple[int, ...], ...]] = {}


def _pairs(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The table a -> b -> ``_pair(n, a, b)``, built once per n."""
    got = _PAIRS.get(n)
    if got is None:
        got = _PAIRS[n] = tuple(tuple(_pair(n, a, b) for b in range(n)) for a in range(n))
    return got


def _unit(n: int, j: int) -> int:
    """Monomial code of x_j (or xi_j)."""
    return (1 << 8 * j) + (1 << 8 * n)


def _symbol(n: int, nums: Iterable[Tuple[Code, int]], den: int, coeff=1) -> SymbolExpr:
    """coeff * sum (num/den) * (the term at key) over the (stored key,
    nonzero int num) pairs ``nums`` with distinct keys, den > 0 and a real
    or purely imaginary exact ``coeff``, reduced; the first key sets the
    phase; ``coeff`` is split at the first key, so no terms cost no split."""
    s, phase, terms = 8 * n, None, {}
    for key, c in nums if coeff else ():
        # coeff * c = i^imag * p/q * c = i^e * r, so r = i^(imag - e) * p/q * c
        if phase is None:
            p, q, imag = _real_or_imaginary(coeff)
            phase = ((key[1] >> s) + key[3].bit_count() - imag) & 1
        e = (key[1] >> s) + key[3].bit_count() - imag - phase
        if e & 1:
            raise _phase_error(key, coeff * Fraction(c, den), phase, n)
        terms[key] = -c * p if e & 2 else c * p
    return SymbolExpr._of(n, terms, den * q, phase) if terms else SymbolExpr._of(n, {}, 1, 0)


Placement = Tuple[int, int, int, CliffordElement]


def _placed(placed: Iterable[Placement]) -> Tuple[Dict[Code, int], int]:
    """The rational Clifford elements placed at (x-code, xi-code, norm
    power), summed per key: int numerators over the lcm of the elements'
    denominators, zero sums dropped, not yet reduced."""
    return _summed(({(x, xi, p, w): c for w, c in elem.nums.items()}, elem.den)
                   for x, xi, p, elem in placed)


def _family(n: int, placed: Iterable[Placement], coeff=1) -> SymbolExpr:
    """coeff * the sum of the placed rational Clifford elements, a Clifford
    term family, by one ``_symbol`` call."""
    nums, den = _placed(placed)
    return _symbol(n, nums.items(), den, coeff)


def _grades(elem: CliffordElement, *grades: int) -> CliffordElement:
    """The part of ``elem`` on words of the given grades."""
    return CliffordElement._of(elem.n, {w: c for w, c in elem.nums.items()
                                        if w.bit_count() in grades}, elem.den)


def _torsion(index, n):
    """T_fab (dT1_cfab) in the 3-form (by c) at c_f c_a c_b for f < a < b
    (part 0), and T_fab in the bivector row of f at c_a c_b for a < b (part 1)."""
    f, a, b = index[-3:]
    lead = index[0] if len(index) == 4 else ()
    return (*((0, (lead, (1 << f) | (1 << a) | (1 << b)), 1),) * (f < a < b),
            *((1, (f, (1 << a) | (1 << b)), 1),) * (a < b and lead == ()))


def _elements(n: int, terms: Dict, den: int) -> Dict[Hashable, CliffordElement]:
    """Leading key -> the rational Clifford element of ``terms`` over ``den``."""
    rows: Dict[Hashable, Dict[int, int]] = {}
    for (lead, word), x in terms.items():
        rows.setdefault(lead, {})[word] = x
    return {lead: CliffordElement._of(n, words, den) for lead, words in rows.items()}


def _r_jets(index, n, traced):
    """R_ajbk in sigma_Delta's order -2m r_jet at x^j x^k xi_a xi_b (part 0; traced: a = b,
    over j <= k as R_ajak = R_akaj) and, as R_bats, 2 R_bats in its order -2m-1 r_jet at x^b
    xi_a c_s c_t, s < t, as R_bast = -R_bats (part 1; traced: the words that meet e_a or e_b);
    at norm power 0, as every ``SIGMA_DELTA`` source, which its row moves to its own."""
    a, j, b, k = index
    order_2m = ((0, (_pair(n, j, k), _pair(n, a, b), 0, 0), 1 + (traced and j < k)),
                ) if not traced or a == b and j <= k else ()
    return (*order_2m, *((1, (_unit(n, a), _unit(n, j), 0, (1 << k) | (1 << b)), 2),) * (
        k < b and (not traced or j in (k, b) or a in (k, b))))


def _dt(index, n, traced):
    """dT1_cfab at c_a c_b (a < b) in sigma_Delta's dt_jet at x^c xi_f (part 0), in the dt_xx
    family at xi_c xi_f (part 1) and (c = f) in div_t's (part 2); traced, where c = f or the
    word meets e_c or e_f."""
    c, f, a, b = index
    word = (1 << a) | (1 << b)
    return () if a > b or traced and c != f and not {c, f} & {a, b} else (
        (0, (_unit(n, c), _unit(n, f), 0, word), 1), (1, (0, _pair(n, c, f), 0, word), 1),
        *((2, (0, 0, 0, word), 1),) * (c == f))


# each rule whole and traced, one object each for ``_spread``'s templates
_R_JETS, _DT = ({traced: partial(rule, traced=traced) for traced in (False, True)}
                 for rule in (_r_jets, _dt))


def _vector(n: int, form: Tuple[Dict[int, int], int]) -> CliffordElement:
    """c(v) from the int form of v (index -> numerator, zeros kept)."""
    nums, den = form
    return CliffordElement._of(n, {1 << i: x for i, x in nums.items() if x}, den)


# sigma_Delta, the symbol of the inverse m-th power of the Laplace-type square, by channel
# (g, name) of order -2m-g: (c, q, imag, source), i^imag c mm (mm+1)^q (the lead's c alone)
# times its source's terms at norm power -2mm-2-2q (``_at``), mm = m; a source is "lead", a
# ``JetInputs.sums`` name or (R or dT1, part of its rule).  Part 1 reads g = 2 at mm = m - 1.
SIGMA_DELTA = {
    (0, "lead"): (1, 0, 0, "lead"), (0, "r_jet"): (Fraction(-1, 3), 0, 0, ("R", 0)),
    (1, "ric_jet"): (Fraction(-2, 3), 0, 1, "ric_jet"), (1, "tt"): (3, 0, 1, "tt"),
    (1, "r_jet"): (Fraction(1, 4), 0, 1, ("R", 1)), (1, "dt_jet"): (3, 0, 1, ("dT1", 0)),
    (2, "ric"): (Fraction(1, 3), 1, 0, "ric"), (2, "tt_xx"): (Fraction(-9, 2), 1, 0, "tt_xx"),
    (2, "tt_scalar"): (Fraction(9, 4), 0, 0, "tt_scalar"),
    (2, "div_t"): (Fraction(3, 2), 0, 0, ("dT1", 2)), (2, "r_xx"): (Fraction(-1, 4), 1, 0, "r_xx"),
    (2, "dt_xx"): (-3, 1, 0, ("dT1", 1)), (2, "e_scalar"): (-1, 0, 0, "e_scalar"),
    (2, "dt4"): (Fraction(-3, 2), 0, 0, "dt4")}
# printed channel -> (c, the grade its trace reads) (``JetInputs.products``)
_PRINTED = {"s1_tt": (GaussianRational(0, Fraction(1, 2)), 2), "s1_dw": (I, 2),
            "s0_tt": (Fraction(1, 16), 0), "s0_r": (1, 0), "s0_dt": (Fraction(1, 4), 0),
            "s0_tdw": (Fraction(1, 4), 0)}
# the generators c_1 .. c_n, which do not depend on the jet, built once per n
_GENERATORS: Dict[int, Tuple[CliffordElement, ...]] = {}


def _at(key: Tuple[int, str], mm: int) -> Tuple[Fraction | int, int, int]:
    """(c, weight mm (mm+1)^q or the lead's 1, norm power -2mm-2-2q) of the row ``key``."""
    c, q, _, source = SIGMA_DELTA[key]
    return c, 1 if source == "lead" else mm * (mm + 1) ** q, -2 * mm - 2 - 2 * q


def _channel(n: int, key: Tuple[int, str], mm: int, nums: Dict[Code, int], den: int):
    """``SIGMA_DELTA``'s row ``key`` at mm on its source's terms, by one ``_symbol``."""
    (c, weight, p), imag = _at(key, mm), SIGMA_DELTA[key][2]
    return _symbol(n, [((x, xi, p, w), k) for (x, xi, _, w), k in nums.items()], den,
                   GaussianRational(0, c * weight) if imag else c * weight)


class JetInputs:
    """What the builders read of one jet, each built on first read and shared
    by every builder given this object: the derived scalars with their reads
    of R, T and dT1 (``reads``: (orbit, int numerator) pairs, which every field
    below reads through ``_spread``'s per-orbit templates, so none walks a
    map) and the int forms of v, w, dw (``vectors``) and Ric; c(v), c(w), c(v)
    c(w) and c(v) c(dw) (s2 and each P_f = c(v) c_f c(w) follow from the one
    c(v) c(w) by the Clifford relation), the word sums (off Ric), T's terms
    (``t_terms``), its and dT1's 3-forms (``forms``) and T's bivector rows
    (``rows``, which only the public builders read), dT1's channel terms
    (``dt_terms``), six sources' int sums (``sums``), what the whole
    channels add to them (``whole``) and the printed product symbol's
    channels.  Each product-symbol builder takes a jet or this object as its
    one argument.

    Each channel is defined once, by its row of ``SIGMA_DELTA`` or
    ``_PRINTED``, whole for the public builders or on the terms a context's
    traces read (``read_products``, ``sums`` and the traced rules, whose
    terms ``residue`` emits into its trace kernel's buckets), as
    tr(c_I c_J) = 0 unless I = J and odd xi-monomials have no moment.  (1)
    The order -(2mm+2) families meet c(v) c(w) (at even xi-monomials only),
    s2 and the composed grade 2, of grades 0 and 2: tau_a tau_b is read on
    grade 0, dt4 not at all.  (2) sigma_Delta's x^2 r_jet meets xi^2 terms at
    |alpha| = 2: its xi_a^2 terms.  (3) Its x^1 r_jet and dt_jet, and dt_xx,
    meet s2 and the composed grade 2 at xi_a xi_b, where by c(v) c_a c(w) c_b
    + c(v) c_b c(w) c_a = 2 delta_ab c(v) c(w) - 2 w_b c(v) c_a - 2 w_a c(v)
    c_b no word at a != b misses both e_a and e_b (the traced rules
    ``_r_jets`` and ``_dt`` keep no other).  (4) s1 meets only sigma_Delta's
    bivector tt, s0 only its scalars: grades 2 and 0.  A full printed channel
    adds the other grades to them (``full_products``)."""

    def __init__(self, jet: PointJet):
        self.jet, self.n = jet, jet.n

    vectors = cached_property(lambda self: vector_forms(self.jet))
    derived = cached_property(lambda self: derived_scalars(self.jet, self.vectors))
    cv = cached_property(lambda self: _vector(self.n, self.vectors["v"]))
    cw = cached_property(lambda self: _vector(self.n, self.vectors["w"]))
    reads = cached_property(lambda self: {name: self.derived.int_forms[name]
                                          for name in ("R", "T", "dT1")})
    ric = property(lambda self: self.derived.int_forms["ric"])
    # T's terms by ``_torsion``: its 3-form and bivector rows, as ints
    t_terms = cached_property(lambda self: _spread(self.reads["T"], _torsion, self.n))
    # T's bivector rows by f as elements, which only the public builders read
    rows = cached_property(lambda self: _elements(self.n, self.t_terms[1], self.reads["T"].den))

    @cached_property
    def forms(self) -> Tuple[Dict, Dict]:
        """(T's 3-form, dT1's 3-forms by c), read off ``_torsion``'s terms."""
        t, dt = self.reads["T"], self.reads["dT1"]
        return (_elements(self.n, self.t_terms[0], t.den),
                _elements(self.n, _spread(dt, _torsion, self.n)[0], dt.den))
    # dT1's terms (``_dt``): sigma_Delta's dt_jet, the dt_xx and div_t families
    dt_terms = cached_property(lambda self: _spread(self.reads["dT1"], _DT[False], self.n))

    @cached_property
    def word_sums(self) -> Dict[int, CliffordElement]:
        """b -> 1/8 sum_{a,t,s} R_{bats} c_a c_s c_t, the nonzero x^b jet
        channels: by the first Bianchi identity (which ``derived_scalars``
        checks) the words of three distinct generators cancel, and c_s c_s c_t
        = -c_t and c_t c_s c_t = c_s leave -1/4 sum_t Ric_{bt} c_t."""
        (ric, den), rows = self.ric, {}
        for (b, t), x in ric.items():
            rows.setdefault(b, {})[1 << t] = -x
        return {b: CliffordElement._of(self.n, row, 4 * den) for b, row in rows.items()}

    @cached_property
    def cv_dw(self) -> CliffordElement:
        """c(v) sum_{j,g} (d_j w_g) c_j c_g over dw's nonzero int numerators,
        where c_j c_g is -1 times its word iff j >= g."""
        dw, den = self.vectors["dw"]
        return self.cv * CliffordElement._of(self.n, _collected(
            ((1 << j) ^ (1 << g), -x if j >= g else x) for (j, g), x in dw.items()), den)

    @cached_property
    def sums(self) -> Dict[str, Tuple[Dict[Code, int], int]]:
        """Source -> its nonzero int sums over one den, off Ric's and T's int
        terms, at norm power 0, of the channels both routes read: sigma_Delta's
        ric_jet, Ric_ab at x^b xi_a, and tt, T's rows at xi_f; and the grade-0
        order -(2mm+2) families: ric, Ric_ab + Ric_ba at xi_a xi_b; tt_xx, the
        scalar part of tau_a tau_b + tau_b tau_a there, -(2 - delta_ab)
        sum_{s<t} T_ast T_bst; tt_scalar, their sum at the xi_a^2; e_scalar,
        s/4 - (3/4) |T|^2."""
        n, x0, pairs, (ric, d_ric), d_t = self.n, 0, _pairs(self.n), self.ric, self.reads["T"].den
        der, rows, terms, units = self.derived, {}, self.t_terms[1], [_unit(n, a) for a in range(n)]
        for (f, word), x in terms.items():
            rows.setdefault(f, {})[word] = x
        tt = {(a, b): -(1 + (a != b)) * sum(x * rows[b].get(w, 0) for w, x in rows[a].items())
              for a, b in combinations_with_replacement(rows, 2)}
        scalar, e = sum(tt[a, a] for a in rows), der.s / 4 - Fraction(3, 4) * der.norm_t2
        return {"ric_jet": ({(units[b], units[a], 0, 0): x for (a, b), x in ric.items()}, d_ric),
                "tt": ({(x0, units[f], 0, w): x for (f, w), x in terms.items()}, d_t),
                "ric": (_collected(((x0, pairs[a][b], 0, 0), x) for (a, b), x in ric.items()),
                        d_ric),
                "tt_xx": ({(x0, pairs[a][b], 0, 0): x for (a, b), x in tt.items() if x}, d_t * d_t),
                "tt_scalar": ({(x0, x0, 0, 0): scalar} if scalar else {}, d_t * d_t),
                "e_scalar": ({(x0, x0, 0, 0): e.numerator} if e else {}, e.denominator)}

    @cached_property
    def whole(self) -> Dict[Hashable, Tuple[Dict[Code, int], int]]:
        """Source -> what the whole channels add to ``sums`` (``channels``):
        the lead's terms, what no trace reads, the grade-4 part of tau_a
        tau_b and dt4, and the terms of R's and dT1's whole rules by (R or
        dT1, part)."""
        n, x0, pairs, tau, reads = self.n, 0, _pairs(self.n), self.rows, self.reads
        dt4, dt4_den = self.derived.int_forms["dT4"]
        # tau_b tau_a, the reversal of tau_a tau_b (both bivectors), has its grade 4:
        # the pair (a, b) and (b, a) at xi_a xi_b adds up to twice it
        tt = {(a, b): _graded(tau[a], tau[b], (4,))
              for a, b in combinations_with_replacement(tau, 2)}
        # r_xx is empty: R_bats = -R_abts (derived_scalars checks it) cancels (a, b), (b, a)
        return {"lead": (_lead(n), 1),
                "tt_xx": _placed((x0, pairs[a][b], 0, ab.scale(1 + (a != b)))
                                 for (a, b), ab in tt.items()),
                "tt_scalar": _placed((x0, x0, 0, tt[a, a]) for a in tau),
                "dt4": ({(x0, x0, 0, sum(1 << i for i in ijkt)): x for ijkt, x in dt4.items()},
                        dt4_den),
                **{(name, i): (nums, reads[name].den) for name, parts in (
                    ("R", _spread(reads["R"], _R_JETS[False], n)), ("dT1", self.dt_terms))
                   for i, nums in enumerate(parts)}}

    gens = property(lambda self: _GENERATORS.get(self.n) or _GENERATORS.setdefault(
        self.n, tuple(CliffordElement.generator(self.n, i) for i in range(1, self.n + 1))))
    tau = cached_property(lambda self: self.forms[0].get((), CliffordElement.zero(self.n)))
    cv_cw = cached_property(lambda self: self.cv * self.cw)
    cv_tau_cw = cached_property(lambda self: self.cv * self.tau * self.cw)

    @cached_property
    def cvc(self) -> List[CliffordElement]:
        """P_f = c(v) c_f c(w) = -c(v) c(w) c_f - 2 w_f c(v), the left factor of
        s1_tt, s0_r and s0_dt: one-word products of one c(v) c(w)."""
        (w, den), neg = self.vectors["w"], -self.cv_cw
        return [neg * c_f + self.cv.scale(Fraction(-2 * w[f], den)) if w[f] else neg * c_f
                for f, c_f in enumerate(self.gens)]

    @cached_property
    def s2(self) -> SymbolExpr:
        """The printed grade-2 channel -c(v) c(xi) c(w) c(xi) = -|xi|^2 c(v) c(w)
        + 2 <w, xi> c(v) c(xi): c(v) c(w) at each xi_f^2 and the n one-word
        products c(v) c_g at xi_f xi_g for each w_f != 0, not n^2 P_f c_g."""
        n, pairs, (w, den) = self.n, _pairs(self.n), self.vectors["w"]
        cvg = [self.cv * c_g for c_g in self.gens] if any(w.values()) else []
        return _family(n, [(0, pairs[f][f], 0, self.cv_cw) for f in range(n)] + [
            (0, pairs[f][g], 0, e.scale(r)) for f, x in w.items() if x
            for r in [Fraction(-2 * x, den)] for g, e in enumerate(cvg)], -1)

    def products(self, product) -> Dict[str, Tuple[object, List[Tuple[int, CliffordElement]]]]:
        """The printed grade-1 and grade-0 channels as (c, [(xi-code, x y)])
        over their factor pairs, each x y formed by ``product(x, y, grades)``
        given the grades the trace reads, 2 of s1 and 0 of s0 (``_graded`` on
        them or, for ``full_products``, on the others).  No pair with an empty
        factor is formed, nor a factor of a channel whose shared tau is zero."""
        n, tau, cvc, cv_dw, dtau = self.n, self.tau, self.cvc, self.cv_dw, self.forms[1]
        channels = {
            # c(w) c_a c(v) is the reversal of P_a, a sum of grades 1 (kept by
            # reversal) and 3 (negated), so P_a + c(w) c_a c(v) = 2 <P_a>_1
            "s1_tt": [(_unit(n, a), _grades(p_a, 1), tau) for a, p_a in enumerate(cvc)]
                     if tau else [],
            "s1_dw": [(_unit(n, a), cv_dw, c_a) for a, c_a in enumerate(self.gens)],
            "s0_tt": [(0, self.cv_tau_cw, tau)] if tau else [],
            "s0_r": [(0, cvc[b], y) for b, y in self.word_sums.items()],
            "s0_dt": [(0, cvc[b], form) for b, form in dtau.items()],
            "s0_tdw": [(0, cv_dw, tau)]}
        return {name: (c, [(xi, product(x, y, (g,))) for xi, x, y in channels[name] if x and y])
                for name, (c, g) in _PRINTED.items()}

    read_products = cached_property(lambda self: self.products(_graded))

    def full_products(self) -> Dict[str, Tuple[object, List[Tuple[int, CliffordElement]]]]:
        """The read products plus each pair's words of the other grades, so
        that no word pair is multiplied twice."""
        rest = self.products(lambda x, y, g: _graded(x, y, {*range(self.n + 1)} - {*g}))
        return {name: (c, pairs + rest[name][1]) for name, (c, pairs) in self.read_products.items()}

    def printed(self, products) -> Dict[str, SymbolExpr]:
        """s2 and each channel of a ``products`` output, by one ``_family`` each."""
        return {"s2": self.s2, **{name: _family(self.n, [(0, xi, 0, e) for xi, e in pairs], c)
                                  for name, (c, pairs) in products.items()}}

    def channels(self, mm: int, g: int) -> Dict[str, SymbolExpr]:
        """The whole channels of order -2mm-g at x0 by name, of the inverse
        mm-th power (g = 2: mm = m for part 2, m - 1 for part 1): the g rows
        of ``SIGMA_DELTA``, one ``_channel`` each on ``sums`` plus ``whole``."""
        return {name: _channel(self.n, (h, name), mm, *_summed(
            part[row[3]] for part in (self.sums, self.whole) if row[3] in part))
            for (h, name), row in SIGMA_DELTA.items() if h == g}


def build_sigma_dt(source: PointJet | JetInputs, variant: str = "printed"
                   ) -> Tuple[SymbolExpr, SymbolExpr]:
    """(sigma_1, sigma_0-with-x-jet) of the torsion Dirac operator.

    sigma_1 = i c(xi).  sigma_0 carries the torsion value and jet at the
    chosen prefactor plus the curvature jet (1/8) R_{bats} c_a c_s c_t x^b.
    Both are odd (phase 1).
    """
    kappa = TORSION_PREFACTOR[variant]
    inputs = source if isinstance(source, JetInputs) else JetInputs(source)
    n, x0 = inputs.n, 0
    sigma1 = _symbol(n, (((x0, _unit(n, a), 0, 1 << a), 1) for a in range(n)), 1, I)
    curvature, (tau, dtau) = inputs.word_sums, inputs.forms
    sigma0 = _family(n, [(x0, x0, 0, form.scale(kappa)) for form in tau.values()] + [
        (_unit(n, b), x0, 0, form.scale(kappa)) for b, form in dtau.items()] + [
        (_unit(n, b), x0, 0, row) for b, row in curvature.items()])
    return sigma1, sigma0


def build_sigma_ab_composed(source: PointJet | JetInputs
                            ) -> Tuple[SymbolExpr, SymbolExpr, SymbolExpr]:
    """Grades 2, 1, 0 at x0 of the composed product symbol of the two
    one-form-times-Dirac factors c(v) D_T and c(w) D_T, by ``compose``.
    c(v) has no x and no xi, so it is applied after ``compose``.  sigma(D_T)
    is linear in xi with no norm power, so only |alpha| <= 1 terms survive:
    the left factor is sigma(x0), and the right one is read through its value
    and first x-jet, w0 sigma + w1 sigma(x0) for c(w(x)) = w0 + w1 (w1 the
    x-linear dw jet), without the x^2 part of the full product."""
    inputs = source if isinstance(source, JetInputs) else JetInputs(source)
    n, sigma = inputs.n, SymbolExpr.sum_of(inputs.n, build_sigma_dt(inputs))
    s0 = at_x0(sigma)
    # c(w(x)) read off the int forms of w and dw
    (w, w_den), (dw, dw_den) = inputs.vectors["w"], inputs.vectors["dw"]
    w0 = _symbol(n, (((0, 0, 0, 1 << a), x) for a, x in w.items() if x), w_den)
    w1 = _symbol(n, (((_unit(n, j), 0, 0, 1 << g), x) for (j, g), x in dw.items()), dw_den)
    full = SymbolExpr.from_clifford(inputs.cv) * compose(s0, w0 * sigma + w1 * s0)
    return xi_grade(full, 2), xi_grade(full, 1), xi_grade(full, 0)


def build_sigma_ab_printed_parts(source: PointJet | JetInputs) -> Dict[str, SymbolExpr]:
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
    inputs = source if isinstance(source, JetInputs) else JetInputs(source)
    return inputs.printed(inputs.full_products())


def printed_grades(parts: Dict[str, SymbolExpr]
                   ) -> Tuple[SymbolExpr, SymbolExpr, SymbolExpr]:
    """Grades 2, 1, 0 from the channels of build_sigma_ab_printed_parts."""
    n = parts["s2"].n
    return (parts["s2"],
            SymbolExpr.sum_of(n, (parts["s1_tt"], parts["s1_dw"])),
            SymbolExpr.sum_of(n, (parts["s0_tt"], parts["s0_r"], parts["s0_dt"],
                                  parts["s0_tdw"])))


def build_sigma_ab_printed(source: PointJet | JetInputs
                           ) -> Tuple[SymbolExpr, SymbolExpr, SymbolExpr]:
    return printed_grades(build_sigma_ab_printed_parts(source))


# -- inverse Laplacian-type symbols -----------------------------------------

def _lead(n: int) -> Dict[Code, int]:
    """The terms of sum_a xi_a^2 over 1, the source of the leading, x-free
    channel of the inverse m-th power (all the metric density needs)."""
    return {(0, row[a], 0, 0): 1 for a, row in enumerate(_pairs(n))}


def build_sigma_delta_lead(jet: PointJet) -> SymbolExpr:
    """||xi||^{-2m-2} sum_a xi_a^2, ``SIGMA_DELTA``'s lead."""
    return _channel(jet.n, (0, "lead"), jet.m, _lead(jet.n), 1)


def build_sigma_delta_inv_parts(jet: PointJet) -> Tuple[
        Dict[str, SymbolExpr], Dict[str, SymbolExpr], Dict[str, SymbolExpr]]:
    """Labeled channels of the three graded symbols of the inverse m-th
    power of the Laplace-type square, with their printed truncation orders
    (x^2 jet, x^1 jet, base point)."""
    inputs = JetInputs(jet)
    return tuple(inputs.channels(jet.m, g) for g in range(3))


def build_sigma_dtpow_parts(jet: PointJet) -> Dict[str, SymbolExpr]:
    """Channels of the order -2m symbol of the (2m-2)-th inverse power at
    the base point (prefactors carry m-1 in place of m)."""
    return JetInputs(jet).channels(jet.m - 1, 2)
