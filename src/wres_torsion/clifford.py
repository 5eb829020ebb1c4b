"""Canonical Clifford algebra with an independent spinor-trace oracle.

Generators c_1 .. c_n obey

    c_i c_j + c_j c_i = -2 delta_ij        (negative-definite, fixed),

so c_i^2 = -1 and distinct generators anticommute.  A basis word is a
product of distinct generators in strictly increasing index order, encoded
as a bitmask (bit k <-> c_{k+1}); the empty word is the identity.  Elements
are finite linear combinations with exact coefficients and no stored zeros.
A rational element (the engine's builders make only these) stores each
coefficient as an int numerator over the element's one denominator
``den`` > 0, in the canonical form of the numerator kernel in ``numerics``
(``_reduced``, ``_summed``), so equality is a plain comparison of
numerators and denominators.  ``GaussianRational`` coefficients, which
only the gamma-matrix oracle and its checks use, are stored as numerators
over den = 1.  ``terms`` is the read view, word -> exact coefficient
(``Fraction`` for a rational element).

The product is one accumulation loop over the numerators of word pairs.
Its sign needs no table: each right-hand word b gives one bit mask,
``_below(b) ^ b``, and the pair (a, b) is negative exactly when a meets
that mask in an odd number of bits, for any n.  The result's denominator
is the product of the two, reduced once against the nonzero sums; a
``GaussianRational`` factor runs through the same loop and its result
folds the denominator into the numerators.  A product with an empty factor
is the zero element, returned right after the dimension check, and one by
a single word is one XOR and one sign per term.  ``scalar_part`` and
``_graded`` build only the words of a product that a trace or a channel reads.

The normalized trace used everywhere is the spinor trace for n = 2m:
tr[id] = 2^m and every nonempty canonical word is traceless, hence
``trace`` reads off 2^m times the identity coefficient, a ``Fraction`` for
a rational element.  ``build_gamma`` and ``trace_via_rep`` provide the
independent oracle: exact gamma matrices grown by iterated tensor products
from a 2x2 seed pair.  These and their products are monomial (one entry in
{+-1, +-i} per row), stored as one (column, entry) pair per row; a word's
matrix is the product of its generators' matrices, O(2^m) per factor, and
the trace sums their diagonal entries, with no use of the sign rule.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Dict, Iterable, List, Sequence, Tuple

from .numerics import GaussianRational, I, ONE, ZERO, _integer_form, _reduced, _summed

Word = int  # bitmask encoding of a canonical word


def _below(b: Word) -> int:
    """The mask with bit i set when an odd number of b's generators lie
    below bit i.

    Interleaving b into a word a passes each generator of a over the
    generators of b below it, so it takes popcount(a & _below(b))
    transpositions mod 2.  Each set bit of b flips every bit above it, so
    for any n the loop runs once per generator of b; for odd grade the
    result is a negative int (all high bits set) and only ever meets a word
    through ``&``.
    """
    mask = 0
    while b:
        low = b & -b
        mask ^= -(low << 1)
        b ^= low
    return mask


def blade_mul(a: Word, b: Word) -> Tuple[int, Word]:
    """Product of two canonical words: (sign, canonical word).

    Sign = transposition parity of interleaving b into a, times (-1) per
    common generator (each c_i^2 = -1): the parity of a against the one
    mask ``_below(b) ^ b``.
    """
    return (-1 if (a & (_below(b) ^ b)).bit_count() & 1 else 1), a ^ b


def word_indices(word: Word) -> Tuple[int, ...]:
    """Bitmask -> strictly increasing 1-based generator indices."""
    out = []
    i = 1
    while word:
        if word & 1:
            out.append(i)
        word >>= 1
        i += 1
    return tuple(out)


def word_from_indices(indices: Iterable[int]) -> Word:
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def canonicalize(indices: Sequence[int], n: int) -> Tuple[Fraction, Tuple[int, ...]]:
    """Reduce a raw generator product to (sign, canonical word).

    ``indices`` may repeat and be unordered; rewriting uses c_i c_j = -c_j c_i
    for i != j and c_i c_i = -1.  Raises ValueError on indices outside 1..n.
    """
    sign = 1
    mask = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} outside 1..{n}")
        s, mask = blade_mul(mask, 1 << (i - 1))
        sign *= s
    return Fraction(sign), word_indices(mask)


class CliffordElement:
    """Linear combination of canonical words: nonzero numerators ``nums``
    over one denominator ``den`` (see the module docstring)."""

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, terms: Dict[Word, object] | None = None):
        nonzero = {w: c for w, c in (terms or {}).items() if c}
        rational = all(isinstance(c, (int, Fraction)) for c in nonzero.values())
        self.n, (self.nums, self.den) = n, _integer_form(nonzero) if rational else (nonzero, 1)

    @classmethod
    def _of(cls, n: int, nums: Dict[Word, object], den: int) -> "CliffordElement":
        """The element sum nums[w]/den * w (nonzero numerators), reduced."""
        out = cls.__new__(cls)
        out.n, (out.nums, out.den) = n, _reduced(nums, den)
        return out

    @property
    def terms(self) -> Dict[Word, object]:
        """Word -> exact coefficient (a ``Fraction`` for a rational element)."""
        return {w: Fraction(c, self.den) if type(c) is int else c
                for w, c in self.nums.items()}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "CliffordElement":
        return cls._of(n, {}, 1)

    @classmethod
    def identity(cls, n: int) -> "CliffordElement":
        return cls._of(n, {0: 1}, 1)

    @classmethod
    def generator(cls, n: int, i: int) -> "CliffordElement":
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} outside 1..{n}")
        return cls._of(n, {1 << (i - 1): 1}, 1)

    @classmethod
    def from_vector(cls, n: int, coeffs: Sequence) -> "CliffordElement":
        """c(v) for v = sum v_i e_i; coeffs are rationals (length n)."""
        return cls(n, {1 << i: c for i, c in enumerate(coeffs)})

    # -- algebra ---------------------------------------------------------

    def _check(self, other: "CliffordElement") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        return CliffordElement._of(self.n, *_summed(((self.nums, self.den),
                                                     (other.nums, other.den))))

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement._of(self.n, {w: -c for w, c in self.nums.items()}, self.den)

    def scale(self, scalar) -> "CliffordElement":
        if not scalar:
            return CliffordElement(self.n)
        num, den = ((scalar.numerator, scalar.denominator)
                    if isinstance(scalar, (int, Fraction)) else (scalar, 1))
        return CliffordElement._of(self.n, {w: c * num for w, c in self.nums.items()},
                                   self.den * den)

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        if not (self.nums and other.nums):
            return CliffordElement._of(self.n, {}, 1)
        signed = [(wb, _below(wb) ^ wb, cb) for wb, cb in other.nums.items()]
        if len(signed) == 1:
            (wb, mask, cb), = signed
            return CliffordElement._of(self.n, {
                wa ^ wb: -ca * cb if (wa & mask).bit_count() & 1 else ca * cb
                for wa, ca in self.nums.items()}, self.den * other.den)
        acc: Dict[Word, object] = {}
        for wa, ca in self.nums.items():
            for wb, mask, cb in signed:
                w = wa ^ wb
                c = ca * cb
                prev = acc.get(w)
                term = -c if (wa & mask).bit_count() & 1 else c
                acc[w] = term if prev is None else prev + term
        return CliffordElement._of(self.n, {w: c for w, c in acc.items() if c},
                                   self.den * other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.n == other.n and (self.nums == other.nums if self.den == other.den
                                      else self.terms == other.terms)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __repr__(self):
        if not self.nums:
            return "0"
        terms = self.terms
        bits = []
        for word in sorted(terms):
            label = "id" if word == 0 else "c" + "c".join(map(str, word_indices(word)))
            bits.append(f"({terms[word]})*{label}")
        return " + ".join(bits)


def scalar_part(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """The identity coefficient of a * b, the only part a trace reads, from
    the words both carry (c_I c_J has none unless I = J): a word of grade k
    squares to (-1)^(k(k+1)/2), negative exactly when k % 4 is 1 or 2."""
    a._check(b)
    total = sum(-c * d if (w.bit_count() + 1) & 2 else c * d
                for w, c in a.nums.items() if (d := b.nums.get(w)) is not None)
    return CliffordElement._of(a.n, {0: total} if total else {}, a.den * b.den)


def _graded(x: CliffordElement, y: CliffordElement, grades: Collection[int]) -> CliffordElement:
    """The words of x * y of a grade in ``grades``: only word pairs whose XOR
    lands there are multiplied."""
    if grades == (0,):
        return scalar_part(x, y)
    x._check(y)
    right = [(wb, _below(wb) ^ wb, cb) for wb, cb in y.nums.items()]
    acc: Dict[Word, object] = {}
    for wa, ca in x.nums.items():
        for wb, mask, cb in right:
            w = wa ^ wb
            if w.bit_count() in grades:
                acc[w] = acc.get(w, 0) + (-ca * cb if (wa & mask).bit_count() & 1 else ca * cb)
    return CliffordElement._of(x.n, {w: c for w, c in acc.items() if c}, x.den * y.den)


def trace(a: CliffordElement, m: int):
    """Spinor trace over n = 2m: 2^m times the identity coefficient (a
    scalar of the element's coefficient type; ``Fraction(0)`` when absent)."""
    if a.n != 2 * m:
        raise ValueError(f"element over n={a.n} traced with m={m}")
    c = a.nums.get(0, 0)
    return Fraction(c << m, a.den) if type(c) is int else c * (1 << m)


# ---------------------------------------------------------------------------
# Independent matrix oracle
# ---------------------------------------------------------------------------

# a monomial matrix: row i -> (the column of its one nonzero entry, that entry)
Matrix = Tuple[Tuple[int, GaussianRational], ...]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple((b[j][0], x * b[j][1]) for j, x in a)


def _kron(a: Matrix, b: Matrix) -> Matrix:
    nb = len(b)
    return tuple((ja * nb + jb, x * y) for ja, x in a for jb, y in b)


_X: Matrix = ((1, ONE), (0, -ONE))
_Y: Matrix = ((1, I), (0, I))
_Z: Matrix = ((0, ONE), (1, -ONE))


class GammaRep:
    """Exact gamma matrices for n = 2m generators, size 2^m, as monomial rows."""

    def __init__(self, n: int, matrices: Tuple[Matrix, ...]):
        self.n = n
        self.matrices = matrices

    @property
    def dim(self) -> int:
        return len(self.matrices[0])

    def word_matrix(self, word: Word) -> Matrix:
        """Matrix of a canonical word: the product of its generators' matrices."""
        mat = tuple((i, ONE) for i in range(self.dim))
        for i in word_indices(word):
            mat = _mat_mul(mat, self.matrices[i - 1])
        return mat


def build_gamma(m: int) -> GammaRep:
    """Iterated tensor construction; entries stay in {+-1, +-i}."""
    if m < 1:
        raise ValueError("half-dimension m must be >= 1")
    gammas: List[Matrix] = [_X, _Y]
    for _ in range(m - 1):
        eye = tuple((i, ONE) for i in range(len(gammas[0])))
        gammas = [_kron(g, _Z) for g in gammas]
        gammas.append(_kron(eye, _X))
        gammas.append(_kron(eye, _Y))
    return GammaRep(2 * m, tuple(gammas))


def trace_via_rep(a: CliffordElement, rep: GammaRep) -> GaussianRational:
    """Sum coeff * entry over the diagonal entries of each word's matrix."""
    if a.n != rep.n:
        raise ValueError(f"element over n={a.n} against representation n={rep.n}")
    return sum((coeff * x for word, coeff in a.terms.items()
                for i, (j, x) in enumerate(rep.word_matrix(word)) if i == j), ZERO)
