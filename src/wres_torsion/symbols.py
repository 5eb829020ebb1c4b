"""Pseudodifferential symbol terms over truncated coordinate jets.

A symbol expression is a finite sum of terms

    coeff * x^mu * xi^nu * ||xi||^p * (canonical Clifford word)

with exact Gaussian-rational coefficients.  The x-multidegree is hard
truncated at total degree 2 (the deepest jet any builder carries, and at
most two x-derivatives are ever applied), while ||xi||^p stays symbolic:
the cosphere integrals later set p-factors to 1, and the homogeneity of a
term is |nu| + p throughout.  Terms are keyed by (x-degree, xi-degree, p,
word), so equality of expressions is structural.

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
from itertools import combinations, combinations_with_replacement, product
from typing import Dict, Iterable, Sequence, Tuple

from dataclasses import dataclass

from .clifford import CliffordElement, Word, _sign_table, word_indices
from .geometry import DerivedScalars, PointJet, derived_scalars
from .numerics import GaussianRational, I, ONE

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


class SymbolExpr:
    """Canonical sum of symbol terms; no zero coefficients stored."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Key, GaussianRational] | None = None):
        self.n = n
        self.terms: Dict[Key, GaussianRational] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = coeff

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SymbolExpr":
        return cls(n)

    @classmethod
    def from_clifford(cls, elem: CliffordElement, *, xdeg: Deg | None = None,
                      xideg: Deg | None = None, normpow: int = 0) -> "SymbolExpr":
        n = elem.n
        xdeg = xdeg or (0,) * n
        xideg = xideg or (0,) * n
        out = cls(n)
        for word, coeff in elem.terms.items():
            out.terms[(xdeg, xideg, normpow, word)] = coeff
        return out

    @classmethod
    def sum_of(cls, n: int, exprs: Iterable["SymbolExpr"]) -> "SymbolExpr":
        """Sum of expressions, accumulated in one term dictionary."""
        out = cls(n)
        for expr in exprs:
            out._check(expr)
            for key, coeff in expr.terms.items():
                out.add_term(*key, coeff)
        return out

    def add_term(self, xdeg: Deg, xideg: Deg, normpow: int, word: Word,
                 coeff: GaussianRational) -> None:
        if not coeff:
            return
        key = (xdeg, xideg, normpow, word)
        acc = self.terms.get(key)
        acc = coeff if acc is None else acc + coeff
        if acc:
            self.terms[key] = acc
        else:
            del self.terms[key]

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "SymbolExpr") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")

    def __add__(self, other: "SymbolExpr") -> "SymbolExpr":
        return SymbolExpr.sum_of(self.n, (self, other))

    def __sub__(self, other: "SymbolExpr") -> "SymbolExpr":
        return self + other.scale(-ONE)

    def scale(self, scalar) -> "SymbolExpr":
        s = scalar if isinstance(scalar, GaussianRational) else GaussianRational(scalar)
        out = SymbolExpr(self.n)
        if s:
            out.terms = {k: c * s for k, c in self.terms.items()}
        return out

    def __neg__(self) -> "SymbolExpr":
        return self.scale(-ONE)

    def __mul__(self, other: "SymbolExpr") -> "SymbolExpr":
        """Exact graded product; x-degree truncated at X_TRUNCATION."""
        self._check(other)
        n = self.n
        sign = _sign_table(n)
        acc: Dict[Key, GaussianRational] = {}
        for (xa, xia, pa, wa), ca in self.terms.items():
            row = sign[wa]
            xa_total = sum(xa)
            for (xb, xib, pb, wb), cb in other.terms.items():
                if xa_total + sum(xb) > X_TRUNCATION:
                    continue
                x = tuple(map(sum, zip(xa, xb))) if xa_total or sum(xb) else xa
                xi = tuple(map(sum, zip(xia, xib)))
                key = (x, xi, pa + pb, wa ^ wb)
                c = ca * cb
                if row[wb] < 0:
                    c = -c
                prev = acc.get(key)
                acc[key] = c if prev is None else prev + c
        out = SymbolExpr(n)
        out.terms = {k: c for k, c in acc.items() if c}
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolExpr):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def term_list(self) -> "list[SymbolTerm]":
        """Terms in deterministic (sorted-key) order."""
        return [SymbolTerm(self.terms[key], *key) for key in sorted(self.terms)]

    def pretty(self) -> str:
        """Deterministic rendering (sorted term order) for reports."""
        if not self.terms:
            return "0"
        lines = []
        for key in sorted(self.terms):
            xdeg, xideg, p, word = key
            factors = [f"({self.terms[key]})"]
            for i, d in enumerate(xdeg):
                if d:
                    factors.append(f"x{i+1}" + (f"^{d}" if d > 1 else ""))
            for i, d in enumerate(xideg):
                if d:
                    factors.append(f"xi{i+1}" + (f"^{d}" if d > 1 else ""))
            if p:
                factors.append(f"|xi|^{p}")
            if word:
                idx = []
                b, i = word, 1
                while b:
                    if b & 1:
                        idx.append(str(i))
                    b >>= 1
                    i += 1
                factors.append("c" + "c".join(idx))
            lines.append("*".join(factors))
        return " + ".join(lines)

    def __repr__(self):
        return f"SymbolExpr(n={self.n}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def d_xi(expr: SymbolExpr, j: int) -> SymbolExpr:
    """d/d(xi_j), 1-based; product rule over the monomial and ||xi||^p."""
    n = expr.n
    jj = j - 1
    out = SymbolExpr(n)
    for (xdeg, xideg, p, word), coeff in expr.terms.items():
        e = xideg[jj]
        if e:
            lowered = xideg[:jj] + (e - 1,) + xideg[jj + 1:]
            out.add_term(xdeg, lowered, p, word, coeff * e)
        if p:
            raised = xideg[:jj] + (e + 1,) + xideg[jj + 1:]
            out.add_term(xdeg, raised, p - 2, word, coeff * p)
    return out


def d_x(expr: SymbolExpr, j: int) -> SymbolExpr:
    """d/d(x_j), 1-based; formal partial on the x-monomial."""
    n = expr.n
    jj = j - 1
    out = SymbolExpr(n)
    for (xdeg, xideg, p, word), coeff in expr.terms.items():
        e = xdeg[jj]
        if e:
            lowered = xdeg[:jj] + (e - 1,) + xdeg[jj + 1:]
            out.add_term(lowered, xideg, p, word, coeff * e)
    return out


def xi_grade(expr: SymbolExpr, degree: int) -> SymbolExpr:
    """Terms of xi-homogeneity |xideg| + normpow == degree."""
    out = SymbolExpr(expr.n)
    out.terms = {k: c for k, c in expr.terms.items() if sum(k[1]) + k[2] == degree}
    return out


def at_x0(expr: SymbolExpr) -> SymbolExpr:
    """Evaluate at the base point: keep x-degree-zero terms."""
    out = SymbolExpr(expr.n)
    out.terms = {k: c for k, c in expr.terms.items() if not any(k[0])}
    return out


def _alpha_coefficient(alpha: Sequence[int]) -> GaussianRational:
    # (-i)^|alpha| / alpha!
    k = len(alpha)
    fact = 1
    run = 1
    for a, b in zip(alpha, alpha[1:]):
        run = run + 1 if a == b else 1
        fact *= run
    coeff = GaussianRational(Fraction(1, fact))
    for _ in range(k):
        coeff = coeff * -I
    return coeff


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


def leibniz_compose(left: SymbolExpr, right: SymbolExpr,
                    alpha_max: int = 2) -> SymbolExpr:
    """sum_{|alpha| <= alpha_max} (-i)^|alpha|/alpha! d_xi^alpha(L) d_x^alpha(R).

    The full x-dependent composition, kept as the independent oracle of
    ``leibniz_pairs``."""
    left._check(right)
    total = SymbolExpr(left.n)
    for alpha in _iter_alphas(left.n, alpha_max):
        dl, dr = left, right
        for j in alpha:
            dl = d_xi(dl, j)
        if not dl:
            continue
        for j in alpha:
            dr = d_x(dr, j)
        if not dr:
            continue
        total = total + (dl.scale(_alpha_coefficient(alpha)) * dr)
    return total


def leibniz_compose_at_x0(left: SymbolExpr, right: SymbolExpr,
                          alpha_max: int = 2) -> SymbolExpr:
    """x0-evaluation of leibniz_compose.

    Mathematically identical to ``at_x0(leibniz_compose(left, right))``:
    every term degree is nonnegative, so the x-degree-zero part of a
    product is the product of x-degree-zero parts.
    """
    left._check(right)
    return SymbolExpr.sum_of(left.n, (dl * dr for dl, dr in leibniz_pairs(
        left, x_partials(right, alpha_max), range(alpha_max + 1))))


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


def _sym(elem: CliffordElement, coeff=ONE, *, xdeg: Deg | None = None,
         xideg: Deg | None = None, normpow: int = 0) -> SymbolExpr:
    """coeff * elem as a symbol term family of the given degrees."""
    return SymbolExpr.from_clifford(elem, xdeg=xdeg, xideg=xideg,
                                    normpow=normpow).scale(coeff)


def _elem_sum(n: int, elems: Iterable[CliffordElement]) -> CliffordElement:
    return sum(elems, CliffordElement.zero(n))


def _check_dim(jet: PointJet, m: int) -> None:
    if jet.n != 2 * m:
        raise ValueError(f"jet dimension n={jet.n} does not match m={m}")


def _elem(n: int, terms: Iterable[Tuple[Word, Fraction]]) -> CliffordElement:
    """Sum of coeff * word over (word, rational coeff) pairs; zeros dropped."""
    acc: Dict[Word, Fraction] = {}
    for word, coeff in terms:
        prev = acc.get(word)
        acc[word] = coeff if prev is None else prev + coeff
    return CliffordElement(n, {w: GaussianRational(c) for w, c in acc.items() if c})


def _torsion_cube(values, n: int, scale: Fraction) -> CliffordElement:
    """scale * sum_{f<a<b} values[f][a][b] c_f c_a c_b (indices 0-based)."""
    return _elem(n, [((1 << f) | (1 << a) | (1 << b), values[f][a][b] * scale)
                     for f, a, b in combinations(range(n), 3) if values[f][a][b]])


def _torsion_pair(values_a, n: int) -> CliffordElement:
    """sum_{j<l} values_a[j][l] c_j c_l (one frame slot already applied)."""
    return _elem(n, [((1 << j) | (1 << l), values_a[j][l])
                     for j, l in combinations(range(n), 2) if values_a[j][l]])


def _curvature_word_sum(jet: PointJet, b: int, scale: Fraction) -> CliffordElement:
    """scale * sum_{a,t,s} R_{bats} c_a c_s c_t (the x^b jet channel)."""
    sign = _sign_table(jet.n)
    terms = []
    for a, t, s in product(range(jet.n), repeat=3):
        val = jet.R[b][a][t][s]
        if val:
            # canonicalize c_a c_s c_t for possibly coinciding indices
            ws = (1 << a) ^ (1 << s)
            sg = sign[1 << a][1 << s] * sign[ws][1 << t]
            terms.append((ws ^ (1 << t), val * scale * sg))
    return _elem(jet.n, terms)


def _curvature_pair_sum_single(jet: PointJet, b: int, a: int) -> CliffordElement:
    """sum_{t,s} R_{bats} c_s c_t with the printed index pairing."""
    row = jet.R[b][a]
    return _elem(jet.n, [((1 << s) | (1 << t), row[t][s] if s < t else -row[t][s])
                         for t, s in product(range(jet.n), repeat=2)
                         if t != s and row[t][s]])


def build_sigma_dt(jet: PointJet, variant: str = "printed"
                   ) -> Tuple[SymbolExpr, SymbolExpr]:
    """(sigma_1, sigma_0-with-x-jet) of the torsion Dirac operator.

    sigma_1 = i c(xi).  sigma_0 carries the torsion value and jet at the
    chosen prefactor plus the curvature jet (1/8) R_{bats} c_a c_s c_t x^b.
    """
    kappa = TORSION_PREFACTOR[variant]
    n = jet.n
    x0 = (0,) * n
    sigma1 = SymbolExpr(n, {(x0, _unit(n, a), 0, 1 << a): I for a in range(n)})
    sigma0 = SymbolExpr.sum_of(n, [_sym(_torsion_cube(jet.T, n, kappa))] + [
        _sym(_torsion_cube(jet.dT1[b], n, kappa)
             + _curvature_word_sum(jet, b, Fraction(1, 8)), xdeg=_unit(n, b))
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
    full = leibniz_compose_at_x0(cv * sigma, cw * sigma, alpha_max=2)
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
    # sum_{j,g} (d_j w_g) c_j c_g
    dw = _elem_sum(n, (gens[j] * CliffordElement.from_vector(n, row)
                       for j, row in enumerate(jet.dw)))
    return {
        "s2": SymbolExpr.sum_of(n, (
            _sym(cv * gens[f] * cw * gens[g], -ONE, xideg=_pair(n, f, g))
            for f in range(n) for g in range(n))),
        "s1_tt": SymbolExpr.sum_of(n, (
            _sym((cv * gens[a] * cw + cw * gens[a] * cv) * tau,
                 GaussianRational(0, Fraction(1, 4)), xideg=_unit(n, a))
            for a in range(n))),
        "s1_dw": SymbolExpr.sum_of(n, (
            _sym(cv * dw * gens[a], I, xideg=_unit(n, a)) for a in range(n))),
        "s0_tt": _sym(cv * tau * cw * tau, Fraction(1, 16)),
        "s0_r": _sym(_elem_sum(n, (
            cv * gens[j] * cw * _curvature_word_sum(jet, j, Fraction(1, 8))
            for j in range(n)))),
        "s0_dt": _sym(_elem_sum(n, (
            cv * gens[j] * cw * _torsion_cube(jet.dT1[j], n, Fraction(1, 4))
            for j in range(n)))),
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
    return SymbolExpr(n, {((0,) * n, _pair(n, a, a), -2 * m - 2, 0): ONE
                          for a in range(n)})


def build_sigma_delta_inv_parts(jet: PointJet, m: int,
                                der: DerivedScalars | None = None) -> Tuple[
        Dict[str, SymbolExpr], Dict[str, SymbolExpr], Dict[str, SymbolExpr]]:
    """Labeled channels of the three graded symbols of the inverse m-th
    power of the Laplace-type square, with their printed truncation orders
    (x^2 jet, x^1 jet, base point).  ``der`` is derived_scalars(jet),
    computed here when not given."""
    _check_dim(jet, m)
    n = jet.n
    der = der or derived_scalars(jet)
    p = -2 * m - 2

    # order -2m: ||xi||^{-2m-2} sum (delta_ab - (m/3) R_{ajbk} x^j x^k) xi_a xi_b
    r_jet = SymbolExpr(n)
    third_m = GaussianRational(Fraction(-m, 3))
    for a in range(n):
        for b in range(n):
            for j in range(n):
                for k in range(n):
                    val = jet.R[a][j][b][k]
                    if val:
                        r_jet.add_term(_pair(n, j, k), _pair(n, a, b), p, 0,
                                       third_m * GaussianRational(val))
    parts_m = {"lead": build_sigma_delta_lead(jet, m), "r_jet": r_jet}

    # order -2m-1
    c_ric = GaussianRational(0, Fraction(-2 * m, 3))
    c_t = GaussianRational(0, 3 * m)
    parts_m1 = {
        "ric_jet": SymbolExpr(n, {
            (_unit(n, b), _unit(n, a), p, 0): c_ric * GaussianRational(der.ric[a][b])
            for a in range(n) for b in range(n)}),
        "tt": SymbolExpr.sum_of(n, (
            _sym(_torsion_pair(jet.T[a], n), c_t, xideg=_unit(n, a), normpow=p)
            for a in range(n))),
        "r_jet": SymbolExpr.sum_of(n, (
            _sym(_curvature_pair_sum_single(jet, b, a), GaussianRational(0, Fraction(m, 4)),
                 xdeg=_unit(n, b), xideg=_unit(n, a), normpow=p)
            for b in range(n) for a in range(n))),
        "dt_jet": SymbolExpr.sum_of(n, (
            _sym(_torsion_pair(jet.dT1[b][a], n), c_t,
                 xdeg=_unit(n, b), xideg=_unit(n, a), normpow=p)
            for b in range(n) for a in range(n))),
    }

    parts_m2 = _sigma_inverse_order2_parts(jet, m, der)
    return parts_m, parts_m1, parts_m2


def _sigma_inverse_order2_parts(jet: PointJet, mm: int,
                                der: DerivedScalars) -> Dict[str, SymbolExpr]:
    """Channels of the order -(2mm+2) symbol of the inverse mm-th power at
    the base point.  Used with mm = m for the second density pipeline and
    with mm = m-1 for the first one."""
    n = jet.n
    x0 = (0,) * n
    p2, p4 = -2 * mm - 2, -2 * mm - 4
    tau_a = [_torsion_pair(jet.T[a], n) for a in range(n)]

    ric = SymbolExpr(n)
    c_ric = GaussianRational(Fraction(mm * (mm + 1), 3))
    for a in range(n):
        for b in range(n):
            val = der.ric[a][b]
            if val:
                ric.add_term(x0, _pair(n, a, b), p4, 0, c_ric * GaussianRational(val))

    e_val = Fraction(-mm) * (der.s / 4 - Fraction(3, 4) * der.norm_t2)
    dt4 = _elem(n, [((1 << i) | (1 << j) | (1 << k) | (1 << t), der.dT4[i][j][k][t])
                    for i, j, k, t in combinations(range(n), 4) if der.dT4[i][j][k][t]])

    return {
        "ric": ric,
        "tt_xx": SymbolExpr.sum_of(n, (
            _sym(tau_a[a] * tau_a[b], Fraction(-9 * mm * (mm + 1), 2),
                 xideg=_pair(n, a, b), normpow=p4)
            for a in range(n) for b in range(n))),
        "tt_scalar": _sym(_elem_sum(n, (t * t for t in tau_a)),
                          Fraction(9 * mm, 4), normpow=p2),
        "div_t": _sym(_elem_sum(n, (_torsion_pair(jet.dT1[a][a], n) for a in range(n))),
                      Fraction(3 * mm, 2), normpow=p2),
        "r_xx": SymbolExpr.sum_of(n, (
            _sym(_curvature_pair_sum_single(jet, b, a), Fraction(-mm * (mm + 1), 4),
                 xideg=_pair(n, a, b), normpow=p4)
            for a in range(n) for b in range(n))),
        "dt_xx": SymbolExpr.sum_of(n, (
            _sym(_torsion_pair(jet.dT1[b][a], n), -3 * mm * (mm + 1),
                 xideg=_pair(n, a, b), normpow=p4)
            for a in range(n) for b in range(n))),
        "e_scalar": SymbolExpr(n, {(x0, x0, p2, 0): GaussianRational(e_val)}),
        "dt4": _sym(dt4, Fraction(-3 * mm, 2), normpow=p2),
    }


def build_sigma_delta_inv(jet: PointJet, m: int
                          ) -> Tuple[SymbolExpr, SymbolExpr, SymbolExpr]:
    parts_m, parts_m1, parts_m2 = build_sigma_delta_inv_parts(jet, m)
    return tuple(SymbolExpr.sum_of(jet.n, parts.values())
                 for parts in (parts_m, parts_m1, parts_m2))


def build_sigma_dtpow_parts(jet: PointJet, m: int,
                            der: DerivedScalars | None = None
                            ) -> Dict[str, SymbolExpr]:
    """Channels of the order -2m symbol of the (2m-2)-th inverse power at
    the base point (prefactors carry m-1 in place of m).  ``der`` is
    derived_scalars(jet), computed here when not given."""
    _check_dim(jet, m)
    return _sigma_inverse_order2_parts(jet, m - 1, der or derived_scalars(jet))


def build_sigma_dtpow(jet: PointJet, m: int) -> SymbolExpr:
    return SymbolExpr.sum_of(jet.n, build_sigma_dtpow_parts(jet, m).values())
