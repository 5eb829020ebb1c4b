"""Exact cosphere integration and the density pipelines.

Every density below is the rational content of a trace integral over the
unit cosphere: values are reported per tr[id] * Vol(S^{n-1}), i.e. the
common factor 2^m * 2*pi^m/Gamma(m) is stripped so that all comparisons
happen in a pi-free exact domain (the CLI prints the transcendental
prefactor as a symbolic string only).

``sphere_moment`` is the closed double-factorial formula for normalized
monomial moments; ``sphere_moment_bruteforce`` recomputes the same number
by enumerating perfect pairings, and stays independent of the closed
formula: the two are compared term-for-term in the verification suite.
The one trace kernel, ``_trace_table``, traces the order -2m part at x0 of
the Leibniz compositions L_i o R_j of a list of left channels with a list of
right channels in one pass, reading each term's Leibniz factors off its
xi-code (no derivative table).  It adds xi-codes tagged with the (left,
right) cell and sums int products per tagged code, then per cell and moment
degree, reading memoised moments derived from ``sphere_moment``; any set of
cells then traces to one Fraction (``TraceTable.trace``).  The one-cell case
is ``_leibniz_trace``, which ``trace_integral`` takes with the identity symbol
on the left (its only alpha is ()).  A left x0 term with a norm power is
refused by name, as in ``symbols.compose`` (``_norm_power``).

The two density pipelines:

* part 1 traces c(v)c(w) against the order -2m symbol of the (2m-2)-th
  inverse power of the torsion Dirac operator;
* part 2 assembles the order -2m grade of the composed product symbol
  (grades 2, 1, 0 of the two-factor product against the three inverse
  Laplacian-type symbols, Leibniz derivatives up to |alpha| = 2),

and both are compared against their closed forms, whose sum is the
spectral Einstein density

    -(1/6) G(v,w) + (73/16) |T|^2 g(v,w)
    - (25/16) sum T(v,e_j,e_l) T(w,e_j,e_l)
    + (11/4) sum (nabla_{e_a} T)(e_a,v,w) + (17/4) sum T(v, nabla_j w, e_j).

The public densities, closed forms and ``audit`` reuse the newest ``PipelineContext``
for the same jet object, m and composed builder, so each symbol, the derived
scalars and each trace table are built once per jet.  The right channels of
the part-1 and part-2 tables, on the terms their traces read, are emitted
straight into the kernel's buckets with no symbol: R's and dT1's off their
orbits' templates (``_emitted``), the rest from ``JetInputs``' int sums.

``audit`` reproduces the reference derivation step by step (labels I-A ..
II-6, one row each of ``_audit_rows``, read off the cells of the part-1 or
printed part-2 table) and reports every display that disagrees with the
engine, with the exact engine value.  The one load-bearing disagreement is the
ordering of one cross term in the grade-1 product symbol: the reference
chain carries c(w)c(xi)c(v)tau where the composition rule produces
c(v)tau c(w)c(xi).  The closed forms track the former; the strict
composition shifts the part-2 density by exactly (3/4) sum T(v,..)T(w,..),
which the audit reports jet by jet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from math import lcm, prod
from typing import Dict, Hashable, Iterable, List, NamedTuple, Sequence, Tuple

from .clifford import word_indices
from .geometry import DerivedScalars, PointJet, _spread
from .numerics import I, ONE, format_rational
from .symbols import (_DT, _ORDER2, _R_JETS, JetInputs, SymbolExpr, _decode, _delta, _key,
                      _leibniz_alphas, _norm_power, _ones, _pairs, _phase_error, _scales, _unit,
                      build_sigma_ab_composed, build_sigma_ab_printed_parts, printed_grades)

# ---------------------------------------------------------------------------
# sphere moments
# ---------------------------------------------------------------------------


def sphere_moment(alpha: Sequence[int], n: int) -> Fraction:
    """Normalized moment of xi^alpha over S^{n-1}.

    Vanishes unless every exponent is even; otherwise equals
    prod_a (alpha_a - 1)!! / prod_{k=0}^{|alpha|/2 - 1} (n + 2k).
    """
    if n < 2 or n % 2:
        raise ValueError(f"dimension n={n} must be even and >= 2")
    if any(a < 0 for a in alpha):
        raise ValueError("negative exponent in moment multidegree")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    total = sum(alpha)
    if not total:
        return Fraction(1)
    num = 1
    for a in alpha:
        for k in range(a - 1, 0, -2):
            num *= k
    den = 1
    for k in range(total // 2):
        den *= n + 2 * k
    return Fraction(num, den)


def sphere_moment_bruteforce(alpha: Sequence[int], n: int) -> Fraction:
    """Independent oracle: enumerate perfect pairings of the index word.

    The normalized moment equals (number of pairings of the multiset of
    indices in which every pair is equal) divided by n(n+2)...(n+2k-2).
    """
    if n < 2 or n % 2:
        raise ValueError(f"dimension n={n} must be even and >= 2")
    word: List[int] = []
    for index, a in enumerate(alpha):
        word.extend([index] * a)
    if len(word) % 2:
        return Fraction(0)
    if not word:
        return Fraction(1)

    def pairings(items: Tuple[int, ...]) -> int:
        if not items:
            return 1
        head, rest = items[0], items[1:]
        total = 0
        for pos in range(len(rest)):
            if rest[pos] == head:
                total += pairings(rest[:pos] + rest[pos + 1:])
        return total

    count = pairings(tuple(word))
    den = 1
    for k in range(len(word) // 2):
        den *= n + 2 * k
    return Fraction(count, den)


# ---------------------------------------------------------------------------
# trace integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Density:
    """Exact density per tr[id] * Vol(S^{n-1})."""

    value: Fraction

    def __str__(self):
        return format_rational(self.value)


class PipelineError(ValueError):
    """Internal consistency violation in a trace-integral pipeline."""


_I_POWERS = (ONE, I, -ONE, -I)  # i^k for k mod 4


def _require_traceable(expr: SymbolExpr, m: int) -> None:
    """Raise unless every term is x-free of xi-homogeneity -2m."""
    s = 8 * expr.n
    for x, xi, p, _ in expr.nums:
        if x:
            raise PipelineError("trace integral of an x-dependent expression")
        if (xi >> s) + p != -2 * m:
            raise PipelineError(
                f"term has xi-homogeneity {(xi >> s) + p}, expected {-2 * m}")


_MOMENTS: Dict[Tuple[int, int], Tuple[int, int]] = {}


def _unpackable(xi: int, n: int) -> PipelineError:
    """A xi-code with an exponent of 128 or more, which could carry in a sum."""
    return PipelineError(f"xi-exponent {max(_decode(xi, n))} >= 128 cannot be packed")


def _moment(code: int, n: int) -> Tuple[int, int]:
    """(w, d) for the xi-code ``code`` of degree 2k: d = n(n+2)...(n+2k-2)
    and w = (-1)^k sphere_moment * d, the int prod (a-1)!! with the trace's
    sign (w = 0 for an odd monomial); one memo entry per (code, n)."""
    got = _MOMENTS.get((code, n))
    if got is None:
        k = (code >> 8 * n) // 2
        d = prod(range(n, n + 2 * k, 2))
        w = int(sphere_moment(_decode(code, n), n) * d)
        got = _MOMENTS[code, n] = (-w if k & 1 else w, d)
    return got


def _real_trace(sums: Dict[int, int], phase: int, den: int) -> Fraction:
    """The cosphere trace of a term sum given as moment denominator d ->
    summed signed int numerator r * prod (a-1)!!, over the common
    denominator ``den``: i^-phase times the exact complex trace.

    The moment denominators n(n+2)... divide each other, so one Fraction over
    the largest carries the whole sum.  That value is rebuilt as a complex
    number and must be real: an imaginary part is a pipeline bug and raises.
    """
    top = max(sums, default=1)
    total = Fraction(sum(s * (top // d) for d, s in sums.items()), top * den)
    value = _I_POWERS[-phase % 4] * total
    if value.im:
        raise PipelineError(f"trace integral has imaginary part {value.im}")
    return value.re


def trace_integral(expr: SymbolExpr, m: int) -> Density:
    """Integrate tr[expr]/2^m over the unit cosphere, exactly.

    Requires an x-independent expression of pure xi-homogeneity -2m; the
    norm factors are 1 on the sphere.  Only the identity word is traced
    (nonempty canonical words are traceless), a term contributes i^(|nu| -
    phase) r times its moment, and an exponent of 128 or more raises.  This
    is ``_leibniz_trace`` of the identity symbol, whose only alpha is (),
    with ``expr``.
    """
    _require_traceable(expr, m)
    return Density(_leibniz_trace(SymbolExpr._of(expr.n, {(0, 0, 0, 0): 1}, 1, 0), expr, m))


class TraceTable(NamedTuple):
    """A channel-resolved cosphere trace: (left key, right key) -> moment
    denominator d -> summed signed int numerator, for each cell that a term
    reaches, over one phase and one denominator, with the keys of the left
    and right channels traced."""

    cells: Dict[Tuple[Hashable, Hashable], Dict[int, int]]
    phase: int
    den: int
    left_keys: Tuple[Hashable, ...]
    right_keys: Tuple[Hashable, ...]

    def trace(self, lefts: Iterable[Hashable] | None = None,
              rights: Iterable[Hashable] | None = None) -> Fraction:
        """The trace of the cells (a, b) for a in ``lefts`` and b in
        ``rights`` (of every cell, given neither): the trace is linear, so one
        ``_real_trace`` of the summed cells.  A key that names none of the
        table's channels raises ValueError, and so does an empty or missing
        side, which would read as 0 (as a cell no term reaches does)."""
        if lefts is not None or rights is not None:
            lefts, rights = tuple(lefts or ()), tuple(rights or ())
            unknown = {*lefts} - {*self.left_keys} | {*rights} - {*self.right_keys}
            if unknown:
                raise ValueError(f"no channel {' or '.join(sorted(map(repr, unknown)))}"
                                 " in this trace table")
            empty = [side for side, keys in (("left", lefts), ("right", rights)) if not keys]
            if empty:
                raise ValueError(f"no {' or '.join(empty)} channel selected:"
                                 " trace() traces the whole table")
        sums: Dict[int, int] = {}
        for cell in (self.cells.values() if lefts is None else
                     filter(None, map(self.cells.get, product(lefts, rights)))):
            for d, s in cell.items():
                sums[d] = sums.get(d, 0) + s
        return _real_trace(sums, self.phase, self.den)


def _tag_shift(n: int) -> int:
    """The bit above the xi-code of any product of two packable codes (|nu|
    < 2^16), from which a kernel code carries its cell index."""
    return 8 * n + 16


def _common(n: int, exprs: Sequence[SymbolExpr]) -> Tuple[int, int, List[int]]:
    """(den, phase, factors) of channels of dimension n: the lcm of their
    denominators, the one phase of the nonzero ones and den over each
    channel's denominator."""
    den, phases = 1, set()
    for e in exprs:
        if e.n != n:
            raise ValueError("dimension mismatch")
        den = lcm(den, e.den)
        if e.nums:
            phases.add(e.phase)
    if len(phases) > 1:
        raise ValueError("channels of different phase break the phase rule")
    return den, min(phases, default=0), [den // e.den for e in exprs]


# (n, right keys, den, phase, buckets), what ``_bucketed`` makes of the
# right channels
Bucketed = Tuple[int, List[Hashable], int, int,
                 Dict[Tuple[int, int, int, int], List[Tuple[int, int]]]]


def _bucketed(n: int, rights: Dict[Hashable, SymbolExpr]) -> Bucketed:
    """The right channels R_j of the trace kernel over their common
    denominator and phase, bucketed once: each term r x^mu xi^nu ||xi||^p
    word of R_j is listed as (xi-code plus j above ``_tag_shift(n)``, mu! r
    over the common denominator) under (x-code, word, odd mask ``xi &
    _ones(n)``, xi-order |nu| + p), so the buckets of x-code alpha hold
    d_x^alpha R_j at x0 (mu! is 2 exactly for an x_j^2 term)."""
    s, odd, high, twos = 8 * n, _ones(n), _ones(n) << 7, _ones(n) << 1
    den, phase, factors = _common(n, list(rights.values()))
    buckets: Dict[Tuple[int, int, int, int], List[Tuple[int, int]]] = {}
    for j, (right, f) in enumerate(zip(rights.values(), factors)):
        tag = j << _tag_shift(n)
        for (x, xi, p, word), r in right.nums.items():
            if xi & high:
                raise _unpackable(xi, n)
            buckets.setdefault((x, word, xi & odd, (xi >> s) + p), []).append(
                (xi + tag, (2 * r if x & twos else r) * f))
    return n, list(rights), den, phase, buckets


# sigma_Delta's channels, keyed (g, name) for the order -2m-g; part 1's are _ORDER2's
DELTA_KEYS = ((0, "lead"), (0, "r_jet"), (1, "ric_jet"), (1, "tt"), (1, "r_jet"), (1, "dt_jet"),
              *((2, name) for name in _ORDER2))


def _emitted(index, n: int, rule, outs) -> List[Tuple[int, Tuple[Tuple, int], int]]:
    """The traced ``rule``'s terms at ``index`` as entries (table, (bucket key,
    tagged xi-code), int) of each right channel (table, index, norm power + n,
    imag, even) of ``outs[part]``: keyed as ``_bucketed`` keys a term moved to
    that norm power, times mu! and i^(|nu| + grade - imag), whose odd power
    breaks the phase rule (ValueError), and none at an odd xi-monomial where
    ``even``.  ``_spread`` sums them into its templates, once per orbit."""
    s, odd, shift, out = 8 * n, _ones(n), _tag_shift(n), []
    high, twos = odd << 7, odd << 1
    for part, key, c in rule(index, n):
        x, xi, _, word = key
        for table, j, p, imag, even in outs[part]:
            if (e := (xi >> s) + word.bit_count() - imag) & 1:
                raise _phase_error(key, c, imag, n)
            if xi & high:
                raise _unpackable(xi, n)
            if not (even and xi & odd):
                out.append((table, ((x, word, xi & odd, (xi >> s) + p - n), xi + (j << shift)),
                            (-c if e & 2 else c) * (2 if x & twos else 1)))
    return out


# per part of the rule: R's r_jets of orders -2m, -2m-1; dT1's dt_jet and its dt_xx and
# div_t families, of sigma_Delta (table 0) and of part 1 (table 1, even xi-monomials)
_R_EMITTED = partial(_emitted, rule=_R_JETS[True], outs=(((0, 1, -2, 0, 0),), ((0, 4, -2, 1, 0),)))
_DT_EMITTED = partial(_emitted, rule=_DT[True], outs=(((0, 5, -2, 1, 0),), (
    (0, 11, -4, 0, 0), (1, 5, -2, 0, 1)), ((0, 9, -2, 0, 0), (1, 3, 0, 0, 1))))


def _filled(n: int, keys, channels, *parts: Dict[Tuple[Tuple, int], int]) -> Bucketed:
    """The phase-0 buckets of the right channels ``keys`` from ``parts``'
    entries: channel j's, over d_j and times c_j (``channels``: (c_j, d_j)),
    times c_j D / d_j over the lcm D of the d_j c_j; zeros dropped."""
    shift, den = _tag_shift(n), lcm(*(d * c.denominator for c, d in channels))
    factors, buckets = [c.numerator * den // (d * c.denominator) for c, d in channels], {}
    for part in parts:
        for (key, xi), r in part.items():
            if r := r * factors[xi >> shift]:
                buckets.setdefault(key, []).append((xi, r))
    return n, list(keys), den, 0, buckets


def _trace_table(lefts: Dict[Hashable, SymbolExpr], bucketed: Bucketed, m: int) -> TraceTable:
    """The channel-resolved cosphere trace of the grade -2m part at x0 of the
    Leibniz compositions sum_{|alpha| <= 2} (-i)^|alpha|/alpha!
    d_xi^alpha L_i d_x^alpha R_j of each left channel L_i (over their common
    denominator and phase) with each right channel R_j of ``_bucketed``.

    Each x0 term r xi^nu word of L_i gives C(nu, alpha) r xi^(nu - alpha)
    word at L_i's phase (``symbols._leibniz_alphas``; the alpha code is also
    the x-code of the buckets of d_x^alpha R_j).  tr(w_a w_b) vanishes unless
    the two canonical words coincide, and then the product is the
    transposition parity of w into w times the identity (the c_i^2 signs
    cancel against the phase of the lost grade); only xi-exponents of equal
    parities have a moment.  So each term and alpha read the one bucket of
    the word, parity and xi-order that complete -2m, and the int products are
    summed per product code (no carry below 128), which carries the cell
    index i R + j above ``_tag_shift(n)``; then per cell and moment degree.
    By grading, a cell of two homogeneous channels holds one |alpha| only.
    An x0 term of L_i with a norm power raises ValueError naming it
    (``_norm_power``), whatever the right channels."""
    n, right_keys, right_den, right_phase, buckets = bucketed
    den, phase, factors = _common(n, list(lefts.values()))
    grade, get, width, shift = -2 * m, buckets.get, len(right_keys), _tag_shift(n)
    s, odd, high = 8 * n, _ones(n), _ones(n) << 7
    moments: Dict[int, int] = {}
    for i, (left, f) in enumerate(zip(lefts.values(), factors)):
        tag = i * width << shift
        for key, ca in left.nums.items():
            x, xi, p, word = key
            if x:
                continue
            if xi & high:
                raise _unpackable(xi, n)
            if p:
                raise _norm_power(key, n)
            # interleaving w into w takes C(k, 2) transpositions for k = grade(w),
            # an odd number exactly when k % 4 is 2 or 3
            ca *= -f if word.bit_count() & 2 else f
            order = grade - (xi >> s)
            for a, c in _leibniz_alphas(xi, n):
                bucket = get((a, word, (xi - a) & odd, order + (a >> s)))
                if bucket is not None:
                    rest, c = xi - a + tag, c * ca
                    for xi_b, cb in bucket:
                        code = rest + xi_b
                        moments[code] = moments.get(code, 0) + c * cb
    cells: Dict[int, Dict[int, int]] = {}  # cell index -> d -> sum
    for code, r in moments.items():
        w, d = _moment(code & (1 << shift) - 1, n)
        cell = cells.get(code >> shift)
        if cell is None:
            cell = cells[code >> shift] = {}
        cell[d] = cell.get(d, 0) + r * w
    left_keys = tuple(lefts)
    return TraceTable({(left_keys[t // width], right_keys[t % width]): cell
                       for t, cell in cells.items()}, phase + right_phase, den * right_den,
                      left_keys, tuple(right_keys))


def _leibniz_trace(left: SymbolExpr, right: SymbolExpr, m: int) -> Fraction:
    """The one-cell ``_trace_table``: the cosphere trace of the grade -2m
    part at x0 of sum_{|alpha| <= 2} (-i)^|alpha|/alpha! d_xi^alpha L
    d_x^alpha R."""
    return _trace_table({0: left}, _bucketed(left.n, {0: right}), m).trace()


# ---------------------------------------------------------------------------
# density pipelines and closed forms
# ---------------------------------------------------------------------------


class Comparison(NamedTuple):
    """An engine value and the exact value a report compares it with."""

    engine: Fraction
    expected: Fraction
    match = property(lambda self: self.engine == self.expected)


SHIFT = "part2_composed_vs_printed_shift"
# the comparisons of the reports, each made once per context (``compare``):
# parts 1 and 2 against their closed forms, part 1 + part 2 against the
# theorem, the metric against -g(v, w) and the composed source's part 2
# against the printed one's plus the characterized (3/4) TT(v, w)
COMPARISONS = {
    "part1": lambda c: (c.part1().value, c.part1_closed().value),
    "part2": lambda c: (c.part2().value, c.part2_closed().value),
    "theorem": lambda c: (c.compare("part1").engine + c.compare("part2").engine,
                          c.theorem().value),
    "metric": lambda c: (c.metric().value, -c.derived.g_vw),
    SHIFT: lambda c: (c.part2("composed").value - c.compare("part2").engine,
                      Fraction(3, 4) * c.derived.tt_vw),
}


# the closed forms' m-free coefficients, built once
_SIXTH, _NORM_T2 = Fraction(-1, 6), Fraction(73, 16)
_TT, _DIV_T, _T_DW = Fraction(-25, 16), Fraction(11, 4), Fraction(17, 4)


class PipelineContext(JetInputs):
    """The per-(jet, m) artifacts of the density pipelines, each built once.

    The context is the builders' ``JetInputs`` (the derived scalars, c(v),
    c(w) and the jet's tensors converted once), the one argument of every
    builder it calls through this module's bindings.  Every field is built on
    first use and reused by every later consumer: c(v)c(w), the printed
    channels built on the terms a table reads, the printed grades (the read
    products plus the other grades) and the composed ones, dT1's emitted
    entries, part 1's and sigma_Delta's buckets of emitted channels, and the
    trace tables of part 1, the metric and both part-2 sources, whose cells
    the densities and the audit rows read;
    then the ``COMPARISONS`` and the product symbol's three grade equalities,
    which the audit and the CLI read.
    The public calls on one jet in a row share the context ``_context`` holds
    (the CLI makes one per jet).  A jet whose dimension is not 2m is rejected
    before any field is built.
    """

    def __init__(self, jet: PointJet, m: int):
        if jet.n != 2 * m:
            raise ValueError(f"jet dimension n={jet.n} does not match m={m}")
        super().__init__(jet)
        self.m = m
        self._compared: Dict[str, Comparison] = {}

    @cached_property
    def cvw(self) -> SymbolExpr:
        return SymbolExpr.from_clifford(self.cv_cw)

    dt_emitted = cached_property(lambda self: _spread(self.reads["dT1"], _DT_EMITTED, self.n))

    @cached_property
    def ab_printed_parts(self) -> Dict[str, SymbolExpr]:
        return build_sigma_ab_printed_parts(self)

    @cached_property
    def ab_printed(self) -> Tuple[SymbolExpr, SymbolExpr, SymbolExpr]:
        return printed_grades(self.ab_printed_parts)

    @cached_property
    def ab_composed(self) -> Tuple[SymbolExpr, SymbolExpr, SymbolExpr]:
        return build_sigma_ab_composed(self)

    def _families(self, table: int):
        """(entries, channels) of ``table``'s order -(2mm+2) channels, mm = m
        (or m - 1, part 1): ``read_families`` at the xi-order -2mm-2, i^|nu| r
        at nu (even nu alone in part 1), and each (c mm (mm+1)^q, den)."""
        s, odd, shift, out, mm = 8 * self.n, _ones(self.n), _tag_shift(self.n), {}, self.m - table
        families, den = self.read_families, self.reads["dT1"].den
        for name, (nums, _) in families.items():
            tag = DELTA_KEYS.index((2, name)) - 6 * table << shift
            for xi, c in nums.items():
                if not (table and xi & odd):
                    out[(0, 0, xi & odd, -2 * mm - 2), xi + tag] = -c if xi >> s & 2 else c
        return out, [(c, families.get(name, (0, den))[1]) for name, (c, _) in _scales(mm).items()]

    @cached_property
    def part1_buckets(self) -> Bucketed:
        """Part 1's channels at the even xi-monomials c(v)c(w) reads, as the
        kernel's buckets, each x-free at xi-order -2m (else PipelineError)."""
        entries, channels = self._families(1)
        out = _filled(self.n, _ORDER2, channels, entries, self.dt_emitted[1])
        for x, _, _, order in out[4]:
            if x or order != -2 * self.m:
                raise PipelineError("trace integral of an x-dependent expression" if x else
                                    f"term has xi-homogeneity {order}, expected {-2 * self.m}")
        return out

    part1_table = cached_property(
        lambda self: _trace_table({"cvw": self.cvw}, self.part1_buckets, self.m))

    @cached_property
    def metric_table(self) -> TraceTable:
        """c(v)c(w) against sigma_Delta's lead symbol, checked as part 1's are."""
        _require_traceable(self.lead, self.m)
        return _trace_table({"cvw": self.cvw}, _bucketed(self.n, {"lead": self.lead}), self.m)

    @cached_property
    def delta_buckets(self) -> Bucketed:
        """sigma_Delta's channels as the kernel's buckets, for both part-2
        tables: R's and dT1's off their templates, the families, and lead,
        ric_jet (off Ric) and tt (off T's rows), at the indices 0, 2 and 3 of
        ``DELTA_KEYS``, with their signs i^(|nu| + grade - imag): -1, 1, -1."""
        m, n, (ric, d_ric), t = self.m, self.n, self.ric, _tag_shift(self.n)
        units, pairs, (r_m, c_t, c_ric, c_r) = [_unit(n, a) for a in range(n)], _pairs(n), _delta(m)
        out, families = self._families(0)
        out.update((((0, 0, 0, -2 * m), pairs[a][a]), -1) for a in range(n))
        out.update((((units[b], 0, 1 << 8 * a, -2 * m - 1), units[a] + (2 << t)), x)
                   for (a, b), x in ric.items())
        out.update((((0, w, 1 << 8 * f, -2 * m - 1), units[f] + (3 << t)), -x)
                   for (f, w), x in self.t_terms[1].items())
        R, T, dT1 = (self.reads[name].den for name in ("R", "T", "dT1"))
        return _filled(n, DELTA_KEYS, [(1, 1), (r_m, R), (c_ric, d_ric), (c_t, T), (c_r, R),
                                       (c_t, dT1), *families],
                       out, _spread(self.reads["R"], _R_EMITTED, n)[0], self.dt_emitted[0])

    printed_table = cached_property(
        lambda self: _trace_table(self.printed(self.read_products), self.delta_buckets, self.m))
    composed_table = cached_property(
        lambda self: _trace_table(dict(enumerate(self.ab_composed)), self.delta_buckets, self.m))

    def metric(self) -> Density:
        return Density(self.metric_table.trace())

    def part1(self) -> Density:
        return Density(self.part1_table.trace())

    def part2(self, ab_source: str = "printed") -> Density:
        if ab_source not in ("printed", "composed"):
            raise ValueError(f"unknown ab_source {ab_source!r}")
        return Density(getattr(self, f"{ab_source}_table").trace())

    def part1_closed(self) -> Density:
        der, m = self.derived, self.m
        return Density(Fraction(m - 1, 12) * der.s * der.g_vw
                       - Fraction(3 * (m - 1), 4) * der.norm_t2 * der.g_vw)

    def part2_closed(self) -> Density:
        der, m = self.derived, self.m
        return Density(_SIXTH * (der.ric_vw - der.s * der.g_vw / 2)
                       - Fraction(m - 1, 12) * der.s * der.g_vw
                       + Fraction(12 * m + 61, 16) * der.norm_t2 * der.g_vw
                       + _TT * der.tt_vw + _DIV_T * der.div_t_vw + _T_DW * der.t_dw)

    def theorem(self) -> Density:
        der = self.derived
        return Density(_SIXTH * der.einstein_vw + _NORM_T2 * der.norm_t2 * der.g_vw
                       + _TT * der.tt_vw + _DIV_T * der.div_t_vw + _T_DW * der.t_dw)

    def compare(self, name: str) -> Comparison:
        """The comparison ``name`` of ``COMPARISONS``, made on first use."""
        got = self._compared.get(name)
        if got is None:
            got = self._compared[name] = Comparison(*COMPARISONS[name](self))
        return got

    @cached_property
    def grades_equal(self) -> Tuple[bool, bool, bool]:
        """Whether grades 2, 1 and 0 of the composed product symbol equal the
        printed ones."""
        return tuple(c == p for c, p in zip(self.ab_composed, self.ab_printed))


# the held context, beside the composed builder binding it was built under
_held: Tuple[object, PipelineContext] | None = None


def _context(jet: PointJet, m: int) -> PipelineContext:
    """The held context if it is of this jet (by identity: hashing a jet reads
    its entries, and the held context keeps its jet alive), of this m and built
    under this ``build_sigma_ab_composed``, the one binding a caller swaps for
    different results; else a new one, which replaces it."""
    global _held
    if _held and _held[1].jet is jet and _held[1].m == m and _held[0] is build_sigma_ab_composed:
        return _held[1]
    _held = build_sigma_ab_composed, PipelineContext(jet, m)
    return _held[1]


def metric_density(jet: PointJet, m: int) -> Density:
    """Trace of c(v)c(w) against the leading inverse symbol: exactly -g(v,w)."""
    return _context(jet, m).metric()


def part1_density(jet: PointJet, m: int) -> Density:
    return _context(jet, m).part1()


def part1_closed(jet: PointJet, m: int) -> Density:
    """(m-1)/12 s g(v,w) - 3(m-1)/4 |T|^2 g(v,w)."""
    return _context(jet, m).part1_closed()


def part2_density(jet: PointJet, m: int, ab_source: str = "printed") -> Density:
    """Order -2m grade of the product-symbol composition, traced.

    ``ab_source`` selects the reference ("printed") product-symbol grades
    or the strict Leibniz composition ("composed"); the two differ by the
    documented grade-1 ordering finding.
    """
    return _context(jet, m).part2(ab_source)


def part2_closed(jet: PointJet, m: int) -> Density:
    """Closed reference form of the second density."""
    return _context(jet, m).part2_closed()


def theorem_density(jet: PointJet, m: int) -> Density:
    """-(1/6) G + (73/16)|T|^2 g - (25/16) TT + (11/4) divT + (17/4) T.dw."""
    return _context(jet, m).theorem()


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    label: str
    engine: Fraction
    printed: Fraction
    match: bool
    reconciled: bool = False
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "engine": format_rational(self.engine),
            "printed": format_rational(self.printed),
            "match": self.match,
        }
        if self.reconciled:
            out["reconciled"] = True
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class DensityReport:
    m: int
    entries: List[AuditEntry] = field(default_factory=list)
    totals: Dict[str, Dict[str, str]] = field(default_factory=dict)
    convention_notes: List[str] = field(default_factory=list)
    lemma36_diff: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every mismatching entry is a named reconciliation, all
        totals agree and grades 2 and 0 of the product symbol are equal (grade
        1 differs by the characterized finding)."""
        entries_ok = all(e.match or e.reconciled for e in self.entries)
        totals_ok = all(t["match"] == "true" for t in self.totals.values())
        grades_ok = all(self.lemma36_diff.get(f"grade{g}_equal", True) for g in (2, 0))
        return entries_ok and totals_ok and grades_ok

    @property
    def clean(self) -> bool:
        """True only if nothing at all disagrees with the reference."""
        return all(e.match for e in self.entries) and not self.lemma36_diff.get(
            "differing_terms")

    def to_json(self) -> dict:
        return {
            "schema": "wres-torsion-audit-v1",
            "m": self.m,
            "entries": [e.to_json() for e in self.entries],
            "totals": self.totals,
            "convention_notes": list(self.convention_notes),
            "lemma36_diff": self.lemma36_diff,
            "ok": self.ok,
            "clean": self.clean,
        }


_DIFF_TERMS = 12  # the differing terms ``lemma36_diff`` lists


def _expr_diff_terms(a: SymbolExpr, b: SymbolExpr) -> List[dict]:
    """Per-term diff of two expressions of one phase (a = composed, b =
    displayed): the first ``_DIFF_TERMS`` terms of a - b in exponent-tuple
    order."""
    return [{"xdeg": list(key[0]), "xideg": list(key[1]), "normpow": key[2],
             "word": list(word_indices(key[3])),
             "composed": str(a.coefficient(key)), "displayed": str(b.coefficient(key))}
            for key in sorted(_key(k, a.n) for k in (a - b).nums)[:_DIFF_TERMS]]


class _Row(NamedTuple):
    """An audit row: the context's trace table (by name) and the left and
    right keys of the cells it traces, the displayed value and, for a
    documented mismatch, its reconciliation; and its note."""

    label: str
    table: str
    lefts: Tuple[Hashable, ...]
    rights: Tuple[Hashable, ...]
    printed: Fraction
    reconciled: bool = False
    note: str = ""


def _audit_rows(m: int, der: DerivedScalars) -> Tuple[_Row, ...]:
    """The displayed steps of the reference derivation at m: part 1 traces
    c(v)c(w) against one dtpow channel, part 2 printed channels against
    sigma_Delta's, keyed (g, name) for the order -2m-g.  By grading, each
    part-2 cell reads the one |alpha| that completes order -2m: alpha = ()
    in II-1 to II-3, |alpha| = 1 in II-4 and II-5, 2 in II-6."""
    g, s, ric_vw = der.g_vw, der.s, der.ric_vw
    nt2, tt, divt, tdw = der.norm_t2, der.tt_vw, der.div_t_vw, der.t_dw
    p1, p2, cvw, s2 = "part1_table", "printed_table", ("cvw",), ("s2",)
    sm = ((0, "lead"), (0, "r_jet"))  # every channel of order -2m
    sm1 = ((1, "ric_jet"), (1, "tt"), (1, "r_jet"), (1, "dt_jet"))  # and of -2m-1
    return (
        _Row("I-A", p1, cvw, ("ric",), -Fraction(m - 1, 6) * s * g),
        _Row("I-B", p1, cvw, ("tt_xx",), -Fraction(27 * (m - 1), 4) * nt2 * g),
        _Row("I-C", p1, cvw, ("tt_scalar",), Fraction(27 * (m - 1), 4) * nt2 * g),
        _Row("I-D", p1, cvw, ("div_t",), Fraction(0), True, "displayed as 0 via a"
             " sign-slipped four-factor trace bracket; cancels exactly against I-F"),
        _Row("I-E", p1, cvw, ("r_xx",), Fraction(0)),
        _Row("I-F", p1, cvw, ("dt_xx",), Fraction(0), True,
             "displayed as 0 via the same bracket; cancels exactly against I-D"),
        _Row("I-G", p1, cvw, ("e_scalar",), Fraction(m - 1) * (s / 4 - Fraction(3, 4) * nt2) * g),
        _Row("I-H", p1, cvw, ("dt4",), Fraction(0),
             note="four-form channel; no displayed evaluation, trace vanishes"),
        _Row("II-1-A", p2, ("s0_tt",), sm, Fraction(1, 16) * nt2 * g - Fraction(1, 16) * tt,
             note="displayed with a dangling summation index; printed value read"
                  " without the extra index sum"),
        _Row("II-1-B", p2, ("s0_r",), sm, Fraction(1, 4) * s * g - Fraction(1, 2) * ric_vw,
             note="displayed curvature term carries the opposite sign pairing; the engine"
                  " keeps the jet-consistent pairing, which reproduces exactly this"
                  " displayed value"),
        _Row("II-1-C", p2, ("s0_dt",), sm, -Fraction(1, 4) * divt),
        _Row("II-1-D", p2, ("s0_tdw",), sm, -Fraction(1, 4) * tdw),
        _Row("II-2-A", p2, ("s1_tt",), sm1, -Fraction(9, 4) * nt2 * g + Fraction(3, 4) * tt,
             note="reference chain value; the strict composition ordering of the grade-1"
                  " cross term shifts this sub-term, see lemma36_diff"),
        _Row("II-2-B", p2, ("s1_dw",), sm1, Fraction(9, 2) * tdw),
        _Row("II-3-A", p2, s2, ((2, "ric"),), Fraction(m, 6) * s * g - Fraction(1, 3) * ric_vw),
        _Row("II-3-B", p2, s2, ((2, "tt_xx"),),
             Fraction(27, 4) * (2 - m) * nt2 * g - Fraction(9, 4) * tt, True,
             "compensating pair with II-3-C: the engine channel carries (27/4) m |T|^2 g"
             " - (9/4) TT (the displayed |T|^2 content is shuffled between the two"
             " displays); pair sum matches exactly"),
        _Row("II-3-C", p2, s2, ((2, "tt_scalar"),), Fraction(27, 4) * (m - 1) * nt2 * g, True,
             "compensating pair with II-3-B: the engine channel carries -(27/4)(m-1)"
             " |T|^2 g, the negative of the display; pair sum matches exactly"),
        _Row("II-3-D", p2, s2, ((2, "div_t"),), Fraction(3 * (m - 1), 2) * divt),
        _Row("II-3-E", p2, s2, ((2, "r_xx"),), Fraction(0)),
        _Row("II-3-F", p2, s2, ((2, "dt_xx"),), -Fraction(3 * (m + 1), 2) * divt),
        _Row("II-3-G", p2, s2, ((2, "e_scalar"),), (1 - m) * (s / 4 - Fraction(3, 4) * nt2) * g),
        _Row("II-3-H", p2, s2, ((2, "dt4"),), Fraction(0)),
        _Row("II-4-A", p2, s2, ((1, "ric_jet"),), Fraction(2, 3) * (2 * ric_vw - s * g)),
        _Row("II-4-B", p2, s2, ((1, "r_jet"),), Fraction(0)),
        _Row("II-4-C", p2, s2, ((1, "dt_jet"),), 6 * divt),
        _Row("II-5", p2, ("s1_tt", "s1_dw"), sm, Fraction(0)),
        _Row("II-6", p2, s2, ((0, "r_jet"),), -Fraction(1, 3) * (2 * ric_vw - s * g)),
    )


def audit(jet: PointJet, m: int) -> DensityReport:
    """Step-by-step comparison of the engine against the reference chain:
    an entry per row of ``_audit_rows``, the ``COMPARISONS`` as totals and
    the product symbol compared grade by grade."""
    ctx = _context(jet, m)
    report = DensityReport(m=m)
    for row in _audit_rows(m, ctx.derived):
        engine = getattr(ctx, row.table).trace(row.lefts, row.rights)
        report.entries.append(AuditEntry(row.label, engine, row.printed, engine == row.printed,
                                         row.reconciled, row.note))
    got = {e.label: e for e in report.entries}
    if got["I-D"].engine + got["I-F"].engine:
        report.convention_notes.append("I-D + I-F failed to cancel; part-1 pipeline inconsistent")
    if got["II-3-B"].engine + got["II-3-C"].engine != got["II-3-B"].printed + got["II-3-C"].printed:
        report.convention_notes.append(
            "II-3-B + II-3-C failed to compensate; part-2 pipeline inconsistent")
    # before the totals: the shift builds the composed table before the metric's
    eq2, eq1, eq0 = ctx.grades_equal
    report.lemma36_diff = {
        "grade2_equal": eq2, "grade1_equal": eq1, "grade0_equal": eq0,
        "differing_terms": _expr_diff_terms(ctx.ab_composed[1], ctx.ab_printed[1]),
        "density_shift": format_rational(ctx.compare(SHIFT).engine),
        "density_shift_formula": "3/4 * sum_{j,l} T(v,e_j,e_l) T(w,e_j,e_l)",
    }
    for name in COMPARISONS:
        total = ctx.compare(name)
        report.totals[name] = {"engine": format_rational(total.engine),
                               "printed": format_rational(total.expected),
                               "match": "true" if total.match else "false"}
    report.convention_notes.extend(_CONVENTION_NOTES)
    return report


_CONVENTION_NOTES = (
    "torsion prefactor of the zeroth-order Dirac symbol: the chain uses"
    " 1/4 on increasing triples as displayed; the operator definition"
    " itself carries 3/2 (ratio 6) and the connection-correction"
    " contraction carries 9/2 (ratio 18); only 1/4 is consistent with"
    " the displayed product-symbol grades and the closed forms",
    "part-1 closed form: the bracket is -3(m-1)/4 |T|^2 g(v,w); the"
    " stray 73/16 |T|^2 display belongs to the part-1 + part-2 total"
    " only",
    "grade-0 product-symbol curvature channel: displayed index pairing"
    " is off by one transposition (a sign); the engine keeps the"
    " jet-consistent pairing, which matches the displayed evaluation"
    " of that channel (II-1-B)",
    "grade-1 product-symbol cross term: displayed as"
    " sigma_1(B) sigma_0(A) instead of the composition's"
    " sigma_0(A) sigma_1(B); the closed forms track the displayed"
    " order; strict composition shifts the part-2 density by"
    " +3/4 sum T(v,e_j,e_l)T(w,e_j,e_l), i.e. a -13/16 coefficient in"
    " place of -25/16 in the end-to-end density",
    "four-factor trace display: the bracket v_j w_l + v_l w_j has a"
    " sign slip (the trace gives -v_j w_l + v_l w_j); its two uses"
    " (I-D, I-F) produce opposite nonzero values that cancel in the"
    " part-1 total",
    "two torsion double sums are displayed with dangling summation"
    " indices (II-1-A, II-3-B); the engine asserts its first-principles"
    " traces, which match the values read without the extra sum",
    "the torsion-square channels of the grade-2 product against the"
    " order -(2m+2) symbol (II-3-B, II-3-C) are displayed with their"
    " |T|^2 g content shuffled: the engine finds (27/4) m |T|^2 g -"
    " (9/4) TT and -(27/4)(m-1) |T|^2 g respectively; the displayed"
    " pair and the engine pair have identical sums",
)
