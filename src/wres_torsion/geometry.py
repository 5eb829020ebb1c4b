"""Geometric data at one point in normal coordinates, with exact generators.

A ``PointJet`` holds everything the symbol builders consume at the base
point x0 of a normal coordinate chart on an n = 2m dimensional manifold:

* ``R_entries``   Riemann components R_{abcd} (orthonormal frame),
* ``T_entries``   components T_{ajl} of the totally antisymmetric torsion 3-form,
* ``dT1_entries`` first coordinate jet of T at x0, keyed (b, a, j, l) with the
  derivative slot first; since Christoffel symbols vanish at x0 this is
  simultaneously the covariant derivative (nabla_{e_b} T)(e_a, e_j, e_l),
* ``v``, ``w``    the two vector fields contracted into the functionals,
* ``dw[j][g]``    the first jet of w (d w_g / d x_j at x0); v carries no
  stored jet because no step of the density pipeline differentiates it.

Each channel map takes a 0-based index tuple to its value over the nonzero
entries of the completed tensor; ``jet.R``, ``jet.T`` and ``jet.dT1`` are
dense views of them (``R[a][b][c][d]``, ...) for callers outside the engine.

All entries are exact rationals.  Random generation keeps every magnitude
small (each drawn value, an entry of T, dT1, v, w, dw or of one of the
symmetric 2-tensors below, is p/q with |p| <= 3 and 1 <= q <= 3) so
downstream exact arithmetic stays fast, and builds the curvature tensor
as a sum of Kulkarni-Nomizu squares of random symmetric 2-tensors, which
enforces the pair symmetries and the first Bianchi identity by construction.
The squares are summed in ints over the 2-tensors times 6 (every q divides
6), with one ``Fraction`` per orbit representative; every drawn value is one
shared object of a table of the 21 values p/q.  The completion reads each
index's signed images from a memo, once per orbit representative.

The validator re-checks every identity independently, with its own copy of
each symmetry group: a channel map has its (anti)symmetries exactly when it
is the completion of its orbit representatives, and for such an R the
Bianchi cyclic sum is a 4-form, so it is tested on the increasing
quadruples of the representatives' index sets only.  That decision costs
in proportion to the nonzero entries and builds no Fraction; only a map it
rejects is scanned in ints, to name each violation.

Conventions fixed here (and relied on by the residue pipelines):
Ric_{bk} = sum_j R_{jbjk}, s = sum_b Ric_{bb}, and the squared torsion norm
is summed over strictly increasing triples only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement, product
from operator import itemgetter
from typing import Dict, List, Tuple

from .numerics import _collected, _integer_form, _reduced, format_rational, parse_rational

SUPPORTED_M = (1, 2, 3)

Vec = Tuple[Fraction, ...]
Mat2 = Tuple[Vec, ...]
Entries = Dict[Tuple[int, ...], Fraction]


@dataclass(frozen=True)
class PointJet:
    m: int
    # index tuple -> value over the nonzero entries; == compares them, hash skips them
    R_entries: Entries = field(hash=False)
    T_entries: Entries = field(hash=False)
    dT1_entries: Entries = field(hash=False)
    v: Vec
    w: Vec
    dw: Mat2

    @property
    def n(self) -> int:
        return 2 * self.m

    # read-only dense views, nested tuples built on first read; the engine reads none
    R = cached_property(lambda self: _dense(self.R_entries, self.n, 4))
    T = cached_property(lambda self: _dense(self.T_entries, self.n, 3))
    dT1 = cached_property(lambda self: _dense(self.dT1_entries, self.n, 4))


@dataclass(frozen=True)
class DerivedScalars:
    """Contractions of a PointJet used by the closed-form densities, and in
    ``int_forms`` (skipped by == and repr) the int forms they were summed from."""

    ric: Dict[Tuple[int, int], Fraction]  # (b, k) -> Ric_{bk} = sum_j R_{jbjk}, nonzero only
    s: Fraction               # scalar curvature
    dT4: Dict[Tuple[int, ...], Fraction]  # dT at x0 on i0 < i1 < i2 < i3, nonzero only
    norm_t2: Fraction         # sum over increasing triples of T^2
    g_vw: Fraction
    ric_vw: Fraction
    einstein_vw: Fraction     # Ric(v,w) - s g(v,w)/2
    tt_vw: Fraction           # sum_{j,l} T(v,e_j,e_l) T(w,e_j,e_l)
    div_t_vw: Fraction        # sum_a (nabla_{e_a} T)(e_a, v, w)
    t_dw: Fraction            # sum_j T(v, nabla^L_{e_j} w, e_j)
    int_forms: Dict[str, Tuple[Dict, int]] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: Tuple[str, ...]


# ---------------------------------------------------------------------------
# channel symmetries: one image table per channel and one completion
# ---------------------------------------------------------------------------

class InstanceError(ValueError):
    """Raised when jet entries or a serialized instance are malformed or
    inconsistent."""


_ANTISYM3 = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
             ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1))

# the images of one entry, as slot getters with signs: the 8 pair-symmetry
# images of R_{abcd}, the 6 signed permutations of T_{ajl}, and the same 6
# on the form slots of dT1_{b,ajl} (the derivative slot b stays first)
_IMAGES = {name: tuple((itemgetter(*perm), sign) for perm, sign in images)
           for name, images in (
               ("R", (((0, 1, 2, 3), 1), ((2, 3, 0, 1), 1),
                      ((1, 0, 2, 3), -1), ((2, 3, 1, 0), -1),
                      ((0, 1, 3, 2), -1), ((3, 2, 0, 1), -1),
                      ((1, 0, 3, 2), 1), ((3, 2, 1, 0), 1))),
               ("T", _ANTISYM3),
               ("dT1", [((0, p + 1, q + 1, r + 1), sign)
                        for (p, q, r), sign in _ANTISYM3]))}

# one shared object per index tuple, for the channel maps of all jets
_INDICES: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

# per (channel, n): index -> its distinct images of sign +1 and those of sign
# -1 (the first sign of each image in ``_IMAGES`` order), as ``_INDICES``'
# tuples; filled on the first completion of an in-range index
Orbit = Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]
_ORBITS: Dict[Tuple[str, int], Dict[Tuple[int, ...], Orbit]] = {}


def _one_based(index: Tuple[int, ...]) -> str:
    return "(" + ",".join(str(i + 1) for i in index) + ")"


def _label(name: str, index: Tuple[int, ...]) -> str:
    """The channel as an error names it; dT1 with its derivative slot."""
    return f"dT1[{index[0] + 1}]" if name == "dT1" else name


def _orbit(name: str, index: Tuple[int, ...], n: int, val) -> Orbit | None:
    """The orbit of ``index`` as ``_ORBITS`` keeps it; None for a zero
    torsion entry with a repeated form index.  Raises InstanceError where an
    index lies outside 0..n-1 and on a nonzero torsion entry with a repeated
    form index."""
    if not all(0 <= i < n for i in index):
        raise InstanceError(f"{name} index {index} outside 0..{n - 1}")
    lead = 1 if name == "dT1" else 0      # dT1's derivative slot is not a form slot
    if name != "R" and len(set(index[lead:])) < 3:
        if val:
            raise InstanceError(f"{_label(name, index)} entry with repeated index "
                                f"{_one_based(index[lead:])} must be zero")
        return None
    signs: Dict[Tuple[int, ...], int] = {}
    for get, sign in _IMAGES[name]:
        signs.setdefault(get(index), sign)
    return tuple(tuple(_INDICES.setdefault(key, key) for key, s in signs.items() if s == side)
                 for side in (1, -1))


def _complete(name: str, entries, n: int) -> Entries:
    """Index -> value for the nonzero entries of channel ``name`` ("R",
    "T" or "dT1"), completed over the channel's images from sparse
    (0-based index tuple, exact value) pairs; keys are ``_INDICES``' tuples.

    Each index's signed images are read from ``_ORBITS``.  An entry whose
    orbit no earlier entry set is written without a comparison, and a zero
    one is only noted, so no zero is stored; a revisited orbit compares each
    image, positive ones first.
    Raises InstanceError where an index lies outside 0..n-1, where two
    images of the entries disagree, and on a nonzero torsion entry with a
    repeated form index (a zero one is skipped)."""
    orbits = _ORBITS.setdefault((name, n), {})
    out: Entries = {}
    zero = set()                         # the positions of the orbits set to zero
    for index, val in entries:
        orbit = orbits.get(index)
        if orbit is None:
            orbit = _orbit(name, index, n, val)
            if orbit is None:
                continue
            orbits[index] = orbit
        pos, neg = orbit
        # the orbits of two entries are equal or disjoint, so one position tells
        if pos[0] not in out and pos[0] not in zero:
            if val:
                opposite = -val
                for key in pos:
                    out[key] = val
                for key in neg:
                    out[key] = opposite
            else:
                zero.update(pos, neg)
            continue
        kind = "symmetry" if name == "R" else "antisymmetry"
        for keys, value in ((pos, val), (neg, -val)):
            for key in keys:
                if out.get(key, 0) != value:
                    lead = 1 if name == "dT1" else 0
                    raise InstanceError(f"{_label(name, index)} entries conflict by {kind} "
                                        f"at {_one_based(key[lead:])}")
    return out


def _point_jet(m: int, R: Entries, T: Entries, dT1: Entries, v, w, dw) -> PointJet:
    """The jet with the completed channels R, T, dT1 (index -> value) and
    the dense v, w and dw."""
    return PointJet(m=m, R_entries=R, T_entries=T, dT1_entries=dT1,
                    v=tuple(v), w=tuple(w), dw=tuple(map(tuple, dw)))


def _admissible(jet: PointJet) -> PointJet:
    report = validate_symmetries(jet)
    if not report.ok:
        raise InstanceError(report.violations[0])
    return jet


# ---------------------------------------------------------------------------
# construction: random and from sparse entries
# ---------------------------------------------------------------------------

# every value p/q that ``_small_rational`` draws, one shared object each
_SMALL = {(p, q): Fraction(p, q) for p in range(-3, 4) for q in range(1, 4)}


def _small_rational(rng: random.Random) -> Fraction:
    """p/q, p drawn from -3..3 and then q from 1..3 (randint's stream)."""
    return _SMALL[rng.randrange(-3, 4), rng.randrange(1, 4)]


def _check_supported(m: int) -> None:
    if m not in SUPPORTED_M:
        raise ValueError(f"unsupported half-dimension m={m}; supported: {SUPPORTED_M}")


def random_point_jet(seed: int, m: int, *, with_curvature: bool = True,
                     with_torsion: bool = True, with_torsion_jet: bool = True,
                     with_w_jet: bool = True) -> PointJet:
    """Deterministic admissible jet for (seed, m); channels can be zeroed."""
    _check_supported(m)
    n = 2 * m
    rng = random.Random(f"wres:{seed}:{m}")

    R: Dict[Tuple[int, ...], Fraction] = {}
    if with_curvature:
        hs = [{} for _ in range(rng.randint(2, 4))]
        for h in hs:
            for i, j in combinations_with_replacement(range(n), 2):
                x = _small_rational(rng)
                h[i, j] = h[j, i] = 6 * x.numerator // x.denominator   # 6h, an int
        # the sum of the Kulkarni-Nomizu squares of the h (up to overall
        # scale), on one representative a < b, c < d, (a, b) <= (c, d) per
        # orbit: summed in ints over the 6h, so each value is total / 36
        R = _complete("R", (
            ((a, b, c, d), Fraction(sum(h[a, c] * h[b, d] - h[a, d] * h[b, c] for h in hs), 36))
            for (a, b), (c, d) in combinations_with_replacement(
                list(combinations(range(n), 2)), 2)), n)
    triples = list(combinations(range(n), 3))
    T = _complete("T", (((a, j, l), _small_rational(rng)) for a, j, l in triples),
                  n) if with_torsion else {}
    dT1 = _complete("dT1", (((b, a, j, l), _small_rational(rng))
                            for b in range(n) for a, j, l in triples),
                    n) if with_torsion_jet else {}
    v = [_small_rational(rng) for _ in range(n)]
    w = [_small_rational(rng) for _ in range(n)]
    dw = ([[_small_rational(rng) for _ in range(n)] for _ in range(n)] if with_w_jet
          else _dense({}, n, 2))
    return _point_jet(m, R, T, dT1, v, w, dw)


def make_point_jet(m: int, *, R=None, T=None, dT1=None, v=None, w=None,
                   dw=None) -> PointJet:
    """Build an admissible jet from sparse channel entries (indices 0-based).

    R entries are [a, b, c, d, value], T entries [a, j, l, value] and dT1
    entries [b, a, j, l, value]; each channel is completed over its
    symmetry images, as in ``jet_from_dict``.  v and w are dense rows and
    dw a dense matrix of rows (lists or tuples); a missing channel is zero.
    A channel, entry or row that is not a list or tuple, an entry of another
    length, a v, w or dw of another size, an index that is not an integer
    (booleans and fractional numbers included), a value that ``Fraction``
    rejects, conflicting entries, a nonzero torsion entry with a repeated
    index and a jet that fails ``validate_symmetries`` raise InstanceError
    naming the field; an unsupported m raises ValueError.
    """
    _check_supported(m)
    n = 2 * m

    def sparse(name, entries, indices):
        return _complete(name, _entries(entries, name, indices,
                                        lambda i: _integer(i, f"{name} index"), Fraction), n)

    zero = [0] * n
    return _admissible(_point_jet(
        m, sparse("R", R, 4), sparse("T", T, 3), sparse("dT1", dT1, 4),
        _vector(zero if v is None else v, n, "v", Fraction),
        _vector(zero if w is None else w, n, "w", Fraction),
        _dense({}, n, 2) if dw is None else _matrix(dw, n, Fraction)))


# ---------------------------------------------------------------------------
# derived quantities: contractions over the nonzero entries of each channel
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


def _dense(entries: Entries, n: int, rank: int):
    """The nested-tuple tensor over range(n)^rank of ``entries``, 0 elsewhere."""
    def build(prefix):
        if len(prefix) == rank:
            return entries.get(prefix, _ZERO)
        return tuple(build(prefix + (i,)) for i in range(n))
    return build(())


def _ricci(R: Dict[Tuple[int, ...], int]) -> Dict[Tuple[int, int], int]:
    """The nonzero Ric_{bk} = sum_j R_{jbjk} over the exact nonzero entries
    R (the engine passes R's int form); raises ValueError if R violates the
    pair symmetries (the contraction convention is only meaningful on an
    admissible tensor)."""
    if not _is_curvature(R) and (problems := _riemann_scan(R, limit=1)):
        raise ValueError(problems[0])
    return _collected(((b, k), x) for (j, b, c, k), x in R.items() if j == c)


def _four_form(dT1: Dict[Tuple[int, ...], int]) -> Dict[Tuple[int, ...], int]:
    """dT from the exact nonzero dT1 entries (the engine passes dT1's int
    form), as its nonzero coordinates on strictly increasing quadruples
    i0 < i1 < i2 < i3: (dT)_{i0 i1 i2 i3} = sum_r (-1)^r dT1[i_r][the other
    three, increasing], so only entries with an increasing form triple and a
    distinct derivative slot contribute."""
    alt: Dict[Tuple[int, ...], int] = {}
    for (b, a, j, l), x in dT1.items():
        if a < j < l and b not in (a, j, l):
            key = tuple(sorted((b, a, j, l)))
            alt[key] = alt.get(key, 0) + (-x if key.index(b) % 2 else x)
    return {key: x for key, x in alt.items() if x}


def derived_scalars(jet: PointJet) -> DerivedScalars:
    """The contractions of ``jet``, each summed over nonzero factors only,
    in ints over one common denominator per channel, from one int form each
    of R, T and dT1.  The result keeps those forms and Ric's nonzero int
    sums, reduced, for the builders (``int_forms``: keys R, T, dT1, ric)."""
    forms = {name: _integer_form(getattr(jet, f"{name}_entries")) for name in ("R", "T", "dT1")}
    (R, d_r), (T, d_t), (dT1, d_dt1) = forms.values()
    ric, d_r = forms["ric"] = _reduced(_ricci(R), d_r)
    dw, d_dw = _integer_form({(j, g): x for j, row in enumerate(jet.dw)
                              for g, x in enumerate(row) if x})
    (v, d_v), (w, d_w) = (_integer_form(dict(enumerate(vec))) for vec in (jet.v, jet.w))

    tv, tw, t_dw = {}, {}, 0
    for (a, j, l), x in T.items():
        if v[a]:
            tv[j, l] = tv.get((j, l), 0) + v[a] * x
            t_dw += v[a] * x * dw.get((l, j), 0)
        if w[a]:
            tw[j, l] = tw.get((j, l), 0) + w[a] * x
    tt_vw = sum(x * tw.get(jl, 0) for jl, x in tv.items())
    div_t_vw = sum(x * v[j] * w[l] for (c, a, j, l), x in dT1.items() if c == a)

    s = Fraction(sum(x for (b, k), x in ric.items() if b == k), d_r)
    g_vw = Fraction(sum(x * w[a] for a, x in v.items()), d_v * d_w)
    ric_vw = Fraction(sum(v[a] * x * w[b] for (a, b), x in ric.items()), d_v * d_r * d_w)
    return DerivedScalars(
        ric={bk: Fraction(x, d_r) for bk, x in ric.items()},
        s=s, dT4={key: Fraction(x, d_dt1) for key, x in _four_form(dT1).items()},
        norm_t2=Fraction(sum(x * x for (a, j, l), x in T.items() if a < j < l), d_t * d_t),
        g_vw=g_vw, ric_vw=ric_vw, einstein_vw=ric_vw - s * g_vw / 2,
        tt_vw=Fraction(tt_vw, d_v * d_w * d_t * d_t),
        div_t_vw=Fraction(div_t_vw, d_dt1 * d_v * d_w),
        t_dw=Fraction(t_dw, d_v * d_t * d_dw), int_forms=forms,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# Each channel's symmetry group as the validator reads it, apart from the
# completion's image table: the slot permutations other than the identity
# that keep the value of an orbit representative (even) and those that
# negate it (odd, a transposition first).  R's representatives have a < b,
# c < d and (a, b) <= (c, d), T's and dT1's increasing form slots; on each
# of their orbits the sign of an image is well defined.
_R_GROUP = ((itemgetter(2, 3, 0, 1), itemgetter(1, 0, 3, 2), itemgetter(3, 2, 1, 0)),
            (itemgetter(1, 0, 2, 3), itemgetter(0, 1, 3, 2), itemgetter(2, 3, 1, 0),
             itemgetter(3, 2, 0, 1)))
_T_GROUP = ((itemgetter(1, 2, 0), itemgetter(2, 0, 1)),
            (itemgetter(1, 0, 2), itemgetter(0, 2, 1), itemgetter(2, 1, 0)))
_DT1_GROUP = ((itemgetter(0, 2, 3, 1), itemgetter(0, 3, 1, 2)),
              (itemgetter(0, 2, 1, 3), itemgetter(0, 1, 3, 2), itemgetter(0, 3, 2, 1)))


def _opposite(x, y) -> bool:
    """Whether the exact rational y is -x and x is nonzero (in lowest terms,
    so by numerator and denominator; no Fraction is built)."""
    return (y is not None and x.numerator != 0 and y.numerator == -x.numerator
            and y.denominator == x.denominator)


def _is_completion(entries, reps, group, size: int) -> bool:
    """Whether the exact entries are the completion of their orbit
    representatives ``reps`` over ``group``, whose orbits hold ``size``
    positions in all: each representative's value x, nonzero, at its even
    images, the entry y = -x at its first odd image at all its odd ones,
    and no other entry.  For a map with a stored zero this is False."""
    if not reps:
        return not entries
    even, odd = group
    at = entries.get
    xs = list(map(entries.__getitem__, reps))
    ys = list(map(at, map(odd[0], reps)))
    return (all(map(_opposite, xs, ys))
            and all(list(map(at, map(get, reps))) == xs for get in even)
            and all(list(map(at, map(get, reps))) == ys for get in odd[1:])
            and len(entries) == size)


def _is_curvature(R) -> bool:
    """Whether the exact nonzero entries R have the pair symmetries and
    satisfy the first Bianchi identity, at a cost that follows the entries.

    For R with the pair symmetries, the cyclic sum
    b_{abcd} = R_{abcd} + R_{acdb} + R_{adbc} is a 4-form (Besse, *Einstein
    Manifolds*, ch. 1), so it vanishes exactly when it vanishes on the
    strictly increasing quadruples, and there it reads only entries on the
    quadruple's index set: those of the representatives with four distinct
    indices."""
    reps = [(a, b, c, d) for a, b, c, d in R if a < b and c < d and (a, b) <= (c, d)]
    # an orbit holds 8 positions, 4 where the pairs are equal
    size = 8 * len(reps) - 4 * sum(a == c and b == d for a, b, c, d in reps)
    if not _is_completion(R, reps, _R_GROUP, size):
        return False
    at = R.get
    for a, b, c, d in {tuple(sorted(k)) for k in reps if len(set(k)) == 4}:
        x, y, z = at((a, b, c, d), 0), at((a, c, d, b), 0), at((a, d, b, c), 0)
        if (x.numerator * y.denominator * z.denominator + y.numerator * x.denominator
                * z.denominator + z.numerator * x.denominator * y.denominator):
            return False
    return True


def _is_antisymmetric(T, group) -> bool:
    """Whether the exact nonzero entries T (or dT1, with ``_DT1_GROUP``)
    are totally antisymmetric in their form slots, the last three."""
    reps = [k for k in T if k[-3] < k[-2] < k[-1]]
    return _is_completion(T, reps, group, 6 * len(reps))


# the positions whose tested relations read a given entry of R: the entry,
# its two pair swaps, its pair exchange and its two Bianchi preimages; of T:
# the entry and its two transpositions
_R_READERS = tuple(itemgetter(*p) for p in ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2),
                                            (2, 3, 0, 1), (0, 3, 1, 2), (0, 2, 3, 1)))
_T_READERS = tuple(itemgetter(*p) for p in ((0, 1, 2), (1, 0, 2), (0, 2, 1)))


def _riemann_scan(R: Dict[Tuple[int, ...], int], limit: int) -> List[str]:
    """The violated pair symmetries and Bianchi sums of the int entries R,
    in lexicographic order of position, at most ``limit`` (>= 1) of them.

    It only names violations, after ``_is_curvature`` found one: every
    relation tested holds trivially where all its entries are zero, so the
    positions scanned, in sorted order, are those whose relations read a
    nonzero entry."""
    at = R.get
    out: List[str] = []
    for a, b, c, d in sorted({get(key) for key in R for get in _R_READERS}):
        x = at((a, b, c, d), 0)
        if x != -at((b, a, c, d), 0):
            out.append(f"R pair antisymmetry (first pair) at ({a},{b},{c},{d})")
        if x != -at((a, b, d, c), 0):
            out.append(f"R pair antisymmetry (second pair) at ({a},{b},{c},{d})")
        if x != at((c, d, a, b), 0):
            out.append(f"R pair-exchange symmetry at ({a},{b},{c},{d})")
        if x + at((a, c, d, b), 0) + at((a, d, b, c), 0):
            out.append(f"first Bianchi identity at ({a},{b},{c},{d})")
        if len(out) >= limit:
            return out
    return out


def _antisym3_scan(T: Dict[Tuple[int, ...], int], name: str, limit: int) -> List[str]:
    """The positions where the int entries T are not totally antisymmetric,
    in lexicographic order, at most ``limit`` (>= 1) of them.  As
    ``_riemann_scan``, it only names violations, after ``_is_antisymmetric``
    found one."""
    at = T.get
    out: List[str] = []
    for a, j, l in sorted({get(key) for key in T for get in _T_READERS}):
        x = at((a, j, l), 0)
        if x != -at((j, a, l), 0) or x != -at((a, l, j), 0):
            out.append(f"{name} total antisymmetry at ({a},{j},{l})")
            if len(out) >= limit:
                return out
    return out


def _inexact(name: str, values, keys) -> List[str]:
    """A violation for each of the values that is not an exact rational
    (an int or a Fraction), named by its index tuple in ``keys``."""
    if {int, Fraction}.issuperset(map(type, values)):
        return []
    return [f"{name} entry at ({','.join(map(str, key))}) is not an exact rational: {x!r}"
            for key, x in zip(keys, values) if not isinstance(x, (int, Fraction))]


_ROW_TYPES = frozenset((tuple, list))


def _flat(row, n: int) -> bool:
    """Whether ``row`` is a tuple or list of n entries, none of them a row."""
    return type(row) in _ROW_TYPES and len(row) == n and _ROW_TYPES.isdisjoint(map(type, row))


def _indexed(keys, n: int, rank: int) -> bool:
    """Whether every key is a tuple of ``rank`` ints in 0..n-1."""
    flat = chain.from_iterable
    return ({tuple} >= set(map(type, keys)) and {rank} >= set(map(len, keys))
            and {int} >= set(map(type, flat(keys))) and set(range(n)) >= set(flat(keys)))


def _map_faults(name: str, entries, n: int, rank: int) -> List[str]:
    """The faults of a channel map, each named, in an order that does not
    depend on the map's: not a dict, keys that are not tuples of ``rank``
    ints in 0..n-1, values that are not exact rationals, stored zeros."""
    if type(entries) is not dict:
        return [f"{name} is not a dict of index tuples to values: {type(entries).__name__}"]
    keys = entries.keys()
    if not _indexed(keys, n, rank):
        return [f"{name} key {key!r} is not a tuple of {rank} indices in 0..{n - 1}"
                for key in sorted(keys, key=repr) if type(key) is not tuple or len(key) != rank
                or not all(type(i) is int and 0 <= i < n for i in key)]
    if {int, Fraction}.issuperset(map(type, entries.values())) and all(entries.values()):
        return []
    keys = sorted(keys)
    return [*_inexact(name, [entries[key] for key in keys], keys),
            *(f"{name} entry at ({','.join(map(str, key))}) is a stored zero"
              for key in keys if entries[key] == 0)]


def _well_formed(entries, n: int, rank: int) -> bool:
    """Whether a channel map is a dict of tuples of ``rank`` ints in 0..n-1
    to ints and Fractions."""
    return (type(entries) is dict and _indexed(entries.keys(), n, rank)
            and {int, Fraction}.issuperset(map(type, entries.values())))


def validate_symmetries(jet: PointJet) -> ValidationReport:
    """Check every PointJet invariant; name each violated identity.

    Each channel is first decided at a cost that follows its nonzero
    entries (``_is_curvature``, ``_is_antisymmetric``), reading no
    completion table.  Only where that fails is a channel map with a fault
    (see ``_map_faults``) named, and then no symmetry is scanned; otherwise
    each channel that failed is scanned in ints, and its violations named.
    Each v, w or dw entry that is not an exact rational (an int or a
    Fraction) is named too."""
    n = jet.n
    R, T, dT1 = jet.R_entries, jet.T_entries, jet.dT1_entries
    decided = (_well_formed(R, n, 4) and _is_curvature(R),
               _well_formed(T, n, 3) and _is_antisymmetric(T, _T_GROUP),
               _well_formed(dT1, n, 4) and _is_antisymmetric(dT1, _DT1_GROUP))
    violations = [] if all(decided) else [*_map_faults("R", R, n, 4), *_map_faults("T", T, n, 3),
                                          *_map_faults("dT1", dT1, n, 4)]
    if not violations:
        if not decided[0]:
            violations.extend(_riemann_scan(_integer_form(R)[0], 20))
        if not decided[1]:
            violations.extend(_antisym3_scan(_integer_form(T)[0], "T", 20))
        if not decided[2]:
            by_slot: Dict[int, Dict[Tuple[int, ...], int]] = {}
            for key, x in _integer_form(dT1)[0].items():
                by_slot.setdefault(key[0], {})[key[1:]] = x
            for b in sorted(by_slot):
                violations.extend(_antisym3_scan(by_slot[b], f"dT1[{b}]", 3))
    if not (_flat(jet.v, n) and _flat(jet.w, n) and type(jet.dw) in _ROW_TYPES
            and len(jet.dw) == n and all(_flat(row, n) for row in jet.dw)):
        violations.append("v/w/dw dimension mismatch")
    else:
        violations.extend(_inexact("v", jet.v, product(range(n))))
        violations.extend(_inexact("w", jet.w, product(range(n))))
        violations.extend(_inexact("dw", [*chain(*jet.dw)], product(range(n), repeat=2)))
    return ValidationReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# serialization (the CLI's JSON instance format; indices 1-based on disk)
# ---------------------------------------------------------------------------

def jet_to_dict(jet: PointJet) -> dict:
    """The instance JSON of ``jet``: of each orbit of nonzero R, T and dT1
    entries, the representative with increasing pairs (R) or form slots,
    in lexicographic order; dT1 entries are ordered by their form slots
    first."""
    R, T, dT1 = jet.R_entries, jet.T_entries, jet.dT1_entries

    def listed(entries, keys):
        return [[*(i + 1 for i in key), format_rational(entries[key])] for key in keys]
    return {
        "schema": "wres-torsion-instance-v1",
        "n": jet.n,
        "R": listed(R, sorted(k for k in R if k[0] < k[1] and k[2] < k[3] and k[:2] <= k[2:])),
        "T": listed(T, sorted(k for k in T if k[0] < k[1] < k[2])),
        "dT1": listed(dT1, sorted((k for k in dT1 if k[1] < k[2] < k[3]),
                                  key=lambda k: (k[1:], k[0]))),
        "v": [format_rational(x) for x in jet.v],
        "w": [format_rational(x) for x in jet.w],
        "dw": [[format_rational(x) for x in row] for row in jet.dw],
    }


def jet_from_dict(data: dict) -> PointJet:
    """Parse and symmetry-complete a serialized instance.

    Sparse R/T/dT1 entries are completed by symmetry; entries whose orbits
    collide with a different value are rejected, as is any tensor that fails
    validation after completion.  A missing or null R, T, dT1 or dw is
    empty; any other malformed value raises InstanceError naming the field.
    """
    try:
        raw_n = data["n"]
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"missing or invalid field 'n': {exc}") from None
    n = _integer(raw_n, "field 'n'")
    if n % 2 or n // 2 not in SUPPORTED_M:
        raise InstanceError(f"unsupported dimension n={n}")

    def sparse(name, indices):
        return _complete(name, _entries(data.get(name), name, indices,
                                        lambda i: _index(i, n, name)), n)
    dw = data.get("dw")
    return _admissible(_point_jet(
        n // 2, sparse("R", 4), sparse("T", 3), sparse("dT1", 4),
        _vector(data.get("v"), n, "v"), _vector(data.get("w"), n, "w"),
        _dense({}, n, 2) if dw is None else _matrix(dw, n)))


def _parsed(raw) -> Fraction:
    return parse_rational(str(raw))


def _entries(raw, name: str, indices: int, index, convert=_parsed):
    """The sparse entries [i_1, .., i_k, value] of one tensor field (a list
    or tuple of lists or tuples), as the index tuple that ``index`` reads
    and the exact value that ``convert`` reads (see ``_rational``); None is
    empty."""
    if raw is None:
        return
    if not isinstance(raw, (list, tuple)):
        raise InstanceError(f"{name} must be a list of entries")
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == indices + 1):
            raise _entry_error(name, entry, indices)
        yield tuple(map(index, entry[:indices])), _rational(entry[indices], name, convert)


def _entry_error(name: str, entry, indices: int) -> InstanceError:
    return InstanceError(f"{name} entry {entry!r} must be a list of "
                         f"{indices} indices and a value")


def _integer(raw, what: str) -> int:
    """An integral number or integer string; booleans and fractional
    numbers are rejected rather than truncated."""
    if not isinstance(raw, bool):
        try:
            i = int(raw)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if isinstance(raw, str) or i == raw:
                return i
    raise InstanceError(f"{what} {raw!r} is not an integer")


def _index(raw, n: int, name: str) -> int:
    i = _integer(raw, f"{name} index")
    if not 1 <= i <= n:
        raise InstanceError(f"{name} index {i} outside 1..{n}")
    return i - 1


def _rational(raw, name: str, convert=_parsed) -> Fraction:
    """``convert(raw)``; InstanceError naming the field if it fails."""
    try:
        return convert(raw)
    except (TypeError, ValueError, ArithmeticError):
        raise InstanceError(f"{name} value {raw!r} is not an exact rational") from None


def _vector(raw, n: int, name: str, convert=_parsed) -> Vec:
    """A dense length-n list or tuple of values that ``convert`` reads."""
    if not (isinstance(raw, (list, tuple)) and len(raw) == n):
        raise InstanceError(f"{name} must be a dense length-{n} array")
    return tuple(_rational(x, name, convert) for x in raw)


def _matrix(raw, n: int, convert=_parsed) -> Mat2:
    """dw: a dense n x n list or tuple of rows of values that ``convert`` reads."""
    if not (isinstance(raw, (list, tuple)) and len(raw) == n and all(
            isinstance(row, (list, tuple)) and len(row) == n for row in raw)):
        raise InstanceError(f"dw must be a dense {n}x{n} matrix")
    return tuple(tuple(_rational(x, "dw", convert) for x in row) for row in raw)
