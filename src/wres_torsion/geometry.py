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
small (|numerator| and denominator of raw channel entries <= MAX_MAGNITUDE)
so downstream exact arithmetic stays fast, and builds the curvature tensor
as a sum of Kulkarni-Nomizu squares of random symmetric 2-tensors, which
enforces the pair symmetries and the first Bianchi identity by construction.
The validator re-checks every identity independently.

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

from .numerics import _integer_form, format_rational, parse_rational

MAX_MAGNITUDE = 9

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

    @property
    def derived(self) -> DerivedScalars:
        """``derived_scalars(self)``, kept outside the fields (==, hash and repr ignore
        it) from the first read until the module's ``derived_scalars`` is rebound."""
        kept = self.__dict__.get("derived")
        if kept is None or kept[0] is not derived_scalars:
            kept = self.__dict__["derived"] = (derived_scalars, derived_scalars(self))
        return kept[1]


@dataclass(frozen=True)
class DerivedScalars:
    """Contractions of a PointJet used by the closed-form densities."""

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


def _one_based(index: Tuple[int, ...]) -> str:
    return "(" + ",".join(str(i + 1) for i in index) + ")"


def _complete(name: str, entries, n: int) -> Entries:
    """Index -> value for the nonzero entries of channel ``name`` ("R",
    "T" or "dT1"), completed over the channel's images from sparse
    (0-based index tuple, exact value) pairs; keys are ``_INDICES``' tuples.

    Raises InstanceError where an index lies outside 0..n-1, where two
    images of the entries disagree, and on a nonzero torsion entry with a
    repeated form index (a zero one is skipped)."""
    images = _IMAGES[name]
    lead = 1 if name == "dT1" else 0      # dT1's derivative slot is not a form slot
    out: Entries = {}
    for index, val in entries:
        label = f"dT1[{index[0] + 1}]" if lead else name
        if not all(0 <= i < n for i in index):
            raise InstanceError(f"{name} index {index} outside 0..{n - 1}")
        if name != "R" and len(set(index[lead:])) < 3:
            if val:
                raise InstanceError(f"{label} entry with repeated index "
                                    f"{_one_based(index[lead:])} must be zero")
            continue
        orbit: Dict[Tuple[int, ...], int] = {}
        for get, sign in images:
            orbit.setdefault(get(index), sign)
        neg = -val
        for key, sign in orbit.items():
            value = val if sign > 0 else neg
            if out.setdefault(_INDICES.setdefault(key, key), value) != value:
                kind = "symmetry" if name == "R" else "antisymmetry"
                raise InstanceError(f"{label} entries conflict by {kind} "
                                    f"at {_one_based(key[lead:])}")
    return {key: x for key, x in out.items() if x}


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

def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


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
                h[i, j] = h[j, i] = _small_rational(rng)
        # the sum of the Kulkarni-Nomizu squares of the h (up to overall
        # scale), on one representative a < b, c < d, (a, b) <= (c, d) per orbit
        R = _complete("R", (
            ((a, b, c, d), sum(h[a, c] * h[b, d] - h[a, d] * h[b, c] for h in hs))
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


def _ricci(R: Entries) -> Tuple[Dict[Tuple[int, int], int], int]:
    """Ric_{bk} = sum_j R_{jbjk} times the common denominator of the
    nonzero entries R, and that denominator; raises ValueError if R
    violates the pair symmetries (the contraction convention is only
    meaningful on an admissible tensor)."""
    entries, den = _integer_form(R)
    problems = _riemann_scan(entries, limit=1)
    if problems:
        raise ValueError(problems[0])
    ric: Dict[Tuple[int, int], int] = {}
    for (j, b, c, k), x in entries.items():
        if j == c:
            ric[b, k] = ric.get((b, k), 0) + x
    return ric, den


def _four_form(dT1: Dict[Tuple[int, ...], Fraction]) -> Dict[Tuple[int, ...], Fraction]:
    """dT from the nonzero dT1 entries, as its coordinates on strictly
    increasing quadruples i0 < i1 < i2 < i3 with a nonzero value:
    (dT)_{i0 i1 i2 i3} = sum_r (-1)^r dT1[i_r][the other three, increasing],
    so only entries with an increasing form triple and a distinct
    derivative slot contribute."""
    alt: Dict[Tuple[int, ...], Fraction] = {}
    for (b, a, j, l), x in dT1.items():
        if a < j < l and b not in (a, j, l):
            key = tuple(sorted((b, a, j, l)))
            alt[key] = alt.get(key, 0) + (-x if key.index(b) % 2 else x)
    return {key: x for key, x in alt.items() if x}


def derived_scalars(jet: PointJet) -> DerivedScalars:
    """The contractions of ``jet``, each summed over nonzero factors only,
    in ints over one common denominator per channel."""
    ric, d_r = _ricci(jet.R_entries)
    T, d_t = _integer_form(jet.T_entries)
    div, d_div = _integer_form({k: x for k, x in jet.dT1_entries.items() if k[0] == k[1]})
    dw, d_dw = _integer_form({(j, g): x for j, row in enumerate(jet.dw)
                              for g, x in enumerate(row) if x})
    (v, d_v), (w, d_w) = (_integer_form(dict(enumerate(vec))) for vec in (jet.v, jet.w))

    tv: Dict[Tuple[int, int], int] = {}
    tw: Dict[Tuple[int, int], int] = {}
    t_dw = 0
    for (a, j, l), x in T.items():
        if v[a]:
            tv[j, l] = tv.get((j, l), 0) + v[a] * x
            t_dw += v[a] * x * dw.get((l, j), 0)
        if w[a]:
            tw[j, l] = tw.get((j, l), 0) + w[a] * x
    tt_vw = sum(x * tw.get(jl, 0) for jl, x in tv.items())
    div_t_vw = sum(x * v[j] * w[l] for (_, _, j, l), x in div.items())

    s = Fraction(sum(x for (b, k), x in ric.items() if b == k), d_r)
    g_vw = Fraction(sum(x * w[a] for a, x in v.items()), d_v * d_w)
    ric_vw = Fraction(sum(v[a] * x * w[b] for (a, b), x in ric.items()),
                      d_v * d_r * d_w)
    return DerivedScalars(
        ric={bk: Fraction(x, d_r) for bk, x in ric.items() if x},
        s=s, dT4=_four_form(jet.dT1_entries),
        norm_t2=Fraction(sum(x * x for (a, j, l), x in T.items() if a < j < l),
                         d_t * d_t),
        g_vw=g_vw, ric_vw=ric_vw,
        einstein_vw=ric_vw - s * g_vw / 2,
        tt_vw=Fraction(tt_vw, d_v * d_w * d_t * d_t),
        div_t_vw=Fraction(div_t_vw, d_div * d_v * d_w),
        t_dw=Fraction(t_dw, d_v * d_t * d_dw),
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# the positions whose tested relations read a given entry of R: the entry,
# its two pair swaps, its pair exchange and its two Bianchi preimages; of T:
# the entry and its two transpositions
_R_READERS = tuple(itemgetter(*p) for p in ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2),
                                            (2, 3, 0, 1), (0, 3, 1, 2), (0, 2, 3, 1)))
_T_READERS = tuple(itemgetter(*p) for p in ((0, 1, 2), (1, 0, 2), (0, 2, 1)))


def _riemann_scan(R: Dict[Tuple[int, ...], int], limit: int) -> List[str]:
    """The violated pair symmetries and Bianchi sums of the int entries R,
    in lexicographic order of position, at most ``limit`` (>= 1) of them.

    Every relation tested holds trivially where all its entries are zero,
    so one pass over the nonzero entries decides whether any fails; only
    then are the positions whose relations read a nonzero entry named, in
    sorted order."""
    at = R.get
    if all(x == -at((b, a, c, d), 0) and x == -at((a, b, d, c), 0)
           and x == at((c, d, a, b), 0)
           and not x + at((a, c, d, b), 0) + at((a, d, b, c), 0)
           for (a, b, c, d), x in R.items()):
        return []
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
    in lexicographic order, at most ``limit`` (>= 1) of them; decided first
    over the nonzero entries, as in ``_riemann_scan``."""
    at = T.get
    if all(x == -at((j, a, l), 0) and x == -at((a, l, j), 0) for (a, j, l), x in T.items()):
        return []
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


def _map_faults(name: str, entries, n: int, rank: int) -> List[str]:
    """The faults of a channel map, each named, in an order that does not
    depend on the map's: not a dict, keys that are not tuples of ``rank``
    ints in 0..n-1, values that are not exact rationals, stored zeros."""
    if type(entries) is not dict:
        return [f"{name} is not a dict of index tuples to values: {type(entries).__name__}"]
    keys, flat = entries.keys(), chain.from_iterable
    if not ({tuple} >= set(map(type, keys)) and {rank} >= set(map(len, keys))
            and {int} >= set(map(type, flat(keys))) and set(range(n)) >= set(flat(keys))):
        return [f"{name} key {key!r} is not a tuple of {rank} indices in 0..{n - 1}"
                for key in sorted(keys, key=repr) if type(key) is not tuple or len(key) != rank
                or not all(type(i) is int and 0 <= i < n for i in key)]
    if {int, Fraction}.issuperset(map(type, entries.values())) and all(entries.values()):
        return []
    keys = sorted(keys)
    return [*_inexact(name, [entries[key] for key in keys], keys),
            *(f"{name} entry at ({','.join(map(str, key))}) is a stored zero"
              for key in keys if entries[key] == 0)]


def validate_symmetries(jet: PointJet) -> ValidationReport:
    """Check every PointJet invariant; name each violated identity.  A
    channel map with a fault (see ``_map_faults``) is named, and then no
    symmetry is scanned; each v, w or dw entry that is not an exact
    rational (an int or a Fraction) is named too."""
    n = jet.n
    violations = [*_map_faults("R", jet.R_entries, n, 4), *_map_faults("T", jet.T_entries, n, 3),
                  *_map_faults("dT1", jet.dT1_entries, n, 4)]
    if not violations:
        violations.extend(_riemann_scan(_integer_form(jet.R_entries)[0], 20))
        violations.extend(_antisym3_scan(_integer_form(jet.T_entries)[0], "T", 20))
        by_slot: Dict[int, Dict[Tuple[int, ...], int]] = {}
        for key, x in _integer_form(jet.dT1_entries)[0].items():
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
