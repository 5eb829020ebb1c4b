"""Geometric data at one point in normal coordinates, with exact generators.

A ``PointJet`` holds everything the symbol builders consume at the base
point x0 of a normal coordinate chart on an n = 2m dimensional manifold:

* ``R[a][b][c][d]``   Riemann components R_{abcd} (orthonormal frame),
* ``T[a][j][l]``      components of the totally antisymmetric torsion 3-form,
* ``dT1[b][a][j][l]`` first coordinate jet of T at x0 (derivative slot first);
  since Christoffel symbols vanish at x0 this is simultaneously the covariant
  derivative (nabla_{e_b} T)(e_a, e_j, e_l),
* ``v``, ``w``        the two vector fields contracted into the functionals,
* ``dw[j][g]``        the first jet of w (d w_g / d x_j at x0); v carries no
  stored jet because no step of the density pipeline differentiates it.

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

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import (chain, combinations, combinations_with_replacement, compress,
                       permutations, product)
from operator import itemgetter
from typing import Dict, List, Tuple

from .numerics import _integer_form, format_rational, parse_rational

MAX_MAGNITUDE = 9

SUPPORTED_M = (1, 2, 3)

Vec = Tuple[Fraction, ...]
Mat2 = Tuple[Vec, ...]
Ten3 = Tuple[Mat2, ...]
Ten4 = Tuple[Ten3, ...]


@dataclass(frozen=True)
class PointJet:
    m: int
    R: Ten4
    T: Ten3
    dT1: Ten4
    v: Vec
    w: Vec
    dw: Mat2

    @property
    def n(self) -> int:
        return 2 * self.m

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

    ric: Mat2                 # Ric_{bk} = sum_j R_{jbjk}
    s: Fraction               # scalar curvature
    dT4: Ten4                 # exterior derivative of T as a 4-form at x0
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


def _one_based(index: Tuple[int, ...]) -> str:
    return "(" + ",".join(str(i + 1) for i in index) + ")"


def _complete(name: str, entries, n: int) -> Dict[Tuple[int, ...], Fraction]:
    """Index -> value for the nonzero entries of channel ``name`` ("R",
    "T" or "dT1"), completed over the channel's images from sparse
    (0-based index tuple, exact value) pairs.

    Raises InstanceError where an index lies outside 0..n-1, where two
    images of the entries disagree, and on a nonzero torsion entry with a
    repeated form index (a zero one is skipped)."""
    images = _IMAGES[name]
    lead = 1 if name == "dT1" else 0      # dT1's derivative slot is not a form slot
    out: Dict[Tuple[int, ...], Fraction] = {}
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
        for key, sign in orbit.items():
            value = val if sign > 0 else -val
            if out.setdefault(key, value) != value:
                kind = "symmetry" if name == "R" else "antisymmetry"
                raise InstanceError(f"{label} entries conflict by {kind} "
                                    f"at {_one_based(key[lead:])}")
    return {key: x for key, x in out.items() if x}


def _point_jet(m: int, R, T, dT1, v, w, dw) -> PointJet:
    """The jet with the completed channels R, T, dT1 (index -> value) and
    the dense v, w and dw."""
    n = 2 * m
    return PointJet(m=m, R=_dense(R, n, 4), T=_dense(T, n, 3), dT1=_dense(dT1, n, 4),
                    v=tuple(v), w=tuple(w), dw=tuple(map(tuple, dw)))


def _admissible(jet: PointJet) -> PointJet:
    report = validate_symmetries(jet)
    if not report.ok:
        raise InstanceError(report.violations[0])
    return jet


# ---------------------------------------------------------------------------
# construction: random, from sparse entries, zero
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


def zero_point_jet(m: int) -> PointJet:
    """The all-zero jet: flat, torsion-free, with v = w = 0 and dw = 0."""
    return make_point_jet(m)


def make_point_jet(m: int, *, R=None, T=None, dT1=None, v=None, w=None,
                   dw=None) -> PointJet:
    """Build an admissible jet from sparse channel entries (indices 0-based).

    R entries are [a, b, c, d, value], T entries [a, j, l, value] and dT1
    entries [b, a, j, l, value]; each channel is completed over its
    symmetry images, as in ``jet_from_dict``.  Conflicting entries, a
    nonzero torsion entry with a repeated index and a jet that fails
    ``validate_symmetries`` raise InstanceError with ``jet_from_dict``'s
    message; an unsupported m raises ValueError.
    """
    _check_supported(m)
    n = 2 * m

    def sparse(entries):
        return ((tuple(index), Fraction(x)) for *index, x in entries or ())
    return _admissible(_point_jet(
        m, _complete("R", sparse(R), n), _complete("T", sparse(T), n),
        _complete("dT1", sparse(dT1), n),
        map(Fraction, v or [0] * n), map(Fraction, w or [0] * n),
        [map(Fraction, row) for row in dw] if dw else _dense({}, n, 2)))


# ---------------------------------------------------------------------------
# derived quantities: contractions over the nonzero entries of each channel
# ---------------------------------------------------------------------------

def _nonzero(tensor) -> Dict[Tuple[int, ...], Fraction]:
    """Index tuple -> value for the nonzero entries of a nested tensor."""
    shape = []
    cell = tensor
    while isinstance(cell, (tuple, list)) and cell:
        shape.append(len(cell))
        cell = cell[0]
    flat = tensor
    for _ in shape[1:]:
        flat = chain.from_iterable(flat)
    flat = list(flat)
    if len(flat) != math.prod(shape):
        raise ValueError(f"tensor is not of shape {tuple(shape)}")
    return dict(compress(zip(product(*map(range, shape)), flat), flat))


def _dense(entries: Dict[Tuple[int, ...], Fraction], n: int, rank: int):
    """The nested-tuple tensor over range(n)^rank holding ``entries`` and
    Fraction(0) elsewhere; every all-zero sub-tensor is one shared tuple."""
    zeros = [Fraction(0)]
    for _ in range(rank):
        zeros.append((zeros[-1],) * n)
    prefixes = {key[:k] for key in entries for k in range(rank)}

    def build(prefix):
        depth = rank - len(prefix)
        if prefix not in prefixes:
            return zeros[depth]
        if depth == 1:
            return tuple(entries.get(prefix + (i,), zeros[0]) for i in range(n))
        return tuple(build(prefix + (i,)) for i in range(n))
    return build(())


def _ricci(R) -> Tuple[Dict[Tuple[int, int], int], int]:
    """Ric_{bk} = sum_j R_{jbjk} times the common denominator of R, and
    that denominator; raises ValueError if R violates the pair symmetries
    (the contraction convention is only meaningful on an admissible
    tensor)."""
    entries, den = _integer_form(_nonzero(R))
    problems = _riemann_scan(entries, limit=1)
    if problems:
        raise ValueError(problems[0])
    ric: Dict[Tuple[int, int], int] = {}
    for (j, b, c, k), x in entries.items():
        if j == c:
            ric[b, k] = ric.get((b, k), 0) + x
    return ric, den


def ricci_scalar(R: Ten4) -> Tuple[Mat2, Fraction]:
    """Ric_{bk} = sum_j R_{jbjk} and s = sum_b Ric_{bb}.

    Raises ValueError if R violates the pair symmetries (the contraction
    convention is only meaningful on an admissible tensor).
    """
    ric, den = _ricci(R)
    return _ricci_fractions(ric, den, len(R))


def _ricci_fractions(ric: Dict[Tuple[int, int], int], den: int,
                     n: int) -> Tuple[Mat2, Fraction]:
    s = Fraction(sum(x for (b, k), x in ric.items() if b == k), den)
    return _dense({bk: Fraction(x, den) for bk, x in ric.items() if x}, n, 2), s


# the 24 reorderings of four slots, as getters, and whether each is even
# (the sign of a permutation is the sign of its Vandermonde product)
_SIGNED_PERMS4 = tuple(
    (itemgetter(*perm), math.prod(q - p for p, q in combinations(perm, 2)) > 0)
    for perm in permutations(range(4)))


def dT_four_form(dT1: Ten4) -> Ten4:
    """(dT)_{ijkt} by alternation of the coordinate jet at x0."""
    return _four_form(_nonzero(dT1), len(dT1))


def _four_form(dT1: Dict[Tuple[int, ...], Fraction], n: int) -> Ten4:
    """dT from the nonzero dT1 entries: for i0 < i1 < i2 < i3,
    (dT)_{i0 i1 i2 i3} = sum_r (-1)^r dT1[i_r][the other three, increasing],
    so only entries with an increasing form triple and a distinct
    derivative slot contribute."""
    alt: Dict[Tuple[int, ...], Fraction] = {}
    for (b, a, j, l), x in dT1.items():
        if a < j < l and b not in (a, j, l):
            key = tuple(sorted((b, a, j, l)))
            alt[key] = alt.get(key, 0) + (-x if key.index(b) % 2 else x)
    out = {}
    for key, val in alt.items():
        if val:
            neg = -val
            for get, even in _SIGNED_PERMS4:
                out[get(key)] = val if even else neg
    return _dense(out, n, 4)


def torsion_norm_sq(T: Ten3) -> Fraction:
    """Sum of T_{ajl}^2 over strictly increasing triples a < j < l."""
    return sum((x * x for (a, j, l), x in _nonzero(T).items() if a < j < l),
               Fraction(0))


def derived_scalars(jet: PointJet) -> DerivedScalars:
    """The contractions of ``jet``, each summed over nonzero factors only,
    in ints over one common denominator per channel."""
    n = jet.n
    ric, d_r = _ricci(jet.R)
    T, d_t = _integer_form(_nonzero(jet.T))
    dT1 = _nonzero(jet.dT1)
    div, d_div = _integer_form({k: x for k, x in dT1.items() if k[0] == k[1]})
    dw, d_dw = _integer_form(_nonzero(jet.dw))
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

    ric_mat, s = _ricci_fractions(ric, d_r, n)
    g_vw = Fraction(sum(x * w[a] for a, x in v.items()), d_v * d_w)
    ric_vw = Fraction(sum(v[a] * x * w[b] for (a, b), x in ric.items()),
                      d_v * d_r * d_w)
    return DerivedScalars(
        ric=ric_mat, s=s, dT4=_four_form(dT1, n),
        norm_t2=torsion_norm_sq(jet.T), g_vw=g_vw, ric_vw=ric_vw,
        einstein_vw=ric_vw - s * g_vw / 2,
        tt_vw=Fraction(tt_vw, d_v * d_w * d_t * d_t),
        div_t_vw=Fraction(div_t_vw, d_div * d_v * d_w),
        t_dw=Fraction(t_dw, d_v * d_t * d_dw),
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _riemann_violations(R: Ten4, limit: int = 20) -> List[str]:
    return _riemann_scan(_integer_form(_nonzero(R))[0], limit)


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


def _antisym3_violations(T, name: str, limit: int = 20) -> List[str]:
    """The positions where T is not totally antisymmetric, in lexicographic
    order, at most ``limit`` (>= 1) of them; decided first over the
    nonzero entries, as in ``_riemann_scan``."""
    entries = _integer_form(_nonzero(T))[0]
    at = entries.get
    if all(x == -at((j, a, l), 0) and x == -at((a, l, j), 0)
           for (a, j, l), x in entries.items()):
        return []
    out: List[str] = []
    for a, j, l in sorted({get(key) for key in entries for get in _T_READERS}):
        x = at((a, j, l), 0)
        if x != -at((j, a, l), 0) or x != -at((a, l, j), 0):
            out.append(f"{name} total antisymmetry at ({a},{j},{l})")
            if len(out) >= limit:
                return out
    return out


def validate_symmetries(jet: PointJet) -> ValidationReport:
    """Check every PointJet invariant; name each violated identity."""
    violations: List[str] = []
    n = jet.n
    if len(jet.R) != n:
        violations.append(f"R has dimension {len(jet.R)}, expected {n}")
    violations.extend(_riemann_violations(jet.R))
    violations.extend(_antisym3_violations(jet.T, "T"))
    for b in range(n):
        violations.extend(_antisym3_violations(jet.dT1[b], f"dT1[{b}]", limit=3))
    if len(jet.v) != n or len(jet.w) != n or len(jet.dw) != n:
        violations.append("v/w/dw dimension mismatch")
    return ValidationReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# serialization (the CLI's JSON instance format; indices 1-based on disk)
# ---------------------------------------------------------------------------

def jet_to_dict(jet: PointJet) -> dict:
    """The instance JSON of ``jet``: of each orbit of nonzero R, T and dT1
    entries, the representative with increasing pairs (R) or form slots,
    in lexicographic order; dT1 entries are ordered by their form slots
    first."""
    R, T, dT1 = (_nonzero(x) for x in (jet.R, jet.T, jet.dT1))

    def listed(entries, keys):
        return [[*(i + 1 for i in key), format_rational(entries[key])] for key in keys]
    return {
        "schema": "wres-torsion-instance-v1",
        "n": jet.n,
        "R": listed(R, [k for k in R if k[0] < k[1] and k[2] < k[3] and k[:2] <= k[2:]]),
        "T": listed(T, [k for k in T if k[0] < k[1] < k[2]]),
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
    R = _complete("R", _entries(data, "R", 4, n), n)
    T = _complete("T", _entries(data, "T", 3, n), n)
    dT1 = _complete("dT1", _entries(data, "dT1", 4, n), n)
    v = _vector(data.get("v"), n, "v")
    w = _vector(data.get("w"), n, "w")
    dw = data.get("dw")
    if dw is None:
        dw = [[0] * n] * n
    if not (isinstance(dw, list) and len(dw) == n and all(
            isinstance(row, list) and len(row) == n for row in dw)):
        raise InstanceError(f"dw must be a dense {n}x{n} matrix")
    return _admissible(_point_jet(n // 2, R, T, dT1, v, w,
                                  [[_rational(x, "dw") for x in row] for row in dw]))


def _entries(data: dict, name: str, indices: int, n: int):
    """The sparse entries [i_1, .., i_k, value] of one tensor field, as a
    0-based index tuple and an exact value; a missing or null field is
    empty."""
    raw = data.get(name)
    if raw is None:
        raw = []
    if not isinstance(raw, list):
        raise InstanceError(f"{name} must be a list of entries")
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == indices + 1):
            raise InstanceError(f"{name} entry {entry!r} must be a list of "
                                f"{indices} indices and a value")
        yield (tuple(_index(x, n, name) for x in entry[:indices]),
               _rational(entry[indices], name))


def _integer(raw, what: str) -> int:
    """An integral JSON number or integer string; booleans and fractional
    numbers are rejected rather than truncated."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise InstanceError(f"{what} {raw!r} is not an integer")
    try:
        return int(raw)
    except (TypeError, ValueError, OverflowError):
        raise InstanceError(f"{what} {raw!r} is not an integer") from None


def _index(raw, n: int, name: str) -> int:
    i = _integer(raw, f"{name} index")
    if not 1 <= i <= n:
        raise InstanceError(f"{name} index {i} outside 1..{n}")
    return i - 1


def _rational(raw, name: str) -> Fraction:
    try:
        return parse_rational(str(raw))
    except (ValueError, ZeroDivisionError):
        raise InstanceError(f"{name} value {raw!r} is not an exact rational") from None


def _vector(raw, n: int, name: str) -> Vec:
    if not (isinstance(raw, list) and len(raw) == n):
        raise InstanceError(f"{name} must be a dense length-{n} array")
    return tuple(_rational(x, name) for x in raw)
