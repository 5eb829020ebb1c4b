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
from itertools import permutations
from typing import Dict, List, Tuple

from .numerics import format_rational, parse_rational

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
# random generation
# ---------------------------------------------------------------------------

def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _zeros(*shape: int):
    if len(shape) == 1:
        return [Fraction(0)] * shape[0]
    return [_zeros(*shape[1:]) for _ in range(shape[0])]


def _freeze(data):
    if isinstance(data, list):
        return tuple(_freeze(x) for x in data)
    return data


def random_point_jet(seed: int, m: int, *, with_curvature: bool = True,
                     with_torsion: bool = True, with_torsion_jet: bool = True,
                     with_w_jet: bool = True) -> PointJet:
    """Deterministic admissible jet for (seed, m); channels can be zeroed."""
    if m not in SUPPORTED_M:
        raise ValueError(f"unsupported half-dimension m={m}; supported: {SUPPORTED_M}")
    n = 2 * m
    rng = random.Random(f"wres:{seed}:{m}")

    R = _zeros(n, n, n, n)
    if with_curvature:
        for _ in range(rng.randint(2, 4)):
            h = _zeros(n, n)
            for i in range(n):
                for j in range(i, n):
                    h[i][j] = h[j][i] = _small_rational(rng)
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        for d in range(n):
                            # Kulkarni-Nomizu square of h (up to overall scale)
                            R[a][b][c][d] += h[a][c] * h[b][d] - h[a][d] * h[b][c]

    T = _zeros(n, n, n)
    if with_torsion:
        for a in range(n):
            for j in range(a + 1, n):
                for l in range(j + 1, n):
                    _set_antisym3(T, a, j, l, _small_rational(rng))

    dT1 = _zeros(n, n, n, n)
    if with_torsion_jet:
        for b in range(n):
            for a in range(n):
                for j in range(a + 1, n):
                    for l in range(j + 1, n):
                        _set_antisym3(dT1[b], a, j, l, _small_rational(rng))

    v = [_small_rational(rng) for _ in range(n)]
    w = [_small_rational(rng) for _ in range(n)]
    dw = _zeros(n, n)
    if with_w_jet:
        for j in range(n):
            for g in range(n):
                dw[j][g] = _small_rational(rng)

    return PointJet(m=m, R=_freeze(R), T=_freeze(T), dT1=_freeze(dT1),
                    v=tuple(v), w=tuple(w), dw=_freeze(dw))


def _set_antisym3(tensor, a: int, j: int, l: int, value: Fraction) -> None:
    for perm, sign in (
        ((a, j, l), 1), ((j, l, a), 1), ((l, a, j), 1),
        ((a, l, j), -1), ((j, a, l), -1), ((l, j, a), -1),
    ):
        p, q, r = perm
        tensor[p][q][r] = sign * value


def zero_point_jet(m: int) -> PointJet:
    return random_point_jet(0, m, with_curvature=False, with_torsion=False,
                            with_torsion_jet=False, with_w_jet=False)


def make_point_jet(m: int, *, R=None, T=None, dT1=None, v=None, w=None,
                   dw=None) -> PointJet:
    """Build a jet from sparse channel entries (indices 0-based).

    R entries are [a, b, c, d, value] and are completed over the pair
    symmetries; T entries [a, j, l, value] and dT1 entries [b, a, j, l, value]
    over total antisymmetry.  No validation is performed here.
    """
    n = 2 * m
    Rd = _zeros(n, n, n, n)
    for a, b, c, d, val in (R or ()):
        val = Fraction(val)
        for (p, q, r, s), sign in _riemann_orbit(a, b, c, d):
            Rd[p][q][r][s] = sign * val
    Td = _zeros(n, n, n)
    for a, j, l, val in (T or ()):
        _set_antisym3(Td, a, j, l, Fraction(val))
    dTd = _zeros(n, n, n, n)
    for b, a, j, l, val in (dT1 or ()):
        _set_antisym3(dTd[b], a, j, l, Fraction(val))
    vd = [Fraction(x) for x in (v or [0] * n)]
    wd = [Fraction(x) for x in (w or [0] * n)]
    dwd = [[Fraction(x) for x in row] for row in (dw or _zeros(n, n))]
    return PointJet(m=m, R=_freeze(Rd), T=_freeze(Td), dT1=_freeze(dTd),
                    v=tuple(vd), w=tuple(wd), dw=_freeze(dwd))


def _riemann_orbit(a: int, b: int, c: int, d: int):
    """Orbit of one R_{abcd} slot under the pair symmetries, with signs."""
    orbit: Dict[Tuple[int, int, int, int], int] = {}
    for (p, q, r, s), sign in (((a, b, c, d), 1), ((b, a, c, d), -1),
                               ((a, b, d, c), -1), ((b, a, d, c), 1)):
        for (pp, qq, rr, ss), sg in (((p, q, r, s), sign), ((r, s, p, q), sign)):
            orbit.setdefault((pp, qq, rr, ss), sg)
    return orbit.items()


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def ricci_scalar(R: Ten4) -> Tuple[Mat2, Fraction]:
    """Ric_{bk} = sum_j R_{jbjk} and s = sum_b Ric_{bb}.

    Raises ValueError if R violates the pair symmetries (the contraction
    convention is only meaningful on an admissible tensor).
    """
    n = len(R)
    problems = _riemann_violations(R, limit=1)
    if problems:
        raise ValueError(problems[0])
    ric = [[sum((R[j][b][j][k] for j in range(n)), Fraction(0))
            for k in range(n)] for b in range(n)]
    s = sum((ric[b][b] for b in range(n)), Fraction(0))
    return _freeze(ric), s


def dT_four_form(dT1: Ten4) -> Ten4:
    """(dT)_{ijkt} by alternation of the coordinate jet at x0."""
    n = len(dT1)
    out = _zeros(n, n, n, n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for t in range(k + 1, n):
                    val = (dT1[i][j][k][t] - dT1[j][i][k][t]
                           + dT1[k][i][j][t] - dT1[t][i][j][k])
                    if val:
                        for perm in permutations((0, 1, 2, 3)):
                            idx = [(i, j, k, t)[p] for p in perm]
                            out[idx[0]][idx[1]][idx[2]][idx[3]] = \
                                _perm_sign(perm) * val
    return _freeze(out)


def _perm_sign(perm) -> int:
    sign = 1
    seen = list(perm)
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            if seen[i] > seen[j]:
                sign = -sign
    return sign


def torsion_norm_sq(T: Ten3) -> Fraction:
    """Sum of T_{ajl}^2 over strictly increasing triples a < j < l."""
    n = len(T)
    total = Fraction(0)
    for a in range(n):
        for j in range(a + 1, n):
            for l in range(j + 1, n):
                total += T[a][j][l] * T[a][j][l]
    return total


def derived_scalars(jet: PointJet) -> DerivedScalars:
    n = jet.n
    ric, s = ricci_scalar(jet.R)
    g_vw = sum((jet.v[a] * jet.w[a] for a in range(n)), Fraction(0))
    ric_vw = sum((jet.v[a] * ric[a][b] * jet.w[b]
                  for a in range(n) for b in range(n)), Fraction(0))
    tt_vw = Fraction(0)
    for j in range(n):
        for l in range(n):
            tv = sum((jet.v[a] * jet.T[a][j][l] for a in range(n)), Fraction(0))
            tw = sum((jet.w[a] * jet.T[a][j][l] for a in range(n)), Fraction(0))
            tt_vw += tv * tw
    div_t_vw = sum((jet.dT1[a][a][j][l] * jet.v[j] * jet.w[l]
                    for a in range(n) for j in range(n) for l in range(n)),
                   Fraction(0))
    t_dw = sum((jet.v[a] * jet.T[a][g][j] * jet.dw[j][g]
                for a in range(n) for g in range(n) for j in range(n)),
               Fraction(0))
    return DerivedScalars(
        ric=ric, s=s, dT4=dT_four_form(jet.dT1),
        norm_t2=torsion_norm_sq(jet.T), g_vw=g_vw, ric_vw=ric_vw,
        einstein_vw=ric_vw - s * g_vw / 2, tt_vw=tt_vw,
        div_t_vw=div_t_vw, t_dw=t_dw,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _integer_entries(tensor):
    """The nested tensor times one common positive denominator, as ints.

    Scaling by a positive constant keeps every equality, sign and zero
    test, so the symmetry scans compare plain ints instead of building a
    ``Fraction`` per negation or Bianchi sum."""
    def leaves(t):
        return [y for x in t for y in leaves(x)] if isinstance(t, (tuple, list)) else [t]

    den = math.lcm(*{x.denominator for x in leaves(tensor)})

    def scale(t):
        if isinstance(t, (tuple, list)):
            return [scale(x) for x in t]
        return t.numerator * (den // t.denominator)
    return scale(tensor)


def _riemann_violations(R: Ten4, limit: int = 20) -> List[str]:
    n = len(R)
    R = _integer_entries(R)
    out: List[str] = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if R[a][b][c][d] != -R[b][a][c][d]:
                        out.append(f"R pair antisymmetry (first pair) at ({a},{b},{c},{d})")
                    if R[a][b][c][d] != -R[a][b][d][c]:
                        out.append(f"R pair antisymmetry (second pair) at ({a},{b},{c},{d})")
                    if R[a][b][c][d] != R[c][d][a][b]:
                        out.append(f"R pair-exchange symmetry at ({a},{b},{c},{d})")
                    if R[a][b][c][d] + R[a][c][d][b] + R[a][d][b][c]:
                        out.append(f"first Bianchi identity at ({a},{b},{c},{d})")
                    if len(out) >= limit:
                        return out
    return out


def _antisym3_violations(T, name: str, limit: int = 20) -> List[str]:
    n = len(T)
    T = _integer_entries(T)
    out: List[str] = []
    for a in range(n):
        for j in range(n):
            for l in range(n):
                if T[a][j][l] != -T[j][a][l] or T[a][j][l] != -T[a][l][j]:
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
    n = jet.n
    R_entries = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                for d in range(c + 1, n):
                    if (a, b) <= (c, d) and jet.R[a][b][c][d]:
                        R_entries.append([a + 1, b + 1, c + 1, d + 1,
                                          format_rational(jet.R[a][b][c][d])])
    T_entries = []
    dT_entries = []
    for a in range(n):
        for j in range(a + 1, n):
            for l in range(j + 1, n):
                if jet.T[a][j][l]:
                    T_entries.append([a + 1, j + 1, l + 1,
                                      format_rational(jet.T[a][j][l])])
                for b in range(n):
                    if jet.dT1[b][a][j][l]:
                        dT_entries.append([b + 1, a + 1, j + 1, l + 1,
                                           format_rational(jet.dT1[b][a][j][l])])
    return {
        "schema": "wres-torsion-instance-v1",
        "n": n,
        "R": R_entries,
        "T": T_entries,
        "dT1": dT_entries,
        "v": [format_rational(x) for x in jet.v],
        "w": [format_rational(x) for x in jet.w],
        "dw": [[format_rational(x) for x in row] for row in jet.dw],
    }


class InstanceError(ValueError):
    """Raised when a serialized instance is malformed or inconsistent."""


def jet_from_dict(data: dict) -> PointJet:
    """Parse and symmetry-complete a serialized instance.

    Sparse R/T/dT1 entries are completed by symmetry; entries whose orbits
    collide with a different value are rejected, as is any tensor that fails
    validation after completion.  Any malformed value raises InstanceError.
    """
    try:
        n = int(data["n"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"missing or invalid field 'n': {exc}") from None
    if n % 2 or n // 2 not in SUPPORTED_M:
        raise InstanceError(f"unsupported dimension n={n}")
    m = n // 2

    R = _zeros(n, n, n, n)
    seen: Dict[Tuple[int, int, int, int], Fraction] = {}
    for a, b, c, d, val in _entries(data, "R", 4, n):
        for (p, q, r, s), sign in _riemann_orbit(a, b, c, d):
            value = sign * val
            if seen.get((p, q, r, s), value) != value:
                raise InstanceError(
                    f"R entries conflict by symmetry at ({p+1},{q+1},{r+1},{s+1})")
            seen[(p, q, r, s)] = value
            R[p][q][r][s] = value

    T = _zeros(n, n, n)
    seen3: Dict[Tuple[int, int, int], Fraction] = {}
    for a, j, l, val in _entries(data, "T", 3, n):
        _complete_antisym3(T, seen3, a, j, l, val, "T")

    dT1 = _zeros(n, n, n, n)
    seen_dt: Dict[int, Dict[Tuple[int, int, int], Fraction]] = {}
    for b, a, j, l, val in _entries(data, "dT1", 4, n):
        _complete_antisym3(dT1[b], seen_dt.setdefault(b, {}), a, j, l, val,
                           f"dT1[{b+1}]")

    v = _vector(data.get("v"), n, "v")
    w = _vector(data.get("w"), n, "w")
    dw_raw = data.get("dw") or [[0] * n for _ in range(n)]
    if not (isinstance(dw_raw, list) and len(dw_raw) == n and all(
            isinstance(row, list) and len(row) == n for row in dw_raw)):
        raise InstanceError(f"dw must be a dense {n}x{n} matrix")
    dw = [[_rational(x, "dw") for x in row] for row in dw_raw]

    jet = PointJet(m=m, R=_freeze(R), T=_freeze(T), dT1=_freeze(dT1),
                   v=v, w=w, dw=_freeze(dw))
    report = validate_symmetries(jet)
    if not report.ok:
        raise InstanceError(report.violations[0])
    return jet


def _entries(data: dict, name: str, indices: int, n: int):
    """The sparse entries [i_1, .., i_k, value] of one tensor field, as
    0-based indices plus an exact value; a missing or null field is empty."""
    raw = data.get(name) or []
    if not isinstance(raw, list):
        raise InstanceError(f"{name} must be a list of entries")
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == indices + 1):
            raise InstanceError(f"{name} entry {entry!r} must be a list of "
                                f"{indices} indices and a value")
        yield (*(_index(x, n, name) for x in entry[:indices]),
               _rational(entry[indices], name))


def _complete_antisym3(tensor, seen, a, j, l, val, name):
    if len({a, j, l}) < 3:
        if val:
            raise InstanceError(f"{name} entry with repeated index "
                                f"({a+1},{j+1},{l+1}) must be zero")
        return
    for perm, sign in (((a, j, l), 1), ((j, l, a), 1), ((l, a, j), 1),
                       ((a, l, j), -1), ((j, a, l), -1), ((l, j, a), -1)):
        value = sign * val
        if seen.get(perm, value) != value:
            p, q, r = perm
            raise InstanceError(
                f"{name} entries conflict by antisymmetry at ({p+1},{q+1},{r+1})")
        seen[perm] = value
        tensor[perm[0]][perm[1]][perm[2]] = value


def _index(raw, n: int, name: str) -> int:
    try:
        i = int(raw)
    except (TypeError, ValueError, OverflowError):
        raise InstanceError(f"{name} index {raw!r} is not an integer") from None
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
