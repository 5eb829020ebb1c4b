"""Jet generation, tensor symmetries, derived scalars, serialization."""

from __future__ import annotations

import dataclasses
import json
import random
from decimal import Decimal
from fractions import Fraction
from itertools import permutations, product
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from wres_torsion.cli import _one_hot_cases
from wres_torsion.geometry import (
    DerivedScalars,
    InstanceError,
    PointJet,
    _antisym3_scan,
    _complete,
    _INDICES,
    _dense,
    _four_form,
    _ricci,
    _riemann_scan,
    derived_scalars,
    jet_from_dict,
    jet_to_dict,
    make_point_jet,
    random_point_jet,
    validate_symmetries,
)
from wres_torsion.numerics import _integer_form, format_rational


def _nonzero(tensor, prefix=()):
    """Index tuple -> value for the nonzero entries of a dense nested
    tensor of tuples or lists, read entry by entry."""
    if not isinstance(tensor, (tuple, list)):
        return {prefix: tensor} if tensor else {}
    out = {}
    for i, block in enumerate(tensor):
        out.update(_nonzero(block, prefix + (i,)))
    return out


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3])
def test_generator_output_validates(m):
    for seed in range(4):
        report = validate_symmetries(random_point_jet(seed, m))
        assert report.ok, report.violations[:3]


def test_determinism():
    assert random_point_jet(42, 2) == random_point_jet(42, 2)


def test_zero_torsion_mode():
    jet = random_point_jet(9, 2, with_torsion=False, with_torsion_jet=False)
    assert jet.T_entries == jet.dT1_entries == {}
    assert all(x == 0 for plane in jet.T for row in plane for x in row)
    assert all(x == 0 for cube in jet.dT1 for plane in cube for row in plane
               for x in row)


def test_unsupported_dimension():
    with pytest.raises(ValueError):
        random_point_jet(0, 4)
    for m in (4, 0):
        with pytest.raises(ValueError, match=f"unsupported half-dimension m={m}"):
            make_point_jet(m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_zero_point_jet_is_the_zero_jet(m):
    """``make_point_jet(m)`` with no entries is the all-zero jet."""
    jet = make_point_jet(m)
    assert not any(jet.v) and not any(jet.w)
    assert jet.R_entries == jet.T_entries == jet.dT1_entries == {}
    assert not any(_nonzero(x) for x in (jet.R, jet.T, jet.dT1, jet.dw))


def test_entry_magnitudes_bounded():
    jet = random_point_jet(3, 3)
    for x in jet.v + jet.w:
        assert abs(x.numerator) <= 9 and x.denominator <= 9
    for plane in jet.T:
        for row in plane:
            for x in row:
                assert abs(x.numerator) <= 9 and x.denominator <= 9


# ---------------------------------------------------------------------------
# ricci / scalar curvature
# ---------------------------------------------------------------------------

def test_ricci_of_zero():
    der = derived_scalars(make_point_jet(2))
    assert der.s == 0
    assert der.ric == {}


def test_constant_curvature_scalar():
    # R_abcd = kappa (delta_ac delta_bd - delta_ad delta_bc), n = 4:
    # direct contraction gives s = n(n-1) kappa
    n, kappa = 4, Fraction(2, 3)
    entries = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    val = kappa * ((a == c) * (b == d) - (a == d) * (b == c))
                    if val and a < b and c < d and (a, b) <= (c, d):
                        entries.append((a, b, c, d, val))
    jet = make_point_jet(2, R=entries)
    assert validate_symmetries(jet).ok
    assert derived_scalars(jet).s == n * (n - 1) * kappa


def test_ricci_symmetric_on_random_input():
    jet = random_point_jet(17, 3)
    ric = derived_scalars(jet).ric
    assert any(b != k for b, k in ric)
    assert ric == {(k, b): x for (b, k), x in ric.items()}


def test_ricci_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        _ricci({(0, 1, 0, 1): Fraction(1)})


# ---------------------------------------------------------------------------
# torsion helpers
# ---------------------------------------------------------------------------

def test_dT_four_form_zero():
    assert derived_scalars(make_point_jet(3)).dT4 == {}


def test_dT_four_form_one_hot():
    # only d_1 T_{234} = 1: single surviving term of the alternation
    der = derived_scalars(make_point_jet(3, dT1=[(0, 1, 2, 3, 1)]))
    assert der.dT4 == {(0, 1, 2, 3): 1}
    dT4 = _expanded(der, 6).dT4
    assert dT4[0][1][2][3] == 1
    assert dT4[1][0][2][3] == -1
    # a cyclic shift of four slots is an odd permutation
    assert dT4[1][2][3][0] == -1


def test_dT_four_form_alternation():
    jet = random_point_jet(5, 3)
    n = jet.n
    dT4 = _expanded(derived_scalars(jet), n).dT4
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for t in range(n):
                    assert dT4[i][j][k][t] == -dT4[j][i][k][t]
                    assert dT4[i][j][k][t] == -dT4[i][k][j][t]
                    assert dT4[i][j][k][t] == -dT4[i][j][t][k]


def test_torsion_norm_examples():
    assert derived_scalars(make_point_jet(3)).norm_t2 == 0
    one_hot = make_point_jet(3, T=[(0, 1, 2, 1)])
    assert derived_scalars(one_hot).norm_t2 == 1
    # sum of squares over increasing triples: (1/2)^2 + (1/3)^2 = 13/36
    two = make_point_jet(3, T=[(0, 1, 2, Fraction(1, 2)),
                               (0, 1, 3, Fraction(1, 3))])
    assert derived_scalars(two).norm_t2 == Fraction(13, 36)


# ---------------------------------------------------------------------------
# validator fault detection
# ---------------------------------------------------------------------------

def _tamper(jet: PointJet, path, value) -> PointJet:
    """``jet`` with the entry of channel path[0] at index path[1:] set to a
    nonzero ``value``."""
    name, *index = path
    entries = {**getattr(jet, f"{name}_entries"), tuple(index): value}
    return dataclasses.replace(jet, **{f"{name}_entries": entries})


def test_validator_names_pair_antisymmetry():
    jet = random_point_jet(1, 2)
    bad = _tamper(jet, ("R", 0, 1, 0, 1), jet.R[0][1][0][1] + 1)
    report = validate_symmetries(bad)
    assert not report.ok
    assert any("antisymmetry" in v or "symmetry" in v or "Bianchi" in v
               for v in report.violations)


def test_validator_names_torsion_antisymmetry():
    jet = random_point_jet(1, 2)
    bad = _tamper(jet, ("T", 0, 0, 1), Fraction(1))
    report = validate_symmetries(bad)
    assert not report.ok
    assert any(v.startswith("T total antisymmetry") for v in report.violations)


# The integer scans of a dense tensor, as the validator runs them.

def _riemann_violations(R, limit: int = 20) -> List[str]:
    return _riemann_scan(_integer_form(_nonzero(R))[0], limit)


def _antisym3_violations(T, name: str, limit: int = 20) -> List[str]:
    return _antisym3_scan(_integer_form(_nonzero(T))[0], name, limit)


# The symmetry scans before integer scaling: one Fraction per comparison.
# They stay here as the oracle of the integer scans.

def _riemann_violations_fraction(R, limit: int = 20) -> List[str]:
    n = len(R)
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


def _antisym3_violations_fraction(T, name: str, limit: int = 20) -> List[str]:
    n = len(T)
    out: List[str] = []
    for a in range(n):
        for j in range(n):
            for l in range(n):
                if T[a][j][l] != -T[j][a][l] or T[a][j][l] != -T[a][l][j]:
                    out.append(f"{name} total antisymmetry at ({a},{j},{l})")
                if len(out) >= limit:
                    return out
    return out


def _perturbed(tensor, rng: random.Random):
    """A nested copy with a few entries replaced by small rationals."""
    def thaw(t):
        return [thaw(x) for x in t] if isinstance(t, tuple) else t

    out = thaw(tensor)
    for _ in range(rng.randint(0, 3)):
        cell = out
        while isinstance(cell[0], list):
            cell = cell[rng.randrange(len(cell))]
        cell[rng.randrange(len(cell))] = Fraction(rng.randint(-7, 7), rng.randint(1, 12))
    return out


@pytest.mark.parametrize("m,count", [(2, 150), (3, 12)])
def test_integer_scans_match_fraction_oracle(m, count):
    rng = random.Random(f"scan-oracle:{m}")
    for k in range(count):
        jet = random_point_jet(k, m)
        R = _perturbed(jet.R, rng)
        T = _perturbed(jet.T, rng)
        dT = _perturbed(jet.dT1[rng.randrange(jet.n)], rng)
        for limit in (1, 20):
            assert _riemann_violations(R, limit) == _riemann_violations_fraction(R, limit)
            assert (_antisym3_violations(T, "T", limit)
                    == _antisym3_violations_fraction(T, "T", limit))
            assert (_antisym3_violations(dT, "dT1[1]", limit)
                    == _antisym3_violations_fraction(dT, "dT1[1]", limit))


def _with_entry(tensor, index, value):
    """A nested list copy of ``tensor`` with one entry replaced."""
    def thaw(t):
        return [thaw(x) for x in t] if isinstance(t, (tuple, list)) else t

    out = thaw(tensor)
    cell = out
    for i in index[:-1]:
        cell = cell[i]
    cell[index[-1]] = Fraction(value)
    return out


def _sparse_violations(m):
    """Tensors whose violations sit at zero entries with a nonzero partner:
    one-hot R and T without their symmetry images, symmetry orbits with
    one image missing, and a complete R orbit that breaks only Bianchi."""
    n = 2 * m
    zero = make_point_jet(m)
    riemann = [_with_entry(zero.R, idx, 1) for idx in
               ((0, 1, 0, 1), (0, 1, 2, 3), (1, 0, 0, 1), (0, 0, 1, 1), (n - 1, 2, 1, 0))]
    orbit = make_point_jet(m, R=[(0, 1, 0, 2, 1)]).R
    riemann += [_with_entry(orbit, (0, 2, 0, 1), 0), _with_entry(orbit, (1, 0, 2, 0), 0)]
    # make_point_jet rejects this orbit, so it is completed here unchecked
    riemann.append(_dense(_complete("R", [((0, 1, 2, 3), Fraction(1))], n), n, 4))
    torsion = [_with_entry(zero.T, idx, 1) for idx in ((0, 1, 2), (2, 1, 0), (1, 1, 2))]
    torsion.append(_with_entry(make_point_jet(m, T=[(0, 1, 2, 1)]).T, (2, 0, 1), 0))
    # antisymmetric in the first or in the last two slots only
    torsion.append(_with_entry(_with_entry(zero.T, (0, 1, 2), 1), (1, 0, 2), -1))
    torsion.append(_with_entry(_with_entry(zero.T, (0, 1, 2), 1), (0, 2, 1), -1))
    return riemann, torsion


@pytest.mark.parametrize("m", [2, 3])
def test_sparse_scans_match_fraction_oracle_at_zero_entries(m):
    riemann, torsion = _sparse_violations(m)
    for R in riemann:
        expected = _riemann_violations_fraction(R, 1)
        assert expected
        for limit in (1, 20):
            assert _riemann_violations(R, limit) == _riemann_violations_fraction(R, limit)
        with pytest.raises(ValueError) as err:
            _ricci(_nonzero(R))
        assert str(err.value) == expected[0]
    for T in torsion:
        assert _antisym3_violations_fraction(T, "T", 1)
        for limit in (1, 20):
            assert (_antisym3_violations(T, "T", limit)
                    == _antisym3_violations_fraction(T, "T", limit))


# ---------------------------------------------------------------------------
# the channel maps and their dense views
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_nonzero_inverts_dense(n, rank):
    """The nonzero entries of ``_dense(entries)``, read entry by entry, are
    ``entries``; every other entry is Fraction(0)."""
    rng = random.Random(f"dense:{n}:{rank}")
    for count in (0, 1, 2, 5, 17):
        entries = {tuple(rng.randrange(n) for _ in range(rank)):
                   Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
                   for _ in range(count)}
        tensor = _dense(entries, n, rank)
        assert _nonzero(tensor) == entries
        block = tensor
        for _ in range(rank - 1):
            assert type(block) is tuple and len(block) == n
            block = block[-1]
        assert all(type(x) is Fraction for x in block)


_dense_views = (("R", 4), ("T", 3), ("dT1", 4))


def _dense_view_oracle(jet, name, rank):
    """The dense tensor of a channel: its map read at every index in
    lexicographic order, then cut into rows of n, rank times."""
    n, entries = jet.n, getattr(jet, f"{name}_entries")
    flat = [entries.get(index, 0) for index in product(range(n), repeat=rank)]
    for _ in range(rank):
        flat = [tuple(flat[i:i + n]) for i in range(0, len(flat), n)]
    return flat[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 6),
       st.lists(st.booleans(), min_size=4, max_size=4))
def test_views_are_the_dense_channels(m, seed, channels):
    """Each dense view equals the dense oracle, is built once, and the
    channel map is exactly the nonzero entries of its view."""
    flags = ("with_curvature", "with_torsion", "with_torsion_jet", "with_w_jet")
    jet = random_point_jet(seed, m, **dict(zip(flags, channels)))
    for name, rank in _dense_views:
        view = getattr(jet, name)
        assert view == _dense_view_oracle(jet, name, rank)
        assert getattr(jet, name) is view
        assert _nonzero(view) == getattr(jet, f"{name}_entries")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(jet, name, view)


def test_maps_share_index_tuples_and_store_no_zero():
    jets = [random_point_jet(seed, m) for m in (1, 2, 3) for seed in range(3)]
    jets += [make_point_jet(m, **kw) for m in (2, 3) for _, _, kw in _one_hot_cases(m)]
    jets += [jet_from_dict(jet_to_dict(jet)) for jet in jets]
    for jet in jets:
        for name, _ in _dense_views:
            entries = getattr(jet, f"{name}_entries")
            assert all(entries.values())
            # so equal indices of any two jets are one tuple object
            assert all(_INDICES[key] is key for key in entries)
    assert sum(len(jet.R_entries) for jet in jets) > 1000


def test_hash_skips_the_maps_and_equality_reads_them():
    jet = random_point_jet(6, 2)
    other = dataclasses.replace(jet, T_entries={})
    assert hash(other) == hash(jet) == hash((jet.m, jet.v, jet.w, jet.dw))
    assert other != jet
    assert {jet, other, random_point_jet(6, 2)} == {jet, other}


def test_nested_tuple_channels_are_no_fields():
    jet = random_point_jet(6, 2)
    with pytest.raises(TypeError):
        PointJet(m=2, R=jet.R, T=jet.T, dT1=jet.dT1, v=jet.v, w=jet.w, dw=jet.dw)
    with pytest.raises(TypeError):
        dataclasses.replace(jet, T=jet.T)


# The contractions before the sparse rewrite: dense Fraction sums over the
# whole index space.  They stay here as the oracle of ``derived_scalars``.

def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _dT_four_form_dense(dT1):
    n = len(dT1)
    out = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
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
    return _frozen(out)


def _frozen(x):
    return tuple(_frozen(e) for e in x) if isinstance(x, (tuple, list)) else x


def _signed_perms(form):
    """Every reordering of the keys of a 4-form given on increasing
    quadruples, with the value times the sign of the permutation."""
    return {tuple(key[p] for p in perm): _perm_sign(perm) * x
            for key, x in form.items() for perm in permutations(range(4))}


def _expanded(der: DerivedScalars, n: int) -> DerivedScalars:
    """``der`` with ``ric`` and ``dT4`` as the dense tensors of the oracle."""
    return dataclasses.replace(der, ric=_dense(der.ric, n, 2),
                               dT4=_dense(_signed_perms(der.dT4), n, 4))


def _derived_scalars_dense(jet) -> DerivedScalars:
    n = jet.n
    problems = _riemann_violations_fraction(jet.R, limit=1)
    if problems:
        raise ValueError(problems[0])
    R = jet.R
    ric = [[sum((R[j][b][j][k] for j in range(n)), Fraction(0))
            for k in range(n)] for b in range(n)]
    s = sum((ric[b][b] for b in range(n)), Fraction(0))
    norm_t2 = sum((jet.T[a][j][l] * jet.T[a][j][l] for a in range(n)
                   for j in range(a + 1, n) for l in range(j + 1, n)), Fraction(0))
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
        ric=_frozen(ric), s=s, dT4=_dT_four_form_dense(jet.dT1), norm_t2=norm_t2,
        g_vw=g_vw, ric_vw=ric_vw, einstein_vw=ric_vw - s * g_vw / 2,
        tt_vw=tt_vw, div_t_vw=div_t_vw, t_dw=t_dw)


def _kulkarni_nomizu(h, k, n):
    """Entries (a, b, c, d, value), a < b and c < d, of h (KN) k for
    symmetric forms given as {(i, j): value}."""
    def at(form, a, b):
        return form.get((a, b), 0)

    entries = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                for d in range(c + 1, n):
                    val = (at(h, a, c) * at(k, b, d) + at(h, b, d) * at(k, a, c)
                           - at(h, a, d) * at(k, b, c) - at(h, b, c) * at(k, a, d))
                    if val:
                        entries.append((a, b, c, d, val))
    return entries


def _one_channel_jets(m):
    """Jets of each single channel of the polarized basis (curvature as a
    Kulkarni-Nomizu product, one T entry, one nabla T entry, T with one
    dw entry), against basis and generic (v, w)."""
    n = 2 * m
    basis = [[Fraction(int(k == i)) for k in range(n)] for i in range(n)]
    generic = ([Fraction(k - 2, k + 1) for k in range(n)],
               [Fraction(3 - k, 2) for k in range(n)])
    dw = [[Fraction(0)] * n for _ in range(n)]
    dw[2][1] = Fraction(1)
    dense_dw = [[Fraction(j - g, j + g + 1) for g in range(n)] for j in range(n)]
    channels = [
        dict(R=_kulkarni_nomizu({(0, 0): 1}, {(1, 2): 1, (2, 1): 1}, n)),
        dict(R=_kulkarni_nomizu({(0, 1): 1, (1, 0): 1}, {(2, 3): 1, (3, 2): 1}, n)),
        dict(T=[(0, 1, 2, 1)]),
        dict(T=[(1, 2, n - 1, Fraction(-2, 3))]),
        dict(dT1=[(0, 0, 1, 2, 1)]),
        dict(dT1=[(n - 1, 0, 1, 2, Fraction(5, 2))]),
        dict(T=[(0, 1, 2, 1)], dw=dw),
        dict(T=[(0, 1, 2, 1)], dw=dense_dw),
    ]
    for kw in channels:
        for v, w in ((basis[0], basis[1]), (basis[2], basis[2]),
                     (basis[1], basis[0]), generic):
            yield make_point_jet(m, v=v, w=w, **kw)


def _contraction_jets():
    rng = random.Random("contraction-oracle")
    for m, seeds in ((1, range(6)), (2, range(6)), (3, range(4))):
        for seed in seeds:
            yield random_point_jet(seed, m)
        yield make_point_jet(m)
    for m in (2, 3):
        for _, _, kw in _one_hot_cases(m):
            yield make_point_jet(m, **kw)
    yield from _one_channel_jets(3)
    # T, dT1 and dw need no symmetry for the contractions: perturbed ones
    # must still give the dense sums
    for seed in range(4):
        jet = random_point_jet(seed, 2)
        yield PointJet(m=2, R_entries=jet.R_entries, T_entries=_nonzero(_perturbed(jet.T, rng)),
                       dT1_entries=_nonzero(_perturbed(jet.dT1, rng)), v=jet.v, w=jet.w,
                       dw=_frozen(_perturbed(jet.dw, rng)))


def test_derived_scalars_match_dense_oracle():
    assert all(validate_symmetries(jet).ok for jet in _one_channel_jets(3))
    jets = list(_contraction_jets())
    for jet in jets:
        oracle = _derived_scalars_dense(jet)
        assert _expanded(derived_scalars(jet), jet.n) == oracle
        assert _expanded(jet.derived, jet.n) == oracle
    assert sum(derived_scalars(j).tt_vw != 0 for j in jets) > 10
    assert sum(derived_scalars(j).t_dw != 0 for j in jets) > 10


def test_derived_tensors_are_sparse_maps_of_their_coordinates():
    """dT4 is keyed by strictly increasing quadruples and Ric is symmetric;
    neither map stores a zero."""
    ders = [(jet.n, derived_scalars(jet)) for jet in _contraction_jets()]
    for n, der in ders:
        assert all(len(key) == 4 and 0 <= key[0] < key[1] < key[2] < key[3] < n
                   for key in der.dT4)
        assert der.ric == {(k, b): x for (b, k), x in der.ric.items()}
        assert all(der.dT4.values()) and all(der.ric.values())
    assert sum(bool(der.dT4) for _, der in ders) > 10
    assert sum(bool(der.ric) for _, der in ders) > 10


# ---------------------------------------------------------------------------
# the derived scalars a jet keeps
# ---------------------------------------------------------------------------

def test_replaced_jet_computes_its_own_derived_scalars():
    jet = random_point_jet(3, 2)
    assert jet.derived.tt_vw
    other = dataclasses.replace(jet, w=jet.v)
    assert _expanded(other.derived, other.n) == _derived_scalars_dense(other)
    assert other.derived.g_vw == sum(x * x for x in jet.v) != jet.derived.g_vw
    assert other.derived.tt_vw != jet.derived.tt_vw


@pytest.mark.parametrize("m", [1, 2, 3])
def test_filled_cache_leaves_the_jet_unchanged(m):
    jet, twin = random_point_jet(4, m), random_point_jet(4, m)
    before = (hash(jet), repr(jet), jet_to_dict(jet))
    assert jet.derived is jet.derived
    assert "derived" in vars(jet) and "derived" not in vars(twin)
    assert jet == twin
    assert (hash(jet), repr(jet), jet_to_dict(jet)) == before == (
        hash(twin), repr(twin), jet_to_dict(twin))


def test_rebound_derived_scalars_recomputes_a_kept_value(monkeypatch):
    import wres_torsion.geometry as geometry

    jet = random_point_jet(5, 2)
    original = jet.derived
    calls = []

    def wrapped(j):
        calls.append(j)
        return derived_scalars(j)

    monkeypatch.setattr(geometry, "derived_scalars", wrapped)
    assert jet.derived == jet.derived == original
    assert calls == [jet]
    monkeypatch.undo()
    assert jet.derived == original
    assert vars(jet)["derived"][0] is derived_scalars


def test_failed_derived_scalars_are_not_cached():
    from wres_torsion.residue import part1_closed

    # R_{0123} = R_{1023}, where pair antisymmetry wants R_{1023} = -R_{0123}
    R = {(0, 1, 2, 3): Fraction(1), (1, 0, 2, 3): Fraction(1)}
    bad = dataclasses.replace(random_point_jet(1, 2), R_entries=R)
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            part1_closed(bad, 2)
        assert type(info.value) is ValueError
        messages.append(str(info.value))
        assert "derived" not in vars(bad)
    assert messages[0] == messages[1] == "R pair antisymmetry (first pair) at (0,1,2,3)"


def test_dT_four_form_matches_dense_oracle_on_any_jet():
    rng = random.Random("four-form-oracle")
    for seed in range(8):
        dT1 = random_point_jet(seed, 3).dT1
        for tensor in (dT1, _perturbed(dT1, rng)):
            dense = _dense(_signed_perms(_four_form(_nonzero(tensor))), len(tensor), 4)
            assert dense == _dT_four_form_dense(tensor)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_roundtrip_byte_identical():
    jet = random_point_jet(8, 2)
    blob = json.dumps(jet_to_dict(jet), indent=2, sort_keys=True)
    again = json.dumps(jet_to_dict(jet_from_dict(json.loads(blob))),
                       indent=2, sort_keys=True)
    assert blob == again


# The serializer before the sparse rewrite: a dense walk over every
# increasing representative.  It stays here as the oracle of ``jet_to_dict``.

def _jet_to_dict_dense(jet: PointJet) -> dict:
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


def test_jet_to_dict_matches_dense_oracle():
    jets = [random_point_jet(seed, m) for m in (1, 2, 3) for seed in range(4)]
    for m in (1, 2, 3):
        jets.append(make_point_jet(m))
        for channel in ("with_curvature", "with_torsion", "with_torsion_jet",
                        "with_w_jet"):
            off = dict.fromkeys(("with_curvature", "with_torsion",
                                 "with_torsion_jet", "with_w_jet"), False)
            jets.append(random_point_jet(m + 5, m, **{**off, channel: True}))
    jets += list(_one_channel_jets(2)) + list(_one_channel_jets(3))
    for jet in jets:
        assert jet_to_dict(jet) == _jet_to_dict_dense(jet)
    assert sum(bool(jet_to_dict(j)["dT1"]) for j in jets) > 10


def test_sparse_symmetry_completion():
    data = {"n": 4, "R": [[1, 2, 1, 2, "1"]], "T": [[1, 2, 3, "1/2"]],
            "dT1": [], "v": ["1", "0", "0", "0"], "w": ["0", "1", "0", "0"],
            "dw": [["0"] * 4] * 4}
    jet = jet_from_dict(data)
    assert jet.R[1][0][0][1] == -1  # one pair antisymmetry applied
    assert jet.R[1][0][1][0] == 1   # both pair antisymmetries applied
    assert jet.T[2][0][1] == Fraction(1, 2)  # cyclic image
    assert validate_symmetries(jet).ok


def test_conflicting_entries_rejected():
    data = {"n": 4, "R": [[1, 2, 1, 2, "1"], [2, 1, 1, 2, "1"]], "T": [],
            "dT1": [], "v": ["0"] * 4, "w": ["0"] * 4, "dw": [["0"] * 4] * 4}
    with pytest.raises(InstanceError, match="conflict"):
        jet_from_dict(data)


def test_conflicting_torsion_jet_entries_rejected():
    data = {"n": 4, "R": [], "T": [],
            "dT1": [[1, 1, 2, 3, "1"], [1, 2, 1, 3, "1"]],
            "v": ["0"] * 4, "w": ["0"] * 4, "dw": [["0"] * 4] * 4}
    with pytest.raises(InstanceError, match="conflict"):
        jet_from_dict(data)


def test_repeated_index_torsion_rejected():
    data = {"n": 4, "R": [], "T": [[1, 1, 2, "1"]], "dT1": [],
            "v": ["0"] * 4, "w": ["0"] * 4, "dw": [["0"] * 4] * 4}
    with pytest.raises(InstanceError, match="repeated"):
        jet_from_dict(data)


def test_unsupported_instance_dimension():
    with pytest.raises(InstanceError, match="unsupported"):
        jet_from_dict({"n": 10, "v": [], "w": [], "dw": []})


def _instance(**fields) -> dict:
    data = {"n": 4, "R": [[1, 2, 1, 2, "1"]], "T": [[1, 2, 3, "1"]],
            "dT1": [[1, 2, 3, 4, "1/2"]], "v": ["1", "0", "0", "0"],
            "w": ["0", "1", "0", "0"], "dw": [["0"] * 4] * 4}
    data.update(fields)
    return data


@pytest.mark.parametrize("fields,reason", [
    (dict(n=4.7, T=[[1.9, 2, 3, "1"]]), "field 'n' 4.7 is not an integer"),
    (dict(n=True), "field 'n' True is not an integer"),
    (dict(n=float("inf")), "field 'n' inf is not an integer"),
    (dict(T=[[1.9, 2, 3, "1"]]), "T index 1.9 is not an integer"),
    (dict(T=[[True, 2, 3, "1"]]), "T index True is not an integer"),
    (dict(R=[[1, 2, 1, 2.5, "1"]]), "R index 2.5 is not an integer"),
    (dict(dT1=[[1, 2, 3, False, "1"]]), "dT1 index False is not an integer"),
])
def test_non_integral_numbers_rejected_not_truncated(fields, reason):
    with pytest.raises(InstanceError) as err:
        jet_from_dict(_instance(**fields))
    assert str(err.value) == reason


@pytest.mark.parametrize("value", [0, False, {}, ""])
@pytest.mark.parametrize("name,reason", [
    ("R", "R must be a list of entries"),
    ("T", "T must be a list of entries"),
    ("dT1", "dT1 must be a list of entries"),
    ("dw", "dw must be a dense 4x4 matrix"),
])
def test_falsy_fields_rejected_not_read_as_empty(name, reason, value):
    with pytest.raises(InstanceError) as err:
        jet_from_dict(_instance(**{name: value}))
    assert str(err.value) == reason


def test_empty_dw_list_rejected_not_read_as_zero():
    with pytest.raises(InstanceError) as err:
        jet_from_dict(_instance(dw=[]))
    assert str(err.value) == "dw must be a dense 4x4 matrix"


def test_missing_or_null_fields_are_empty():
    empty = jet_from_dict(_instance(R=[], T=[], dT1=[], dw=[[0] * 4] * 4))
    for name in ("R", "T", "dT1", "dw"):
        missing = _instance(R=[], T=[], dT1=[])
        del missing[name]
        assert jet_from_dict(missing) == empty
        assert jet_from_dict({**missing, name: None}) == empty


def test_integral_numbers_parse_as_before():
    as_floats = _instance(n=4.0, R=[[1.0, 2, 1, 2.0, "1"]], T=[[1, 2.0, 3, "1"]],
                          dT1=[[1, 2, 3.0, 4, "1/2"]])
    as_strings = _instance(n="4", T=[["1", "2", "3", "1"]])
    assert jet_from_dict(as_floats) == jet_from_dict(_instance())
    assert jet_from_dict(as_strings) == jet_from_dict(_instance())


_json_scalars = (st.none() | st.booleans() | st.integers(-9, 9) | st.floats()
                 | st.text(max_size=4) | st.sampled_from(["1/0", "abc", "2/3", "-1"]))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=24)
_instances = st.fixed_dictionaries(
    {"n": st.sampled_from([2, 4, 6, "4", 3, 8]) | _json_values},
    optional={name: _json_values | st.lists(st.lists(
        st.integers(-1, 7) | _json_scalars, max_size=6), max_size=3)
        for name in ("R", "T", "dT1", "v", "w", "dw")})


@settings(max_examples=300, deadline=None)
@given(_json_values | _instances)
def test_any_json_value_parses_or_raises_instance_error(data):
    try:
        jet = jet_from_dict(data)
    except InstanceError:
        return
    assert isinstance(jet, PointJet)



# ---------------------------------------------------------------------------
# make_point_jet: the same completion and checks as jet_from_dict
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entries,reason", [
    (dict(R=[(0, 1, 0, 1, 1), (1, 0, 0, 1, 1)]),
     "R entries conflict by symmetry at (2,1,1,2)"),
    (dict(R=[(0, 1, 2, 3, 1)]), "first Bianchi identity at (0,1,2,3)"),
    (dict(R=[(0, 0, 1, 2, 1)]), "R pair antisymmetry (first pair) at (0,0,1,2)"),
    (dict(T=[(0, 0, 1, 1)]), "T entry with repeated index (1,1,2) must be zero"),
    (dict(T=[(0, 1, 2, 1), (1, 0, 2, 1)]), "T entries conflict by antisymmetry at (2,1,3)"),
    (dict(dT1=[(1, 2, 2, 3, -1)]), "dT1[2] entry with repeated index (3,3,4) must be zero"),
    (dict(T=[(0, 1, 4, 1)]), "T index (0, 1, 4) outside 0..3"),
    # the ids of rows 7, 8 and 13 keep the generic message these inputs
    # raised before make_point_jet named the field, so the test ids stay stable
    pytest.param(dict(v=[1, 0, 0]), "v must be a dense length-4 array",
                 id="entries7-v/w/dw dimension mismatch"),
    pytest.param(dict(dw=[[1, 2, 3, 4, 5]] * 4), "dw must be a dense 4x4 matrix",
                 id="entries8-v/w/dw dimension mismatch"),
    (dict(T=[(0, 1, 2, 5, 1)]), "T entry (0, 1, 2, 5, 1) must be a list of 3 indices and a value"),
    (dict(R=[(0, 1, 0, 1, 5, 1)]),
     "R entry (0, 1, 0, 1, 5, 1) must be a list of 4 indices and a value"),
    (dict(R=[(0, 1, 2)]), "R entry (0, 1, 2) must be a list of 4 indices and a value"),
    (dict(dT1=[(0, 1, 2, 3, 4, 1)]),
     "dT1 entry (0, 1, 2, 3, 4, 1) must be a list of 4 indices and a value"),
    pytest.param(dict(dw=[[1, 2, 3, 4]] * 3 + [[1]]), "dw must be a dense 4x4 matrix",
                 id="entries13-v/w/dw dimension mismatch"),
    (dict(v=[[1], 0, 0, 0]), "v value [1] is not an exact rational"),
    (dict(v=["1/0", 0, 0, 0]), "v value '1/0' is not an exact rational"),
    (dict(w=[0, 0, float("nan"), 0]), "w value nan is not an exact rational"),
    (dict(dw=[[0, 0, 0, 0]] * 3 + [[0, 0, 0, float("inf")]]),
     "dw value inf is not an exact rational"),
    (dict(T=[(0, 1, 2, None)]), "T value None is not an exact rational"),
    (dict(T=[(0, 1, 2, "x")]), "T value 'x' is not an exact rational"),
    (dict(R=[(0, 1, 0, 1, "1/0")]), "R value '1/0' is not an exact rational"),
    (dict(T=[5]), "T entry 5 must be a list of 3 indices and a value"),
    (dict(R=5), "R must be a list of entries"),
    (dict(v=5), "v must be a dense length-4 array"),
    (dict(dw=[1, 2, 3, 4]), "dw must be a dense 4x4 matrix"),
    (dict(T=[(0, 1, "2.5", 1)]), "T index '2.5' is not an integer"),
    (dict(T=[(0, 1, 2.5, 1)]), "T index 2.5 is not an integer"),
    (dict(T=[(0, True, 2, 1)]), "T index True is not an integer"),
    (dict(dT1=[(0, 1, 2, Fraction(7, 2), 1)]), "dT1 index Fraction(7, 2) is not an integer"),
    (dict(R=[(0, 1, None, 1, 1)]), "R index None is not an integer"),
    (dict(T=["0121"]), "T entry '0121' must be a list of 3 indices and a value"),
    (dict(dw=5), "dw must be a dense 4x4 matrix"),
    (dict(w="1234"), "w must be a dense length-4 array"),
    (dict(v=[1, 2, 3]), "v must be a dense length-4 array"),
    (dict(w=(1, 2, 3, 4, 5)), "w must be a dense length-4 array"),
    (dict(v=()), "v must be a dense length-4 array"),
    (dict(dw=[[0] * 4] * 3), "dw must be a dense 4x4 matrix"),
    (dict(dw=[(0,) * 4] * 3 + [(0,) * 5]), "dw must be a dense 4x4 matrix"),
    (dict(dw=()), "dw must be a dense 4x4 matrix"),
])
def test_make_point_jet_rejects_malformed_entries(entries, reason):
    with pytest.raises(InstanceError) as err:
        make_point_jet(2, **entries)
    assert str(err.value) == reason


def test_make_point_jet_reads_indices_by_the_instance_rule():
    """An integral number or integer string is the index it names, as in
    ``jet_from_dict``."""
    jet = make_point_jet(2, T=[(0, 1, 2, 1)], dT1=[(3, 0, 1, 2, 1)])
    assert make_point_jet(2, T=[(0, 1, "2", 1)], dT1=[(3.0, 0, 1, 2, 1)]) == jet
    assert make_point_jet(2, T=((0, 1, 2, 1),), dT1=[[3, 0, 1, 2, 1]]) == jet


@pytest.mark.parametrize("field,value,reason", [
    ("T", ("T", 0, 1, 2, "a"), "T entry at (0,1,2) is not an exact rational: 'a'"),
    ("R", ("R", 0, 1, 0, 1, 0.5), "R entry at (0,1,0,1) is not an exact rational: 0.5"),
    ("dT1", ("dT1", 3, 0, 1, 2, Decimal(1)),
     "dT1 entry at (3,0,1,2) is not an exact rational: Decimal('1')"),
    ("v", ("a", 0, 0, 0), "v entry at (0) is not an exact rational: 'a'"),
    ("w", (0, 0, 0, 0.5), "w entry at (3) is not an exact rational: 0.5"),
    ("dw", ((0, 0, 0, 0),) * 3 + ((0, 0.5, 0, 0),),
     "dw entry at (3,1) is not an exact rational: 0.5"),
])
def test_validator_names_inexact_entries(field, value, reason):
    """A hand-built jet with an entry that is not an int or a Fraction: the
    validator names it and scans no symmetry."""
    jet = random_point_jet(1, 2)
    if field in ("R", "T", "dT1"):
        bad = _tamper(jet, value[:-1], value[-1])
    else:
        bad = dataclasses.replace(jet, **{field: value})
    assert validate_symmetries(bad).violations == (reason,)


@pytest.mark.parametrize("name,shape", [("R", (6,) * 4), ("T", (6,) * 3), ("dT1", (6,) * 4)])
def test_validator_names_channel_of_another_dimension(name, shape):
    """A hand-built m=2 jet carrying one channel of an m=3 jet: each key
    with an index outside 0..3 is named, and no symmetry is scanned."""
    entries = getattr(random_point_jet(1, 3), f"{name}_entries")
    jet = dataclasses.replace(random_point_jet(3, 2), **{f"{name}_entries": entries})
    outside = sorted((key for key in entries if max(key) > 3), key=repr)
    assert outside and all(len(key) == len(shape) for key in entries)
    assert validate_symmetries(jet).violations == tuple(
        f"{name} key {key!r} is not a tuple of {len(shape)} indices in 0..3"
        for key in outside)


@pytest.mark.parametrize("name,entries,reasons", [
    ("T", "the dense view", ("T is not a dict of index tuples to values: tuple",)),
    ("R", [((0, 1, 0, 1), 1)], ("R is not a dict of index tuples to values: list",)),
    ("dT1", None, ("dT1 is not a dict of index tuples to values: NoneType",)),
    ("R", {0: Fraction(1)}, ("R key 0 is not a tuple of 4 indices in 0..3",)),
    ("R", {(0, 1, 0): Fraction(1)}, ("R key (0, 1, 0) is not a tuple of 4 indices in 0..3",)),
    ("T", {(0, 1, 2): Fraction(1), (0, 1, 4): Fraction(1), (-1, 1, 2): Fraction(1)},
     ("T key (-1, 1, 2) is not a tuple of 3 indices in 0..3",
      "T key (0, 1, 4) is not a tuple of 3 indices in 0..3")),
    ("T", {(0, True, 2): Fraction(1)}, ("T key (0, True, 2) is not a tuple of 3 indices in 0..3",)),
    ("T", {(0, 1, 2.0): Fraction(1)}, ("T key (0, 1, 2.0) is not a tuple of 3 indices in 0..3",)),
    ("dT1", {"0123": Fraction(1)}, ("dT1 key '0123' is not a tuple of 4 indices in 0..3",)),
    ("T", {(1, 0, 2): 0, (0, 1, 2): Fraction(0)},
     ("T entry at (0,1,2) is a stored zero", "T entry at (1,0,2) is a stored zero")),
    ("dT1", {(3, 0, 1, 2): Fraction(0), (0, 1, 2, 3): "x"},
     ("dT1 entry at (0,1,2,3) is not an exact rational: 'x'",
      "dT1 entry at (3,0,1,2) is a stored zero")),
])
def test_validator_names_malformed_maps(name, entries, reasons):
    """A hand-built m=2 jet whose channel is no map of nonzero exact
    entries over 0..3: the validator names the channel and each faulty key
    or entry, in an order that does not depend on the map's, and scans no
    symmetry."""
    jet = random_point_jet(3, 2)
    if entries == "the dense view":
        entries = getattr(jet, name)
    bad = dataclasses.replace(jet, **{f"{name}_entries": entries})
    assert validate_symmetries(bad).violations == reasons
    if isinstance(entries, dict):
        backwards = dict(reversed(list(entries.items())))
        again = dataclasses.replace(jet, **{f"{name}_entries": backwards})
        assert validate_symmetries(again).violations == reasons


def test_validator_rejects_ragged_torsion():
    """A T map whose short and long keys make up the right index count."""
    ragged = dataclasses.replace(make_point_jet(2), T_entries={
        (0, 1): Fraction(1), (0, 1, 2, 3): Fraction(1)})
    report = validate_symmetries(ragged)
    assert not report.ok
    assert report.violations == ("T key (0, 1) is not a tuple of 3 indices in 0..3",
                                 "T key (0, 1, 2, 3) is not a tuple of 3 indices in 0..3")


@pytest.mark.parametrize("fields", [
    dict(v=(1, (2,))), dict(w=(1, [2])), dict(dw=((1, 2), (3,))),
    dict(dw=((1, 2), (3, (4,)))), dict(dw=((1, 2), 3)), dict(dw=(1, 2)),
])
def test_validator_reads_every_entry_of_v_w_dw(fields):
    """A hand-built m=1 jet whose v, w or dw is ragged or nested past its
    first entry."""
    report = validate_symmetries(dataclasses.replace(random_point_jet(1, 1), **fields))
    assert report.violations == ("v/w/dw dimension mismatch",)


def test_make_point_jet_skips_zero_repeated_torsion_entry():
    assert make_point_jet(2, T=[(0, 0, 1, 0)]) == make_point_jet(2)


_values = st.sampled_from([Fraction(1), Fraction(-1), Fraction(0), Fraction(2, 3)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_make_point_jet_agrees_with_jet_from_dict(data):
    """0-based entries through make_point_jet give the jet that jet_from_dict
    gives on the same entries written 1-based, or the same InstanceError."""
    m = data.draw(st.sampled_from([1, 2, 3]))
    n = 2 * m
    index = st.integers(0, n - 1)
    # entries often on increasing R pairs and distinct torsion slots, so
    # that some jets pass and some conflict by symmetry
    pair = st.tuples(index, index).map(sorted)
    triple = st.permutations(range(n)).map(lambda p: p[:3]) if n > 2 else st.nothing()
    R = data.draw(st.lists(st.tuples(index, index, index, index, _values)
                           | st.tuples(pair, pair, _values).map(
                               lambda e: (*e[0], *e[1], e[2])), max_size=4))
    T = data.draw(st.lists(st.tuples(index, index, index, _values)
                           | st.tuples(triple, _values).map(lambda e: (*e[0], e[1])),
                           max_size=4))
    dT1 = data.draw(st.lists(st.tuples(index, index, index, index, _values)
                             | st.tuples(index, triple, _values).map(
                                 lambda e: (e[0], *e[1], e[2])), max_size=4))
    v, w = (data.draw(st.lists(_values, min_size=n, max_size=n)) for _ in "vw")
    dw = data.draw(st.lists(st.lists(_values, min_size=n, max_size=n),
                            min_size=n, max_size=n))
    on_disk = {"n": n, "v": [format_rational(x) for x in v],
               "w": [format_rational(x) for x in w],
               "dw": [[format_rational(x) for x in row] for row in dw]}
    for name, entries in (("R", R), ("T", T), ("dT1", dT1)):
        on_disk[name] = [[*(i + 1 for i in e[:-1]), format_rational(e[-1])]
                         for e in entries]
    try:
        expected = jet_from_dict(on_disk)
    except InstanceError as exc:
        with pytest.raises(InstanceError) as err:
            make_point_jet(m, R=R, T=T, dT1=dT1, v=v, w=w, dw=dw)
        assert str(err.value) == str(exc)
    else:
        assert make_point_jet(m, R=R, T=T, dT1=dT1, v=v, w=w, dw=dw) == expected
