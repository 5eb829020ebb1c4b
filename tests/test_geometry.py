"""Jet generation, tensor symmetries, derived scalars, serialization."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from wres_torsion.geometry import (
    InstanceError,
    PointJet,
    _antisym3_violations,
    _riemann_violations,
    dT_four_form,
    jet_from_dict,
    jet_to_dict,
    make_point_jet,
    random_point_jet,
    ricci_scalar,
    torsion_norm_sq,
    validate_symmetries,
    zero_point_jet,
)


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
    assert all(x == 0 for plane in jet.T for row in plane for x in row)
    assert all(x == 0 for cube in jet.dT1 for plane in cube for row in plane
               for x in row)


def test_unsupported_dimension():
    with pytest.raises(ValueError):
        random_point_jet(0, 4)


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
    jet = zero_point_jet(2)
    ric, s = ricci_scalar(jet.R)
    assert s == 0
    assert all(x == 0 for row in ric for x in row)


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
    _, s = ricci_scalar(jet.R)
    assert s == n * (n - 1) * kappa


def test_ricci_symmetric_on_random_input():
    jet = random_point_jet(17, 3)
    ric, _ = ricci_scalar(jet.R)
    n = jet.n
    for b in range(n):
        for k in range(n):
            assert ric[b][k] == ric[k][b]


def test_ricci_rejects_asymmetric_input():
    bad = [[[[Fraction(1) if (a, b, c, d) == (0, 1, 0, 1) else Fraction(0)
              for d in range(4)] for c in range(4)] for b in range(4)]
           for a in range(4)]
    with pytest.raises(ValueError):
        ricci_scalar(tuple(tuple(tuple(tuple(x for x in r) for r in p) for p in q)
                           for q in bad))


# ---------------------------------------------------------------------------
# torsion helpers
# ---------------------------------------------------------------------------

def test_dT_four_form_zero():
    jet = zero_point_jet(3)
    dT4 = dT_four_form(jet.dT1)
    assert all(x == 0 for c3 in dT4 for c2 in c3 for c1 in c2 for x in c1)


def test_dT_four_form_one_hot():
    # only d_1 T_{234} = 1: single surviving term of the alternation
    jet = make_point_jet(3, dT1=[(0, 1, 2, 3, 1)])
    dT4 = dT_four_form(jet.dT1)
    assert dT4[0][1][2][3] == 1
    assert dT4[1][0][2][3] == -1
    # a cyclic shift of four slots is an odd permutation
    assert dT4[1][2][3][0] == -1


def test_dT_four_form_alternation():
    jet = random_point_jet(5, 3)
    dT4 = dT_four_form(jet.dT1)
    n = jet.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for t in range(n):
                    assert dT4[i][j][k][t] == -dT4[j][i][k][t]
                    assert dT4[i][j][k][t] == -dT4[i][k][j][t]
                    assert dT4[i][j][k][t] == -dT4[i][j][t][k]


def test_torsion_norm_examples():
    jet = zero_point_jet(3)
    assert torsion_norm_sq(jet.T) == 0
    one_hot = make_point_jet(3, T=[(0, 1, 2, 1)])
    assert torsion_norm_sq(one_hot.T) == 1
    # sum of squares over increasing triples: (1/2)^2 + (1/3)^2 = 13/36
    two = make_point_jet(3, T=[(0, 1, 2, Fraction(1, 2)),
                               (0, 1, 3, Fraction(1, 3))])
    assert torsion_norm_sq(two.T) == Fraction(13, 36)


# ---------------------------------------------------------------------------
# validator fault detection
# ---------------------------------------------------------------------------

def _tamper(jet: PointJet, path, value) -> PointJet:
    def unfreeze(x):
        return [unfreeze(e) for e in x] if isinstance(x, tuple) else x

    data = {"R": unfreeze(jet.R), "T": unfreeze(jet.T), "dT1": unfreeze(jet.dT1)}
    tensor = data[path[0]]
    node = tensor
    for idx in path[1:-1]:
        node = node[idx]
    node[path[-1]] = value

    def freeze(x):
        return tuple(freeze(e) for e in x) if isinstance(x, list) else x

    return PointJet(m=jet.m, R=freeze(data["R"]), T=freeze(data["T"]),
                    dT1=freeze(data["dT1"]), v=jet.v, w=jet.w, dw=jet.dw)


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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_roundtrip_byte_identical():
    jet = random_point_jet(8, 2)
    blob = json.dumps(jet_to_dict(jet), indent=2, sort_keys=True)
    again = json.dumps(jet_to_dict(jet_from_dict(json.loads(blob))),
                       indent=2, sort_keys=True)
    assert blob == again


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

