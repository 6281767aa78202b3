from __future__ import annotations

import random
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from thetanulls import bielliptic
from thetanulls.bielliptic import (
    BChar,
    F1,
    F2,
    F3,
    _code_at_base,
    _combo,
    all_chars,
    classify_bielliptic,
    realization,
    realize_in_f2,
    verify_witnesses,
    witness_quadruples,
)
from thetanulls.errors import DomainError, MalformedInputError
from thetanulls.orbits import (OrbitClass, classify as orbits_classify,
                               classify_array)


# The kernel's two readings on model characteristics: the pairing
# <a - base, b - base>, the parity of the combo a + b - base, and whether
# (a - base) + (b - base) + (c - base) = 0, the A1 class code at base.

def pairing(base, a, b):
    return _combo(*((c.fixed_point, c.twist) for c in (a, b, base)))[0]


def triple_sum_is_zero(base, a, b, c):
    return _code_at_base(*((k.fixed_point, k.twist)
                           for k in (base, a, b, c))) == 0


def test_all_chars_structure():
    chars = all_chars()
    assert len(chars) == 40
    assert len(set(chars)) == 40
    for i in range(1, 11):
        fam = [c for c in chars if c.fixed_point == i]
        assert len(fam) == 4
        assert {c.twist for c in fam} == {0, 1, 2, 3}


def test_bchar_validation_and_json():
    with pytest.raises(DomainError):
        BChar(0, 0)
    with pytest.raises(DomainError):
        BChar(11, 0)
    with pytest.raises(DomainError):
        BChar(1, 4)
    c = BChar(7, F2)
    assert BChar.from_json_dict(c.to_json_dict()) == c
    with pytest.raises(MalformedInputError):
        BChar.from_json_dict({"fixed_point": 1})


@pytest.mark.parametrize("fp, tw", [(1.0, 0), (1, 0.0), (True, 0), (1, False),
                                    ("1", 0), (None, 0), (np.True_, 0)])
def test_bchar_refuses_non_integers(fp, tw):
    # the kernel xors fixed points and twists, so both must be true ints
    with pytest.raises(DomainError, match="must be an integer"):
        BChar(fp, tw)


def test_bchar_takes_numpy_integers_as_ints():
    c = BChar(np.int64(3), np.uint8(2))
    assert c == BChar(3, F2)
    assert type(c.fixed_point) is int and type(c.twist) is int


@pytest.mark.parametrize("data", [{"fixed_point": True, "twist": False},
                                  {"fixed_point": 1, "twist": False},
                                  {"fixed_point": 1.0, "twist": 0}])
def test_bchar_json_refuses_booleans_and_floats(data):
    with pytest.raises(MalformedInputError):
        BChar.from_json_dict(data)


def test_pairing_parity_rule():
    # the parity of the combo a + b - base: odd iff three distinct families
    assert pairing(BChar(2, 0), BChar(1, 0), BChar(1, F1)) == 0
    assert pairing(BChar(3, 0), BChar(1, 0), BChar(2, 0)) == 1
    assert pairing(BChar(1, F2), BChar(1, 0), BChar(1, F1)) == 0


def test_pairing_swap_invariant():
    rng = random.Random(67)
    chars = all_chars()
    for _ in range(200):
        a, b, s = rng.sample(chars, 3)
        assert pairing(s, a, b) == pairing(s, b, a)


def test_triple_sum_same_family():
    # (1,F1) + (1,F2) - (1,0) = (1,F3): one family reduces by xor of twists
    assert triple_sum_is_zero(BChar(1, 0), BChar(1, F1), BChar(1, F2),
                              BChar(1, F3))
    # (2,0) + (2,F1) - (2,F3) = (2,F2), which is not (5,F2)
    assert triple_sum_is_zero(BChar(2, F3), BChar(2, 0), BChar(2, F1),
                              BChar(2, F2))
    assert not triple_sum_is_zero(BChar(2, F3), BChar(2, 0), BChar(2, F1),
                                  BChar(5, F2))


def test_pairing_examples():
    assert pairing(BChar(2, 0), BChar(1, 0), BChar(1, F1)) == 0
    assert pairing(BChar(4, 0), BChar(1, 0), BChar(2, 0)) == 1
    assert pairing(BChar(4, 0), BChar(2, 0), BChar(1, 0)) == 1


def test_pairing_depends_only_on_fixed_points():
    for ta in range(4):
        for tb in range(4):
            for ts in range(4):
                assert pairing(BChar(3, ts), BChar(1, ta), BChar(2, tb)) == 1
        for delta in (1, 2, 3):
            for ts in range(4):
                assert pairing(BChar(2, ts), BChar(1, ta),
                               BChar(1, ta ^ delta)) == 0


def test_triple_sum_examples():
    w = witness_quadruples()
    (a, b, c, d), _ = w[0]
    # (1,0) + (2,F1) - (2,0) = (1,F1): the A1 dependence
    assert triple_sum_is_zero(d, a, b, c)
    (a, b, c, d), _ = w[1]
    assert not triple_sum_is_zero(d, a, b, c)
    (a, b, c, d), _ = w[3]
    assert not triple_sum_is_zero(d, a, b, c)


def test_triple_sum_matches_realization_exhaustively():
    # the sum is zero exactly where the realized masks XOR to 0
    n = 0
    for q, masks in zip(combinations(all_chars(), 4),
                        combinations(realization(), 4)):
        dep = triple_sum_is_zero(q[3], q[0], q[1], q[2])
        assert dep == (reduce(int.__xor__, masks) == 0), q
        n += dep
    assert n == 550


def test_realization_shape():
    masks = realization()
    assert len(masks) == 40 and all(0 <= m < 1 << 12 for m in masks)
    assert masks[:4] == (0x1, 0x11, 0x21, 0x31)  # (1, t): d_1 + (t << 4)
    assert masks[36:] == (0, 0x10, 0x20, 0x30)   # (10, t): d_10 = 0
    assert realization() is masks


def test_realize_in_f2_is_a_table_lookup():
    quad = [BChar(3, F2), BChar(10, 0), BChar(1, F3), BChar(9, F1)]
    table = realization()
    got = realize_in_f2(quad)
    assert got.g == 6
    assert [k.bits for k in got.chars] == [
        table[4 * (c.fixed_point - 1) + c.twist] for c in quad]
    with pytest.raises(MalformedInputError):
        realize_in_f2(quad[:3])
    with pytest.raises(DomainError):
        realize_in_f2(quad[:3] + [quad[0]])


def test_realization_checks_parity_rule(monkeypatch):
    # 0x2 is even and new to the table, but <0x2, 0x40> = 0, so the odd
    # combo (1, 0) + (2, 0) - (10, 0) is realized by an even mask
    broken = (0x2,) + bielliptic._FAMILIES[1:]
    monkeypatch.setattr(bielliptic, "_FAMILIES", broken)
    with pytest.raises(AssertionError, match="parity rule"):
        realization.__wrapped__()


def test_witness_classifications():
    for chars, expected in witness_quadruples():
        assert classify_bielliptic(chars) == expected


def test_verify_witnesses_report():
    report = verify_witnesses()
    assert len(report) == 4
    assert [r["expected"] for r in report] == ["A1", "A2", "A3", "A4"]
    assert all(r["ok"] for r in report)
    assert all(r["parity_rules"] == r["expected"] == r["realized"]
               for r in report)


def test_classify_permutation_invariant():
    rng = random.Random(73)
    for chars, expected in witness_quadruples():
        perm = list(chars)
        for _ in range(5):
            rng.shuffle(perm)
            assert classify_bielliptic(perm) == expected


def test_single_family_quadruple_is_a1():
    quad = [BChar(1, t) for t in range(4)]
    assert classify_bielliptic(quad) == OrbitClass.A1


def test_classify_validation():
    with pytest.raises(MalformedInputError):
        classify_bielliptic([BChar(1, 0), BChar(2, 0), BChar(3, 0)])
    with pytest.raises(DomainError):
        classify_bielliptic([BChar(1, 0), BChar(1, 0), BChar(2, 0),
                             BChar(3, 0)])


def test_model_census_counts():
    # every quadruple through the kernel at all four bases (each asserting
    # that its three splits agree), matched label by label against one
    # classify_array call on the realization's masks
    idx = np.array(list(combinations(range(40), 4)))
    cols = list(zip(idx.T // 4 + 1, idx.T % 4))  # (fixed point, twist)
    want = classify_array(np.array(realization())[idx], 6)
    for i in range(4):
        got = bielliptic._code_at_base(cols[i], *(cols[:i] + cols[i + 1:]))
        assert np.array_equal(got, want)
    assert np.bincount(want).tolist() == [550, 2520, 34560, 53760]


def test_realization_agrees_on_sample():
    rng = random.Random(79)
    chars = all_chars()
    for _ in range(1500):
        quad = rng.sample(chars, 4)
        cls = classify_bielliptic(quad)
        realized = realize_in_f2(quad)
        assert orbits_classify(realized) == cls
