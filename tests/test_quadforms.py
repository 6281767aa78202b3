from __future__ import annotations

import random

import numpy as np
import pytest

from thetanulls.f2core import (F2Vector, SymplecticMap, _combine, _mask_dtype,
                               _pair, _q0, transvection)
from thetanulls.quadforms import (
    _transvect_char,
    act_on_char,
    all_characteristics,
    characteristic_counts,
    parity,
)


def random_symplectic(g, rng, steps=8):
    """A product of random transvections T: the rows of T M are the rows
    of M combined over the set bits of each row of T."""
    rows = tuple(1 << i for i in range(2 * g))
    for _ in range(steps):
        t = transvection(F2Vector(g, rng.randrange(1, 1 << (2 * g))))
        rows = tuple(_combine(r, rows) for r in t.rows)
    return SymplecticMap(g, rows)


# Reference definitions on the mask kernel: the form q_k(v) = q0(v) + <k, v>
# of a characteristic k, its Arf invariant as the sum of q_k(e_i) q_k(f_i)
# over the standard symplectic basis, and M^-1 as the preimage table of M.

def _form(k, v, g):
    return _q0(v, g) ^ _pair(k, v, g)


def _arf(k, g):
    total = 0
    for i in range(g):
        total ^= _form(k, 1 << i, g) & _form(k, 1 << (g + i), g)
    return total


def _inverse(m):
    inv = [0] * (1 << (2 * m.g))
    for x in range(len(inv)):
        inv[m.apply_int(x)] = x
    return inv


def test_evaluate_examples():
    g = 6
    e1, f1 = 1, 1 << g
    assert _form(0, e1, g) == 0
    assert _form(0, e1 | f1, g) == 1
    assert _form(f1, e1, g) == 1


def test_defining_relation_exhaustive_g2():
    g = 2
    for k in range(1 << (2 * g)):
        for x in all_characteristics(g):
            for y in all_characteristics(g):
                assert _form(k, x.bits, g) ^ _form(k, y.bits, g) \
                    ^ _form(k, x.bits ^ y.bits, g) \
                    == (x.first_half & y.second_half).bit_count() % 2 \
                    ^ (x.second_half & y.first_half).bit_count() % 2


def test_arf_examples():
    assert parity(F2Vector(3, 0)) == _arf(0, 3) == 0
    assert parity(F2Vector(6, 1 | 1 << 6)) == _arf(1 | 1 << 6, 6) == 1


def test_arf_equals_basis_product_sum():
    rng = random.Random(5)
    for _ in range(300):
        g = rng.randint(1, 6)
        k = F2Vector(g, rng.randrange(1 << (2 * g)))
        assert parity(k) == _arf(k.bits, g)


def test_even_odd_counts_g1_to_g6():
    for g in range(1, 7):
        even = sum(1 for k in all_characteristics(g) if parity(k) == 0)
        odd = (1 << (2 * g)) - even
        assert even == (1 << (g - 1)) * ((1 << g) + 1)
        assert odd == (1 << (g - 1)) * ((1 << g) - 1)
        assert characteristic_counts(g) == (even, odd)


def test_parity_examples():
    assert parity(F2Vector(4, 0)) == 0
    assert parity(F2Vector.from_list([1, 1])) == 1


def test_char_form_bijection_and_parity_agreement():
    # a characteristic stands for its form q_k, and its parity is the Arf
    # invariant of q_k
    for g in (1, 2, 3, 6):
        for k in all_characteristics(g):
            assert parity(k) == _arf(k.bits, g)


def test_torsor_identity_exhaustive_g_le_3():
    # the Arf shift law: arf(q_k + <j, .>) = arf(q_k) + q_k(j)
    for g in (1, 2, 3):
        for k in all_characteristics(g):
            for j in all_characteristics(g):
                assert parity(k + j) == parity(k) ^ _form(k.bits, j.bits, g)


def test_act_identity():
    g = 4
    k = F2Vector(g, 1 << 1 | 1 << (g + 3))
    identity = SymplecticMap(g, tuple(1 << i for i in range(2 * g)))
    assert act_on_char(identity, k) == k


def test_act_matches_pullback_exhaustive_g2():
    g = 2
    rng = random.Random(23)
    maps = [random_symplectic(g, rng) for _ in range(12)]
    maps += [transvection(F2Vector(g, v)) for v in range(1, 16)]
    for m in maps:
        inv = _inverse(m)
        for k in range(1 << (2 * g)):
            moved = act_on_char(m, F2Vector(g, k)).bits
            for v in range(1 << (2 * g)):
                assert _form(moved, v, g) == _form(k, inv[v], g)


@pytest.mark.parametrize("g", [3, 6])
def test_act_matches_pullback_random(g):
    # the closed-form action against the definition q_k o M^-1 on sampled v
    rng = random.Random(100 + g)
    for _ in range(30):
        m = random_symplectic(g, rng, steps=4 * g)
        inv = _inverse(m)
        k = rng.randrange(1 << (2 * g))
        moved = act_on_char(m, F2Vector(g, k)).bits
        for _ in range(40):
            v = rng.randrange(1 << (2 * g))
            assert _form(moved, v, g) == _form(k, inv[v], g)


def test_act_is_left_action_random_g6():
    g = 6
    rng = random.Random(29)
    for _ in range(50):
        m = random_symplectic(g, rng)
        n = random_symplectic(g, rng)
        k = F2Vector(g, rng.randrange(1 << 12))
        mn = SymplecticMap(g, tuple(_combine(r, n.rows) for r in m.rows))
        assert act_on_char(mn, k) == act_on_char(m, act_on_char(n, k))


def test_act_preserves_arf():
    g = 6
    rng = random.Random(31)
    for _ in range(200):
        m = random_symplectic(g, rng)
        k = F2Vector(g, rng.randrange(1 << 12))
        assert parity(act_on_char(m, k)) == parity(k)


def test_orbit_of_standard_form_g2_is_even_forms():
    g = 2
    start = 0
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for k in frontier:
            for v in range(1, 1 << (2 * g)):
                moved = _transvect_char(v, k, g)
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    assert len(seen) == 10
    assert seen == {k.bits for k in all_characteristics(g) if parity(k) == 0}


def test_transvect_char_int_matches_act_on_char():
    rng = random.Random(37)
    for g in [rng.randint(1, 4) for _ in range(300)] + [40] * 5 + [70] * 5:
        v = rng.randrange(1, 1 << (2 * g))
        k = rng.randrange(1 << (2 * g))
        moved = act_on_char(transvection(F2Vector(g, v)), F2Vector(g, k))
        assert moved.bits == _transvect_char(v, k, g)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_transvect_char_arr_matches_act_on_char_exhaustive(g):
    n = 1 << (2 * g)
    v = np.arange(1, n)[:, None]
    k = np.arange(n)[None, :]
    assert _transvect_char(v, k, g).tolist() == \
        [[act_on_char(transvection(F2Vector(g, x)), F2Vector(g, y)).bits
          for y in range(n)] for x in range(1, n)]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_transvect_char_arr_matches_scalar_exhaustive(g):
    # the one kernel on int64 arrays agrees with it on Python ints
    n = 1 << (2 * g)
    v = np.arange(1, n)[:, None]
    k = np.arange(n)[None, :]
    assert _transvect_char(v, k, g).tolist() == \
        [[_transvect_char(x, y, g) for y in range(n)]
         for x in range(1, n)]


@pytest.mark.parametrize("bits, g", [(14, 7), (15, 8), (16, 8)])
def test_transvect_char_narrow_arr_matches_scalar_at_the_width_boundary(
        bits, g):
    # int16 holds 14 and 15 bits, int32 16: the image stays in the masks'
    # dtype, and the top masks would wrap in a narrower one
    rng = np.random.default_rng(bits)
    top = [(1 << bits) - 1, 1 << (bits - 1), ((1 << bits) - 1) >> 1]
    vs = rng.integers(1, 1 << bits, size=300).tolist() + top
    ks = rng.integers(1 << bits, size=300).tolist() + top[::-1]
    dtype = _mask_dtype(bits)
    got = _transvect_char(np.array(vs, dtype=dtype)[:, None],
                          np.array(ks, dtype=dtype)[None, :], g)
    assert got.dtype == dtype
    assert got.tolist() == [[_transvect_char(v, k, g) for k in ks]
                            for v in vs]
