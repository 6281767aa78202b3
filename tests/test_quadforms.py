from __future__ import annotations

import random

import numpy as np
import pytest

from thetanulls.errors import DomainError
from thetanulls.f2core import (
    F2Vector,
    SymplecticMap,
    basis_e,
    basis_f,
    transvection,
)
from thetanulls.quadforms import (
    QuadraticForm,
    _transvect_char,
    act_on_char,
    act_on_form,
    all_characteristics,
    arf,
    char_to_form,
    evaluate,
    even_characteristics,
    form_to_char,
    parity,
)


def random_symplectic(g, rng, steps=8):
    m = SymplecticMap.identity(g)
    for _ in range(steps):
        m = transvection(F2Vector(g, rng.randrange(1, 1 << (2 * g)))) @ m
    return m


def test_evaluate_examples():
    q_std = QuadraticForm.standard(6)
    assert evaluate(q_std, basis_e(6, 0)) == 0
    assert evaluate(q_std, basis_e(6, 0) + basis_f(6, 0)) == 1
    q = QuadraticForm(6, basis_f(6, 0))
    assert evaluate(q, basis_e(6, 0)) == 1


def test_evaluate_g_mismatch():
    with pytest.raises(DomainError):
        evaluate(QuadraticForm.standard(2), basis_e(3, 0))


def test_defining_relation_exhaustive_g2():
    g = 2
    for shift in all_characteristics(g):
        q = QuadraticForm(g, shift)
        for x in all_characteristics(g):
            for y in all_characteristics(g):
                assert evaluate(q, x) ^ evaluate(q, y) ^ evaluate(q, x + y) \
                    == (x.first_half & y.second_half).bit_count() % 2 \
                    ^ (x.second_half & y.first_half).bit_count() % 2


def test_arf_examples():
    assert arf(QuadraticForm.standard(3)) == 0
    assert arf(QuadraticForm(6, basis_e(6, 0) + basis_f(6, 0))) == 1


def test_arf_equals_basis_product_sum():
    rng = random.Random(5)
    for _ in range(300):
        g = rng.randint(1, 6)
        q = QuadraticForm(g, F2Vector(g, rng.randrange(1 << (2 * g))))
        total = 0
        for i in range(g):
            total ^= evaluate(q, basis_e(g, i)) & evaluate(q, basis_f(g, i))
        assert arf(q) == total


def test_even_odd_counts_g1_to_g6():
    for g in range(1, 7):
        even = sum(1 for k in all_characteristics(g) if parity(k) == 0)
        odd = (1 << (2 * g)) - even
        assert even == (1 << (g - 1)) * ((1 << g) + 1)
        assert odd == (1 << (g - 1)) * ((1 << g) - 1)
    assert sum(1 for _ in even_characteristics(6)) == 2080


def test_parity_examples():
    assert parity(F2Vector.zero(4)) == 0
    assert parity(F2Vector.from_list([1, 1])) == 1


def test_char_form_bijection_and_parity_agreement():
    for g in (1, 2, 3, 6):
        for k in all_characteristics(g):
            q = char_to_form(k)
            assert form_to_char(q) == k
            assert parity(k) == arf(q)


def test_char_form_equivariance():
    g = 3
    rng = random.Random(17)
    for _ in range(200):
        k = F2Vector(g, rng.randrange(1 << (2 * g)))
        j = F2Vector(g, rng.randrange(1 << (2 * g)))
        assert char_to_form(k + j) == char_to_form(k).shifted(j)


def test_torsor_identity_exhaustive_g_le_3():
    for g in (1, 2, 3):
        for shift in all_characteristics(g):
            q = QuadraticForm(g, shift)
            for j in all_characteristics(g):
                assert arf(q.shifted(j)) == arf(q) ^ evaluate(q, j)


def test_act_identity():
    g = 4
    q = QuadraticForm(g, basis_e(g, 1) + basis_f(g, 3))
    assert act_on_form(SymplecticMap.identity(g), q) == q


def test_act_matches_pullback_exhaustive_g2():
    g = 2
    rng = random.Random(23)
    maps = [random_symplectic(g, rng) for _ in range(12)]
    maps += [transvection(F2Vector(g, v)) for v in range(1, 16)]
    for m in maps:
        inv = m.inverse()
        for shift in all_characteristics(g):
            q = QuadraticForm(g, shift)
            moved = act_on_form(m, q)
            for v in all_characteristics(g):
                assert evaluate(moved, v) == evaluate(q, inv.apply(v))


@pytest.mark.parametrize("g", [3, 6])
def test_act_matches_pullback_random(g):
    # the closed-form action against the definition q o M^-1 on sampled v
    rng = random.Random(100 + g)
    for _ in range(30):
        m = random_symplectic(g, rng, steps=4 * g)
        inv = m.inverse()
        q = QuadraticForm(g, F2Vector(g, rng.randrange(1 << (2 * g))))
        moved = act_on_form(m, q)
        assert act_on_char(m, q.shift) == moved.shift
        for _ in range(40):
            v = F2Vector(g, rng.randrange(1 << (2 * g)))
            assert evaluate(moved, v) == evaluate(q, inv.apply(v))


def test_act_is_left_action_random_g6():
    g = 6
    rng = random.Random(29)
    for _ in range(50):
        m = random_symplectic(g, rng)
        n = random_symplectic(g, rng)
        q = QuadraticForm(g, F2Vector(g, rng.randrange(1 << 12)))
        assert act_on_form(m @ n, q) == act_on_form(m, act_on_form(n, q))


def test_act_preserves_arf():
    g = 6
    rng = random.Random(31)
    for _ in range(200):
        m = random_symplectic(g, rng)
        q = QuadraticForm(g, F2Vector(g, rng.randrange(1 << 12)))
        assert arf(act_on_form(m, q)) == arf(q)


def test_orbit_of_standard_form_g2_is_even_forms():
    g = 2
    start = F2Vector.zero(g).bits
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
