from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from thetanulls.errors import DomainError
from thetanulls.f2core import (
    F2Vector,
    _pair_arr,
    _pair_int,
    _q0_arr,
    _q0_int,
    _rank_int,
    _solve_f2,
    SymplecticMap,
    basis_e,
    basis_f,
    is_symplectic,
    q0,
    span_dim,
    serial_key,
    symplectic_pairing,
    transvection,
    witt_extend,
)


def all_vectors(g):
    return [F2Vector(g, b) for b in range(1 << (2 * g))]


@pytest.mark.parametrize("g", [1, 2, 3, 4, 6])
def test_array_kernel_matches_scalar_kernel(g):
    rng = np.random.default_rng(g)
    a = rng.integers(1 << (2 * g), size=400)
    b = rng.integers(1 << (2 * g), size=400)
    assert _pair_arr(a, b, g).tolist() == \
        [_pair_int(x, y, g) for x, y in zip(a.tolist(), b.tolist())]
    assert _q0_arr(a, g).tolist() == [_q0_int(x, g) for x in a.tolist()]


def test_vector_roundtrip():
    v = F2Vector.from_list([1, 0, 1, 0, 0, 1])
    assert v.g == 3
    assert v.to_list() == [1, 0, 1, 0, 0, 1]
    assert v.first_half == 0b101
    assert v.second_half == 0b100


def test_vector_validation():
    with pytest.raises(DomainError):
        F2Vector(0, 0)
    with pytest.raises(DomainError):
        F2Vector(2, 1 << 4)
    with pytest.raises(DomainError):
        F2Vector.from_list([1, 0, 1])
    with pytest.raises(DomainError):
        F2Vector.from_list([1, 2])


def test_serial_key_is_lex_on_coordinates():
    # bit 0 is serialized first, so the int order differs from lex order
    a = F2Vector(2, 0b0001)  # [1,0,0,0]
    b = F2Vector(2, 0b1110)  # [0,1,1,1]
    assert serial_key(a) > serial_key(b)
    assert a.bits < b.bits


def test_pairing_dual_basis_pair():
    assert symplectic_pairing(basis_e(6, 0), basis_f(6, 0)) == 1


def test_pairing_alternating():
    for v in all_vectors(2):
        assert symplectic_pairing(v, v) == 0


def test_pairing_cross_terms_cancel():
    a = basis_e(6, 0) + basis_f(6, 1)
    b = basis_e(6, 1) + basis_f(6, 0)
    assert symplectic_pairing(a, b) == 0


def test_pairing_bilinear_exhaustive_g2():
    vs = all_vectors(2)
    rng = random.Random(2)
    for _ in range(3000):
        a, b, c = rng.choice(vs), rng.choice(vs), rng.choice(vs)
        assert symplectic_pairing(a + b, c) == (
            symplectic_pairing(a, c) ^ symplectic_pairing(b, c))


def test_pairing_bilinear_random_g6():
    rng = random.Random(6)
    for _ in range(1000):
        a, b, c = (F2Vector(6, rng.randrange(1 << 12)) for _ in range(3))
        assert symplectic_pairing(a + b, c) == (
            symplectic_pairing(a, c) ^ symplectic_pairing(b, c))
        assert symplectic_pairing(a, a) == 0


def test_pairing_nondegenerate_g2():
    for v in all_vectors(2):
        if v.is_zero():
            continue
        assert any(symplectic_pairing(v, w) for w in all_vectors(2))


def test_pairing_g_mismatch():
    with pytest.raises(DomainError):
        symplectic_pairing(basis_e(2, 0), basis_e(3, 0))


def test_is_symplectic_identity():
    n = 6
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert is_symplectic(ident)


def test_is_symplectic_transvections():
    for v in all_vectors(2):
        if v.is_zero():
            continue
        assert is_symplectic(transvection(v).to_lists())


def test_is_symplectic_rejects_e_swap():
    # swapping e1 and e2 while fixing f1, f2 breaks <e1, f1>
    g = 2
    m = [[0] * 4 for _ in range(4)]
    m[0][1] = m[1][0] = 1
    m[2][2] = m[3][3] = 1
    assert not is_symplectic(m)


def test_is_symplectic_shape_errors():
    with pytest.raises(DomainError):
        is_symplectic([[1, 0], [0]])
    with pytest.raises(DomainError):
        is_symplectic([[1]])


def test_transvection_examples():
    e1, e2, f1 = basis_e(6, 0), basis_e(6, 1), basis_f(6, 0)
    t = transvection(e1)
    assert t.apply(f1) == f1 + e1
    assert t.apply(e2) == e2


def test_transvection_involution_exhaustive_g2():
    ident = SymplecticMap.identity(2)
    for v in all_vectors(2):
        if v.is_zero():
            continue
        t = transvection(v)
        assert t @ t == ident


def test_transvection_zero_rejected():
    with pytest.raises(DomainError):
        transvection(F2Vector.zero(3))


def test_compose_apply_consistent():
    rng = random.Random(11)
    g = 3
    maps = []
    for _ in range(20):
        v = F2Vector(g, rng.randrange(1, 1 << (2 * g)))
        maps.append(transvection(v))
    a, b = rng.choice(maps), rng.choice(maps)
    for _ in range(200):
        x = F2Vector(g, rng.randrange(1 << (2 * g)))
        assert (a @ b).apply(x) == a.apply(b.apply(x))


def test_inverse():
    rng = random.Random(13)
    g = 3
    m = SymplecticMap.identity(g)
    for _ in range(6):
        m = transvection(F2Vector(g, rng.randrange(1, 1 << (2 * g)))) @ m
    assert m @ m.inverse() == SymplecticMap.identity(g)
    assert m.inverse() @ m == SymplecticMap.identity(g)


def test_map_serialization_roundtrip():
    m = transvection(basis_e(2, 0) + basis_f(2, 1))
    assert SymplecticMap.from_lists(m.to_lists()) == m


def test_span_dim():
    e1, e2, e3 = (basis_e(6, i) for i in range(3))
    assert span_dim([e1, e2, e1 + e2]) == 2
    assert span_dim([e1, e2, e3]) == 3
    assert span_dim([]) == 0
    assert span_dim([F2Vector.zero(4)]) == 0


def _syndrome(rows, z):
    """The bits popcount(row & z) mod 2, row i at bit i."""
    return sum(((r & z).bit_count() & 1) << i for i, r in enumerate(rows))


def _span(vectors):
    """Every F_2 combination of the vectors, as a set of masks."""
    span = {0}
    for v in vectors:
        span |= {x ^ v for x in span}
    return span


def test_elimination_against_brute_force():
    # every tuple of up to 3 rows in F_2^4, against every right-hand side
    n = 4
    for m in range(4):
        for rows in itertools.product(range(1 << n), repeat=m):
            rank = _rank_int(rows)
            assert 1 << rank == len(_span(rows))
            solutions = {}
            for z in range(1 << n):
                solutions.setdefault(_syndrome(rows, z), set()).add(z)
            for s in range(1 << m):
                rhs = [(s >> i) & 1 for i in range(m)]
                sol = _solve_f2(rows, rhs, n)
                if s not in solutions:
                    assert sol is None
                    continue
                (z0,), null = sol
                assert len(null) == n - rank
                assert {z0 ^ x for x in _span(null)} == solutions[s]
            # one system per z at once: bit z of rhs[i] is <row_i, z>
            rhs = [sum(((r & z).bit_count() & 1) << z for z in range(1 << n))
                   for r in rows]
            particular, null = _solve_f2(rows, rhs, n, 1 << n)
            assert len(null) == n - rank
            for z, z0 in enumerate(particular):
                assert _syndrome(rows, z0) == _syndrome(rows, z)


def test_witt_extend_single_vector():
    g = 6
    m = witt_extend([basis_e(g, 0)], [basis_e(g, 1)])
    assert m.apply(basis_e(g, 0)) == basis_e(g, 1)
    for i in range(2 * g):
        v = F2Vector(g, 1 << i)
        assert q0(m.apply(v)) == q0(v)


def test_witt_extend_identity_case():
    g = 3
    vs = [basis_e(g, 0), basis_f(g, 2)]
    m = witt_extend(vs, vs)
    for v in vs:
        assert m.apply(v) == v


def test_witt_extend_q0_mismatch_rejected():
    g = 6
    with pytest.raises(DomainError):
        witt_extend([basis_e(g, 0)], [basis_e(g, 0) + basis_f(g, 0)])


def test_witt_extend_dependent_rejected():
    g = 3
    e1, e2 = basis_e(g, 0), basis_e(g, 1)
    with pytest.raises(DomainError):
        witt_extend([e1, e2, e1 + e2], [e1, e2, e1 + e2])


def test_witt_extend_gram_mismatch_rejected():
    g = 3
    with pytest.raises(DomainError):
        witt_extend([basis_e(g, 0), basis_f(g, 0)],
                    [basis_e(g, 0), basis_f(g, 1)])


def test_witt_extend_full_basis_swap():
    # this instance is outside the subgroup generated by q0-nonsingular
    # transvections (the dimension-4 exception)
    g = 2
    src = [basis_e(g, 0), basis_f(g, 0), basis_e(g, 1), basis_f(g, 1)]
    tgt = [basis_e(g, 1), basis_f(g, 1), basis_e(g, 0), basis_f(g, 0)]
    m = witt_extend(src, tgt)
    assert [m.apply(s) for s in src] == tgt


def test_witt_extend_exhaustive_group_g2():
    # every column tuple that is a symplectic basis with q0 = 0 on each
    # column: the 72 elements of O+(4, 2), most of them outside the
    # subgroup generated by q0-nonsingular transvections
    g = 2
    n = 2 * g
    std = [F2Vector(g, 1 << i) for i in range(n)]
    group = [cols for cols in itertools.product(range(1 << n), repeat=n)
             if all(_q0_int(c, g) == 0 for c in cols)
             and all(_pair_int(cols[i], cols[j], g) == (j - i == g)
                     for i in range(n) for j in range(i + 1, n))]
    assert len(group) == 72
    for cols in group:
        m = witt_extend(std, [F2Vector(g, c) for c in cols])
        assert [m.column(j) for j in range(n)] == list(cols)


def _random_valid_instance(rng, g, m):
    n = 2 * g
    src = []
    while len(src) < m:
        v = F2Vector(g, rng.randrange(1, 1 << n))
        if span_dim(src + [v]) == len(src) + 1:
            src.append(v)
    iso = SymplecticMap.identity(g)
    for _ in range(rng.randint(1, 10)):
        v = F2Vector(g, rng.randrange(1, 1 << n))
        if q0(v) == 1:
            iso = transvection(v) @ iso
    return src, [iso.apply(s) for s in src]


def test_witt_extend_random_instances_g6():
    rng = random.Random(101)
    basis = [F2Vector(6, 1 << i) for i in range(12)]
    for _ in range(1000):
        m = rng.randint(1, 12)
        src, tgt = _random_valid_instance(rng, 6, m)
        w = witt_extend(src, tgt)
        assert [w.apply(s) for s in src] == tgt
        for b in basis:
            assert q0(w.apply(b)) == q0(b)


def test_witt_extend_exhaustive_pairs_g2():
    # every compatible (source, target) pair of single vectors
    g = 2
    vs = [v for v in all_vectors(g) if not v.is_zero()]
    for s, t in itertools.product(vs, vs):
        if q0(s) != q0(t):
            continue
        m = witt_extend([s], [t])
        assert m.apply(s) == t
