from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from thetanulls.errors import DomainError
from thetanulls.f2core import (
    F2Vector,
    _combine,
    _dot_rows,
    _mask_dtype,
    _pair,
    _popcount,
    _preserves_pairing,
    _q0,
    _rank_int,
    _solve_f2,
    SymplecticMap,
    q0,
    symplectic_pairing,
    transvection,
    witt_extend,
)


def all_vectors(g):
    return [F2Vector(g, b) for b in range(1 << (2 * g))]


def basis_e(g, i):
    """e_i, the i-th first-half standard basis vector."""
    return F2Vector(g, 1 << i)


def basis_f(g, i):
    """f_i, with <e_i, f_j> = delta_ij."""
    return F2Vector(g, 1 << (g + i))


# Reference definitions, coordinate by coordinate and independent of the
# mask kernel: <a, b> = sum_i a_i b_(g+i) + a_(g+i) b_i and
# q0(v) = sum_i v_i v_(g+i), mod 2.

def _coords(v, n):
    return [(v >> i) & 1 for i in range(n)]


def _ref_pair(a, b, g):
    x, y = _coords(a, 2 * g), _coords(b, 2 * g)
    return sum(x[i] * y[g + i] + x[g + i] * y[i] for i in range(g)) % 2


def _ref_q0(v, g):
    x = _coords(v, 2 * g)
    return sum(x[i] * x[g + i] for i in range(g)) % 2


@pytest.mark.parametrize("g", [1, 2, 3])
def test_kernel_matches_coordinate_definition_exhaustive(g):
    n = 1 << (2 * g)
    ref_pair = [[_ref_pair(x, y, g) for y in range(n)] for x in range(n)]
    ref_q0 = [_ref_q0(x, g) for x in range(n)]
    v = np.arange(n, dtype=_mask_dtype(2 * g))
    assert v.dtype == np.int8
    pair = _pair(v[:, None], v[None, :], g)
    # the parity stays in np.bitwise_count's uint8
    assert pair.dtype == _q0(v, g).dtype == np.uint8
    assert pair.tolist() == ref_pair
    assert _q0(v, g).tolist() == ref_q0
    assert [[_pair(x, y, g) for y in range(n)] for x in range(n)] == ref_pair
    assert [_q0(x, g) for x in range(n)] == ref_q0


@pytest.mark.parametrize("g", [40, 70])
def test_kernel_matches_coordinate_definition_past_int64(g):
    # 2g = 80 and 140 bits: past int64 and past uint64
    rng = random.Random(g)
    vs = [rng.getrandbits(2 * g) for _ in range(300)] + [(1 << (2 * g)) - 1]
    for a, b in zip(vs, vs[1:] + vs[:1]):
        assert _pair(a, b, g) == _ref_pair(a, b, g)
        assert _pair(a, a, g) == 0
    assert [_q0(v, g) for v in vs] == [_ref_q0(v, g) for v in vs]
    assert _popcount(vs[-1]) == 2 * g


@pytest.mark.parametrize("g", [1, 2, 3, 4, 6])
def test_array_kernel_matches_scalar_kernel(g):
    # the one kernel on int64 arrays agrees with it on Python ints
    rng = np.random.default_rng(g)
    a = rng.integers(1 << (2 * g), size=400)
    b = rng.integers(1 << (2 * g), size=400)
    assert _pair(a, b, g).tolist() == \
        [_pair(x, y, g) for x, y in zip(a.tolist(), b.tolist())]
    assert _q0(a, g).tolist() == [_q0(x, g) for x in a.tolist()]


@pytest.mark.parametrize("bits, dtype", [
    (2, np.int8), (7, np.int8), (8, np.int16), (14, np.int16),
    (15, np.int16), (16, np.int32), (31, np.int32), (32, np.int64)])
def test_mask_dtype_is_the_narrowest_signed_dtype(bits, dtype):
    assert _mask_dtype(bits) == dtype
    top = np.array([(1 << bits) - 1, 1 << (bits - 1)], dtype=_mask_dtype(bits))
    assert top.tolist() == [(1 << bits) - 1, 1 << (bits - 1)]


@pytest.mark.parametrize("bits, g", [(14, 7), (15, 8), (16, 8)])
def test_narrow_array_kernel_matches_int_kernel_at_the_width_boundary(
        bits, g):
    # int16 holds 14 and 15 bits, int32 16; the top masks are the ones
    # that would wrap in too narrow a dtype
    rng = np.random.default_rng(bits)
    vals = rng.integers(1 << bits, size=500).tolist() + [
        (1 << bits) - 1, 1 << (bits - 1), ((1 << bits) - 1) >> 1, 0]
    a = np.array(vals, dtype=_mask_dtype(bits))
    b = a[::-1]
    pair, q = _pair(a, b, g), _q0(a, g)
    assert pair.dtype == q.dtype == np.uint8
    assert pair.tolist() == [_pair(x, y, g) for x, y in zip(vals, vals[::-1])]
    assert q.tolist() == [_q0(x, g) for x in vals]


def test_array_popcount_is_int64():
    # np.bitwise_count gives uint8; differences of counts must not wrap
    m = np.array([0, 1, 0b1011, (1 << 63) - 1], dtype=np.int64)
    assert _popcount(m).dtype == np.int64
    assert (_popcount(m) - 64).tolist() == [-64, -63, -61, -1]


def _matrix(rows, n):
    """The 0/1 matrix with row masks rows and n columns."""
    return [_coords(r, n) for r in rows]


def _matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) % 2 for col in zip(*y)]
            for row in x]


def _mat_vec(a, x):
    """A x for the 0/1 matrix A, as a mask."""
    col = _matmul(a, [[b] for b in _coords(x, len(a[0]))])
    return sum(r[0] << i for i, r in enumerate(col))


def _vec_mat(k, a):
    """k^T A for the 0/1 matrix A, as a mask."""
    (row,) = _matmul([_coords(k, len(a))], a)
    return sum(b << j for j, b in enumerate(row))


@pytest.mark.parametrize("g", [1, 3, 7, 8, 40])
def test_row_products_match_matrix_products(g):
    rng = random.Random(g)
    n = 2 * g
    rows = [rng.getrandbits(n) for _ in range(n)]
    a = _matrix(rows, n)
    xs = [rng.getrandbits(n) for _ in range(40)] + [0, (1 << n) - 1]
    want_dot = [_mat_vec(a, x) for x in xs]
    want_combine = [_vec_mat(x, a) for x in xs]
    assert [_dot_rows(rows, x) for x in xs] == want_dot
    assert [_combine(x, rows) for x in xs] == want_combine
    if g < 32:
        # in the narrowest mask dtype: from row 8 on, bit i of M x would
        # wrap in the uint8 of an array parity
        arr = np.array(xs, dtype=_mask_dtype(n))
        assert _dot_rows(rows, arr).tolist() == want_dot
        assert _combine(arr, rows).tolist() == want_combine


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


@pytest.mark.parametrize("bad", [1.0, 0.0, np.float64(1), "1", None, True,
                                 False, 2, -1])
def test_non_integer_entries_are_domain_errors(bad):
    with pytest.raises(DomainError,
                       match=r"coordinate must be an integer in 0\.\.1"):
        F2Vector.from_list([bad, 0])


@pytest.mark.parametrize("g, bits, what", [
    (2, 1.0, "bits"), (2.0, 1, "g"), (True, 1, "g"), (2, True, "bits"),
    (2, "1", "bits"), (None, 0, "g"), (0, 0, "g"), (2, 16, "bits"),
    (2, -1, "bits")])
def test_vector_fields_read_by_the_integer_rule(g, bits, what):
    # F2Vector(2, 1.0) used to be accepted and fail later in q0 with a bare
    # TypeError, and F2Vector(2.0, 1) failed with one from <<
    with pytest.raises(DomainError, match=f"{what} must be an integer"):
        F2Vector(g, bits)


def test_numpy_integer_entries_are_accepted():
    one, zero = np.int64(1), np.uint8(0)
    assert F2Vector.from_list([one, zero]) == F2Vector(1, 1)
    v = F2Vector(np.int16(2), np.uint8(9))
    assert v == F2Vector(2, 9)
    assert type(v.g) is int and type(v.bits) is int


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
    for v in all_vectors(2)[1:]:
        assert any(symplectic_pairing(v, w) for w in all_vectors(2))


def test_pairing_g_mismatch():
    with pytest.raises(DomainError):
        symplectic_pairing(basis_e(2, 0), basis_e(3, 0))


def test_is_symplectic_identity():
    assert _preserves_pairing([1 << i for i in range(6)], 3)


def test_is_symplectic_transvections():
    for v in all_vectors(2)[1:]:
        assert _preserves_pairing(transvection(v).rows, 2)


def test_is_symplectic_rejects_e_swap():
    # swapping e1 and e2 while fixing f1, f2 breaks <e1, f1>
    rows = [0b0010, 0b0001, 0b0100, 0b1000]
    assert not _preserves_pairing(rows, 2)
    with pytest.raises(DomainError, match="does not preserve the pairing"):
        SymplecticMap(2, tuple(rows))


@pytest.mark.parametrize("g, order", [(1, 6), (2, 720)])
def test_is_symplectic_counts_sp_exhaustive(g, order):
    # |Sp(2, F_2)| = 6 and |Sp(4, F_2)| = 720; a wrong row/column or index
    # convention in the pairing predicate changes the count
    n = 2 * g
    hits = 0
    for bits in range(1 << (n * n)):
        rows = [(bits >> (i * n)) & ((1 << n) - 1) for i in range(n)]
        hits += _preserves_pairing(rows, g)
    assert hits == order


def test_is_symplectic_shape_errors():
    # the constructor checks the shape before the pairing
    for g, rows in ((1, (1,)), (1, (1, 2, 0)), (1, (1, 4)), (0, ())):
        with pytest.raises(DomainError, match="row masks below"):
            SymplecticMap(g, rows)


def test_transvection_examples():
    e1, e2, f1 = basis_e(6, 0), basis_e(6, 1), basis_f(6, 0)
    t = transvection(e1)
    assert t.apply_int(f1.bits) == (f1 + e1).bits
    assert t.apply_int(e2.bits) == e2.bits


def test_transvection_involution_exhaustive_g2():
    for v in all_vectors(2)[1:]:
        t = transvection(v)
        assert all(t.apply_int(t.apply_int(x)) == x for x in range(16))


def test_transvection_zero_rejected():
    with pytest.raises(DomainError):
        transvection(F2Vector(3, 0))


def test_span_dim():
    e1, e2, e3 = (basis_e(6, i).bits for i in range(3))
    assert _rank_int([e1, e2, e1 ^ e2]) == 2
    assert _rank_int([e1, e2, e3]) == 3
    assert _rank_int([]) == 0
    assert _rank_int([0]) == 0


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
    assert m.apply_int(basis_e(g, 0).bits) == basis_e(g, 1).bits
    for i in range(2 * g):
        assert _q0(m.apply_int(1 << i), g) == _q0(1 << i, g)


def test_witt_extend_identity_case():
    g = 3
    vs = [basis_e(g, 0), basis_f(g, 2)]
    m = witt_extend(vs, vs)
    for v in vs:
        assert m.apply_int(v.bits) == v.bits


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
    assert [m.apply_int(s.bits) for s in src] == [t.bits for t in tgt]


def test_witt_extend_exhaustive_group_g2():
    # every column tuple that is a symplectic basis with q0 = 0 on each
    # column: the 72 elements of O+(4, 2), most of them outside the
    # subgroup generated by q0-nonsingular transvections
    g = 2
    n = 2 * g
    std = [F2Vector(g, 1 << i) for i in range(n)]
    group = [cols for cols in itertools.product(range(1 << n), repeat=n)
             if all(_q0(c, g) == 0 for c in cols)
             and all(_pair(cols[i], cols[j], g) == (j - i == g)
                     for i in range(n) for j in range(i + 1, n))]
    assert len(group) == 72
    for cols in group:
        m = witt_extend(std, [F2Vector(g, c) for c in cols])
        assert [m.apply_int(1 << j) for j in range(n)] == list(cols)


def _random_valid_instance(rng, g, m):
    n = 2 * g
    src = []
    while len(src) < m:
        v = F2Vector(g, rng.randrange(1, 1 << n))
        if _rank_int([x.bits for x in src + [v]]) == len(src) + 1:
            src.append(v)
    # the targets are the sources moved by random transvections along
    # q0-nonsingular vectors, which fix q0
    tgt = [v.bits for v in src]
    for _ in range(rng.randint(1, 10)):
        v = F2Vector(g, rng.randrange(1, 1 << n))
        if q0(v) == 1:
            tgt = [transvection(v).apply_int(t) for t in tgt]
    return src, [F2Vector(g, t) for t in tgt]


def test_witt_extend_random_instances_g6():
    rng = random.Random(101)
    basis = [F2Vector(6, 1 << i) for i in range(12)]
    for _ in range(1000):
        m = rng.randint(1, 12)
        src, tgt = _random_valid_instance(rng, 6, m)
        w = witt_extend(src, tgt)
        assert [w.apply_int(s.bits) for s in src] == [t.bits for t in tgt]
        for b in basis:
            assert _q0(w.apply_int(b.bits), 6) == q0(b)


def test_witt_extend_exhaustive_pairs_g2():
    # every compatible (source, target) pair of single vectors
    g = 2
    vs = all_vectors(g)[1:]
    for s, t in itertools.product(vs, vs):
        if q0(s) != q0(t):
            continue
        m = witt_extend([s], [t])
        assert m.apply_int(s.bits) == t.bits
