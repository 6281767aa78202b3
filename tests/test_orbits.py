from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from thetanulls import orbits, verify
from thetanulls.errors import DomainError, MalformedInputError, ResourceCapError
from thetanulls.f2core import (F2Vector, SymplecticMap, _rank_int,
                               symplectic_pairing, transvection)
from thetanulls.orbits import (
    OrbitClass,
    Quadruple,
    all_quadruples,
    census,
    census_report,
    classify,
    classify_array,
    classify_by_delta,
    delta_parities,
    differences,
    orbit_bfs,
    random_quadruple,
    random_quadruples,
)
from thetanulls.quadforms import _transvect_char, act_on_char, parity

CLASSES = list(OrbitClass)


def quad(g, *bits):
    return Quadruple(g, tuple(F2Vector(g, b) for b in bits))


def shifts_quad(g, vectors):
    return Quadruple(g, tuple(vectors))


def reference(q, base=4):
    """(class, delta parities) from f2core's rank and public
    symplectic_pairing over differences(q, base), independent of the
    orbits kernel."""
    a = differences(q, base)
    p12, p13, p23 = (symplectic_pairing(a[i], a[j])
                     for i, j in ((0, 1), (0, 2), (1, 2)))
    n = p12 + p13 + p23
    if _rank_int(v.bits for v in a) <= 2:
        cls = OrbitClass.A1
    else:
        cls = {0: OrbitClass.A2, 3: OrbitClass.A4}.get(n, OrbitClass.A3)
    return cls, (p23, p13, p12, n % 2)


def assert_matches_reference(q):
    cls, deltas = reference(q)
    assert all(reference(q, base)[0] == cls for base in (1, 2, 3))
    for got in (classify(q), classify(q, verify_bases=True),
                classify_by_delta(q)):
        assert type(got) is OrbitClass and got == cls
    got = delta_parities(q)
    assert got == deltas
    assert all(type(d) is int for d in got)


Z6 = F2Vector(6, 0)
E = [F2Vector(6, 1 << i) for i in range(6)]
F = [F2Vector(6, 1 << (6 + i)) for i in range(6)]

A1_Q = shifts_quad(6, [Z6, E[0], E[1], E[0] + E[1]])
A2_Q = shifts_quad(6, [Z6, E[0], E[1], E[2]])
A3_Q = shifts_quad(6, [Z6, E[0], F[0], E[1]])
A4_Q = shifts_quad(6, [Z6, E[0], F[0], E[0] + F[0] + E[1] + F[1]])


def test_quadruple_validation():
    with pytest.raises(MalformedInputError):
        quad(2, 0, 1, 2, 2)  # duplicate
    with pytest.raises(MalformedInputError):
        Quadruple(2, tuple(F2Vector(2, b) for b in (0, 1, 2)))
    with pytest.raises(DomainError):
        quad(1, 0, 1, 2, 3)  # bits 3 = e1+f1 is odd
    with pytest.raises(MalformedInputError):
        Quadruple(2, (F2Vector(2, 0), F2Vector(3, 1), F2Vector(2, 2),
                      F2Vector(2, 4)))


def test_quadruple_equality_is_unordered():
    a = quad(2, 0, 1, 2, 12)
    b = quad(2, 12, 2, 1, 0)
    assert a == b
    assert hash(a) == hash(b)
    assert a != quad(2, 0, 1, 2, 4)


def test_json_roundtrip():
    q = A3_Q
    assert Quadruple.from_json_dict(q.to_json_dict()) == q
    with pytest.raises(MalformedInputError):
        Quadruple.from_json_dict({"g": 2, "chars": [[0, 0, 0]]})


def test_differences_example():
    a1, a2, a3 = differences(A2_Q, 1)
    assert (a1, a2, a3) == (E[0], E[1], E[2])
    for base in (1, 2, 3, 4):
        diffs = differences(A2_Q, base)
        assert all(not a.is_zero() for a in diffs)
        # the form q_k(a) = q0(a) + <k, a> of the base vanishes on them
        k = A2_Q.chars[base - 1]
        assert all(parity(a) ^ symplectic_pairing(k, a) == 0 for a in diffs)


def test_classify_examples():
    assert classify(A1_Q) == OrbitClass.A1
    assert classify(A2_Q) == OrbitClass.A2
    assert classify(A3_Q) == OrbitClass.A3
    assert classify(A4_Q) == OrbitClass.A4


def test_classify_base_and_order_invariance():
    rng = random.Random(43)
    for _ in range(300):
        q = random_quadruple(6, rng)
        cls = classify(q, verify_bases=True)
        perm = list(q.chars)
        rng.shuffle(perm)
        assert classify(Quadruple(6, tuple(perm)), verify_bases=True) == cls


def test_delta_parities_signatures():
    assert delta_parities(A2_Q) == (0, 0, 0, 0)
    assert sorted(delta_parities(A3_Q)) == [0, 0, 1, 1]
    assert delta_parities(A4_Q) == (1, 1, 1, 1)
    assert delta_parities(A1_Q) == (0, 0, 0, 0)


def test_delta_multiset_base_independent():
    rng = random.Random(47)
    for _ in range(200):
        q = random_quadruple(6, rng)
        sig = sorted(delta_parities(q))
        perm = list(q.chars)
        rng.shuffle(perm)
        assert sorted(delta_parities(Quadruple(6, tuple(perm)))) == sig


def test_classifiers_agree_exhaustive_g2():
    quads = all_quadruples(2)
    assert quads.shape == (210, 4)
    assert len({frozenset(row) for row in quads.tolist()}) == 210
    for ks in quads.tolist():
        assert_matches_reference(quad(2, *ks))


def classify_by_delta_array(ks, g):
    """classify_by_delta over an (n, 4) mask array (base = column 4), as
    codes like classify_array's: the batched reference of criterion 4,
    which reads both codes off one pass of the invariants."""
    return orbits._delta_code(
        *orbits._invariants(*orbits._differences_arr(ks, 3), g)
    ).astype(np.uint8)


def _assert_batched_matches_scalar(ks, g):
    codes = [classify_array(ks, g, base) for base in range(4)]
    codes.append(classify_by_delta_array(ks, g))
    for i, row in enumerate(ks.tolist()):
        q = quad(g, *row)
        assert_matches_reference(q)
        assert {CLASSES[c[i]] for c in codes} == {reference(q)[0]}


def test_batched_classifiers_match_scalar_exhaustive_g2():
    _assert_batched_matches_scalar(all_quadruples(2), 2)


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_batched_classifiers_match_scalar_sampled(g):
    ks = random_quadruples(g, 500, np.random.default_rng(100 + g))
    _assert_batched_matches_scalar(ks, g)
    # the reordered rows classify alike
    perm = np.random.default_rng(g).permuted(ks, axis=1)
    assert np.array_equal(classify_array(perm, g), classify_array(ks, g))


def test_criterion_4_counts_every_row_whose_codes_differ(monkeypatch):
    # a delta classifier that calls every A4 quadruple A3 must miss on
    # exactly the A4 rows of both the g = 2 and the g = 6 array
    a4 = CLASSES.index(OrbitClass.A4)

    def a4_as_a3(*inv):
        code = orbits._delta_code(*inv)
        return np.where(code == a4, a4 - 1, code)
    monkeypatch.setattr(verify, "_delta_code", a4_as_a3)
    ks = random_quadruples(6, 100_000, verify._sub_generator(3, 4))
    a4_g2, a4_g6 = (int(np.count_nonzero(classify_array(quads, g) == a4))
                    for quads, g in ((all_quadruples(2), 2), (ks, 6)))
    assert a4_g2 == 15 and a4_g6 > 0
    rep = verify.criterion_4(3)
    assert rep["mismatches"] == a4_g2 + a4_g6 and rep["pass"] is False


@pytest.mark.parametrize("g", [2, 3, 6])
def test_random_quadruples_rows_distinct_even_in_range(g):
    ks = random_quadruples(g, 3000, np.random.default_rng(g))
    assert ks.shape == (3000, 4)
    assert ks.min() >= 0 and ks.max() < 1 << (2 * g)
    for row in ks.tolist():
        assert len(set(row)) == 4
        assert all(parity(F2Vector(g, k)) == 0 for k in row)


def _sorted_redraw_quadruples(g, n, rng):
    """random_quadruples with the repeated rows found by a row sort."""
    evens = orbits._even_masks(g)
    idx = rng.integers(len(evens), size=(n, 4))
    while True:
        srt = np.sort(idx, axis=1)
        bad = np.flatnonzero(np.any(srt[:, 1:] == srt[:, :-1], axis=1))
        if not len(bad):
            return evens[idx]
        idx[bad] = rng.integers(len(evens), size=(len(bad), 4))


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_random_quadruples_equal_the_row_sort_reference(g):
    # g = 2 has 10 even characteristics, so most rows are redrawn
    for seed in range(5):
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        assert np.array_equal(random_quadruples(g, 2000, got_rng),
                              _sorted_redraw_quadruples(g, 2000, want_rng))
        assert got_rng.integers(1 << 62) == want_rng.integers(1 << 62)


def test_random_quadruples_needs_four_even_characteristics():
    with pytest.raises(DomainError):
        random_quadruples(1, 1, np.random.default_rng(0))


def test_classifiers_agree_random_g6():
    rng = random.Random(53)
    for _ in range(2000):
        assert_matches_reference(random_quadruple(6, rng))


def test_classify_invariant_under_transport():
    rng = random.Random(59)
    for _ in range(100):
        q = random_quadruple(6, rng)
        cls = classify(q)
        m = SymplecticMap.identity(6)
        for _ in range(rng.randint(1, 20)):
            m = transvection(F2Vector(6, rng.randrange(1, 1 << 12))) @ m
        moved = Quadruple(6, tuple(act_on_char(m, k) for k in q.chars))
        assert classify(moved) == cls


def test_orbit_bfs_contains_start_and_guard():
    q = quad(2, 0, 1, 2, 12)
    orbit = orbit_bfs(q)
    assert q in orbit
    with pytest.raises(ResourceCapError):
        orbit_bfs(random_quadruple(4, random.Random(0)))


def _orbit_by_tuple_keys(q):
    """Reference orbit: closure under the transvection char action, keyed
    by sorted tuples."""
    g = q.g
    start = tuple(sorted(k.bits for k in q.chars))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for v in range(1, 1 << (2 * g)):
                moved = tuple(sorted(_transvect_char(v, k, g)
                                     for k in node))
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    return {quad(g, *node) for node in seen}


def test_orbit_bfs_matches_tuple_keyed_reference_g2():
    quads = all_quadruples(2)
    labels = classify_array(quads, 2)
    for code in np.unique(labels):
        q = quad(2, *quads[np.argmax(labels == code)].tolist())
        assert orbit_bfs(q) == _orbit_by_tuple_keys(q)


def test_orbit_bfs_matches_tuple_keyed_reference_g3_a1():
    quads = all_quadruples(3)
    code = CLASSES.index(OrbitClass.A1)
    q = quad(3, *quads[np.argmax(classify_array(quads, 3) == code)].tolist())
    orbit = orbit_bfs(q)
    assert len(orbit) == 945
    assert orbit == _orbit_by_tuple_keys(q)


def _orbit_by_unique(start, g):
    """_orbit's BFS with each level's new ranks deduplicated by np.unique,
    as sorted index rows."""
    evens = orbits._even_masks(g)
    index_of = {int(k): i for i, k in enumerate(evens)}
    vs = np.array(orbits._generators(g), dtype=np.int64)
    steps = np.vectorize(index_of.get)(
        _transvect_char(vs[:, None], evens[None, :], g))
    seen = set()
    frontier = np.sort([index_of[k] for k in start])[None, :]
    seen.add(tuple(frontier[0].tolist()))
    visited = [frontier]
    n = len(evens)
    while len(frontier):
        images = np.sort(steps[:, frontier].reshape(-1, 4), axis=1)
        rank = ((images[:, 0] * n + images[:, 1]) * n
                + images[:, 2]) * n + images[:, 3]
        _, first = np.unique(rank, return_index=True)
        frontier = np.array([row for row in images[first].tolist()
                             if tuple(row) not in seen],
                            dtype=np.int64).reshape(-1, 4)
        seen.update(map(tuple, frontier.tolist()))
        visited.append(frontier)
    return evens[np.concatenate(visited)]


@pytest.mark.parametrize("g", [2, 3])
def test_orbit_rows_unique_and_equal_to_the_unique_reference(g):
    quads = all_quadruples(g)
    labels = classify_array(quads, g)
    for code in np.unique(labels):
        start = quads[np.argmax(labels == code)].tolist()
        rows = orbits._orbit(start, g)
        keys = [tuple(sorted(row)) for row in rows.tolist()]
        assert len(set(keys)) == len(keys) == np.count_nonzero(
            labels == code)
        want = _orbit_by_unique(start, g)
        assert set(keys) == {tuple(sorted(row)) for row in want.tolist()}
        assert len(want) == len(keys)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_generators_certified(g):
    vs = orbits._generators(g)
    assert len(vs) == (2 if g == 1 else 2 * g + 1)
    assert len(set(vs)) == len(vs) and all(0 < v < 1 << (2 * g) for v in vs)
    orbits._certify_generates(vs, g)


@pytest.mark.parametrize("g", [2, 3])
def test_non_generating_set_refused(g):
    # e_1..e_g, f_1..f_g: their transvections keep every hyperbolic plane
    # <e_j, f_j>, so they generate only SL(2, F_2)^g
    with pytest.raises(AssertionError, match="do not generate"):
        orbits._certify_generates([1 << i for i in range(2 * g)], g)
    # the chain without its last vector, f_2, falls short too
    with pytest.raises(AssertionError):
        orbits._certify_generates(orbits._generators(g)[:-1], g)


def test_generators_are_certified_each_time_they_are_built(monkeypatch):
    calls = []
    monkeypatch.setattr(orbits, "_certify_generates",
                        lambda vs, g: calls.append((tuple(vs), g)))
    orbits._generators.cache_clear()
    try:
        vs = orbits._generators(3)
    finally:
        orbits._generators.cache_clear()
    assert calls == [(vs, 3)]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_all_quadruples_matches_combinations(g):
    evens = [k for k in range(1 << (2 * g))
             if parity(F2Vector(g, k)) == 0]
    ref = [list(c) for c in combinations(evens, 4)]
    got = all_quadruples(g)
    assert got.dtype == np.int64
    assert got.shape == (len(ref), 4)
    assert got.tolist() == ref


@pytest.mark.parametrize("g", [2, 3])
def test_orbit_bfs_sizes_equal_census_counts(g):
    counts = census(g)
    quads = all_quadruples(g)
    labels = classify_array(quads, g)
    for code, cls in enumerate(CLASSES):
        if counts[cls]:
            q = quad(g, *quads[np.argmax(labels == code)].tolist())
            orbit = orbit_bfs(q)
            assert len(orbit) == counts[cls]
            assert {classify(p) for p in orbit} == {cls}


def test_census_g2_counts():
    counts = census(2)
    assert counts == {OrbitClass.A1: 15, OrbitClass.A2: 0,
                      OrbitClass.A3: 180, OrbitClass.A4: 15}
    assert sum(counts.values()) == 210


def test_census_report_g2_consistent():
    report = census_report(2)
    assert report["total"] == 210
    assert report["orbit_consistent"]
    assert report["orbit_sizes"] == {"A1": 15, "A3": 180, "A4": 15}


def test_census_g3_counts():
    counts = census(3)
    assert counts == {OrbitClass.A1: 945, OrbitClass.A2: 7560,
                      OrbitClass.A3: 45360, OrbitClass.A4: 5040}
    assert sum(counts.values()) == 58905


def test_census_guard():
    with pytest.raises(ResourceCapError):
        census(4)
    with pytest.raises(ResourceCapError):
        census_report(4)
    with pytest.raises(ResourceCapError):
        all_quadruples(4)
