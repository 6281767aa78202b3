from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from thetanulls import hyperelliptic, transversal, verify
from thetanulls.errors import DomainError, MalformedInputError, ResourceCapError
from thetanulls.transversal import (
    NodeSet,
    _diagonal,
    _divisor,
    basis_polys,
    rank,
    transversality_report,
)


def fraction_rank(polys):
    """Reference rank: Gauss-Jordan elimination over Fraction."""
    width = max(len(p) for p in polys)
    rows = [[Fraction(x) for x in p] + [Fraction(0)] * (width - len(p))
            for p in polys]
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def fraction_product(roots):
    """Reference prod (x - root), ascending Fraction coefficients."""
    coeffs = [Fraction(1)]
    for root in roots:
        out = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            out[i] -= c * root
            out[i + 1] += c
        coeffs = out
    return coeffs


def unit_nodes(g):
    return NodeSet.from_values(g, range(1, 2 * g + 3))


def horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_nodeset_validation():
    with pytest.raises(MalformedInputError):
        NodeSet.from_values(3, range(1, 8))
    with pytest.raises(DomainError):
        NodeSet.from_values(3, [1, 2, 3, 4, 5, 6, 7, 1])
    with pytest.raises(ResourceCapError):
        unit_nodes(33)


@pytest.mark.parametrize("g", [3.0, True, "3", None, 1, -2])
def test_nodeset_genus_read_by_the_integer_rule(g):
    # a float genus of the right size used to be accepted and then fail
    # in the report with a bare TypeError
    nodes = tuple(Fraction(i) for i in range(1, 9))
    with pytest.raises(DomainError, match="g must be an integer >= 2"):
        NodeSet(g, nodes)


def test_nodeset_numpy_genus_is_a_plain_int():
    ns = NodeSet(np.int64(3), tuple(Fraction(i) for i in range(1, 9)))
    assert type(ns.g) is int
    assert transversality_report(ns, [1])["pass"] is True


@pytest.mark.parametrize("s", [[True], [1.0], [[1]]])
def test_s_refuses_non_int_indices(s):
    # a bool would otherwise reach the report as "S": [true]
    ns = NodeSet.from_values(3, list(range(1, 9)))
    with pytest.raises(MalformedInputError, match="outside"):
        transversality_report(ns, s)
    with pytest.raises(MalformedInputError, match="outside"):
        basis_polys(ns, s)


def test_nodeset_json_roundtrip():
    ns = NodeSet.from_values(3, ["1/2", "3", "-7/5", 2, 5, -1, 9, "11/3"])
    back = NodeSet.from_json_dict(ns.to_json_dict())
    assert back == ns
    assert back.nodes[0] == Fraction(1, 2)
    with pytest.raises(MalformedInputError):
        NodeSet.from_json_dict({"g": 3, "nodes": ["1/0"] * 8})
    with pytest.raises(MalformedInputError):
        NodeSet.from_json_dict({"g": 3})


def test_divisor_example_g6():
    div = _divisor(6, [1, 2, 3, 4], 1)
    assert div[1] == 1
    assert div[2] == div[3] == div[4] == 3
    assert all(div[i] == 1 for i in range(5, 15))
    assert sum(div.values()) == 4 * 6 - 4


def test_divisor_symmetric_and_degree():
    for g in (3, 5, 8):
        s = list(range(1, g - 1))
        div = _divisor(g, s, max(s))
        assert sum(div.values()) == 4 * g - 4
        assert div[max(s)] == 1


def test_basis_polys_explicit_g6():
    ns = unit_nodes(6)
    polys = basis_polys(ns, [1, 2, 3, 4])
    # G_1 = (x-2)(x-3)(x-4) = x^3 - 9x^2 + 26x - 24
    assert polys[0] == [Fraction(-24), Fraction(26), Fraction(-9), Fraction(1)]
    for p in polys:
        assert len(p) == 6 - 3 + 1


def test_basis_polys_vanishing_pattern():
    g = 7
    ns = unit_nodes(g)
    s = [2, 4, 6, 8, 10]
    polys = basis_polys(ns, s)
    for poly, k in zip(polys, s):
        assert horner(poly, ns.nodes[k - 1]) != 0
        for j in s:
            if j != k:
                assert horner(poly, ns.nodes[j - 1]) == 0


def test_rank_examples():
    ns = unit_nodes(6)
    polys = basis_polys(ns, [1, 2, 3, 4])
    assert rank(polys) == 4
    assert rank([[Fraction(1)]]) == 1
    assert rank(polys + [polys[0]]) == 4
    with pytest.raises(DomainError):
        rank([])


def test_rank_g3_single_poly():
    ns = unit_nodes(3)
    polys = basis_polys(ns, [5])
    assert polys == [[Fraction(1)]]
    assert rank(polys) == 1


def test_report_unit_nodes_g3_to_g8():
    for g in range(3, 9):
        ns = unit_nodes(g)
        s = list(range(1, g - 1))
        report = transversality_report(ns, s)
        assert report["pass"]
        assert report["rank"] == g - 2
        assert len(report["chars"]) == g - 2
        assert all(v == 2 for v in report["h0"])
        assert all(sum(d.values()) == 4 * g - 4 for d in report["divisors"])


def test_report_checks_s_once(monkeypatch):
    # trans_config's check, not one more in the report or one per divisor
    calls = []
    check = hyperelliptic._check_s
    for module in (hyperelliptic, transversal):
        monkeypatch.setattr(module, "_check_s",
                            lambda g, s: calls.append(s) or check(g, s))
    ns = unit_nodes(8)
    s = [5, 1, 3, 6, 2, 4]
    report = transversality_report(ns, s)
    assert len(calls) == 1
    assert report["divisors"] == [_divisor(8, sorted(s), k)
                                  for k in sorted(s)]


@pytest.mark.parametrize("g", [31, 32])
def test_report_past_int64_masks(g):
    # class masks have 2g+2 = 64 and 66 bits: the labeling, trans_config
    # and h0 run on plain ints
    report = transversality_report(unit_nodes(g), list(range(1, g - 1)))
    assert report["pass"] and report["rank"] == g - 2
    assert report["h0"] == [2] * (g - 2)
    assert all(len(t) == g - 3 for t in report["partitions"])


def test_report_random_rational_nodes_g6():
    rng = random.Random(83)
    for _ in range(20):
        nodes = set()
        while len(nodes) < 14:
            nodes.add(Fraction(rng.randint(-300, 300), rng.randint(1, 100)))
        ns = NodeSet(6, tuple(nodes))
        s = sorted(rng.sample(range(1, 15), 4))
        assert transversality_report(ns, s)["pass"]


def test_rank_invariant_under_affine_rescaling():
    rng = random.Random(89)
    g = 6
    ns = unit_nodes(g)
    s = [3, 6, 9, 12]
    base_rank = rank(basis_polys(ns, s))
    for _ in range(10):
        a = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        moved = NodeSet(g, tuple(a * x + b for x in ns.nodes))
        assert rank(basis_polys(moved, s)) == base_rank


def test_report_needs_g_at_least_3():
    with pytest.raises(DomainError):
        transversality_report(unit_nodes(2), [])


def _random_matrix(rng):
    """Ragged rows of small or huge rationals, with zero rows, duplicate
    rows and rational combinations of earlier rows mixed in."""
    big = rng.random() < 0.2
    rows = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.35:
            a, b = rng.choice(rows), rng.choice(rows)
            fa = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            fb = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            n = max(len(a), len(b))
            a = a + [0] * (n - len(a))
            b = b + [0] * (n - len(b))
            rows.append([fa * x + fb * y for x, y in zip(a, b)])
        elif kind < 0.45:
            rows.append([Fraction(0)] * rng.randint(0, 6))
        else:
            hi = 1 << 200 if big else 5
            rows.append([Fraction(rng.randint(-hi, hi), rng.randint(1, hi))
                         if rng.random() < 0.7 else Fraction(0)
                         for _ in range(rng.randint(1, 6))])
    return rows


def test_rank_matches_fraction_reference():
    rng = random.Random(97)
    seen = set()
    for _ in range(3000):
        rows = _random_matrix(rng)
        want = fraction_rank(rows)
        assert rank(rows) == want
        seen.add((len(rows), want))
    # rank-deficient and full-rank cases both occur
    assert any(r < n for n, r in seen) and any(r == n for n, r in seen)


def test_rank_integer_and_zero_rows():
    assert rank([[0, 0], [0]]) == 0
    assert rank([[2, 4], [1, 2], [0, 3]]) == 2
    assert rank([[Fraction(1, 3), Fraction(2, 3)], [1, 2]]) == 1


def test_basis_polys_match_fraction_product():
    rng = random.Random(101)
    for _ in range(200):
        g = rng.randint(3, 9)
        vals = set()
        while len(vals) < 2 * g + 2:
            hi = rng.choice((40, 1 << 80))
            vals.add(Fraction(rng.randint(-hi, hi), rng.randint(1, hi)))
        ns = NodeSet(g, tuple(vals))
        s = sorted(rng.sample(range(1, 2 * g + 3), g - 2))
        want = [fraction_product([ns.nodes[i - 1] for i in s if i != k])
                for k in s]
        assert basis_polys(ns, s) == want


def diagonal_rank(nodes, labels):
    return sum(map(bool, _diagonal(nodes, labels)))


def fraction_draws(seed):
    """Reference for criterion 8's random trials, drawn as Fractions: per
    trial g, the sorted nodes, the labels and the rng state after them."""
    rng = random.Random(seed * 1009 + 8)
    for g in range(3, 9):
        for _ in range(100):
            vals = set()
            while len(vals) < 2 * g + 2:
                vals.add(Fraction(rng.randrange(-400, 401),
                                  rng.randrange(1, 40)))
            nodes = sorted(vals)
            labels = rng.sample(range(1, 2 * g + 3), g - 2)
            yield g, nodes, labels, rng.getstate()


def criterion_8_trials(seed):
    """Each random trial of verify.criterion_8(seed), as the int-pair
    nodes and labels its _diagonal call gets and the rng state then, and
    the rng state once the criterion is done."""
    rngs, trials = [], []

    def sub_rng(seed, index):
        rngs.append(random.Random(seed * 1009 + index))
        return rngs[-1]

    def diagonal(nodes, labels):
        trials.append((list(nodes), list(labels), rngs[0].getstate()))
        return _diagonal(nodes, labels)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_sub_rng", sub_rng)
        mp.setattr(verify, "_diagonal", diagonal)
        assert verify.criterion_8(seed)["pass"]
    return trials, rngs[0].getstate()


@pytest.mark.parametrize("seed", range(21))
def test_criterion_8_draw_matches_the_fraction_draw(seed):
    trials, final = criterion_8_trials(seed)
    want = list(fraction_draws(seed))
    assert len(trials) == len(want) == 600
    for (nodes, labels, state), (_g, ref, ref_labels, ref_state) in zip(
            trials, want):
        # reduced pairs with a positive denominator, so equal as tuples
        # exactly when equal as rationals
        assert nodes == [(x.numerator, x.denominator) for x in ref]
        assert labels == ref_labels and state == ref_state
    assert final == want[-1][3]


def test_random_nodes_equal_randrange_draws_over_a_long_stream():
    # _random_nodes reads getrandbits as CPython's randrange does; an
    # interpreter whose randrange draws otherwise fails here
    got_rng, want_rng = random.Random(2027), random.Random(2027)
    for i in range(3000):
        n = 8 + i % 11
        want = set()
        while len(want) < n:
            want.add(Fraction(want_rng.randrange(-400, 401),
                              want_rng.randrange(1, 40)))
        assert verify._random_nodes(got_rng, n) == [
            (x.numerator, x.denominator) for x in sorted(want)]
    assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("seed", range(4))
def test_diagonal_rank_matches_bareiss_on_criterion_8_nodes(seed):
    for (g, nodes, labels, _), (pairs, _, _) in zip(
            fraction_draws(seed), criterion_8_trials(seed)[0]):
        polys = basis_polys(NodeSet(g, tuple(nodes)), labels)
        assert diagonal_rank(pairs, labels) == rank(polys) \
            == fraction_rank(polys) == g - 2


def test_diagonal_rank_matches_bareiss_up_to_g32():
    # huge nodes at small g only: the Fraction reference is slow on them
    rng = random.Random(103)
    for g in [3, 4, 9, 17, 32] + [rng.randint(3, 32) for _ in range(5)]:
        vals = set()
        while len(vals) < 2 * g + 2:
            hi = rng.choice((40, 1 << 80)) if g <= 9 else 40
            vals.add(Fraction(rng.randint(-hi, hi), rng.randint(1, hi)))
        ns = NodeSet(g, tuple(vals))
        s = rng.sample(range(1, 2 * g + 3), g - 2)
        polys = basis_polys(ns, s)
        pairs = [(x.numerator, x.denominator) for x in ns.nodes]
        assert diagonal_rank(pairs, s) == rank(polys) \
            == fraction_rank(polys) == g - 2
        assert transversality_report(ns, s)["rank"] == g - 2


def test_diagonal_entries_are_the_fraction_numerators():
    # prod_{i != k} (p_k q_i - p_i q_k) = G_k(x_k) q_k^(n-1) prod q_i, for
    # pairs that need not be reduced, with either sign of q
    rng = random.Random(107)
    for _ in range(300):
        n = rng.randint(1, 12)
        hi = rng.choice((9, 1000, 1 << 90))
        pairs = [(rng.randint(-hi, hi), rng.choice((1, -1)) * rng.randint(
            1, hi)) for _ in range(n + 3)]
        labels = rng.sample(range(1, n + 4), n)
        x = {j: Fraction(*pairs[j - 1]) for j in labels}
        for k, got in zip(labels, _diagonal(pairs, labels)):
            qk = pairs[k - 1][1]
            scale = qk ** (n - 1) * math.prod(
                pairs[i - 1][1] for i in labels if i != k)
            want = math.prod(x[k] - x[i] for i in labels if i != k)
            assert Fraction(got) == want * scale


@pytest.mark.parametrize("g", [4, 6, 9])
def test_equal_nodes_in_s_drop_the_diagonal_rank(g):
    rng = random.Random(109 + g)
    pairs = [(p, 1) for p in rng.sample(range(-99, 100), 2 * g + 2)]
    labels = rng.sample(range(1, 2 * g + 3), g - 2)
    a, b = labels[:2]
    for twin in (pairs[a - 1], (3 * pairs[a - 1][0], 3)):
        nodes = list(pairs)
        nodes[b - 1] = twin
        entries = _diagonal(nodes, labels)
        # x_a = x_b zeroes exactly the entries of a and b
        assert [e == 0 for e in entries] == [i in (a, b) for i in labels]
        assert diagonal_rank(nodes, labels) < g - 2
    # an equal node outside S leaves the rank at g-2
    out = next(j for j in range(1, 2 * g + 3) if j not in labels)
    nodes = list(pairs)
    nodes[out - 1] = pairs[a - 1]
    assert diagonal_rank(nodes, labels) == g - 2


@pytest.mark.parametrize("text, value", [
    ("3/7", Fraction(3, 7)), ("-2.5", Fraction(-5, 2)),
    ("1e300", Fraction(10) ** 300), (" 1_0e-1_0 ", Fraction(1, 10 ** 9)),
    ("1e4300", Fraction(10) ** 4300), ("." + "0" * 4299, Fraction(0)),
])
def test_node_literal_keeps_its_value(text, value):
    ns = NodeSet.from_json_dict(
        {"g": 3, "nodes": [text] + [str(i) for i in range(2, 9)]})
    assert ns.nodes[0] == value


@pytest.mark.parametrize("text", [
    "1e100000000", "1e-100000000", "9" * 5000, "1." + "0" * 4300,
    "1/" + "3" * 4301, "1e4301", "-1E+4301", "1_0e4_301",
])
def test_node_literal_past_the_digit_limit_is_a_resource_cap(text):
    start = time.monotonic()
    with pytest.raises(ResourceCapError, match="node 2 "):
        NodeSet.from_json_dict({"g": 3, "nodes": ["1", text] + [
            str(i) for i in range(3, 9)]})
    assert time.monotonic() - start < 1.0
