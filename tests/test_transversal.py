from __future__ import annotations

import random
from fractions import Fraction

import pytest

from thetanulls import transversal
from thetanulls.errors import DomainError, MalformedInputError, ResourceCapError
from thetanulls.transversal import (
    NodeSet,
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
    # the report's own check and basis_polys' check, not one per divisor
    calls = []
    check = transversal._check_s
    monkeypatch.setattr(transversal, "_check_s",
                        lambda ns, s: calls.append(s) or check(ns, s))
    ns = unit_nodes(8)
    s = [5, 1, 3, 6, 2, 4]
    report = transversality_report(ns, s)
    assert len(calls) == 2
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
