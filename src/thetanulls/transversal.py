"""Exact rank certificate for the transversal-intersection configuration.

For 2g+2 distinct rational nodes and a set S of g-2 of them, the relevant
quadratic differentials are encoded by the polynomials
G_k(x) = prod_{i in S, i != k} (x - x_i) of degree g-3.  Transversality
reduces to the coefficient matrix of the G_k having rank g-2.  G_k vanishes
at every node of S but x_k, so the evaluation matrix of the G_k at the
nodes of S is diagonal, with entries G_k(x_k) = prod_{i != k} (x_k - x_i).
It is the coefficient matrix times the Vandermonde matrix of those nodes,
which is invertible, so the rank is the number of nonzero entries.  No
entry is 0 when the nodes are distinct: transversality holds for every set
of distinct nodes.

The report certifies each instance exactly on Python ints: with
x_i = p_i / q_i, the entry of k has the numerator
prod_{i != k} (p_k q_i - p_i q_k) over a nonzero denominator.
basis_polys and rank (fraction-free Bareiss elimination of the coefficient
rows) compute the same rank the long way, as an independent reference.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (DomainError, MalformedInputError, ResourceCapError,
                     _int_in)
from .hyperelliptic import (_check_s, char_to_partition, h0, std_labeling,
                            trans_config)

_MAX_G = 32

# a rational literal as Fraction reads it: an optional sign, digits with
# single underscores between them, then a denominator, or a decimal part
# and a decimal exponent (group 1)
_RATIONAL = re.compile(r"""
    \s*[-+]?(?=\d|\.\d)\d*(?:_\d+)*
    (?:/\d+(?:_\d+)*|(?:\.(?:\d+(?:_\d+)*)?)?(?:e([-+]?\d+(?:_\d+)*))?)
    \s*""", re.VERBOSE | re.IGNORECASE)


def _node(text: str, index: int) -> Fraction:
    """The node text as a Fraction.  Fraction builds 10**e for an exponent
    e, which takes minutes for 1e100000000, so a literal with more digits,
    or a larger exponent, than the int and str conversion limit (the JSON
    decoder's own) is refused first."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    m = _RATIONAL.fullmatch(text)
    # the exponent is read only once its digits are known to be few
    if m is not None and (sum(map(str.isdecimal, text)) > limit or (
            m[1] is not None and abs(int(m[1])) > limit)):
        raise ResourceCapError(
            f"node {index} has more than {limit} digits or a decimal "
            f"exponent past {limit}")
    return Fraction(text)


@dataclass(frozen=True)
class NodeSet:
    g: int
    nodes: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        g = _int_in(self.g, 2, None, "g")
        if g > _MAX_G:
            raise ResourceCapError(f"g capped at {_MAX_G}, got {g}")
        object.__setattr__(self, "g", g)
        if len(self.nodes) != 2 * self.g + 2:
            raise MalformedInputError(
                f"need 2g+2 = {2 * self.g + 2} nodes, got {len(self.nodes)}")
        if any(not isinstance(x, Fraction) for x in self.nodes):
            raise MalformedInputError("nodes must be Fractions")
        if len(set(self.nodes)) != len(self.nodes):
            raise DomainError("nodes must be pairwise distinct")

    @classmethod
    def from_values(cls, g: int, values: Iterable) -> "NodeSet":
        return cls(g, tuple(Fraction(v) for v in values))

    def to_json_dict(self) -> dict:
        return {"g": self.g, "nodes": [str(x) for x in self.nodes]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "NodeSet":
        if not isinstance(data, dict) or set(data) != {"g", "nodes"}:
            raise MalformedInputError('NodeSet JSON needs exactly "g" and "nodes"')
        g, nodes = data["g"], data["nodes"]
        if type(g) is not int or not isinstance(nodes, list):
            raise MalformedInputError("bad NodeSet JSON field types")
        try:
            vals = tuple(_node(str(x), i) for i, x in enumerate(nodes, 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"bad rational node: {exc}") from exc
        return cls(g, vals)


def _divisor(g: int, labels: Sequence[int], k: int) -> dict[int, int]:
    """The divisor of the quadratic differential of k in S (labels, already
    checked): multiplicity 1 at every node, plus 2 at each node of S minus
    k; total degree 4g-4."""
    div = {i: 1 for i in range(1, 2 * g + 3)}
    for idx in labels:
        if idx != k:
            div[idx] += 2
    return div


def basis_polys(ns: NodeSet, s: Sequence[int]) -> list[list[Fraction]]:
    """G_k(x) = prod_{i in S, i != k} (x - x_i), ascending coefficients.

    With x_i = p_i / q_i, G_k is prod (q_i x - p_i), an integer polynomial,
    divided by its leading coefficient prod q_i.
    """
    labels = _check_s(ns.g, s)
    polys = []
    for k in labels:
        coeffs = [1]
        for idx in labels:
            if idx != k:
                x = ns.nodes[idx - 1]
                p, q = x.numerator, x.denominator
                # multiply by (q x - p); coefficients ascending
                coeffs = ([-p * coeffs[0]]
                          + [q * a - p * b for a, b in zip(coeffs, coeffs[1:])]
                          + [q * coeffs[-1]])
        lead = coeffs[-1]
        polys.append([Fraction(c, lead) for c in coeffs])
    return polys


def rank(polys: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the coefficient matrix over the rationals.

    Each row is scaled by the lcm of its denominators, which keeps the rank,
    and the integer matrix is reduced to echelon form by fraction-free
    (Bareiss) elimination: every division by the previous pivot is exact.
    """
    if not polys:
        raise DomainError("rank needs at least one polynomial")
    width = max(len(p) for p in polys)
    rows = []
    for p in polys:
        scale = math.lcm(*(x.denominator for x in p))
        rows.append([x.numerator * (scale // x.denominator) for x in p]
                    + [0] * (width - len(p)))
    r, prev = 0, 1
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(pivot * a - f * b) // prev
                       for a, b in zip(rows[i], rows[r])]
        prev = pivot
        r += 1
        if r == len(rows):
            break
    return r


def _diagonal(nodes: Sequence[tuple[int, int]],
              labels: Sequence[int]) -> list[int]:
    """For each k in labels (1-based), prod_{i in labels, i != k}
    (p_k q_i - p_i q_k), where node j is the int pair (p_j, q_j) with
    q_j != 0 for x_j = p_j / q_j: the numerator of the diagonal entry
    G_k(x_k) = prod_{i != k} (x_k - x_i) over the nonzero denominator
    q_k^(|labels|-1) prod_{i != k} q_i.  For distinct nodes the rank is
    the number of nonzero products; two equal nodes zero both their
    entries."""
    picked = [nodes[idx - 1] for idx in labels]
    out = []
    for k, (pk, qk) in enumerate(picked):
        prod = 1
        for i, (pi, qi) in enumerate(picked):
            if i != k:
                prod *= pk * qi - pi * qk
        out.append(prod)
    return out


def transversality_report(ns: NodeSet, s: Sequence[int]) -> dict:
    """Characteristics, divisors, the rank and the pass verdict.  The rank
    is certified exactly by the Lagrange diagonal (_diagonal), and is g-2
    for every NodeSet, whose nodes are distinct."""
    if ns.g < 3:
        raise DomainError("the configuration needs g >= 3")
    label = std_labeling(ns.g)
    chars = trans_config(label, s)  # refuses S unless it is valid
    labels = sorted(s)
    classes = [char_to_partition(k, label) for k in chars]
    rk = sum(map(bool, _diagonal(
        [(x.numerator, x.denominator) for x in ns.nodes], labels)))
    return {
        "g": ns.g,
        "S": labels,
        "chars": [k.to_list() for k in chars],
        "partitions": [list(t.labels) for t in classes],
        "h0": [h0(t) for t in classes],
        "divisors": [_divisor(ns.g, labels, k) for k in labels],
        "rank": rk,
        "expected_rank": ns.g - 2,
        "pass": rk == ns.g - 2,
    }
