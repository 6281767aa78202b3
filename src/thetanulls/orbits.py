"""Orbit classification of quadruples of distinct even characteristics.

A quadruple determines difference vectors a_i = k_i + k_base; the class is
read off the span dimension d of (a_1, a_2, a_3) and the number n of
noncommuting pairs:

    A1: d <= 2 (equivalently a_1 + a_2 + a_3 = 0 for distinct inputs)
    A2: d = 3, n = 0
    A3: d = 3, n in {1, 2}
    A4: d = 3, n = 3

Changing the base can swap n between 1 and 2 but never crosses these
buckets, so the class is well defined; delta_parities gives the matching
parity signature and classify_by_delta the cross-check classifier.

One invariants kernel serves one quadruple and arrays of them: it reads
span independence and the three pairings off the differences, given as
plain int masks or as broadcast numpy mask arrays.  classify,
classify_by_delta and delta_parities call it on one Quadruple.  Bulk
callers hold quadruples as rows of (n, 4) numpy arrays of characteristic
masks: classify_array, the sampler random_quadruples, and all_quadruples,
which census and census_report classify in one array pass; the
delta-parity cross-check reads both codes off one pass of the kernel.
orbit_bfs keys each node, a sorted 4-subset of indices into the even
characteristics, by its colex rank, so its visited set is a boolean array
over all C(#even, 4) subsets.  It acts by 2g + 1 transvections, not all
4^g - 1: a set certified to generate Sp(2g, F_2) each time it is built,
so the orbits are the same.  Each BFS level applies all of them to the
whole frontier in one batched step, and keeps each new node once by a
scatter of positions into an array indexed by the rank, with no sort.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Sequence

import numpy as np

from .errors import DomainError, MalformedInputError, ResourceCapError
from .f2core import F2Vector, _mask_dtype, _pair, _q0
from .quadforms import _transvect_char, parity


class OrbitClass(enum.Enum):
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"


@dataclass(frozen=True, eq=False)
class Quadruple:
    """Four distinct even characteristics; input order is kept for the
    positional operations, equality and hashing are order-free."""

    g: int
    chars: tuple[F2Vector, F2Vector, F2Vector, F2Vector]

    def __post_init__(self) -> None:
        if len(self.chars) != 4:
            raise MalformedInputError("a quadruple needs exactly 4 characteristics")
        if any(k.g != self.g for k in self.chars):
            raise MalformedInputError("characteristic length does not match g")
        if len({k.bits for k in self.chars}) != 4:
            raise MalformedInputError("characteristics must be pairwise distinct")
        for k in self.chars:
            if parity(k) != 0:
                raise DomainError("characteristics must all be even")
        object.__setattr__(self, "chars", tuple(self.chars))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quadruple):
            return NotImplemented
        return self.g == other.g and \
            {k.bits for k in self.chars} == {k.bits for k in other.chars}

    def __hash__(self) -> int:
        return hash((self.g, frozenset(k.bits for k in self.chars)))

    def to_json_dict(self) -> dict:
        return {"g": self.g, "chars": [k.to_list() for k in self.chars]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Quadruple":
        if not isinstance(data, dict) or set(data) != {"g", "chars"}:
            raise MalformedInputError('quadruple JSON needs exactly "g" and "chars"')
        g, chars = data["g"], data["chars"]
        if type(g) is not int or not isinstance(chars, list):
            raise MalformedInputError("bad quadruple JSON field types")
        if any(not isinstance(c, list) or len(c) != 2 * g for c in chars):
            raise MalformedInputError("characteristic arrays must have length 2g")
        if any(type(b) is not int or b not in (0, 1) for c in chars for b in c):
            raise MalformedInputError("characteristic entries must be 0 or 1")
        return cls(g, tuple(F2Vector.from_list(c) for c in chars))


def _diff_masks(q: Quadruple, base: int) -> tuple[int, int, int]:
    """The differences k_i + k_base as int masks (base 0-based)."""
    b = q.chars[base].bits
    return tuple(k.bits ^ b for i, k in enumerate(q.chars) if i != base)


# One kernel for one quadruple and for arrays of them: the differences are
# plain int masks or broadcast numpy mask arrays, and classes are codes
# indexing _CLASSES.
_CLASSES = tuple(OrbitClass)


def _invariants(a1, a2, a3, g: int):
    """(independent, p12, p13, p23) of the differences a1, a2, a3: whether
    they span dimension 3 and their pairings <a_i, a_j>.

    Takes plain int masks or broadcast numpy mask arrays alike.
    """
    # three vectors span dimension 3 iff no nonempty subset sums to zero
    independent = ((a1 != 0) & (a2 != 0) & (a3 != 0) & (a1 != a2)
                   & (a1 != a3) & (a2 != a3) & ((a1 ^ a2 ^ a3) != 0))
    return (independent, _pair(a1, a2, g), _pair(a1, a3, g),
            _pair(a2, a3, g))


def _class_code(independent, p12, p13, p23):
    # (n + 3) >> 1 is 1, 2, 2, 3 at n = 0..3, in the pairings' dtype (uint8
    # for arrays; bool + bool would be a logical or)
    return independent * ((p12 + p13 + p23 + 3) >> 1)


def _delta_code(independent, p12, p13, p23):
    # odd deltas number s + (s mod 2) for s = p12 + p13 + p23: always even
    odd = p23 + p13 + p12 + (p12 ^ p13 ^ p23)
    return independent * (1 + odd // 2)


def classify(q: Quadruple) -> OrbitClass:
    """Orbit class of the quadruple, read at all four base positions,
    which must agree."""
    codes = {int(_class_code(*_invariants(*_diff_masks(q, base), q.g)))
             for base in range(4)}
    if len(codes) > 1:
        raise AssertionError("classification depends on the base")
    return _CLASSES[codes.pop()]


def delta_parities(q: Quadruple) -> tuple[int, int, int, int]:
    """Parities (d1, d2, d3, d4) computed with base = position 4.

    d_i for i < 4 is the pairing of the two differences not involving i;
    d4 is the sum of all three pairings.  As an unordered multiset the
    result is base-independent.
    """
    _, p12, p13, p23 = _invariants(*_diff_masks(q, 3), q.g)
    return tuple(int(d) for d in (p23, p13, p12, p12 ^ p13 ^ p23))


def classify_by_delta(q: Quadruple) -> OrbitClass:
    """Classify through the parity signature; must agree with classify."""
    return _CLASSES[int(_delta_code(*_invariants(*_diff_masks(q, 3), q.g)))]


_BFS_MAX_G = 3


def _even_masks(g: int) -> np.ndarray:
    """The even characteristic masks of genus g, ascending, in the
    narrowest mask dtype."""
    v = np.arange(1 << (2 * g), dtype=_mask_dtype(2 * g))
    return v[_q0(v, g) == 0]


def _differences_arr(ks: np.ndarray, base: int) -> np.ndarray:
    """(3, n) array of the rows' differences k_i + k_base, i != base (0-based
    columns, in column order)."""
    others = [i for i in range(4) if i != base]
    return (ks[:, others] ^ ks[:, base:base + 1]).T


def classify_array(ks: np.ndarray, g: int, base: int = 3) -> np.ndarray:
    """classify over an (n, 4) array of distinct even characteristic masks,
    reading the differences from the 0-based column base.

    Returns uint8 codes, code i standing for the i-th OrbitClass (A1..A4).
    """
    return _class_code(*_invariants(*_differences_arr(ks, base), g))


def random_quadruples(g: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform quadruples of distinct even characteristics, as an (n, 4)
    mask array: indices into the even masks, rows with a repeated index
    redrawn until none is left."""
    evens = _even_masks(g)
    if len(evens) < 4:
        raise DomainError(f"genus {g} has fewer than 4 even characteristics")
    idx = rng.integers(len(evens), size=(n, 4))
    while True:
        a, b, c, d = idx.T
        bad = np.flatnonzero((a == b) | (a == c) | (a == d) | (b == c)
                             | (b == d) | (c == d))
        if not len(bad):
            return evens[idx]
        idx[bad] = rng.integers(len(evens), size=(len(bad), 4))


def all_quadruples(g: int) -> np.ndarray:
    """Every quadruple of distinct even characteristics once, as an
    (C(#even, 4), 4) mask array; rows ascending, in lexicographic order."""
    if g > _BFS_MAX_G:
        raise ResourceCapError(f"census supports g <= {_BFS_MAX_G}, got {g}")
    evens = _even_masks(g)
    n = len(evens)
    # the lexicographic 4-subsets of range(n), one column at a time: column
    # k runs up to n - 4 + k, and each row repeats once per value of its
    # next column, which counts up from its last value + 1
    idx = np.arange(n - 3, dtype=np.int64)[:, None]
    for k in (1, 2, 3):
        counts = n - 4 + k - idx[:, -1]
        starts = np.cumsum(counts) - counts
        col = (np.arange(counts.sum(), dtype=np.int64)
               + np.repeat(idx[:, -1] + 1 - starts, counts))
        idx = np.column_stack((np.repeat(idx, counts, axis=0), col))
    return evens[idx]


def _certify_generates(vs: Sequence[int], g: int) -> None:
    """Raise AssertionError unless the transvections T_v, v in vs, generate
    Sp(2g, F_2).

    The check closes vs under the linear maps T_u(x) = x + <x, u> u, u in
    vs, and asks for every nonzero vector of F_2^(2g).  That suffices:
    T_(Mv) = M T_v M^-1, so once every nonzero w is M v for some M in the
    generated group and v in vs, the group holds every transvection T_w,
    and the transvections generate Sp(2g, F_2).
    """
    reached = frontier = set(vs)
    while frontier:
        frontier = {x ^ (u * _pair(x, u, g))
                    for x in frontier for u in vs} - reached
        reached |= frontier
    if reached != set(range(1, 1 << (2 * g))):
        raise AssertionError("the transvections do not generate "
                             f"Sp({2 * g}, F_2)")


@cache
def _generators(g: int) -> tuple[int, ...]:
    """2g + 1 vectors whose transvections generate Sp(2g, F_2), certified by
    _certify_generates: f_1, e_1, f_1 + f_2, e_2, ..., f_(g-1) + f_g, e_g and
    f_2 (just f_1, e_1 at g = 1), the mod-2 classes of Humphries'
    Dehn-twist generators."""
    e = [1 << i for i in range(g)]
    f = [1 << (g + i) for i in range(g)]
    vs = [f[0], e[0]]
    for i in range(1, g):
        vs += [f[i - 1] ^ f[i], e[i]]
    if g > 1:
        vs.append(f[1])
    _certify_generates(vs, g)
    return tuple(vs)


_SORT4 = ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))  # a sorting network


def _orbit(start: Sequence[int], g: int) -> np.ndarray:
    """Mask rows of the transvection orbit of one quadruple of even masks.

    The orbit is the closure under the characteristic action of the
    transvections T_v, v in _generators(g).  That action, k -> k +
    (q_k(v) + 1) v, is q_k -> q_k o T_v, an action of Sp(2g, F_2) on the
    quadratic forms; as these T_v generate Sp(2g, F_2), the orbit is the
    one under all 4^g - 1 transvections.

    A node is a sorted 4-subset of indices into the even masks, keyed by
    its colex rank, so the visited set is a boolean array over all
    C(#even, 4) subsets.  Each level applies all 2g + 1 steps to the whole
    frontier in one gather, at most 2g + 1 times the frontier's memory: with
    this few generators one batched step costs less than a loop over them.
    An image node reached more than once in a level is kept once, with no
    sort: every position scatters its number to an int32 array indexed by
    the rank, and only the one number that stays there keeps its node.
    The rows come in no fixed order within a level.
    """
    evens = _even_masks(g)
    index_of = np.full(1 << (2 * g), -1, dtype=np.int64)
    index_of[evens] = np.arange(len(evens))
    vs = np.array(_generators(g), dtype=np.int64)
    # steps[s, i]: index of the image of evens[i] under T_(vs[s])
    steps = index_of[_transvect_char(vs[:, None], evens[None, :], g)]
    if np.any(steps < 0):
        raise AssertionError("a transvection moved an even characteristic "
                             "to an odd one")
    # colex rank of c0 < c1 < c2 < c3: sum_j binom[j, c_j] = C(c_j, j + 1)
    binom = np.array([[comb(x, j + 1) for x in range(len(evens))]
                      for j in range(4)], dtype=np.int64)
    seen = np.zeros(comb(len(evens), 4), dtype=bool)
    # owner[rank]: the position that wrote the rank last in its level
    owner = np.empty(seen.size, dtype=np.int32)
    # the frontier holds one sorted node per column
    frontier = np.sort(index_of[np.asarray(start, dtype=np.int64)])[:, None]
    seen[sum(b[c] for b, c in zip(binom, frontier))] = True
    visited = [frontier]
    while frontier.shape[1]:
        # the (steps, 4, n) images, as 4 rows of one column per image node
        x = list(steps[:, frontier].swapaxes(0, 1).reshape(4, -1))
        for i, j in _SORT4:
            x[i], x[j] = np.minimum(x[i], x[j]), np.maximum(x[i], x[j])
        rank = binom[0][x[0]]
        for b, c in zip(binom[1:], x[1:]):
            rank += b[c]
        new = np.flatnonzero(~seen[rank])
        rank = rank[new]
        seen[rank] = True
        pos = np.arange(new.size, dtype=np.int32)
        owner[rank] = pos
        keep = new[owner[rank] == pos]
        frontier = np.stack([xi[keep] for xi in x])
        visited.append(frontier)
    return evens[np.concatenate(visited, axis=1).T]


def orbit_bfs(q: Quadruple) -> set[Quadruple]:
    """Closure of {q} under simultaneous transvection action on all four
    characteristics; equals the full symplectic orbit."""
    g = q.g
    if g > _BFS_MAX_G:
        raise ResourceCapError(f"orbit_bfs supports g <= {_BFS_MAX_G}, got {g}")
    rows = _orbit([k.bits for k in q.chars], g)
    # one F2Vector per even mask of the orbit, shared by the quadruples
    vecs = {k: F2Vector(g, k) for k in np.unique(rows).tolist()}
    return {Quadruple(g, tuple(map(vecs.__getitem__, row)))
            for row in rows.tolist()}


def census(g: int) -> dict[OrbitClass, int]:
    """Class counts over every 4-subset of the even characteristics."""
    counts = np.bincount(classify_array(all_quadruples(g), g), minlength=4)
    return dict(zip(_CLASSES, counts.tolist()))


def census_report(g: int) -> dict:
    """Census counts plus a BFS orbit-consistency check.

    Consistency means: for each nonempty class, the BFS orbit of the first
    representative found has exactly the class count, so each class is one
    symplectic orbit and the orbits partition the quadruple space.
    """
    quads = all_quadruples(g)
    labels = classify_array(quads, g)
    counts = np.bincount(labels, minlength=4).tolist()
    orbit_sizes = {cls.value: len(_orbit(quads[np.argmax(labels == code)], g))
                   for code, cls in enumerate(_CLASSES) if counts[code]}
    return {
        "g": g,
        "counts": {cls.value: counts[code]
                   for code, cls in enumerate(_CLASSES)},
        "total": sum(counts),
        "orbit_sizes": orbit_sizes,
        "orbit_consistent": all(orbit_sizes[cls.value] == counts[code]
                                for code, cls in enumerate(_CLASSES)
                                if counts[code]),
    }


def random_quadruple(g: int, rng) -> Quadruple:
    """Uniform random quadruple of distinct even characteristics."""
    seen: set[int] = set()
    chars = []
    while len(chars) < 4:
        k = rng.randrange(1 << (2 * g))
        if _q0(k, g) == 0 and k not in seen:
            seen.add(k)
            chars.append(F2Vector(g, k))
    return Quadruple(g, tuple(chars))
