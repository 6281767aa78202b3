"""The 40 even effective theta characteristics on a general bi-elliptic
genus-6 curve: a symbolic model and its checked realization in F_2^12.

A characteristic is (fixed_point i in 1..10, twist in the Klein four-group
V = {0, F1, F2, F3} under xor).  Two model axioms, both forced by the
distinctness of the 40 classes: pullback twists act faithfully within a
fixed-point family, and classes from different families never differ by a
pullback twist.  So the combo a + b - s of three characteristics is odd
iff their fixed points are pairwise distinct, and an even combo is the
class (f_a ^ f_b ^ f_s, t_a ^ t_b ^ t_s): two fixed points coincide, and
the xor picks the remaining one.

One kernel reads this rule off fixed points and twists, as plain ints or
broadcast numpy arrays, for the pairings and the dependence of the
differences, and so for the orbit class (classify_bielliptic, at all four
bases, which must agree).  realization() maps the model to 40 even masks
in F_2^12 and checks once per process, in one array pass, that q0 of every
three-mask sum is the combo's parity; realize_in_f2 is a lookup into that
table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, MalformedInputError, _int_in
from .f2core import F2Vector, _q0
from .orbits import (_CLASSES, _class_code, OrbitClass, Quadruple,
                     classify as orbits_classify)

F1, F2, F3 = 1, 2, 3
_TWIST_NAMES = {0: "0", 1: "F1", 2: "F2", 3: "F3"}


@dataclass(frozen=True, order=True)
class BChar:
    fixed_point: int
    twist: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixed_point",
                           _int_in(self.fixed_point, 1, 10, "fixed_point"))
        object.__setattr__(self, "twist", _int_in(self.twist, 0, 3, "twist"))

    def __str__(self) -> str:
        return f"({self.fixed_point},{_TWIST_NAMES[self.twist]})"

    def to_json_dict(self) -> dict:
        return {"fixed_point": self.fixed_point, "twist": self.twist}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BChar":
        if not isinstance(data, dict) or set(data) != {"fixed_point", "twist"}:
            raise MalformedInputError(
                'BChar JSON needs exactly "fixed_point" and "twist"')
        fp, tw = data["fixed_point"], data["twist"]
        if type(fp) is not int or type(tw) is not int:
            raise MalformedInputError("BChar JSON fields must be integers")
        return cls(fp, tw)


def all_chars() -> list[BChar]:
    return [BChar(i, t) for i in range(1, 11) for t in range(4)]


def _combo(a, b, s):
    """(parity, (f, t)) of the combo a + b - s by the closed form above,
    from (fixed point, twist) pairs of plain ints or broadcast int arrays."""
    (fa, ta), (fb, tb), (fs, ts) = a, b, s
    odd = 1 - ((fa == fb) | (fa == fs) | (fb == fs))
    return odd, (fa ^ fb ^ fs, ta ^ tb ^ ts)


def _code_at_base(s, x, y, z):
    """Orbit-class code (index into OrbitClass) of {s, x, y, z} at base s,
    from (fixed point, twist) pairs as in _combo: the differences from s
    are dependent iff x + y - s = z, which each of the three splits
    decides (they must agree), and their pairings are the combos' parities."""
    splits = [(_combo(p, q, s), r) for p, q, r in ((x, y, z), (x, z, y),
                                                   (y, z, x))]
    dep = [(par == 0) & (f == r[0]) & (t == r[1])
           for (par, (f, t)), r in splits]
    if np.count_nonzero((dep[0] != dep[1]) | (dep[0] != dep[2])):
        raise AssertionError("inconsistent decisions across splits")
    return _class_code(1 - dep[0], *(par for (par, _), _ in splits))


def _check_distinct(chars: Sequence[BChar]) -> None:
    if len(set(chars)) != len(chars):
        raise DomainError("characteristics must be pairwise distinct")


def witness_quadruples() -> list[tuple[tuple[BChar, BChar, BChar, BChar],
                                       OrbitClass]]:
    """The four quadruples of the genus-6 bi-elliptic construction with
    their expected orbit classes.

    The third one reads its printed fourth member as (1, F1), the twist by
    F1 within the first family: taken literally, the printed member mixes
    two fixed-point families, and no such class is among the 40.  So w3 has
    two members in family 1 and one each in families 2 and 3."""
    w1 = (BChar(1, 0), BChar(2, F1), BChar(1, F1), BChar(2, 0))
    w2 = (BChar(1, 0), BChar(2, F2), BChar(1, F1), BChar(2, 0))
    w3 = (BChar(1, 0), BChar(2, 0), BChar(3, 0), BChar(1, F1))
    w4 = (BChar(1, 0), BChar(2, 0), BChar(3, 0), BChar(4, 0))
    return [
        (w1, OrbitClass.A1),
        (w2, OrbitClass.A2),
        (w3, OrbitClass.A3),
        (w4, OrbitClass.A4),
    ]


def classify_bielliptic(quad: Iterable[BChar]) -> OrbitClass:
    """Orbit class of four distinct model characteristics.

    All four base choices are evaluated and must agree (well-definedness is
    part of the contract, not an assumption)."""
    chars = sorted(quad)
    if len(chars) != 4:
        raise MalformedInputError("need exactly 4 characteristics")
    _check_distinct(chars)
    ft = [(c.fixed_point, c.twist) for c in chars]
    codes = {_code_at_base(ft[i], *(ft[:i] + ft[i + 1:])) for i in range(4)}
    if len(codes) > 1:
        raise AssertionError("classification depends on the base")
    return _CLASSES[codes.pop()]


# d_1..d_8 in F_2^12 (g = 6): even, with <d_i, d_j> = 1 for all i != j
_FAMILIES = (0x1, 0x40, 0xc3, 0x147, 0x1cd, 0x24f, 0x2c9, 0x34b)


@functools.cache
def realization() -> tuple[int, ...]:
    """Masks in F_2^12 of the 40 characteristics, in all_chars() order:
    (i, t) maps to d_i + (t << 4), with d_9 = d_1 + ... + d_8 and d_10 = 0.
    The twist part is linear in t, so F1, F2 and F3 = F1 ^ F2 map to e_4,
    e_5 and e_4 + e_5, and a twist acts by xor with that part.

    The Gram matrix J + I of d_1..d_8 is invertible ((J + I)^2 = I), so
    their sum d_9 is the only relation, and <e_4, e_5> is a totally
    singular plane orthogonal to every d_i.  Checked on first use: the
    masks are distinct and even, and q0(a + b + s) = <a + s, b + s>, which
    is symmetric in a, b, s, equals the parity rule on every triple.
    """
    fams = _FAMILIES + (functools.reduce(int.__xor__, _FAMILIES), 0)
    chars = all_chars()
    masks = tuple(fams[c.fixed_point - 1] ^ (c.twist << 4) for c in chars)
    m = np.array(masks, dtype=np.int64)
    if len(set(masks)) != 40:
        raise AssertionError("realization masks must be distinct")
    if _q0(m, 6).any():
        raise AssertionError("realization masks must be even")
    tri = np.fromiter(chain.from_iterable(combinations(range(40), 3)),
                      dtype=np.int8).reshape(-1, 3).T  # indices of a, b, s
    parity, _ = _combo(*zip(tri // 4 + 1, tri % 4))
    bad = np.flatnonzero(_q0(np.bitwise_xor.reduce(m[tri]), 6) != parity)
    if bad.size:
        a, b, s = (chars[i] for i in tri[:, bad[0]])
        raise AssertionError(f"realization breaks the parity rule at "
                             f"{a}, {b}, {s}")
    return masks


def realize_in_f2(quad: Iterable[BChar]) -> Quadruple:
    """The genus-6 quadruple of realization() masks of four distinct model
    characteristics, in input order; classify on the result must agree
    with classify_bielliptic on the input."""
    chars = list(quad)
    if len(chars) != 4:
        raise MalformedInputError("need exactly 4 characteristics")
    _check_distinct(chars)
    table = realization()
    return Quadruple(6, tuple(
        F2Vector(6, table[4 * (c.fixed_point - 1) + c.twist]) for c in chars))


def verify_witnesses() -> list[dict]:
    """Classification report for the four witnesses, via both the parity
    rules and the explicit realization."""
    out = []
    for chars, expected in witness_quadruples():
        got = classify_bielliptic(chars)
        realized = orbits_classify(realize_in_f2(chars))
        out.append({
            "chars": [c.to_json_dict() for c in chars],
            "expected": expected.value,
            "parity_rules": got.value,
            "realized": realized.value,
            "ok": got == expected == realized,
        })
    return out
