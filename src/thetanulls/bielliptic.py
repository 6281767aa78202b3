"""The 40 even effective theta characteristics on a general bi-elliptic
genus-6 curve: a symbolic model and its checked realization in F_2^12.

A characteristic is (fixed_point i in 1..10, twist in the Klein four-group
V = {0, F1, F2, F3} under xor).  Two model axioms, both forced by the
distinctness of the 40 classes: pullback twists act faithfully within a
fixed-point family, and classes from different families never differ by a
pullback twist.  The parity rule: a combo a + b - c of three of these is
even iff at least two fixed points coincide.

realization() maps the model to 40 even masks in F_2^12 and checks, once
per process, that q0 of every three-mask sum reproduces the parity rule;
realize_in_f2 is a lookup into that table.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DomainError, MalformedInputError
from .f2core import F2Vector, _q0_int
from .orbits import OrbitClass, Quadruple, classify as orbits_classify

F1, F2, F3 = 1, 2, 3
_TWIST_NAMES = {0: "0", 1: "F1", 2: "F2", 3: "F3"}


@dataclass(frozen=True, order=True)
class BChar:
    fixed_point: int
    twist: int

    def __post_init__(self) -> None:
        if not 1 <= self.fixed_point <= 10:
            raise DomainError(f"fixed_point must be 1..10, got {self.fixed_point}")
        if self.twist not in (0, 1, 2, 3):
            raise DomainError(f"twist must be 0..3, got {self.twist}")

    def twisted(self, t: int) -> "BChar":
        return BChar(self.fixed_point, self.twist ^ t)

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
        if not isinstance(fp, int) or not isinstance(tw, int):
            raise MalformedInputError("BChar JSON fields must be integers")
        return cls(fp, tw)


@dataclass(frozen=True)
class BCombo:
    """The formal class plus[0] + plus[1] - minus."""

    plus: tuple[BChar, BChar]
    minus: BChar


class Decision(enum.Enum):
    YES = "yes"
    NO = "no"


def all_chars() -> list[BChar]:
    return [BChar(i, t) for i in range(1, 11) for t in range(4)]


def combo_parity(c: BCombo) -> int:
    """0 (even) iff at least two of the three fixed points coincide."""
    fps = {c.plus[0].fixed_point, c.plus[1].fixed_point, c.minus.fixed_point}
    return 1 if len(fps) == 3 else 0


def reduce_same_fixed(c: BCombo) -> BChar:
    a, b = c.plus
    s = c.minus
    if not a.fixed_point == b.fixed_point == s.fixed_point:
        raise DomainError("reduction needs all three fixed points equal")
    return BChar(a.fixed_point, a.twist ^ b.twist ^ s.twist)


def _combo_char(a: BChar, b: BChar, s: BChar) -> BChar | None:
    """Explicit characteristic equal to a + b - s, when derivable.

    Twisting moves within a family (a - s is the pullback twist t_a ^ t_s
    when the fixed points agree), so any coincidence with s collapses the
    combo onto the remaining member's family.  Returns None when the combo
    keeps the shape (canonical class) + twist - s with s outside the plus
    family, which is never one of the 40 classes' families to reduce into.
    """
    if a.fixed_point == b.fixed_point == s.fixed_point:
        return reduce_same_fixed(BCombo((a, b), s))
    if a.fixed_point == s.fixed_point:
        return b.twisted(a.twist ^ s.twist)
    if b.fixed_point == s.fixed_point:
        return a.twisted(b.twist ^ s.twist)
    return None


def _check_distinct(chars: Sequence[BChar]) -> None:
    if len(set(chars)) != len(chars):
        raise DomainError("characteristics must be pairwise distinct")


def pairing(base: BChar, a_src: BChar, b_src: BChar) -> int:
    """<a_src - base, b_src - base>; equals the parity of the combo
    a_src + b_src - base because the three class parities vanish."""
    _check_distinct([base, a_src, b_src])
    return combo_parity(BCombo((a_src, b_src), base))


def _triple_split_decision(base: BChar, a: BChar, b: BChar,
                           c: BChar) -> Decision:
    known = _combo_char(a, b, base)
    if known is not None:
        return Decision.YES if known == c else Decision.NO
    if combo_parity(BCombo((a, b), base)) == 1:
        # odd combo can never equal the even characteristic c
        return Decision.NO
    # forced shape: _combo_char found neither a nor b in the base's family
    # j, and the combo is even, so a, b share a fixed point i != j;
    # a + b - base = (canonical) + twist(t_a^t_b) - base, which equals c iff
    # c sits in the base's family with matching twist difference
    i = a.fixed_point
    j = base.fixed_point
    assert i == b.fixed_point and i != j
    if c.fixed_point == j and (c.twist ^ base.twist) == (a.twist ^ b.twist):
        return Decision.YES
    return Decision.NO


def triple_sum_is_zero(base: BChar, a: BChar, b: BChar, c: BChar) -> Decision:
    """Decide (a-base) + (b-base) + (c-base) = 0.

    The sum vanishes iff a + b - base = c as classes (using 2*base =
    canonical = 2*c).  Each of the three plus-pair splits decides; their
    answers must agree.
    """
    _check_distinct([base, a, b, c])
    answers = {_triple_split_decision(base, x, y, z)
               for x, y, z in ((a, b, c), (a, c, b), (b, c, a))}
    if len(answers) > 1:
        raise AssertionError("inconsistent decisions across splits")
    return answers.pop()


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


def _classify_with_base(chars: Sequence[BChar], base_idx: int) -> OrbitClass:
    base = chars[base_idx]
    rest = [k for i, k in enumerate(chars) if i != base_idx]
    if triple_sum_is_zero(base, *rest) is Decision.YES:
        return OrbitClass.A1
    n = sum(pairing(base, x, y) for x, y in combinations(rest, 2))
    if n == 0:
        return OrbitClass.A2
    if n == 3:
        return OrbitClass.A4
    return OrbitClass.A3


def classify_bielliptic(quad: Iterable[BChar]) -> OrbitClass:
    """Orbit class of four distinct model characteristics.

    All four base choices are evaluated and must agree (well-definedness is
    part of the contract, not an assumption)."""
    chars = sorted(quad)
    if len(chars) != 4:
        raise MalformedInputError("need exactly 4 characteristics")
    _check_distinct(chars)
    results = {_classify_with_base(chars, i) for i in range(4)}
    if len(results) > 1:
        raise AssertionError("classification depends on the base")
    return results.pop()


# d_1..d_8 in F_2^12 (g = 6): even, with <d_i, d_j> = 1 for all i != j
_FAMILIES = (0x1, 0x40, 0xc3, 0x147, 0x1cd, 0x24f, 0x2c9, 0x34b)


@functools.cache
def realization() -> tuple[int, ...]:
    """Masks in F_2^12 of the 40 characteristics, in all_chars() order:
    (i, t) maps to d_i + (t << 4), with d_9 = d_1 + ... + d_8 and d_10 = 0.
    The twist part is linear in t, so F1, F2 and F3 = F1 ^ F2 map to e_4,
    e_5 and e_4 + e_5, and BChar.twisted is xor with that part.

    The Gram matrix J + I of d_1..d_8 is invertible ((J + I)^2 = I), so
    their sum d_9 is the only relation, and <e_4, e_5> is a totally
    singular plane orthogonal to every d_i.  Checked on first use: the
    masks are distinct and even, and q0(a + b + s) = <a + s, b + s>, which
    is symmetric in a, b, s, equals the parity rule on every triple.
    """
    fams = _FAMILIES + (functools.reduce(int.__xor__, _FAMILIES), 0)
    chars = all_chars()
    masks = tuple(fams[c.fixed_point - 1] ^ (c.twist << 4) for c in chars)
    if len(set(masks)) != 40:
        raise AssertionError("realization masks must be distinct")
    if any(_q0_int(m, 6) for m in masks):
        raise AssertionError("realization masks must be even")
    for (a, ma), (b, mb), (s, ms) in combinations(zip(chars, masks), 3):
        if _q0_int(ma ^ mb ^ ms, 6) != combo_parity(BCombo((a, b), s)):
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
        realized = orbits_classify(realize_in_f2(chars), verify_bases=True)
        out.append({
            "chars": [c.to_json_dict() for c in chars],
            "expected": expected.value,
            "parity_rules": got.value,
            "realized": realized.value,
            "ok": got == expected == realized,
        })
    return out
