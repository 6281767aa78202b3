"""Theta characteristics as quadratic forms refining the symplectic
pairing over GF(2).

Every such form is q_k(v) = q0(v) + <k, v> for a unique characteristic k,
so a characteristic stands for its form, and its parity q0(k) is the Arf
invariant of q_k.  Symplectic maps act on characteristics by the closed
form k -> M k + d(M), on F2Vector and on int masks, and a transvection
acts by one rule on plain int masks and on mask arrays alike.  Every
formula here reads the mask rules of f2core (pairing, q0 and the row
product M x).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError
from .f2core import F2Vector, SymplecticMap, _dot_rows, _pair, _q0, q0


def parity(k: F2Vector) -> int:
    """k'.k'' mod 2; 0 means even."""
    return q0(k)


def act_on_char(m: SymplecticMap, k: F2Vector) -> F2Vector:
    """The characteristic of the transported form q_k o M^-1, in closed
    form: k -> M k + d(M), where bit j of d(M) is q0(row j of M) (the mod-2
    form of Igusa's k -> M k + diag).

    Since M preserves the pairing, q_k o M^-1 = q0 o M^-1 + <M k, .>, and
    with M^-1 = J M^T J the shift of q0 o M^-1 has bit j equal to q0 of
    row j of M (q0 is invariant under the half swap J).
    """
    return F2Vector(k.g, _act_on_char_rows(m.rows, k.bits, k.g))


def _act_on_char_rows(rows: Sequence[int], k: int, g: int) -> int:
    """act_on_char on int masks, for M given by its 2g row masks (not
    checked to be symplectic): bit j is the parity of row j & k, plus
    q0(row j)."""
    if len(rows) != 2 * g:
        raise DomainError("form/map g mismatch")
    return _dot_rows(rows, k) ^ sum(_q0(row, g) << j
                                    for j, row in enumerate(rows))


def _transvect_char(v, k, g: int):
    """The action of the transvection T_v on characteristics, k + (q_k(v) +
    1) v with q_k(v) = q0(v) + <k, v>, on plain int masks or broadcast mask
    arrays.  v and k are both plain ints or both mask arrays: a plain v of
    256 or more times the uint8 parity of an array k raises OverflowError
    (f2core._parity), and no caller mixes them."""
    return k ^ (v * (_q0(v, g) ^ _pair(k, v, g) ^ 1))


def all_characteristics(g: int) -> Iterator[F2Vector]:
    for bits in range(1 << (2 * g)):
        yield F2Vector(g, bits)


def odd_characteristics(g: int) -> Iterator[F2Vector]:
    return (k for k in all_characteristics(g) if parity(k) == 1)


def characteristic_counts(g: int) -> tuple[int, int]:
    """Numbers of even and odd characteristics, by q0 over all 4^g masks."""
    n = 1 << (2 * g)
    odd = int(np.count_nonzero(_q0(np.arange(n, dtype=np.int64), g)))
    return n - odd, odd
