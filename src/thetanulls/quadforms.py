"""Quadratic forms refining the symplectic pairing over GF(2).

Every such form is q_a(v) = q0(v) + <a, v> for a unique shift vector a, so
forms are stored by shift alone.  Characteristics k correspond to forms via
shift = k, which makes parity(k) = arf(q_k) hold identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from .errors import DomainError
from .f2core import (
    F2Vector,
    SymplecticMap,
    _pair_arr,
    _pair_int,
    _q0_arr,
    _q0_int,
    q0,
    symplectic_pairing,
)

T = TypeVar("T")


@dataclass(frozen=True)
class QuadraticForm:
    """The form q_a(v) = q0(v) + <a, v> with shift a."""

    g: int
    shift: F2Vector

    def __post_init__(self) -> None:
        if self.shift.g != self.g:
            raise DomainError("shift vector has wrong g")

    @classmethod
    def standard(cls, g: int) -> "QuadraticForm":
        return cls(g, F2Vector.zero(g))

    def __call__(self, v: F2Vector) -> int:
        return evaluate(self, v)

    def shifted(self, j: F2Vector) -> "QuadraticForm":
        """Torsor action of J_2: the form v -> q(v) + <j, v>."""
        return QuadraticForm(self.g, self.shift + j)


def evaluate(q: QuadraticForm, v: F2Vector) -> int:
    if q.g != v.g:
        raise DomainError("form/vector g mismatch")
    return q0(v) ^ symplectic_pairing(q.shift, v)


def arf(q: QuadraticForm) -> int:
    """Arf invariant: sum of q(e_i) q(f_i) over a symplectic basis.

    For shift a this collapses to q0(a): q(e_i) = a''_i and q(f_i) = a'_i.
    """
    return q0(q.shift)


def parity(k: F2Vector) -> int:
    """k'.k'' mod 2; 0 means even."""
    return q0(k)


def char_to_form(k: F2Vector) -> QuadraticForm:
    return QuadraticForm(k.g, k)


def form_to_char(q: QuadraticForm) -> F2Vector:
    return q.shift


def act_on_form(m: SymplecticMap, q: QuadraticForm) -> QuadraticForm:
    """The form v -> q(M^-1 v).

    The result refines the pairing again, so it equals q_c for a unique c,
    and c is read off from evaluations on the standard basis:
    c'_i = (q o M^-1)(f_i), c''_i = (q o M^-1)(e_i).
    """
    if m.g != q.g:
        raise DomainError("form/map g mismatch")
    inv = m.inverse()
    return QuadraticForm(q.g, form_shift(lambda v: evaluate(q, inv.apply(v)),
                                         q.g))


def act_on_char(m: SymplecticMap, k: F2Vector) -> F2Vector:
    """Characteristic transport matching act_on_form under char_to_form."""
    return form_to_char(act_on_form(m, char_to_form(k)))


def _transvect_char_int(v: int, k: int, g: int) -> int:
    # action of the transvection T_v on shifts: k + (q_k(v) + 1) v, where
    # q_k(v) = q0(v) + <k, v>; fast path for orbit enumeration
    qv = _q0_int(v, g) ^ _pair_int(k, v, g)
    return k if qv else k ^ v


def _transvect_char_arr(v: np.ndarray, k: np.ndarray, g: int) -> np.ndarray:
    """_transvect_char_int elementwise over broadcast mask arrays."""
    return np.where(_q0_arr(v, g) ^ _pair_arr(k, v, g), k, k ^ v)


def induced_form(parity_oracle: Callable[[T], int], base: T,
                 add: Callable[[F2Vector, T], T]) -> Callable[[F2Vector], int]:
    """The function j -> Q(base) + Q(j + base) on a J_2-torsor.

    parity_oracle gives the bit Q on torsor elements; add is the torsor
    action of F2Vector translations.  The result satisfies the four-term
    quadratic relation whenever Q does.
    """
    base_val = parity_oracle(base)
    if base_val not in (0, 1):
        raise DomainError("parity oracle must return bits")

    def q(j: F2Vector) -> int:
        val = parity_oracle(add(j, base))
        if val not in (0, 1):
            raise DomainError("parity oracle must return bits")
        return base_val ^ val

    return q


def form_shift(fn: Callable[[F2Vector], int], g: int) -> F2Vector:
    """The shift c with c'_i = fn(f_i) and c''_i = fn(e_i): the shift of fn
    if fn is a pairing-refining form, which is not checked here."""
    bits = 0
    for i in range(g):
        bits |= fn(F2Vector(g, 1 << (g + i))) << i
        bits |= fn(F2Vector(g, 1 << i)) << (g + i)
    return F2Vector(g, bits)


def form_from_function(fn: Callable[[F2Vector], int], g: int) -> QuadraticForm:
    """Extract the shift of a bit-valued function known to be a form.

    Verifies fn(0) = 0 and the polarization identity on all basis pairs;
    together with the shift extraction this certifies fn = q_c everywhere.
    """
    if fn(F2Vector.zero(g)) != 0:
        raise DomainError("function does not vanish at 0")
    cand = QuadraticForm(g, form_shift(fn, g))
    n = 2 * g
    for i in range(n):
        x = F2Vector(g, 1 << i)
        if fn(x) != evaluate(cand, x):
            raise DomainError("function is not a pairing-refining form")
        for j in range(i + 1, n):
            y = F2Vector(g, 1 << j)
            if fn(x + y) != (fn(x) ^ fn(y) ^ symplectic_pairing(x, y)):
                raise DomainError("function violates the polarization identity")
    return cand


def all_characteristics(g: int) -> Iterator[F2Vector]:
    for bits in range(1 << (2 * g)):
        yield F2Vector(g, bits)


def even_characteristics(g: int) -> Iterator[F2Vector]:
    return (k for k in all_characteristics(g) if parity(k) == 0)


def odd_characteristics(g: int) -> Iterator[F2Vector]:
    return (k for k in all_characteristics(g) if parity(k) == 1)
