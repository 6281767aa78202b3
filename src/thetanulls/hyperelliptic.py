"""Partition model of theta characteristics on hyperelliptic curves.

Branch labels form W = {1, ..., 2g+2}; classes are subsets of W modulo
complement, stored as the representative not containing 2g+2.  Addition is
symmetric difference, parity is cardinality mod 2, and on even classes
|A & B| mod 2 is a nondegenerate symplectic pairing.  A class T with
|T| = g+1 (mod 2) is a theta characteristic with

    h0 = (g + 1 - |T_red|) / 2,   T_red the representative with <= g+1 labels,

and theta parity h0 mod 2.  A ComponentLabel carries a symplectic
identification of F_2^(2g) with the even classes plus the unique base class
that makes the induced parity form equal to q0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import DomainError, MalformedInputError
from .f2core import F2Vector
from .quadforms import (QuadraticForm, form_from_function, form_shift,
                        induced_form, parity)


@dataclass(frozen=True)
class PartitionClass:
    """Subset of {1..2g+2} modulo complement; mask bit i-1 = label i."""

    g: int
    mask: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise DomainError(f"g must be >= 1, got {self.g}")
        size = 2 * self.g + 2
        if not 0 <= self.mask < 1 << size:
            raise DomainError("labels out of range")
        if (self.mask >> (size - 1)) & 1:
            object.__setattr__(self, "mask",
                               self.mask ^ ((1 << size) - 1))

    @classmethod
    def from_labels(cls, g: int, labels: Iterable[int]) -> "PartitionClass":
        mask = 0
        for lab in labels:
            if not isinstance(lab, int) or not 1 <= lab <= 2 * g + 2:
                raise MalformedInputError(
                    f"label {lab!r} outside 1..{2 * g + 2}")
            bit = 1 << (lab - 1)
            if mask & bit:
                raise MalformedInputError(f"duplicate label {lab}")
            mask |= bit
        return cls(g, mask)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(2 * self.g + 2)
                     if (self.mask >> i) & 1)

    def cardinality(self) -> int:
        return self.mask.bit_count()

    def reduced_cardinality(self) -> int:
        """Size of the smaller of the two representatives."""
        c = self.mask.bit_count()
        return min(c, 2 * self.g + 2 - c)

    def __add__(self, other: "PartitionClass") -> "PartitionClass":
        if self.g != other.g:
            raise DomainError("cannot add classes of different g")
        return PartitionClass(self.g, self.mask ^ other.mask)

    def sort_key(self) -> tuple[int, ...]:
        return self.labels

    def to_json(self) -> list[int]:
        return list(self.labels)


def partition_add(a: PartitionClass, b: PartitionClass) -> PartitionClass:
    return a + b


def partition_parity(a: PartitionClass) -> int:
    return a.cardinality() & 1


def partition_pairing(a: PartitionClass, b: PartitionClass) -> int:
    if a.g != b.g:
        raise DomainError("pairing needs classes of the same g")
    if partition_parity(a) or partition_parity(b):
        raise DomainError("pairing is defined on even classes only")
    return (a.mask & b.mask).bit_count() & 1


def _check_support(t: PartitionClass) -> None:
    if t.cardinality() % 2 != (t.g + 1) % 2:
        raise DomainError(
            f"|T| must have the parity of g+1; got {t.cardinality()} "
            f"labels at g={t.g}")


def h0(t: PartitionClass) -> int:
    _check_support(t)
    return (t.g + 1 - t.reduced_cardinality()) // 2


def theta_parity(t: PartitionClass) -> int:
    return h0(t) & 1


def q_minus_parity(t: PartitionClass) -> int:
    """The closed-form parity (|A|+1)/2 mod 2; needs |A| odd (g even).

    Complement-stable on its domain; agrees with theta_parity iff
    g = 2 (mod 4), e.g. at g = 6.
    """
    c = t.cardinality()
    if c % 2 == 0:
        raise DomainError("formula needs an odd-cardinality class")
    return ((c + 1) // 2) & 1


def q_plus_parity(t: PartitionClass) -> int:
    """The closed-form parity |A|/2 mod 2; needs |A| even (g odd).

    Complement-stable on its domain; agrees with theta_parity iff
    g = 3 (mod 4), e.g. at g = 3.
    """
    c = t.cardinality()
    if c % 2:
        raise DomainError("formula needs an even-cardinality class")
    return (c // 2) & 1


def all_classes(g: int) -> Iterable[PartitionClass]:
    """Every class once (canonical representatives omit label 2g+2)."""
    for mask in range(1 << (2 * g + 1)):
        yield PartitionClass(g, mask)


def theta_support_classes(g: int) -> Iterable[PartitionClass]:
    want = (g + 1) % 2
    return (t for t in all_classes(g) if t.cardinality() % 2 == want)


def formula_agreement(g: int) -> bool:
    """Exhaustive check of the applicable closed-form parity against h0
    parity; diagnostic for the convention mismatch at g = 0, 1 (mod 4)."""
    formula = q_minus_parity if g % 2 == 0 else q_plus_parity
    return all(formula(t) == theta_parity(t) for t in theta_support_classes(g))


@dataclass(frozen=True)
class ComponentLabel:
    """Symplectic identification of F_2^(2g) with even classes plus the
    torsor base; images 0..g-1 are the e_i, images g..2g-1 the f_i."""

    g: int
    basis_images: tuple[PartitionClass, ...]
    torsor_base: PartitionClass

    def __post_init__(self) -> None:
        g = self.g
        imgs = self.basis_images
        if len(imgs) != 2 * g or any(p.g != g for p in imgs):
            raise DomainError("need 2g images with matching g")
        if any(partition_parity(p) for p in imgs):
            raise DomainError("basis images must be even classes")
        for i in range(2 * g):
            for j in range(i + 1, 2 * g):
                expect = 1 if abs(i - j) == g else 0
                if partition_pairing(imgs[i], imgs[j]) != expect:
                    raise DomainError("images do not form a symplectic basis")
        if self.torsor_base.g != g:
            raise DomainError("torsor base has wrong g")
        _check_support(self.torsor_base)
        if theta_parity(self.torsor_base) != 0:
            raise DomainError("torsor base must have even theta parity")
        induced = form_from_function(_parity_form(imgs, self.torsor_base), g)
        if induced != QuadraticForm.standard(g):
            raise DomainError("torsor base does not induce the standard form")

    def vector_image(self, k: F2Vector) -> PartitionClass:
        """Sum of basis images over the set bits of k (the map c)."""
        if k.g != self.g:
            raise DomainError("vector/labeling g mismatch")
        return _image(self.basis_images, k)


def _image(images: Sequence[PartitionClass], k: F2Vector) -> PartitionClass:
    """Sum of images[i] over the set bits i of k."""
    mask, bits = 0, k.bits
    while bits:
        low = bits & -bits
        mask ^= images[low.bit_length() - 1].mask
        bits ^= low
    return PartitionClass(k.g, mask)


def _parity_form(images: Sequence[PartitionClass],
                 base: PartitionClass) -> Callable[[F2Vector], int]:
    """The induced parity form j -> theta_parity(base) + theta_parity(c(j)
    + base), with c the map j -> _image(images, j)."""
    return induced_form(theta_parity, base,
                        lambda j, t: _image(images, j) + t)


def torsor_base(g: int, images: Sequence[PartitionClass]) -> PartitionClass:
    """The unique class B with valid support, theta_parity 0 and induced
    parity form equal to q0.

    Start from any valid-support class B0; the induced form at B0 differs
    from q0 by a linear functional <d, .>, and B = B0 + c(d) corrects it.
    theta_parity(B) = 0 then comes for free: translating by B matches the
    even/odd class census against the zero count of q0, which pins the
    parity. Uniqueness makes this also the lexicographically first choice.
    """
    b0 = PartitionClass(g, 0) if g % 2 else PartitionClass(g, 1)
    return _image(images, form_shift(_parity_form(images, b0), g)) + b0


def std_labeling(g: int) -> ComponentLabel:
    """e_i -> {2i-1, 2i}, f_i -> {2i, ..., 2g+1} (1-based i)."""
    if g < 2:
        raise DomainError("labeling needs g >= 2")
    images = []
    for i in range(1, g + 1):
        images.append(PartitionClass.from_labels(g, [2 * i - 1, 2 * i]))
    for i in range(1, g + 1):
        images.append(PartitionClass.from_labels(g, range(2 * i, 2 * g + 2)))
    base = torsor_base(g, images)
    return ComponentLabel(g, tuple(images), base)


def char_to_partition(k: F2Vector, label: ComponentLabel) -> PartitionClass:
    return label.vector_image(k) + label.torsor_base


def partition_to_char(t: PartitionClass, label: ComponentLabel) -> F2Vector:
    if t.g != label.g:
        raise DomainError("partition/labeling g mismatch")
    _check_support(t)
    g = label.g
    diff = t + label.torsor_base
    bits = 0
    for i in range(g):
        bits |= partition_pairing(diff, label.basis_images[g + i]) << i
        bits |= partition_pairing(diff, label.basis_images[i]) << (g + i)
    return F2Vector(g, bits)


def vanishing_thetanulls(label: ComponentLabel) -> set[F2Vector]:
    """Even characteristics whose class has h0 >= 2 (the thetanulls that
    vanish identically on the hyperelliptic component)."""
    g = label.g
    out = set()
    for bits in range(1 << (2 * g)):
        k = F2Vector(g, bits)
        if parity(k):
            continue
        if h0(char_to_partition(k, label)) >= 2:
            out.add(k)
    return out


def trans_config(label: ComponentLabel,
                 s_labels: Sequence[int]) -> list[F2Vector]:
    """Characteristics with classes S minus one label each: the g-2
    member h0 = 2 family whose thetanull divisors share the curve's
    moduli point and meet transversally there."""
    g = label.g
    labels = list(s_labels)
    if len(labels) != g - 2:
        raise MalformedInputError(f"S needs exactly g-2 = {g - 2} labels")
    if len(set(labels)) != len(labels):
        raise MalformedInputError("duplicate labels in S")
    # S is a plain subset of W here, not a class: do not canonicalize it,
    # only the resulting T_k are classes
    out = []
    for lab in sorted(labels):
        t = PartitionClass.from_labels(g, [x for x in labels if x != lab])
        k = partition_to_char(t, label)
        out.append(k)
    return out
