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

The bulk computations (class counts, formula agreement, the vanishing set
and the image table of all 4^g characteristics) run on numpy arrays of
class masks; PartitionClass objects are built only for single classes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, MalformedInputError
from .f2core import F2Vector, _q0_arr
from .quadforms import (QuadraticForm, form_from_function, form_shift,
                        induced_form)


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
            if type(lab) is not int or not 1 <= lab <= 2 * g + 2:
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


def _canonical_arr(masks: np.ndarray, g: int) -> np.ndarray:
    """PartitionClass canonicalization elementwise: complement each mask
    holding label 2g+2."""
    size = 2 * g + 2
    return np.where((masks >> (size - 1)) & 1, masks ^ ((1 << size) - 1),
                    masks)


def _h0_arr(masks: np.ndarray, g: int) -> np.ndarray:
    """h0 elementwise over masks of classes with valid support."""
    c = np.bitwise_count(masks).astype(np.int64)
    return (g + 1 - np.minimum(c, 2 * g + 2 - c)) // 2


def _support_masks(g: int) -> np.ndarray:
    """Canonical masks of the classes T with |T| = g+1 (mod 2)."""
    masks = np.arange(1 << (2 * g + 1), dtype=np.int64)
    return masks[(np.bitwise_count(masks) & 1) == (g + 1) % 2]


def class_counts(g: int) -> tuple[int, int, int]:
    """Numbers of theta-support classes: all, even and odd theta parity."""
    masks = _support_masks(g)
    odd = int(np.count_nonzero(_h0_arr(masks, g) & 1))
    return masks.size, masks.size - odd, odd


def formula_agreement(g: int) -> bool:
    """Exhaustive check of the applicable closed-form parity (q_minus_parity
    at even g, q_plus_parity at odd g) against h0 parity; diagnostic for the
    convention mismatch at g = 0, 1 (mod 4)."""
    masks = _support_masks(g)
    c = np.bitwise_count(masks).astype(np.int64)
    formula = ((c + 1) // 2 if g % 2 == 0 else c // 2) & 1
    return bool(np.array_equal(formula, _h0_arr(masks, g) & 1))


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


@functools.cache
def std_labeling(g: int) -> ComponentLabel:
    """e_i -> {2i-1, 2i}, f_i -> {2i, ..., 2g+1} (1-based i).

    Built and validated once per genus; the frozen label is shared by every
    caller.
    """
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
    # t and the base both have the parity of g+1, so diff is even, as are
    # the validated images: the pairings need no parity re-checks
    diff = t.mask ^ label.torsor_base.mask
    imgs = [p.mask for p in label.basis_images]
    bits = 0
    for i in range(g):
        bits |= ((diff & imgs[g + i]).bit_count() & 1) << i
        bits |= ((diff & imgs[i]).bit_count() & 1) << (g + i)
    return F2Vector(g, bits)


def char_table(label: ComponentLabel) -> np.ndarray:
    """Canonical masks of char_to_partition(k, label) for all 4^g
    characteristics k, indexed by k.bits: XOR of the basis-image masks over
    the set bits of k, plus the torsor base."""
    table = np.array([label.torsor_base.mask], dtype=np.int64)
    for img in label.basis_images:
        table = np.concatenate((table, table ^ img.mask))
    return _canonical_arr(table, label.g)


def vanishing_thetanulls(label: ComponentLabel) -> set[F2Vector]:
    """Even characteristics whose class has h0 >= 2 (the thetanulls that
    vanish identically on the hyperelliptic component), selected over the
    image table of all characteristics."""
    g = label.g
    ks = np.arange(1 << (2 * g), dtype=np.int64)
    hit = (_q0_arr(ks, g) == 0) & (_h0_arr(char_table(label), g) >= 2)
    return {F2Vector(g, int(bits)) for bits in np.flatnonzero(hit)}


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
