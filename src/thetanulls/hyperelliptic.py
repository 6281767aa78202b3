"""Partition model of theta characteristics on hyperelliptic curves.

Branch labels form W = {1, ..., 2g+2}; classes are subsets of W modulo
complement, stored as the representative not containing 2g+2.  Addition is
symmetric difference, parity is cardinality mod 2, and on even classes
|A & B| mod 2 is a nondegenerate symplectic pairing (the labeling check
reads its Gram matrix as one row product of masks).  A class T with
|T| = g+1 (mod 2) is a theta characteristic with

    h0 = (g + 1 - |T_red|) / 2 = |g + 1 - |T|| / 2,

T_red the representative with <= g+1 labels, and theta parity h0 mod 2.  A
ComponentLabel carries a symplectic identification c of F_2^(2g) with the
even classes plus the unique base class B with theta parity of B + c(j)
equal to q0(j).

The class rules are int-mask formulas: canonicalization, h0 and the
closed-form parity here, on f2core's popcount, and the image map c, which
is f2core's sum of masks over the set bits of k (its inverse reads the
pairings with the images as one row product).  Each takes a plain Python
int (past int64 too: masks have 2g+2 bits, 66 at g = 32) or a broadcast
numpy int64 array alike, so PartitionClass, the labeling check,
torsor_base, the image table of all 4^g characteristics, the class counts
and the vanishing rows of that table all read the same rules;
PartitionClass objects are built only for single classes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, MalformedInputError, _int_in
from .f2core import (F2Vector, _combine, _dot_rows, _popcount, _q0,
                     _swap_halves)


def _canonical(m, g: int):
    """The representative without label 2g+2: complement a mask holding it."""
    size = 2 * g + 2
    return m ^ (-((m >> (size - 1)) & 1) & ((1 << size) - 1))


def _h0(m, g: int):
    """h0 of classes with valid support, from either representative:
    (g + 1 - min(|A|, 2g+2 - |A|)) / 2 = |g + 1 - |A|| / 2."""
    return abs(_popcount(m) - (g + 1)) // 2


def _labels(m: int, g: int) -> list[int]:
    """The labels of the set bits of a plain int mask, in increasing order."""
    return [i + 1 for i in range(2 * g + 2) if (m >> i) & 1]


def _closed_form_parity(m):
    """(|A|+1)/2 mod 2 for odd |A| (even g) and |A|/2 mod 2 for even |A|
    (odd g): both are floor((|A|+1)/2) mod 2, and both are complement
    stable on their domain."""
    return ((_popcount(m) + 1) >> 1) & 1


@dataclass(frozen=True)
class PartitionClass:
    """Subset of {1..2g+2} modulo complement; mask bit i-1 = label i."""

    g: int
    mask: int

    def __post_init__(self) -> None:
        g = _int_in(self.g, 1, None, "g")
        mask = _int_in(self.mask, 0, (1 << (2 * g + 2)) - 1, "mask")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "mask", _canonical(mask, g))

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
        return tuple(_labels(self.mask, self.g))

    def cardinality(self) -> int:
        return _popcount(self.mask)

    def __add__(self, other: "PartitionClass") -> "PartitionClass":
        if self.g != other.g:
            raise DomainError("cannot add classes of different g")
        return PartitionClass(self.g, self.mask ^ other.mask)


def partition_parity(a: PartitionClass) -> int:
    return a.cardinality() & 1


def _check_support(t: PartitionClass) -> None:
    if t.cardinality() % 2 != (t.g + 1) % 2:
        raise DomainError(
            f"|T| must have the parity of g+1; got {t.cardinality()} "
            f"labels at g={t.g}")


def h0(t: PartitionClass) -> int:
    _check_support(t)
    return _h0(t.mask, t.g)


def _support_masks(g: int) -> np.ndarray:
    """Canonical masks of the classes T with |T| = g+1 (mod 2)."""
    masks = np.arange(1 << (2 * g + 1), dtype=np.int64)
    return masks[(_popcount(masks) & 1) == (g + 1) % 2]


def class_counts(g: int) -> tuple[int, int, int]:
    """Numbers of theta-support classes: all, even and odd theta parity."""
    masks = _support_masks(g)
    odd = int(np.count_nonzero(_h0(masks, g) & 1))
    return masks.size, masks.size - odd, odd


def formula_agreement(g: int) -> bool:
    """Exhaustive check of the closed-form parity against h0 parity over
    the classes of valid support; it agrees at g = 2, 3 (mod 4), and the
    mismatch at g = 0, 1 (mod 4) is a convention difference."""
    masks = _support_masks(g)
    return bool(np.array_equal(_closed_form_parity(masks),
                               _h0(masks, g) & 1))


def _induces_q0(images: Sequence[int], base: int, g: int) -> bool:
    """Whether h0(base + c(j)) = q0(j) (mod 2) for every j of Hamming
    weight <= 2, c the image map of images.

    On a symplectic basis of images both sides are functions of degree <= 2
    in j, and those values fix such a function, so this decides equality
    on all of F_2^(2g).
    """
    # (j, c(j)) for j = 0 and the unit vectors; c is linear, so the pairs
    # give every j of weight <= 2 (the diagonal gives j = 0)
    units = [(0, 0)] + [(1 << i, img) for i, img in enumerate(images)]
    return all((_h0(base ^ ci ^ ck, g) & 1) == _q0(i ^ k, g)
               for n, (i, ci) in enumerate(units) for k, ck in units[n:])


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
        # row i of the Gram matrix |A_i & A_j| mod 2 must be row i of J
        masks = [p.mask for p in imgs]
        if any(_dot_rows(masks, m) != 1 << ((i + g) % (2 * g))
               for i, m in enumerate(masks)):
            raise DomainError("images do not form a symplectic basis")
        if self.torsor_base.g != g:
            raise DomainError("torsor base has wrong g")
        _check_support(self.torsor_base)
        if not _induces_q0(masks, self.torsor_base.mask, g):
            raise DomainError("torsor base does not induce the standard form")


def _image_mask(k: F2Vector, label: ComponentLabel) -> int:
    """c(k) as a mask, for k of the label's genus."""
    if k.g != label.g:
        raise DomainError("vector/labeling g mismatch")
    return _combine(k.bits, [p.mask for p in label.basis_images])


def torsor_base(g: int, images: Sequence[PartitionClass]) -> PartitionClass:
    """The unique class B with valid support, even h0 (theta parity 0)
    and induced parity form equal to q0.

    Start from any valid-support class B0; the induced form
    j -> h0(B0) + h0(B0 + c(j)) (mod 2) is q0 + <d, .>, with
    d read off its values at the basis vectors (d''_i at e_i, d'_i at f_i),
    and B = B0 + c(d) corrects it.  h0(B) even then comes for
    free: translating by B matches the even/odd class census against the
    zero count of q0, which pins the parity.  Uniqueness makes this also
    the lexicographically first choice.
    """
    masks = [p.mask for p in images]
    b0 = 0 if g % 2 else 1
    vals = sum(((_h0(b0, g) ^ _h0(b0 ^ m, g)) & 1) << i
               for i, m in enumerate(masks))
    return PartitionClass(g, _combine(_swap_halves(vals, g), masks) ^ b0)


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
    return PartitionClass(label.g,
                          _image_mask(k, label) ^ label.torsor_base.mask)


def partition_to_char(t: PartitionClass, label: ComponentLabel) -> F2Vector:
    if t.g != label.g:
        raise DomainError("partition/labeling g mismatch")
    _check_support(t)
    g = label.g
    # t and the base both have the parity of g+1, so diff is even, as are
    # the validated images: bit i of k is the pairing of diff with the
    # image of the dual basis vector, f_i for i < g and e_(i-g) after
    imgs = [p.mask for p in label.basis_images]
    return F2Vector(g, _dot_rows(imgs[g:] + imgs[:g],
                                 t.mask ^ label.torsor_base.mask))


def char_table(label: ComponentLabel) -> np.ndarray:
    """Canonical masks of char_to_partition(k, label) for all 4^g
    characteristics k, indexed by k.bits: the image map over every k, plus
    the torsor base."""
    ks = np.arange(1 << (2 * label.g), dtype=np.int64)
    images = [p.mask for p in label.basis_images]
    return _canonical(_combine(ks, images) ^ label.torsor_base.mask,
                      label.g)


def _vanishing_rows(label: ComponentLabel) -> tuple[np.ndarray, np.ndarray]:
    """The rows of char_table(label) of even characteristics whose class
    has h0 >= 2: their indices k.bits and their canonical masks, in
    increasing order of k.bits."""
    g = label.g
    table = char_table(label)
    ks = np.arange(table.size, dtype=np.int64)
    rows = np.flatnonzero((_q0(ks, g) == 0) & (_h0(table, g) >= 2))
    return rows, table[rows]


def vanishing_thetanulls(label: ComponentLabel) -> set[F2Vector]:
    """Even characteristics whose class has h0 >= 2 (the thetanulls that
    vanish identically on the hyperelliptic component), selected over the
    image table of all characteristics."""
    return {F2Vector(label.g, bits)
            for bits in _vanishing_rows(label)[0].tolist()}


def _check_s(g: int, s_labels: Sequence[int]) -> list[int]:
    """The labels of S, sorted, once S is known to hold g-2 distinct ints
    in 1..2g+2.  The one check of S: it refuses a wrong count, then a
    label that is not an int or lies outside 1..2g+2, then a duplicate."""
    labels = list(s_labels)
    if len(labels) != g - 2:
        raise MalformedInputError(
            f"S needs exactly g-2 = {g - 2} labels, got {len(labels)}")
    # each label in 1..2g+2, also the one no T_k holds when S has one label
    for lab in labels:
        if type(lab) is not int or not 1 <= lab <= 2 * g + 2:
            raise MalformedInputError(f"label {lab!r} outside 1..{2 * g + 2}")
    if len(set(labels)) != len(labels):
        raise MalformedInputError("duplicate labels in S")
    return sorted(labels)


def trans_config(label: ComponentLabel,
                 s_labels: Sequence[int]) -> list[F2Vector]:
    """Characteristics with classes S minus one label each, in increasing
    order of the label left out: the g-2 member h0 = 2 family whose
    thetanull divisors share the curve's moduli point and meet
    transversally there."""
    g = label.g
    labels = _check_s(g, s_labels)
    # S is a plain subset of W here, not a class: do not canonicalize it,
    # only the resulting T_k are classes
    out = []
    for lab in labels:
        t = PartitionClass.from_labels(g, [x for x in labels if x != lab])
        k = partition_to_char(t, label)
        out.append(k)
    return out
