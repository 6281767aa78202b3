from __future__ import annotations

import random

import numpy as np
import pytest

from thetanulls import verify
from thetanulls.errors import DomainError, MalformedInputError
from thetanulls.f2core import F2Vector, _dot_rows, _rank_int, transvection
from thetanulls.hyperelliptic import (
    ComponentLabel,
    PartitionClass,
    _closed_form_parity,
    _image_mask,
    _induces_q0,
    char_table,
    char_to_partition,
    class_counts,
    formula_agreement,
    h0,
    partition_parity,
    partition_to_char,
    std_labeling,
    torsor_base,
    trans_config,
    vanishing_thetanulls,
)
from thetanulls.quadforms import parity


def pc(g, *labels):
    return PartitionClass.from_labels(g, labels)


# Reference definitions on label sets, independent of the module's mask
# kernel: h0 from the smaller representative, the complement rule, the
# two closed-form parities and the pairing |A & B| mod 2.

def _ref_h0(g, labels):
    n = len(labels)
    return (g + 1 - min(n, 2 * g + 2 - n)) // 2


def _ref_canonical(g, labels):
    """The representative without label 2g+2, as a sorted tuple."""
    labels = set(labels)
    if 2 * g + 2 in labels:
        labels = set(range(1, 2 * g + 3)) - labels
    return tuple(sorted(labels))


def _ref_closed_form(labels):
    n = len(labels)
    return ((n + 1) // 2) % 2 if n % 2 else (n // 2) % 2


def _ref_pairing(a, b):
    return len(set(a) & set(b)) % 2


def _ref_mask(labels):
    return sum(1 << (x - 1) for x in labels)


def _support_labels(g):
    """Labels of every class with |T| = g+1 (mod 2), by the representative
    without 2g+2."""
    for mask in range(1 << (2 * g + 1)):
        labels = tuple(i + 1 for i in range(2 * g + 1) if (mask >> i) & 1)
        if len(labels) % 2 == (g + 1) % 2:
            yield labels


def _ref_image(g, images, base, bits):
    """c(k) + base for k = bits, as a canonical label tuple, by symmetric
    difference of the label sets of the images over the set bits of k."""
    t = set(base)
    for i, img in enumerate(images):
        if (bits >> i) & 1:
            t ^= set(img)
    return _ref_canonical(g, t)


def _ref_images(lab):
    """c(k) + B for every k, as canonical label tuples."""
    images = [p.labels for p in lab.basis_images]
    return [_ref_image(lab.g, images, lab.torsor_base.labels, bits)
            for bits in range(1 << (2 * lab.g))]


def test_canonical_representative():
    g = 2
    a = pc(g, 6)  # contains 2g+2, canonicalized to complement
    assert a.labels == (1, 2, 3, 4, 5)
    assert pc(g, 1, 2) == pc(g, 3, 4, 5, 6)


def test_label_validation():
    with pytest.raises(MalformedInputError):
        pc(2, 7)
    with pytest.raises(MalformedInputError):
        pc(2, 0)
    with pytest.raises(MalformedInputError):
        PartitionClass.from_labels(2, [1, 1])
    # True == 1 and 1.0 == 1, but neither is a label
    for label in (True, 1.0):
        with pytest.raises(MalformedInputError):
            PartitionClass.from_labels(3, [label])


@pytest.mark.parametrize("g, mask", [(3, True), (3, 1.0), (3, "1"),
                                     (3, None), (True, 1), (3.0, 1)])
def test_partition_class_refuses_bools_and_non_integers(g, mask):
    with pytest.raises(DomainError, match="must be an integer"):
        PartitionClass(g, mask)


def test_partition_class_reads_numpy_integers_as_ints():
    t = PartitionClass(np.int64(3), np.int64(0b1000_0001))
    assert type(t.g) is int and type(t.mask) is int
    assert t == PartitionClass(3, 0b0111_1110)
    for g, mask in ((0, 0), (3, -1), (3, 1 << 8)):
        with pytest.raises(DomainError):
            PartitionClass(g, mask)


def test_add_examples():
    g = 3
    assert pc(g, 1, 2) + pc(g, 2, 3) == pc(g, 1, 3)
    a = pc(g, 1, 4, 5)
    assert (a + a).labels == ()
    comp = pc(g, *(x for x in range(1, 2 * g + 3) if x not in (1, 4, 5)))
    assert (a + comp).labels == ()


def test_add_g_mismatch():
    with pytest.raises(DomainError):
        pc(2, 1) + pc(3, 1)


def test_parity_examples():
    g = 4
    assert partition_parity(pc(g)) == 0
    assert partition_parity(pc(g, 1)) == 1
    assert partition_parity(pc(g, *range(1, 2 * g + 3))) == 0


def test_pairing_examples():
    # the labeling check reads |A & B| mod 2 as a row product of masks, and
    # refuses odd images and images whose Gram matrix is not J
    g = 3
    assert _dot_rows([pc(g, 1, 2).mask], pc(g, 2, 3).mask) == 1
    assert _dot_rows([pc(g, 1, 2).mask], pc(g, 3, 4).mask) == 0
    assert _dot_rows([pc(g, 1, 2).mask], pc(g, 1, 2).mask) == 0
    lab = std_labeling(g)
    imgs = lab.basis_images
    with pytest.raises(DomainError, match="even classes"):
        ComponentLabel(g, (pc(g, 1),) + imgs[1:], lab.torsor_base)
    with pytest.raises(DomainError, match="symplectic basis"):
        ComponentLabel(g, imgs[1:2] + imgs[1:], lab.torsor_base)


def test_pairing_complement_stable_and_nondegenerate():
    g = 2
    evens = [PartitionClass(g, m) for m in range(1 << (2 * g + 1))
             if m.bit_count() % 2 == 0]
    for a in evens:
        comp = set(range(1, 2 * g + 3)) - set(a.labels)
        for b in evens:
            assert _ref_pairing(a.labels, b.labels) == \
                _ref_pairing(comp, b.labels)
        if a.cardinality() % (2 * g + 2) != 0:  # nonzero class
            assert any(_ref_pairing(a.labels, b.labels) for b in evens)


def test_h0_and_theta_parity():
    assert h0(pc(3)) == 2
    t = pc(6, 1, 2, 3, 4, 5, 6, 7)
    assert h0(t) == 0
    assert _closed_form_parity(t.mask) == 0
    with pytest.raises(DomainError):
        h0(pc(3, 1))  # |T| must be even at g=3


def test_even_odd_census_g2_to_g6():
    for g in range(2, 7):
        classes = [pc(g, *t) for t in _support_labels(g)]
        evens = sum(1 for t in classes if h0(t) % 2 == 0)
        total = len(classes)
        assert total == 1 << (2 * g)
        assert evens == (1 << (g - 1)) * ((1 << g) + 1)


def test_formula_agreement_by_genus():
    assert formula_agreement(2)
    assert formula_agreement(3)
    assert not formula_agreement(4)
    assert not formula_agreement(5)
    assert formula_agreement(6)


def test_std_labeling_gram_g6():
    lab = std_labeling(6)
    imgs = lab.basis_images
    g = 6
    for i in range(2 * g):
        assert partition_parity(imgs[i]) == 0
        for j in range(2 * g):
            expect = 1 if abs(i - j) == g else 0
            if i != j:
                assert _ref_pairing(imgs[i].labels, imgs[j].labels) == expect
    # Gram matrix over F2 has full rank 2g
    rows = []
    for i in range(2 * g):
        rows.append(sum(_ref_pairing(imgs[i].labels, imgs[j].labels) << j
                        for j in range(2 * g)))
    assert _rank_int(rows) == 2 * g


def test_std_labeling_images_match_construction():
    lab = std_labeling(3)
    assert lab.basis_images[0].labels == (1, 2)
    assert lab.basis_images[2].labels == (5, 6)
    assert lab.basis_images[3].labels == (2, 3, 4, 5, 6, 7)
    assert lab.basis_images[5].labels == (6, 7)


def test_torsor_base_is_unique_and_lex_first():
    for g in (3, 4):
        lab = std_labeling(g)
        base = lab.torsor_base
        assert h0(base) % 2 == 0
        valid = []
        for cand in (pc(g, *t) for t in _support_labels(g)):
            if h0(cand) % 2 != 0:
                continue
            try:
                ComponentLabel(g, lab.basis_images, cand)
            except DomainError:
                continue
            valid.append(cand)
        assert valid == [base]
        assert base == min(valid, key=lambda t: t.labels)


@pytest.mark.parametrize("g", [3, 4])
def test_labeling_check_decides_the_whole_induced_form(g):
    # the check on j of weight <= 2 accepts a base B exactly when
    # h0(B + c(j)) = q0(j) (mod 2) holds at every j, for each of the
    # 4^g classes of valid support
    lab = std_labeling(g)
    images = [p.labels for p in lab.basis_images]
    masks = [p.mask for p in lab.basis_images]
    q0 = [parity(F2Vector(g, bits)) for bits in range(1 << (2 * g))]
    accepted = []
    for t in _support_labels(g):
        exhaustive = all(_ref_h0(g, _ref_image(g, images, t, bits)) % 2 == q
                         for bits, q in enumerate(q0))
        assert _induces_q0(masks, _ref_mask(t), g) == exhaustive
        if exhaustive:
            accepted.append(t)
    assert accepted == [lab.torsor_base.labels]


def test_torsor_base_for_other_symplectic_bases_g3():
    # images c(M e_i) for symplectic M: torsor_base reads the shift of the
    # induced form off the basis values, whatever the basis
    g = 3
    lab = std_labeling(g)
    rng = random.Random(33)
    for _ in range(20):
        # M e_i for M a product of six random transvections
        t = transvection(F2Vector(g, rng.randrange(1, 1 << (2 * g))))
        cols = [t.apply_int(1 << i) for i in range(2 * g)]
        for _ in range(5):
            t = transvection(F2Vector(g, rng.randrange(1, 1 << (2 * g))))
            cols = [t.apply_int(c) for c in cols]
        images = [PartitionClass(g, _image_mask(F2Vector(g, c), lab))
                  for c in cols]
        base = torsor_base(g, images)
        ComponentLabel(g, tuple(images), base)  # validates the base
        labels = [p.labels for p in images]
        for bits in range(1 << (2 * g)):
            t = _ref_image(g, labels, base.labels, bits)
            assert _ref_h0(g, t) % 2 == parity(F2Vector(g, bits))


def test_torsor_base_induced_form_exhaustive_g4():
    g = 4
    lab = std_labeling(g)
    base_val = h0(lab.torsor_base) % 2
    for bits in range(1 << (2 * g)):
        j = F2Vector(g, bits)
        induced = base_val ^ h0(
            PartitionClass(g, _image_mask(j, lab)) + lab.torsor_base) % 2
        assert induced == parity(j)


def _parity_table(g):
    size = 2 * g + 2
    full = (1 << size) - 1
    tab = {_ref_mask(t): _ref_h0(g, t) % 2 for t in _support_labels(g)}
    def can(m):
        return m ^ full if (m >> (size - 1)) & 1 else m
    return tab, can


def test_four_term_relation_exhaustive_g_le_3():
    for g in (2, 3):
        tab, can = _parity_table(g)
        evens = [m for m in range(1 << (2 * g + 1)) if m.bit_count() % 2 == 0]
        bases = list(tab)
        for s in bases:
            for j1 in evens:
                for j2 in evens:
                    lhs = tab[s] ^ tab[can(s ^ j1)] ^ tab[can(s ^ j2)] \
                        ^ tab[can(s ^ j1 ^ j2)]
                    assert lhs == (j1 & j2).bit_count() & 1


def test_four_term_relation_random_g6():
    g = 6
    rng = random.Random(61)
    size = 2 * g + 2
    full = (1 << size) - 1

    def can(m):
        return m ^ full if (m >> (size - 1)) & 1 else m

    def tp(mask):
        return h0(PartitionClass(g, mask)) % 2

    for _ in range(500):
        s = rng.randrange(1 << size) & ~(1 << (size - 1))
        if PartitionClass(g, s).cardinality() % 2 != (g + 1) % 2:
            continue
        j1 = can(rng.randrange(1 << size))
        j2 = can(rng.randrange(1 << size))
        if (j1.bit_count() & 1) or (j2.bit_count() & 1):
            continue
        lhs = tp(s) ^ tp(can(s ^ j1)) ^ tp(can(s ^ j2)) ^ tp(can(s ^ j1 ^ j2))
        assert lhs == (j1 & j2).bit_count() & 1


def test_char_partition_roundtrip_and_parity_g6():
    lab = std_labeling(6)
    assert char_to_partition(F2Vector(6, 0), lab) == lab.torsor_base
    for bits in range(1 << 12):
        k = F2Vector(6, bits)
        t = char_to_partition(k, lab)
        assert partition_to_char(t, lab) == k
        assert parity(k) == h0(t) % 2


def test_char_partition_torsor_isomorphism_g3():
    g = 3
    lab = std_labeling(g)
    for kb in range(1 << (2 * g)):
        for jb in range(1 << (2 * g)):
            k, j = F2Vector(g, kb), F2Vector(g, jb)
            assert char_to_partition(k + j, lab) == \
                char_to_partition(k, lab) + \
                PartitionClass(g, _image_mask(j, lab))


def test_vanishing_thetanull_counts():
    assert len(vanishing_thetanulls(std_labeling(2))) == 0
    assert len(vanishing_thetanulls(std_labeling(3))) == 1
    assert len(vanishing_thetanulls(std_labeling(4))) == 10
    assert len(vanishing_thetanulls(std_labeling(5))) == 66
    assert len(vanishing_thetanulls(std_labeling(6))) == 364


def test_vanishing_set_is_even_with_h0_at_least_2():
    lab = std_labeling(4)
    for k in vanishing_thetanulls(lab):
        assert parity(k) == 0
        assert h0(char_to_partition(k, lab)) >= 2


def test_trans_config_example_g6():
    lab = std_labeling(6)
    cfg = trans_config(lab, [1, 2, 3, 4])
    parts = [char_to_partition(k, lab).labels for k in cfg]
    assert parts == [(2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3)]
    assert len(set(cfg)) == 4
    vans = vanishing_thetanulls(lab)
    for k in cfg:
        assert k in vans
        assert h0(char_to_partition(k, lab)) == 2
        assert parity(k) == 0
    for i, a in enumerate(parts):
        for b in parts[i + 1:]:
            assert len(set(a) & set(b)) == 6 - 4


def test_trans_config_with_largest_label():
    # S is a raw subset of W; including 2g+2 must not trigger complementing
    lab = std_labeling(6)
    s = [11, 12, 13, 14]
    cfg = trans_config(lab, s)
    for k, drop in zip(cfg, s):
        want = PartitionClass.from_labels(6, [x for x in s if x != drop])
        assert char_to_partition(k, lab) == want
        assert h0(char_to_partition(k, lab)) == 2


def test_trans_config_validation():
    lab = std_labeling(6)
    with pytest.raises(MalformedInputError):
        trans_config(lab, [1, 2, 3])
    with pytest.raises(MalformedInputError):
        trans_config(lab, [1, 1, 2, 3])
    with pytest.raises(MalformedInputError):
        trans_config(lab, [1, 2, 3, 15])


@pytest.mark.parametrize("g, s, bad", [
    (3, [9], 9), (3, [0], 0), (3, [123456789], 123456789), (4, [1, 99], 99),
    (5, [-1, 2, 3], -1)])
def test_trans_config_refuses_a_label_outside_w(g, s, bad):
    # at g = 3 the one label of S lies in no T_k, so no class sees it
    with pytest.raises(MalformedInputError,
                       match=rf"^label {bad} outside 1\.\.{2 * g + 2}$"):
        trans_config(std_labeling(g), s)


@pytest.mark.parametrize("g", range(2, 7))
def test_array_model_matches_scalar_definitions(g):
    # against the reference definitions on labels, not the mask kernel
    lab = std_labeling(g)
    classes = list(_support_labels(g))
    ref_h0 = [_ref_h0(g, t) for t in classes]
    odd = sum(h % 2 for h in ref_h0)
    assert class_counts(g) == (len(classes), len(classes) - odd, odd)
    assert formula_agreement(g) == all(
        _ref_closed_form(t) == h % 2 for t, h in zip(classes, ref_h0))
    complement = set(range(1, 2 * g + 3))
    for t, h in zip(classes, ref_h0):
        cls = pc(g, *(complement - set(t)))  # holds 2g+2: complemented
        assert cls.labels == t
        assert h0(cls) == h
        assert _closed_form_parity(cls.mask) == _ref_closed_form(t)
    table = _ref_images(lab)
    assert char_table(lab).tolist() == [_ref_mask(t) for t in table]
    assert vanishing_thetanulls(lab) == {
        F2Vector(g, bits) for bits, t in enumerate(table)
        if parity(F2Vector(g, bits)) == 0 and _ref_h0(g, t) >= 2}
    for bits in range(0, 1 << (2 * g), 7):
        assert char_to_partition(F2Vector(g, bits), lab).labels == table[bits]


@pytest.mark.parametrize("g", [31, 32])
def test_std_labeling_past_int64(g):
    # class masks have 2g+2 = 64 and 66 bits; the labeling validates on
    # plain ints, and its base induces q0 on random characteristics
    lab = std_labeling(g)
    assert ComponentLabel(g, lab.basis_images, lab.torsor_base) == lab
    assert h0(lab.torsor_base) % 2 == 0
    images = [p.labels for p in lab.basis_images]
    rng = random.Random(g)
    for _ in range(100):
        bits = rng.getrandbits(2 * g)
        t = _ref_image(g, images, lab.torsor_base.labels, bits)
        assert _ref_h0(g, t) % 2 == parity(F2Vector(g, bits))


def test_char_partition_roundtrip_g32():
    g = 32
    lab = std_labeling(g)
    images = [p.labels for p in lab.basis_images]
    rng = random.Random(3232)
    for _ in range(200):
        k = F2Vector(g, rng.getrandbits(2 * g))
        t = char_to_partition(k, lab)
        assert t.labels == _ref_image(g, images, lab.torsor_base.labels,
                                      k.bits)
        assert partition_to_char(t, lab) == k
        assert h0(t) % 2 == parity(k)


def test_std_labeling_built_once_per_genus():
    for g in range(2, 7):
        assert std_labeling(g) is std_labeling(g)
    with pytest.raises(DomainError):
        std_labeling(1)


def _corrupted_criterion_7(monkeypatch, corrupt):
    def table(label):
        t = char_table(label).copy()
        corrupt(t)
        return t
    monkeypatch.setattr(verify, "char_table", table)
    return verify.criterion_7()


def test_criterion_7_rejects_corrupted_image_table(monkeypatch):
    assert verify.criterion_7()["pass"]

    def swap(t):
        t[[1, 2]] = t[[2, 1]]
    rep = _corrupted_criterion_7(monkeypatch, swap)
    assert rep["bijective"] and not rep["torsor_isomorphism"]
    assert not rep["pass"]

    def duplicate(t):
        t[1] = t[0]
    rep = _corrupted_criterion_7(monkeypatch, duplicate)
    assert not rep["bijective"] and not rep["torsor_isomorphism"]
    assert not rep["pass"]
