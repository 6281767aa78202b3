from __future__ import annotations

import random

import pytest

from thetanulls import verify
from thetanulls.errors import DomainError, MalformedInputError
from thetanulls.f2core import F2Vector, _rank_int
from thetanulls.hyperelliptic import (
    ComponentLabel,
    PartitionClass,
    all_classes,
    char_table,
    char_to_partition,
    class_counts,
    formula_agreement,
    h0,
    partition_pairing,
    partition_parity,
    partition_to_char,
    q_minus_parity,
    q_plus_parity,
    std_labeling,
    theta_parity,
    theta_support_classes,
    trans_config,
    vanishing_thetanulls,
)
from thetanulls.quadforms import QuadraticForm, parity


def pc(g, *labels):
    return PartitionClass.from_labels(g, labels)


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
    g = 3
    assert partition_pairing(pc(g, 1, 2), pc(g, 2, 3)) == 1
    assert partition_pairing(pc(g, 1, 2), pc(g, 3, 4)) == 0
    assert partition_pairing(pc(g, 1, 2), pc(g, 1, 2)) == 0
    with pytest.raises(DomainError):
        partition_pairing(pc(g, 1), pc(g, 1, 2))


def test_pairing_complement_stable_and_nondegenerate():
    g = 2
    evens = [t for t in all_classes(g) if partition_parity(t) == 0]
    for a in evens:
        comp = PartitionClass(g, a.mask ^ ((1 << (2 * g + 2)) - 1))
        for b in evens:
            assert partition_pairing(a, b) == partition_pairing(comp, b)
        if a.cardinality() % (2 * g + 2) != 0:  # nonzero class
            assert any(partition_pairing(a, b) for b in evens)


def test_h0_and_theta_parity():
    assert h0(pc(3)) == 2
    assert theta_parity(pc(3)) == 0
    t = pc(6, 1, 2, 3, 4, 5, 6, 7)
    assert h0(t) == 0
    assert theta_parity(t) == 0
    assert q_minus_parity(t) == 0
    with pytest.raises(DomainError):
        h0(pc(3, 1))  # |T| must be even at g=3


def test_even_odd_census_g2_to_g6():
    for g in range(2, 7):
        evens = sum(1 for t in theta_support_classes(g)
                    if theta_parity(t) == 0)
        total = sum(1 for _ in theta_support_classes(g))
        assert total == 1 << (2 * g)
        assert evens == (1 << (g - 1)) * ((1 << g) + 1)


def test_formula_agreement_by_genus():
    assert formula_agreement(2)
    assert formula_agreement(3)
    assert not formula_agreement(4)
    assert not formula_agreement(5)
    assert formula_agreement(6)


def test_formula_domain_errors():
    with pytest.raises(DomainError):
        q_minus_parity(pc(3, 1, 2))
    with pytest.raises(DomainError):
        q_plus_parity(pc(3, 1))


def test_std_labeling_gram_g6():
    lab = std_labeling(6)
    imgs = lab.basis_images
    g = 6
    for i in range(2 * g):
        assert partition_parity(imgs[i]) == 0
        for j in range(2 * g):
            expect = 1 if abs(i - j) == g else 0
            if i != j:
                assert partition_pairing(imgs[i], imgs[j]) == expect
    # Gram matrix over F2 has full rank 2g
    rows = []
    for i in range(2 * g):
        rows.append(sum(partition_pairing(imgs[i], imgs[j]) << j
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
        assert theta_parity(base) == 0
        valid = []
        for cand in theta_support_classes(g):
            if theta_parity(cand) != 0:
                continue
            try:
                ComponentLabel(g, lab.basis_images, cand)
            except DomainError:
                continue
            valid.append(cand)
        assert valid == [base]
        assert base == min(valid, key=lambda t: t.sort_key())


def test_torsor_base_induced_form_exhaustive_g4():
    g = 4
    lab = std_labeling(g)
    q_std = QuadraticForm.standard(g)
    base_val = theta_parity(lab.torsor_base)
    for bits in range(1 << (2 * g)):
        j = F2Vector(g, bits)
        induced = base_val ^ theta_parity(
            lab.vector_image(j) + lab.torsor_base)
        assert induced == q_std(j)


def _parity_table(g):
    size = 2 * g + 2
    full = (1 << size) - 1
    tab = {}
    for t in theta_support_classes(g):
        tab[t.mask] = theta_parity(t)
    def can(m):
        return m ^ full if (m >> (size - 1)) & 1 else m
    return tab, can


def test_four_term_relation_exhaustive_g_le_3():
    for g in (2, 3):
        tab, can = _parity_table(g)
        evens = [t.mask for t in all_classes(g) if partition_parity(t) == 0]
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
        return theta_parity(PartitionClass(g, mask))

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
    assert char_to_partition(F2Vector.zero(6), lab) == lab.torsor_base
    for bits in range(1 << 12):
        k = F2Vector(6, bits)
        t = char_to_partition(k, lab)
        assert partition_to_char(t, lab) == k
        assert parity(k) == theta_parity(t)


def test_char_partition_torsor_isomorphism_g3():
    g = 3
    lab = std_labeling(g)
    for kb in range(1 << (2 * g)):
        for jb in range(1 << (2 * g)):
            k, j = F2Vector(g, kb), F2Vector(g, jb)
            assert char_to_partition(k + j, lab) == \
                char_to_partition(k, lab) + lab.vector_image(j)


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


@pytest.mark.parametrize("g", range(2, 7))
def test_array_model_matches_scalar_definitions(g):
    lab = std_labeling(g)
    chars = [F2Vector(g, bits) for bits in range(1 << (2 * g))]
    images = [char_to_partition(k, lab) for k in chars]
    assert char_table(lab).tolist() == [t.mask for t in images]
    assert vanishing_thetanulls(lab) == {
        k for k, t in zip(chars, images) if parity(k) == 0 and h0(t) >= 2}
    classes = list(theta_support_classes(g))
    even = sum(1 for t in classes if theta_parity(t) == 0)
    odd = sum(1 for t in classes if theta_parity(t) == 1)
    assert class_counts(g) == (len(classes), even, odd)
    formula = q_minus_parity if g % 2 == 0 else q_plus_parity
    assert formula_agreement(g) == all(formula(t) == theta_parity(t)
                                       for t in classes)


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
