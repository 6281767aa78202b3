import json
import math
import random

import numpy as np
import pytest

from thetanulls.errors import DomainError, MalformedInputError
from thetanulls.f2core import F2Vector
from thetanulls.quadforms import (all_characteristics,
                                  odd_characteristics, parity)
from thetanulls.thetanum import (IntSymplectic, SiegelMatrix,
                                 block_diag_split_check, char_act_int,
                                 char_act_form_map,
                                 char_act_matches_form_action, char_join,
                                 random_int_symplectic, random_level_two,
                                 random_siegel, siegel_act, theta_constant,
                                 transform_modulus_check)


def _s_matrix(g=1):
    eye = np.eye(g, dtype=int)
    zero = np.zeros((g, g), dtype=int)
    return IntSymplectic(zero, -eye, eye, zero)


def _t_matrix():
    return IntSymplectic([[1]], [[1]], [[0]], [[1]])


class TestSiegelMatrix:
    def test_symmetrized_and_lambda_min(self):
        z = SiegelMatrix([[1 + 2j, 0.5j], [0.5j, 1 + 3j]])
        assert z.g == 2
        assert np.allclose(z.z, z.z.T)
        # eigenvalues of [[2, .5], [.5, 3]] are (5 +- sqrt(2))/2
        assert z.lambda_min == pytest.approx((5 - math.sqrt(2)) / 2, abs=1e-9)

    def test_rejects_nonsquare(self):
        with pytest.raises(MalformedInputError):
            SiegelMatrix([[1j, 0j]])

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            SiegelMatrix([[1j, 1.0], [0.0, 1j]])

    def test_rejects_indefinite_imaginary(self):
        with pytest.raises(DomainError):
            SiegelMatrix([[-1j]])
        with pytest.raises(DomainError):
            SiegelMatrix([[1j, 0], [0, 0]])

    def test_json_roundtrip(self):
        z = SiegelMatrix([[0.25 + 1j, -0.5 + 0.1j], [-0.5 + 0.1j, 2j]])
        data = json.loads(json.dumps(z.to_json_dict()))
        z2 = SiegelMatrix.from_json_dict(data)
        assert np.array_equal(z.z, z2.z)

    def test_json_rejects_bad_keys(self):
        with pytest.raises(MalformedInputError):
            SiegelMatrix.from_json_dict({"g": 1, "re": [[0]]})


class TestIntSymplectic:
    def test_identity_and_s(self):
        m = IntSymplectic.identity(2)
        assert m.is_level_two()
        s = _s_matrix(2)
        assert not s.is_level_two()

    def test_rejects_broken_relation(self):
        with pytest.raises(DomainError):
            IntSymplectic([[1]], [[0]], [[0]], [[2]])
        with pytest.raises(DomainError):
            IntSymplectic([[1, 0], [0, 1]], [[0, 1], [0, 0]],
                          [[0, 0], [0, 0]], [[1, 0], [0, 1]])
        # A^T D - C^T B = 2^64 + 1, which is 1 in wrapping int64 arithmetic
        with pytest.raises(DomainError):
            IntSymplectic([[2 ** 32]], [[-1]], [[1]], [[2 ** 32]])

    def test_compose(self):
        s = _s_matrix()
        s2 = s @ s
        # S^2 = -I
        assert np.array_equal(s2.a, [[-1]])
        assert np.array_equal(s2.d, [[-1]])
        s4 = s2 @ s2
        assert np.array_equal(s4.a, [[1]])
        assert s4.is_level_two()

    def test_json_roundtrip(self):
        s = _s_matrix(2)
        data = json.loads(json.dumps(s.to_json_dict()))
        s2 = IntSymplectic.from_json_dict(data)
        assert np.array_equal(s.b, s2.b)
        with pytest.raises(MalformedInputError):
            IntSymplectic.from_json_dict({"A": [[1]], "B": [[0]], "C": [[0]]})


class TestThetaValues:
    def test_classical_values_at_i(self):
        z = SiegelMatrix([[1j]])
        ref = math.pi ** 0.25 / math.gamma(0.75)
        v3, b3 = theta_constant(z, F2Vector.from_list([0, 0]), 1e-12)
        v4, _ = theta_constant(z, F2Vector.from_list([0, 1]), 1e-12)
        v2, _ = theta_constant(z, F2Vector.from_list([1, 0]), 1e-12)
        assert abs(v3 - ref) < 1e-13
        assert abs(v4 - ref / 2 ** 0.25) < 1e-13
        assert abs(v2 - ref / 2 ** 0.25) < 1e-13
        assert b3 < 1e-11

    def test_odd_characteristic_vanishes(self):
        rng = random.Random(40)
        for g in (1, 2, 3):
            for _ in range(3):
                z = random_siegel(g, rng, min_im=0.3)
                for k in odd_characteristics(g):
                    v, _ = theta_constant(z, k, 1e-12)
                    assert abs(v) <= 1e-12

    def test_agrees_with_direct_double_sum(self):
        z = SiegelMatrix([[0.3 + 1.1j, -0.2 + 0.3j], [-0.2 + 0.3j, 0.9j]])
        k = F2Vector.from_list([1, 0, 1, 1])
        val, bound = theta_constant(z, k, 1e-10)
        acc = 0.0 + 0.0j
        for r1 in range(-12, 13):
            for r2 in range(-12, 13):
                x = np.array([r1 + 0.5, r2 + 0.0])
                q = x @ z.z @ x + x @ np.array([1.0, 1.0])
                acc += np.exp(1j * math.pi * q)
        assert abs(val - acc) < bound + 1e-9

    def test_double_radius_within_certificate(self):
        rng = random.Random(41)
        for g in (1, 2):
            for _ in range(5):
                z = random_siegel(g, rng, min_im=0.4)
                k = F2Vector(g, rng.randrange(1 << (2 * g)))
                v1, b1 = theta_constant(z, k, 1e-9)
                v2, _ = theta_constant(z, k, 1e-9, radius_scale=2.0)
                assert abs(v1 - v2) < b1

    def test_bound_small_for_moderate_eps(self):
        z = SiegelMatrix([[1j]])
        _, bound = theta_constant(z, F2Vector.from_list([0, 0]), 1e-8)
        assert 0 < bound <= 2e-8

    def test_input_validation(self):
        z = SiegelMatrix([[1j]])
        k = F2Vector.from_list([0, 0])
        with pytest.raises(DomainError):
            theta_constant(z, k, 0.0)
        with pytest.raises(DomainError):
            theta_constant(z, k, 1e-8, radius_scale=0.5)
        with pytest.raises(DomainError):
            theta_constant(z, F2Vector.from_list([0, 0, 0, 0]), 1e-8)


class TestSiegelAction:
    def test_s_fixes_i_identity(self):
        z = SiegelMatrix([[1j]])
        moved = siegel_act(_s_matrix(), z)
        assert np.allclose(moved.z, [[1j]])

    def test_t_translates(self):
        z = SiegelMatrix([[0.25 + 1.5j]])
        moved = siegel_act(_t_matrix(), z)
        assert np.allclose(moved.z, [[1.25 + 1.5j]])

    def test_result_revalidated(self):
        rng = random.Random(42)
        for _ in range(20):
            m = random_int_symplectic(2, rng, steps=4)
            z = random_siegel(2, rng)
            moved = siegel_act(m, z)
            assert moved.lambda_min > 0

    def test_g_mismatch(self):
        with pytest.raises(DomainError):
            siegel_act(_s_matrix(1), SiegelMatrix([[1j, 0], [0, 1j]]))


class TestCharAction:
    def test_g1_s_permutation(self):
        s = _s_matrix()
        table = {(0, 0): [0, 0], (0, 1): [1, 0],
                 (1, 0): [0, 1], (1, 1): [1, 1]}
        for bits, out in table.items():
            got = char_act_int(s, F2Vector.from_list(list(bits)))
            assert got.to_list() == out

    def test_g1_t_permutation(self):
        t = _t_matrix()
        table = {(0, 0): [0, 1], (0, 1): [0, 0],
                 (1, 0): [1, 0], (1, 1): [1, 1]}
        for bits, out in table.items():
            got = char_act_int(t, F2Vector.from_list(list(bits)))
            assert got.to_list() == out

    def test_identity_trivial(self):
        for g in (1, 2, 3):
            m = IntSymplectic.identity(g)
            for k in all_characteristics(g):
                assert char_act_int(m, k) == k

    def test_level_two_acts_trivially(self):
        rng = random.Random(43)
        for g in (1, 2):
            for _ in range(15):
                m = random_level_two(g, rng, steps=5)
                assert m.is_level_two()
                for k in all_characteristics(g):
                    assert char_act_int(m, k) == k

    def test_group_law(self):
        rng = random.Random(44)
        for g in (1, 2):
            for _ in range(25):
                m1 = random_int_symplectic(g, rng, steps=3)
                m2 = random_int_symplectic(g, rng, steps=3)
                for k in all_characteristics(g):
                    lhs = char_act_int(m1 @ m2, k)
                    rhs = char_act_int(m1, char_act_int(m2, k))
                    assert lhs == rhs

    def test_parity_preserved(self):
        rng = random.Random(45)
        for _ in range(2000):
            g = rng.choice([1, 2, 3])
            m = random_int_symplectic(g, rng, steps=4)
            k = F2Vector(g, rng.randrange(1 << (2 * g)))
            assert parity(char_act_int(m, k)) == parity(k)

    def test_matches_form_action_on_generators(self):
        # exhaustive at g <= 2 over the standard generator set
        for g in (1, 2):
            eye = np.eye(g, dtype=int)
            zero = np.zeros((g, g), dtype=int)
            gens = [_s_matrix(g)]
            for i in range(g):
                for j in range(i, g):
                    s = np.zeros((g, g), dtype=int)
                    s[i, j] = s[j, i] = 1
                    gens.append(IntSymplectic(eye, s, zero, eye))
                    gens.append(IntSymplectic(eye, zero, s, eye))
            for m in gens:
                for k in all_characteristics(g):
                    assert char_act_matches_form_action(m, k)

    def test_matches_form_action_random(self):
        rng = random.Random(46)
        for _ in range(50):
            g = rng.choice([1, 2, 3])
            m = random_int_symplectic(g, rng, steps=4)
            k = F2Vector(g, rng.randrange(1 << (2 * g)))
            assert char_act_matches_form_action(m, k)

    def test_form_map_is_symplectic(self):
        rng = random.Random(47)
        for _ in range(30):
            g = rng.choice([1, 2, 3])
            m = random_int_symplectic(g, rng, steps=4)
            char_act_form_map(m)  # constructor validates the pairing


class TestTransformModulus:
    def test_random_transformations_pass(self):
        rng = random.Random(48)
        for g in (1, 2):
            for _ in range(15):
                m = random_int_symplectic(g, rng, steps=4)
                z = random_siegel(g, rng)
                k = F2Vector(g, rng.randrange(1 << (2 * g)))
                rep = transform_modulus_check(m, z, k, 1e-8)
                assert rep["pass"], rep
                assert rep["diff"] <= 1e-8

    def test_level_two_flag(self):
        rng = random.Random(49)
        m = random_level_two(2, rng, steps=4)
        z = random_siegel(2, rng)
        rep = transform_modulus_check(m, z, F2Vector(2, 5), 1e-8)
        assert rep["level_two"] is True
        assert rep["pass"]

    def test_vanishing_preserved(self):
        # odd k stays odd, so both sides are numerically zero
        rng = random.Random(50)
        z = random_siegel(2, rng, min_im=0.4)
        k = next(iter(odd_characteristics(2)))
        m = random_int_symplectic(2, rng, steps=4)
        rep = transform_modulus_check(m, z, k, 1e-10)
        assert rep["lhs_modulus"] < 1e-10
        assert rep["rhs_modulus"] < 1e-10


class TestBlockDiagSplit:
    def test_known_product(self):
        z1 = SiegelMatrix([[1j]])
        k1 = F2Vector.from_list([0, 0])
        rep = block_diag_split_check([z1, z1], [k1, k1], 1e-10)
        ref = (math.pi ** 0.25 / math.gamma(0.75)) ** 2
        assert rep["pass"]
        assert rep["value"][0] == pytest.approx(ref, abs=1e-12)
        assert rep["value"][1] == pytest.approx(0.0, abs=1e-12)

    def test_random_splits(self):
        rng = random.Random(51)
        for _ in range(10):
            z1 = random_siegel(1, rng)
            z2 = random_siegel(1, rng)
            k1 = F2Vector(1, rng.randrange(4))
            k2 = F2Vector(1, rng.randrange(4))
            rep = block_diag_split_check([z1, z2], [k1, k2], 1e-10)
            assert rep["pass"], rep

    def test_char_join_layout(self):
        k1 = F2Vector.from_list([1, 0])
        k2 = F2Vector.from_list([0, 1])
        joined = char_join([k1, k2])
        assert joined.to_list() == [1, 0, 0, 1]

    def test_length_mismatch(self):
        z1 = SiegelMatrix([[1j]])
        with pytest.raises(MalformedInputError):
            block_diag_split_check([z1], [], 1e-10)


class TestGenerators:
    def test_random_siegel_floor(self):
        rng = random.Random(52)
        for g in (1, 2, 3):
            for _ in range(10):
                z = random_siegel(g, rng, min_im=0.3)
                assert z.lambda_min >= 0.3 - 1e-9

    def test_random_level_two_in_subgroup(self):
        rng = random.Random(53)
        for g in (1, 2, 3):
            for _ in range(10):
                assert random_level_two(g, rng, steps=5).is_level_two()
