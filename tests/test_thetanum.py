import json
import math
import random
import struct
import sys
import threading

import numpy as np
import pytest

from thetanulls import thetanum
from thetanulls.errors import DomainError, MalformedInputError, ResourceCapError
from thetanulls.f2core import F2Vector, SymplecticMap
from thetanulls.quadforms import (act_on_char, all_characteristics,
                                  odd_characteristics, parity)
from thetanulls.thetanum import (IntSymplectic, SiegelMatrix,
                                 block_diag_split_check, char_act_int,
                                 char_join,
                                 random_int_symplectic, random_level_two,
                                 random_siegel, siegel_act, theta_constant,
                                 transform_modulus_check)


def _s_matrix(g=1):
    eye = np.eye(g, dtype=int)
    zero = np.zeros((g, g), dtype=int)
    return IntSymplectic(zero, -eye, eye, zero)


def _t_matrix():
    return IntSymplectic([[1]], [[1]], [[0]], [[1]])


def _identity(g):
    eye = np.eye(g, dtype=int)
    zero = np.zeros((g, g), dtype=int)
    return IntSymplectic(eye, zero, zero, eye)


def _full(m):
    """The 2g x 2g matrix (A B; C D) of m, with exact Python int entries."""
    return np.block([[m.a, m.b], [m.c, m.d]]).astype(object)


def _compose(m1, m2):
    """The product m1 m2, exact and checked."""
    p, g = _full(m1) @ _full(m2), m1.g
    return IntSymplectic(p[:g, :g].tolist(), p[:g, g:].tolist(),
                         p[g:, :g].tolist(), p[g:, g:].tolist())


def _diag_char_act(m, k):
    """Reference characteristic action by matrices:
    k'_new = D k' + C k'' + diag(C D^T), k''_new = B k' + A k'' + diag(A B^T)
    (mod 2; an int64 wrap cannot change a parity)."""
    g = m.g
    bits = k.to_list()
    kp = np.array(bits[:g], dtype=np.int64)
    kpp = np.array(bits[g:], dtype=np.int64)
    new_p = (m.d @ kp + m.c @ kpp + np.diag(m.c @ m.d.T)) % 2
    new_pp = (m.b @ kp + m.a @ kpp + np.diag(m.a @ m.b.T)) % 2
    return F2Vector.from_list([int(v) for v in new_p]
                              + [int(v) for v in new_pp])


def char_act_form_map(m):
    """F_2 reduction of the characteristic action's linear part, as a
    pairing-preserving map: (k', k'') -> (D k' + C k'', B k' + A k'');
    char_act_int is act_on_char along it."""
    return SymplecticMap(m.g, thetanum._form_rows(m))


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

    @pytest.mark.parametrize("re, im", [
        # Im is averaged to 0.3 if its skew is judged against 1e12
        ([[1e12, 0], [0, 0]], [[1, 0.5], [0.1, 1]]),
        ([[0, 0.5], [0.1, 0]], [[1e12, 0], [0, 1]]),
    ])
    def test_rejects_asymmetric_part_under_a_huge_other_part(self, re, im):
        with pytest.raises(DomainError, match="not symmetric"):
            SiegelMatrix(np.array(re) + 1j * np.array(im))

    def test_real_part_reduced_by_twice_an_integer_matrix(self):
        re = np.array([[1e12 + 0.5, -3.0, 1e300],
                       [-3.0, -2.75, 1.0],
                       [1e300, 1.0, -0.0]])
        z = SiegelMatrix(re + 1j * np.eye(3))
        shift = [[1e12 // 2, -2, 1e300 / 2], [-2, -1, 0], [1e300 / 2, 0, 0]]
        assert np.array_equal(z.reduced.real, re - 2 * np.array(shift))
        assert np.array_equal(z.reduced.imag, np.eye(3))
        assert np.all(np.abs(z.reduced.real) <= 1)
        assert z.shift == ((0, 2, 0), (2, 3, 0), (0, 0, 0))
        flat = SiegelMatrix([[1 + 1j, -1.0], [-1.0, -0.0 + 1j]])
        assert flat.shift is None and flat.reduced is flat.z

    def test_rejects_indefinite_imaginary(self):
        with pytest.raises(DomainError):
            SiegelMatrix([[-1j]])
        with pytest.raises(DomainError):
            SiegelMatrix([[1j, 0], [0, 0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [[[1e308 + 1j]],
                                   [[1j, 1e308], [1e308, 1j]],
                                   [[1j, -1e308], [-1e308, 1j]],
                                   [[1j, 1e308], [-1e308, 1j]],
                                   [[2.0 ** 1023 * 1j]]])
    def test_rejects_entries_from_2_to_the_1023_on(self, z):
        # Z + Z^T used to give inf + nan j and lambda_min nan
        with pytest.raises(DomainError, match="float range"):
            SiegelMatrix(z)

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_skew_pair_near_the_float_range(self):
        with pytest.raises(DomainError, match="not symmetric"):
            SiegelMatrix([[1j, 8.9e307], [-8.9e307, 1j]])

    @pytest.mark.filterwarnings("error")
    def test_symmetric_input_is_its_own_average(self):
        # a Z symmetric bit for bit skips the tolerance test and the
        # average, so (Z + Z^T) / 2 must give its bits back: random_siegel,
        # _act (Re beyond 1 included) and block_diag_join make such Z
        rng = random.Random(7)
        made = []
        for g in (1, 2, 3):
            for _ in range(20):
                z = random_siegel(g, rng)
                made.append(z)
                made.append(thetanum._act(
                    random_int_symplectic(g, rng, steps=4), z)[0])
        made += [thetanum.block_diag_join(made[i:i + 3])
                 for i in range(0, 30, 3)]
        assert sum(z.shift is not None for z in made) >= 10
        top = math.nextafter(2.0 ** 1023, 0)
        edge = np.array([[top + 1j, -0.0 + 5e-324j],
                         [-0.0 + 5e-324j, -top + 1j]])
        made.append(SiegelMatrix(edge))
        assert made[-1].z.tobytes() == edge.tobytes()
        for z in made:
            assert z.z.tobytes() == ((z.z + z.z.T) / 2).tobytes()
        # zeros of opposite sign are equal but not the same bits: averaged
        signed = SiegelMatrix([[1j, 0.0], [-0.0, 1j]])
        assert signed.z.tobytes() == signed.z.T.tobytes()

    def test_copies_its_input(self):
        arr = np.array([[0.5 + 1j]])
        z = SiegelMatrix(arr)
        assert arr.flags.writeable and not z.z.flags.writeable
        arr[0, 0] = 2j
        assert z.z[0, 0] == 0.5 + 1j

    def test_json_roundtrip(self):
        z = SiegelMatrix([[0.25 + 1j, -0.5 + 0.1j], [-0.5 + 0.1j, 2j]])
        data = json.loads(json.dumps(z.to_json_dict()))
        z2 = SiegelMatrix.from_json_dict(data)
        assert np.array_equal(z.z, z2.z)

    def test_json_rejects_bad_keys(self):
        with pytest.raises(MalformedInputError):
            SiegelMatrix.from_json_dict({"g": 1, "re": [[0]]})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("im", [math.inf, -math.inf])
    def test_json_infinite_imaginary_part_refused_without_warning(self, im):
        # re + 1j * im made nan + inf j, with a RuntimeWarning
        with pytest.raises(MalformedInputError, match="must be finite"):
            SiegelMatrix.from_json_dict(
                {"g": 2, "re": [[0, 1], [1, 0]], "im": [[1, 0], [0, im]]})

    def test_json_keeps_the_bits_of_each_part(self):
        # a real -0.0 beside an imaginary part >= 0 is kept, not made +0.0
        data = {"g": 2, "re": [[-0.0, 0.5], [0.5, -0.0]],
                "im": [[1.0, -0.0], [-0.0, 2.0]]}
        z = SiegelMatrix.from_json_dict(data)
        assert json.dumps(z.to_json_dict()) == json.dumps(data)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_rejects_empty(self, dtype):
        with pytest.raises(MalformedInputError, match="at least 1 x 1"):
            SiegelMatrix(np.zeros((0, 0), dtype=dtype))


class TestIntSymplectic:
    def test_identity_and_s(self):
        m = _identity(2)
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

    def test_blocks_checks_the_exact_matrix(self):
        big = np.eye(4, dtype=object)
        for entry in (2 ** 63, -2 ** 63 - 1):
            big[0, 2] = entry  # (I S; 0 I) with S past int64
            with pytest.raises(ResourceCapError, match="int64"):
                thetanum._blocks(big, 2)
        skew = np.eye(4, dtype=object)
        skew[0, 1] = 1  # A = (1 1; 0 1), D = I
        with pytest.raises(DomainError, match="A\\^T D - C\\^T B"):
            thetanum._blocks(skew, 2)
        # A^T D - C^T B = 2^64 + 1, which is 1 in wrapping int64 arithmetic
        wrap = np.array([[2 ** 32, -1], [1, 2 ** 32]], dtype=object)
        with pytest.raises(DomainError):
            thetanum._blocks(wrap, 1)
        m = np.eye(4, dtype=object)
        m[0, 2] = m[1, 3] = 2 ** 62  # (I S; 0 I), S within int64
        out = thetanum._blocks(m, 2)
        assert np.array_equal(_full(out), m)
        for blk in (out.a, out.b, out.c, out.d):
            assert blk.dtype == np.int64 and not blk.flags.writeable

    def test_copies_its_input(self):
        eye = np.eye(1, dtype=np.int64)
        m = IntSymplectic(eye, 0 * eye, 0 * eye, eye)
        assert eye.flags.writeable
        assert not any(blk.flags.writeable for blk in (m.a, m.b, m.c, m.d))

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

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, eps):
        # NaN fails every comparison and inf passes the sign check; either
        # would give a truncation with a bound far above any eps meant
        with pytest.raises(DomainError):
            theta_constant(SiegelMatrix([[0.05j]]), F2Vector(1, 0), eps)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_non_finite_radius_scale_rejected(self, scale):
        # NaN fails every comparison and inf overflows the lattice box
        with pytest.raises(DomainError):
            theta_constant(SiegelMatrix([[0.05j]]), F2Vector(1, 0), 1e-8,
                           radius_scale=scale)


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

    @pytest.mark.filterwarnings("error")
    def test_moved_z_past_the_float_range_refused(self):
        # C = 0 and A = (2 1; 1 1) move Z = 3e307 I + iI to A Z A^T, whose
        # diagonal 1.5e308 overflows in M.Z + (M.Z)^T
        m = IntSymplectic([[2, 1], [1, 1]], [[0, 0], [0, 0]],
                          [[0, 0], [0, 0]], [[1, -1], [-1, 2]])
        z = SiegelMatrix([[3e307 + 1j, 0], [0, 3e307 + 1j]])
        with pytest.raises(DomainError, match="M.Z leaves the float range"):
            siegel_act(m, z)


class TestCharAction:
    def test_g_mismatch(self):
        with pytest.raises(DomainError):
            char_act_int(_s_matrix(2), F2Vector(3, 5))

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
            m = _identity(g)
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
                    lhs = char_act_int(_compose(m1, m2), k)
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
                    assert char_act_int(m, k) == _diag_char_act(m, k)

    def test_matches_form_action_random(self):
        rng = random.Random(46)
        for _ in range(50):
            g = rng.choice([1, 2, 3])
            m = random_int_symplectic(g, rng, steps=4)
            k = F2Vector(g, rng.randrange(1 << (2 * g)))
            assert char_act_int(m, k) == _diag_char_act(m, k)

    def test_form_map_is_symplectic(self):
        rng = random.Random(47)
        for _ in range(30):
            g = rng.choice([1, 2, 3])
            m = random_int_symplectic(g, rng, steps=4)
            form_map = char_act_form_map(m)  # validates the pairing
            for k in all_characteristics(g):
                assert char_act_int(m, k) == act_on_char(form_map, k)

    def test_form_map_rows_wider_than_int64(self):
        # 2g = 66 bits per row mask: the rows need exact Python ints
        g = 33
        eye = np.eye(g, dtype=int)
        zero = np.zeros((g, g), dtype=int)
        s = np.zeros((g, g), dtype=int)
        s[0, g - 1] = s[g - 1, 0] = s[g - 1, g - 1] = 1
        m = IntSymplectic(eye, zero, s, eye)
        rows = char_act_form_map(m).rows
        assert rows[g - 1] == (1 << (g - 1)) | (1 << g) | (1 << (2 * g - 1))
        assert rows[2 * g - 1] == 1 << (2 * g - 1)
        rng = random.Random(50)
        for _ in range(5):
            k = F2Vector(g, rng.randrange(1 << (2 * g)))
            assert char_act_int(m, k) == _diag_char_act(m, k)


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

    def test_fields_match_a_fresh_cz_plus_d(self):
        # CZ + D is built once per check: its determinant, condition number
        # and moved matrix are those of a fresh build, bit for bit
        rng = random.Random(51)
        for g in (1, 2, 3):
            m = random_int_symplectic(g, rng, steps=3)
            z = random_siegel(g, rng, min_im=0.8)
            k = F2Vector(g, rng.randrange(1 << (2 * g)))
            rep = transform_modulus_check(m, z, k, 1e-8)
            den = m.c.astype(np.complex128) @ z.z + m.d.astype(np.complex128)
            assert rep["cond"] == float(np.linalg.cond(den))
            assert rep["det_root"] == \
                math.sqrt(abs(complex(np.linalg.det(den))))
            moved = theta_constant(siegel_act(m, z), char_act_int(m, k), 1e-8)
            assert rep["lhs_modulus"] == abs(moved[0])


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

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_column_operations_are_the_generator_products(self, g):
        # the exact product of the generator matrices the same draws pick,
        # block for block, with the rng left in the same state
        for gen, level_two in ((random_int_symplectic, False),
                               (random_level_two, True)):
            for steps in range(7):
                for seed in range(30):
                    rng = _RecordingRandom(seed)
                    ref_rng = _RecordingRandom(seed)
                    m = gen(g, rng, steps=steps)
                    want = _generator_product(level_two, g, ref_rng, steps)
                    assert rng.log == ref_rng.log
                    assert rng.getstate() == ref_rng.getstate()
                    assert all(blk.dtype == np.int64
                               for blk in (m.a, m.b, m.c, m.d))
                    assert np.array_equal(_full(m), want)

    def test_product_leaving_int64_is_resource_cap(self):
        # 200 level-two steps at this seed leave int64 in block A
        with pytest.raises(ResourceCapError):
            random_level_two(2, random.Random(0), steps=200)


class _RecordingRandom(random.Random):
    """random.Random that logs every randrange and choice it answers."""

    def __init__(self, seed):
        super().__init__(seed)
        self.log = []

    def randrange(self, *args):
        self.log.append(super().randrange(*args))
        return self.log[-1]

    def choice(self, seq):
        self.log.append(super().choice(seq))
        return self.log[-1]


def _generator_product(level_two, g, rng, steps):
    """The exact product of the explicit generators that the draws of
    random_int_symplectic (or random_level_two) pick, in their order: J,
    (I S; 0 I) and (I 0; S I) with S = v(E_ij + E_ji), and at level two
    (U 0; 0 U^-T) with U = I + v E_ij, i != j (the identity at g = 1)."""
    eye = np.eye(g, dtype=object)
    zero = np.zeros((g, g), dtype=object)
    m = np.eye(2 * g, dtype=object)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 2 and not level_two:
            m = m @ np.block([[zero, -eye], [eye, zero]])
            continue
        i, j = rng.randrange(g), rng.randrange(g)
        v = (2 * rng.choice([-1, 1]) if level_two
             else rng.choice([-2, -1, 1, 2]))
        s = zero.copy()
        s[i, j] = s[j, i] = v
        if kind == 0:
            step = np.block([[eye, s], [zero, eye]])
        elif kind == 1:
            step = np.block([[eye, zero], [s, eye]])
        else:
            u, u_inv_t = eye.copy(), eye.copy()
            if g > 1:
                while j == i:
                    j = rng.randrange(g)
                u[i, j] = v
                u_inv_t[j, i] = -v
            assert np.array_equal(u @ u_inv_t.T, eye)
            step = np.block([[u, zero], [zero, u_inv_t]])
        m = m @ step
    return m


def _reference_theta(z, k, eps, radius_scale=1.0):
    """theta_constant built from scratch on every call: radius search,
    meshgrid over the ball, fixed summation order, then the sum of the
    terms exp(pi i x^T Z x), each times i^(2 x . k'') mod 4."""
    g = z.g
    lam = z.lambda_min
    r = max(1.0, math.sqrt(max(0.0, -math.log(eps) / (math.pi * lam))))
    tail = thetanum._tail_bound(r, lam, g)
    while tail > eps:
        r *= 1.25
        tail = thetanum._tail_bound(r, lam, g)
    if radius_scale > 1.0:
        r *= radius_scale
        tail = thetanum._tail_bound(r, lam, g)
    kpp = np.array(k.to_list()[g:], dtype=np.int64)
    x, quad = _reference_coset(z, r, k.first_half)
    turns = (np.rint(2 * x).astype(np.int64) @ kpp) % 4
    units = np.array([1, 1j, -1, -1j])[turns]
    value = complex(np.sum(np.exp(1j * math.pi * quad) * units))
    bound = tail + 1000.0 * thetanum._EPS_MACH * int(x.shape[0])
    return value, bound


def _direct_phase_theta(z, k, eps):
    """The ball sum with the phase inside the exponential,
    exp(pi i (x^T Z x + x . k'')), in the same order and with the same
    bound: the arithmetic the engine used before it shared the terms."""
    r, tail = thetanum._radius(z, eps, 1.0)
    x, quad = _reference_coset(z, r, k.first_half)
    lin = x @ np.array(k.to_list()[z.g:], dtype=np.float64)
    value = complex(np.sum(np.exp(1j * math.pi * (quad + lin))))
    return value, tail + 1000.0 * thetanum._EPS_MACH * x.shape[0]


def _reference_coset(z, r, kp):
    """The ball points x = n + k'/2 by a meshgrid over the box
    |x_i| <= sqrt(r^2 + 1e-12), filtered by ||x||^2 <= r^2 + 1e-12 and
    lexsorted into the summation order (by ||x||^2, then lexicographic in
    n), with x^T Z x."""
    g = z.g
    half = np.array([(kp >> i) & 1 for i in range(g)],
                    dtype=np.float64) / 2.0
    reach = math.sqrt(r * r + 1e-12)
    los = [math.ceil(-reach - half[i]) for i in range(g)]
    his = [math.floor(reach - half[i]) for i in range(g)]
    axes = [np.arange(lo, hi + 1, dtype=np.float64)
            for lo, hi in zip(los, his)]
    mesh = np.meshgrid(*axes, indexing="ij")
    rs = np.stack([m.ravel() for m in mesh], axis=1)
    x = rs + half
    norm2 = np.einsum("ij,ij->i", x, x)
    keep = norm2 <= r * r + 1e-12
    rs, x, norm2 = rs[keep], x[keep], norm2[keep]
    order = np.lexsort(tuple(rs[:, j] for j in range(g - 1, -1, -1))
                       + (norm2,))
    rs, x = rs[order], x[order]
    # the pointwise x^T Z x of _reference_quad_form;
    # test_quad_form_matches_einsum checks the engine's against the plain
    # double sum
    quad = _reference_quad_form(x.T, z.z)
    return x, quad


def _reference_quad_form(xt, z):
    """x^T Z x for each column x of xt, summed over the upper triangle of Z
    in two real accumulators, one per part, assembled at the end."""
    g, n = xt.shape
    re, im, prod = np.zeros(n), np.zeros(n), np.empty(n)
    for j in range(g):
        for k in range(j, g):
            np.multiply(xt[j], xt[k], out=prod)
            weight = 1.0 if j == k else 2.0
            re += (weight * z[j, k].real) * prod
            im += (weight * z[j, k].imag) * prod
    quad = np.empty(n, dtype=np.complex128)
    quad.real, quad.imag = re, im
    return quad


def _bits(result):
    value, bound = result
    return struct.pack("<3d", value.real, value.imag, bound)


class TestLatticeMemo:
    """theta_constant shares one truncated lattice across the
    characteristics of one (Z, eps, radius_scale); its results must equal
    the from-scratch reference bit for bit."""

    @pytest.mark.parametrize("g, min_im", [(1, 0.5), (2, 0.5), (3, 1.0),
                                           (4, 3.0)])
    def test_bit_identical_to_reference(self, g, min_im):
        rng = random.Random(60 + g)
        z = random_siegel(g, rng, min_im=min_im)
        chars = list(all_characteristics(g))
        for eps in (1e-8, 1e-10, 1e-12):
            for scale in (1.0, 2.0):
                for k in chars:
                    got = theta_constant(z, k, eps, radius_scale=scale)
                    want = _reference_theta(z, k, eps, radius_scale=scale)
                    assert _bits(got) == _bits(want), (eps, scale, k)

    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    def test_bit_identical_to_reference_g5(self, eps):
        # one characteristic per k', so all 32 cosets are built
        rng = random.Random(65)
        z = random_siegel(5, rng, min_im=0.1)
        for kp in range(32):
            k = F2Vector(5, kp | rng.randrange(32) << 5)
            assert _bits(theta_constant(z, k, eps)) == \
                _bits(_reference_theta(z, k, eps)), (eps, k)

    def test_wide_lattice_coordinates(self):
        # lambda_min = 1e-3 puts |2x| past int8 (radius about 94)
        z = SiegelMatrix([[0.3 + 1e-3j]])
        for k in all_characteristics(1):
            assert _bits(theta_constant(z, k, 1e-12)) == \
                _bits(_reference_theta(z, k, 1e-12))
        assert thetanum._LATTICE.cosets[0][1].dtype == np.int16

    def test_interleaved_matrices_and_eps(self):
        rng = random.Random(70)
        za = random_siegel(2, rng, min_im=0.6)
        zb = random_siegel(2, rng, min_im=0.6)
        chars = list(all_characteristics(2))
        for z, eps in ((za, 1e-10), (zb, 1e-10), (za, 1e-10),
                       (za, 1e-8), (za, 1e-12), (za, 1e-8)):
            for k in chars:
                assert _bits(theta_constant(z, k, eps)) == \
                    _bits(_reference_theta(z, k, eps))
        # alternating matrices call by call
        for k in chars:
            for z in (za, zb):
                assert _bits(theta_constant(z, k, 1e-10)) == \
                    _bits(_reference_theta(z, k, 1e-10))

    def test_cosets_built_lazily_for_one_matrix(self, monkeypatch):
        built = []
        coset = thetanum._coset

        def counting(z, r, kp):
            built.append((z, kp))
            return coset(z, r, kp)

        monkeypatch.setattr(thetanum, "_coset", counting)
        rng = random.Random(71)
        z = random_siegel(3, rng)
        theta_constant(z, F2Vector(3, 0b101_011), 1e-10)
        assert built == [(z, 0b011)]
        memo = thetanum._LATTICE
        assert memo.z is z and list(memo.cosets) == [0b011]
        for k in all_characteristics(3):
            theta_constant(z, k, 1e-10)
        assert len(built) == 8 and thetanum._LATTICE is memo
        other = random_siegel(3, rng)
        theta_constant(other, F2Vector(3, 0), 1e-10)
        memo = thetanum._LATTICE
        assert memo.z is other and list(memo.cosets) == [0]
        # the old matrix is rebuilt from scratch, not resumed
        theta_constant(z, F2Vector(3, 0b101_011), 1e-10)
        assert thetanum._LATTICE.z is z and len(built) == 10

    def test_failed_radius_leaves_memo_alone(self):
        z = random_siegel(2, random.Random(72))
        theta_constant(z, F2Vector(2, 0), 1e-10)
        memo = thetanum._LATTICE
        tiny = SiegelMatrix(np.eye(6) * 1e-3j)
        # the first radius tried is already past the cap
        with pytest.raises(ResourceCapError, match=r"lattice ball of radius "
                           r"85.6 may hold 2.2e\+12 points in genus 6"):
            theta_constant(tiny, F2Vector(6, 0), 1e-10)
        assert thetanum._LATTICE is memo

    @pytest.mark.parametrize("g", [1, 2])
    def test_huge_radius_scale_is_resource_cap(self, g):
        # the scaled radius meets the term cap before its tail, whose shell
        # count would overflow a float
        z = random_siegel(2, random.Random(74))
        theta_constant(z, F2Vector(2, 0), 1e-10)
        memo = thetanum._LATTICE
        with pytest.raises(ResourceCapError, match="above the term cap"):
            theta_constant(SiegelMatrix(1j * np.eye(g)), F2Vector(g, 0), 1e-8,
                           radius_scale=1e300)
        assert thetanum._LATTICE is memo

    def test_overflowing_tail_is_resource_cap(self):
        # (2 ceil(r) + 3)^60 overflows at r = 3e5, but the term cap refuses
        # the first radius tried, before its tail is computed
        z = SiegelMatrix(1e-10j * np.eye(60))
        with pytest.raises(ResourceCapError, match=r"lattice ball of radius "
                           r"2.43e\+05 may hold inf points in genus 60, "
                           r"above the term cap"):
            theta_constant(z, F2Vector(60, 0), 1e-8)

    def test_radius_search_checks_the_cap_before_each_tail(self,
                                                           monkeypatch):
        # the first radius 7.98 passes the cap, its tail is above eps, and
        # the next radius 9.98 is refused before its tail is computed
        tails = []
        bound = thetanum._tail_bound

        def recording(r, lam, g, cap=math.inf):
            tails.append(r)
            return bound(r, lam, g, cap)
        monkeypatch.setattr(thetanum, "_tail_bound", recording)
        z = SiegelMatrix(0.115j * np.eye(6))
        with pytest.raises(ResourceCapError, match=r"lattice ball of radius "
                           r"9.98 may hold 1e\+07 points in genus 6"):
            theta_constant(z, F2Vector(6, 0), 1e-10)
        assert len(tails) == 1 and round(tails[0], 2) == 7.98

    def test_capped_tail_bound_above_the_cap_exactly_when_the_full_one_is(
            self):
        rng = random.Random(170)
        cases = [(rng.uniform(0.2, 12.0), rng.uniform(0.05, 3.0),
                  rng.randrange(1, 9)) for _ in range(300)]
        # a shell count past the float range, and a tail past 10,000 shells
        cases += [(3e5, 1e-10, 60), (1.0, 1e-12, 1)]
        for r, lam, g in cases:
            full = thetanum._tail_bound(r, lam, g)
            caps = [full, math.nextafter(full, 0.0),
                    math.nextafter(full, math.inf), full / 2, 2 * full,
                    0.0, math.inf, 10.0 ** -rng.uniform(1, 14)]
            for cap in caps:
                got = thetanum._tail_bound(r, lam, g, cap)
                assert (got > cap) == (full > cap), (r, lam, g, cap)
                if full > cap:
                    assert got <= full
                else:
                    assert struct.pack("<d", got) == struct.pack("<d", full)

    def test_term_cap_counts_the_ball_not_its_box(self):
        # r = 5.35: the box 13^7 = 6.3e7 is over the 5e6 cap, but the
        # ball-volume bound is 2.8e6, and the ball holds 589,307 points
        z = SiegelMatrix(0.5j * np.eye(7))
        value, bound = theta_constant(z, F2Vector(7, 0), 1e-8)
        assert thetanum._LATTICE.cosets[0][0].size == 589_307
        # Im Z = I/2 splits into seven genus-1 factors
        one, one_bound = theta_constant(SiegelMatrix([[0.5j]]),
                                        F2Vector(1, 0), 1e-14)
        assert abs(value - one ** 7) <= bound + 100 * one_bound

    def test_threads_sharing_the_memo(self):
        rng = random.Random(73)
        zs = [random_siegel(2, rng) for _ in range(3)]
        chars = list(all_characteristics(2))
        want = {(i, k.bits): _bits(_reference_theta(z, k, 1e-10))
                for i, z in enumerate(zs) for k in chars}
        bad = []

        def work(i):
            for _ in range(20):
                for k in chars:
                    got = _bits(theta_constant(zs[i], k, 1e-10))
                    if got != want[i, k.bits]:
                        bad.append((i, k.bits))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n % 3,))
                       for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert bad == []


class TestSharedTerms:
    """The memo keeps each coset's terms exp(pi i x^T Z x); a
    characteristic multiplies them by powers of i and sums them."""

    def test_terms_are_the_cosets_exponentials_built_once(self):
        z = random_siegel(3, random.Random(75))
        theta_constant(z, F2Vector(3, 0b000_101), 1e-10)
        memo = thetanum._LATTICE
        terms, twice_x = memo.cosets[0b101]
        quad, fold, want_twice_x = thetanum._coset(z, memo.r, 0b101)
        assert terms.tobytes() == np.exp(1j * math.pi * quad)[fold].tobytes()
        assert twice_x.tobytes() == want_twice_x.tobytes()
        # one exp per +-x pair gives the exp of every point, bit for bit
        want_quad = _reference_coset(z, memo.r, 0b101)[1]
        assert terms.tobytes() == \
            np.exp(1j * math.pi * want_quad).tobytes()
        # the other seven k'' of that k' reuse the same arrays
        for kpp in range(8):
            theta_constant(z, F2Vector(3, 0b101 | kpp << 3), 1e-10)
            assert memo.cosets[0b101][0] is terms
        assert thetanum._LATTICE is memo and list(memo.cosets) == [0b101]

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_direct_phase_within_the_rounding_allowance(self, g):
        # moving the phase out of the exponential changes only rounding:
        # k'' = 0 is bit for bit the direct sum, and every other value is
        # within a small part of the rounding allowance of it
        rng = random.Random(80 + g)
        z = random_siegel(g, rng, min_im=0.5)
        for eps in (1e-8, 1e-12):
            for k in all_characteristics(g):
                value, bound = theta_constant(z, k, eps)
                want, want_bound = _direct_phase_theta(z, k, eps)
                assert bound == want_bound
                if k.second_half == 0:
                    assert _bits((value, bound)) == _bits((want, want_bound))
                allowance = bound - thetanum._radius(z, eps, 1.0)[1]
                assert abs(value - want) <= allowance / 100, (eps, k)


class TestCosetEnumeration:
    """_coset against the meshgrid reference, byte for byte, at radii
    where lattice points sit on the sphere or just outside it, within the
    1e-12 slack; the full x^T Z x is the half one read through the fold."""

    @staticmethod
    def _assert_same(z, r):
        dtype = np.min_scalar_type(-2 * math.ceil(r) - 1)
        for kp in range(1 << z.g):
            quad, fold, twice_x = thetanum._coset(z, r, kp)
            x, want_quad = _reference_coset(z, r, kp)
            assert quad[fold].tobytes() == want_quad.tobytes(), kp
            assert quad.size <= -(-x.shape[0] // 2) + 1
            assert twice_x.dtype == dtype
            assert twice_x.shape == (z.g, x.shape[0])
            assert twice_x.tobytes() == \
                (2 * x).T.astype(dtype, order="C").tobytes(), kp

    @pytest.mark.parametrize("g, r, kp, point, kept", [
        (1, 1.5, 1, [1.5], True),
        (2, 2.5, 0b01, [1.5, 2.0], True),
        (3, math.sqrt(3) / 2, 0b111, [0.5, 0.5, 0.5], True),
        # just outside the sphere, within the 1e-12 slack: kept, as in the
        # reference
        (1, 1.5 - 1e-14, 1, [1.5], True),
    ])
    def test_points_on_the_sphere(self, g, r, kp, point, kept):
        z = random_siegel(g, random.Random(80 + g))
        self._assert_same(z, r)
        twice = np.array(point) * 2
        found = (thetanum._coset(z, r, kp)[2].T == twice).all(axis=1).any()
        assert found == kept

    @pytest.mark.parametrize("g", [1, 2, 3, 5])
    def test_quad_form_matches_einsum(self, g):
        # the upper-triangle sum agrees with sum_jk x_j Z_jk x_k to within
        # a few roundings of sum_jk |x_j Z_jk x_k|
        z = random_siegel(g, random.Random(90 + g), min_im=0.3)
        r = thetanum._radius(z, 1e-10, 1.0)[0]
        half_quad, fold, twice_x = thetanum._coset(z, r, (1 << g) - 2)
        quad = half_quad[fold]
        x = twice_x.T / 2
        want = np.einsum("ij,jk,ik->i", x, z.z, x)
        scale = np.einsum("ij,jk,ik->i", np.abs(x), np.abs(z.z), np.abs(x))
        assert np.all(np.abs(quad - want)
                      <= 4 * g * g * thetanum._EPS_MACH * scale)
        # a point's value does not depend on the array it sits in
        for i in (0, len(quad) // 2, len(quad) - 1):
            alone = thetanum._quad_form(twice_x[:, i:i + 1] / 2, z.z)
            assert alone.tobytes() == quad[i:i + 1].tobytes()

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_quad_form_bit_identical_to_two_real_sums(self, g):
        # Z with negative, zero and signed-zero parts, at half-integer
        # columns with the origin, signed zeros and negative coordinates
        rng = np.random.default_rng(160 + g)
        parts = [rng.uniform(-3, 3, (g, g)) for _ in range(2)]
        for part in parts:
            part[rng.random((g, g)) < 0.3] = 0.0
            part[rng.random((g, g)) < 0.3] = -0.0
        zs = [parts[0] + 1j * parts[1],
              random_siegel(g, random.Random(160 + g)).reduced]
        xt = rng.integers(-6, 7, (g, 400)) / 2
        xt[:, :3] = 0.0
        xt[:, 1] = -0.0
        xt[rng.random((g, 400)) < 0.1] = -0.0
        for z in zs:
            for zz in (z, -z, np.zeros((g, g), dtype=np.complex128)):
                zz = (zz + zz.T) / 2
                got = thetanum._quad_form(xt, zz)
                assert got.tobytes() == _reference_quad_form(xt, zz).tobytes()
                assert got.tobytes() == thetanum._quad_form(-xt, zz).tobytes()

    @pytest.mark.parametrize("g", [6, 7, 8])
    def test_unit_radius_high_genus(self, g):
        # the first levels keep almost nothing; at g = 8 the all-odd coset
        # is empty (|2x|^2 = 8 > 4)
        z = random_siegel(g, random.Random(90 + g))
        self._assert_same(z, 1.0)
        if g == 8:
            assert thetanum._coset(z, 1.0, 0xFF)[0].shape == (0,)

    def test_int16_coordinates(self):
        z = SiegelMatrix([[0.3 + 1e-3j]])
        r, _tail = thetanum._radius(z, 1e-12, 1.0)
        assert np.min_scalar_type(-2 * math.ceil(r) - 1) == np.int16
        self._assert_same(z, r)


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty ball cache and memo, put back as they were after the test."""
    monkeypatch.setattr(thetanum, "_BALLS", {})
    monkeypatch.setattr(thetanum, "_LATTICE", None)


@pytest.mark.usefixtures("cold_cache")
class TestBallCache:
    """_BALLS keeps the largest ball of each (g, k') asked for; every radius
    reads its coset as a prefix, equal to a fresh build byte for byte."""

    @pytest.mark.parametrize("g, radii", [
        # radii just inside points, which the 1e-12 slack keeps
        (1, (9.0, 1.5 - 1e-14, 1.5, 2.5, 1.5 - 1e-14)),
        # the 2x dtype turns from int8 to int16 past ceil(r) = 63, and the
        # cached ball's dtype past isqrt(nmax) = 127
        (1, (70.0, 63.0, 63.5, 63.4, 64.0, 62.9, 64.0)),
        (2, (64.0, 62.5, 63.2, 63.5, 3.0)),
        (2, (2.5, 3.0, 63.1, 64.0, 2.5)),
        (3, (1.0, 2.5, math.sqrt(3) / 2, 4.0, 3.5)),
    ])
    def test_prefix_of_a_warm_ball(self, g, radii):
        z = random_siegel(g, random.Random(100 + g))
        for r in radii:
            TestCosetEnumeration._assert_same(z, r)
        nmax = math.floor(4 * (max(radii) ** 2 + 1e-12))
        assert sorted(thetanum._BALLS) == [(g, kp) for kp in range(1 << g)]
        assert all(ball.nmax == nmax for ball in thetanum._BALLS.values())

    @pytest.mark.parametrize("g, radii", [
        # r = 0.25 leaves every coset but k' = 0 empty
        (1, (0.25, 1.0, 4.0, 30.0)),
        (2, (0.25, 1.0, 2.5, 6.0)),
        (3, (0.25, 1.0, 2.0, 3.5)),
        (4, (0.25, 1.0, 2.0, 2.5)),
        (5, (0.25, 1.0, 1.5, 2.0)),
    ])
    def test_shells_are_those_of_np_unique(self, g, radii):
        z = random_siegel(g, random.Random(140 + g), min_im=0.5)
        for r in radii:
            for kp in range(1 << g):
                thetanum._coset(z, r, kp)
                ball = thetanum._BALLS[g, kp]
                norm = (ball.twice_x.astype(np.int64) ** 2).sum(axis=0)
                norms, counts = np.unique(norm, return_counts=True)
                assert ball.norms.dtype == np.min_scalar_type(ball.nmax)
                assert ball.norms.tolist() == norms.tolist()
                assert ball.ends.dtype == np.min_scalar_type(norm.size)
                assert ball.ends.tolist() == [0, *np.cumsum(counts).tolist()]

    def test_point_in_the_slack_kept_in_a_warm_ball(self):
        # x = 3/2 lies past r = 1.5 - 1e-14 but within the 1e-12 slack
        z = random_siegel(1, random.Random(81))
        thetanum._coset(z, 9.0, 1)
        for r in (1.5 - 1e-14, 1.5):
            assert thetanum._coset(z, r, 1)[2].tolist() == [[-1, 1, -3, 3]]
        assert thetanum._coset(z, 1.4, 1)[2].tolist() == [[-1, 1]]

    def test_coset_shares_the_cached_points(self):
        z = random_siegel(2, random.Random(82))
        _quad, fold, twice_x = thetanum._coset(z, 3.0, 0b01)
        ball = thetanum._BALLS[2, 0b01]
        assert np.shares_memory(twice_x, ball.twice_x)
        assert np.shares_memory(fold, ball.fold)
        assert thetanum._coset(z, 2.0, 0b01)[2].base is ball.twice_x
        # the norms are held once per value, not per point
        assert ball.norms.size < ball.twice_x.shape[1]
        assert ball.ends.size == ball.norms.size + 1

    @pytest.mark.parametrize("g, min_im", [(1, 0.5), (2, 0.5), (3, 1.0)])
    def test_theta_cold_and_warm_bit_identical(self, g, min_im):
        rng = random.Random(110 + g)
        z = random_siegel(g, rng, min_im=min_im)
        chars = list(all_characteristics(g))
        runs = []
        for warm_scale in (None, 3.0):
            thetanum._BALLS.clear()
            if warm_scale is not None:
                theta_constant(z, chars[0], 1e-12, radius_scale=warm_scale)
                for kp in range(1, 1 << g):
                    theta_constant(z, F2Vector(g, kp), 1e-12,
                                   radius_scale=warm_scale)
            runs.append([])
            for eps in (1e-8, 1e-12, 1e-10):
                for scale in (1.0, 2.0):
                    thetanum._LATTICE = None
                    runs[-1].extend(_bits(theta_constant(z, k, eps, scale))
                                    for k in chars)
        assert runs[0] == runs[1]
        assert runs[0][:len(chars)] == [_bits(_reference_theta(z, k, 1e-8))
                                        for k in chars]

    def test_term_cap_refusal_leaves_the_cache_alone(self):
        z = random_siegel(2, random.Random(83))
        for k in all_characteristics(2):
            theta_constant(z, k, 1e-10)
        before = dict(thetanum._BALLS)
        with pytest.raises(ResourceCapError, match="above the term cap"):
            theta_constant(SiegelMatrix(1e-3j * np.eye(6)), F2Vector(6, 0),
                           1e-10)
        with pytest.raises(ResourceCapError, match="above the term cap"):
            theta_constant(z, F2Vector(2, 0), 1e-8, radius_scale=1e300)
        assert thetanum._BALLS.keys() == before.keys()
        assert all(thetanum._BALLS[key] is ball
                   for key, ball in before.items())

    def test_tiny_imaginary_part_genus_one(self):
        # r is about 1.8e6 and nmax about 1.3e13: a table indexed by the
        # norm would not fit in memory, the ball holds 3.6e6 points
        z = SiegelMatrix([[1e-10j]])
        value, bound = theta_constant(z, F2Vector(1, 0), 1e-8)
        # theta(0, it) = t^(-1/2) theta(0, i/t), and theta(0, i/t) = 1
        # to far below double precision at t = 1e-10
        assert abs(value - 1e5) <= bound
        ball = thetanum._BALLS[1, 0]
        assert ball.nmax > 10 ** 13
        assert ball.norms.size <= ball.twice_x.shape[1] < 4_000_000


def _assert_antipodal(twice_x, fold):
    """Each shell of one norm in twice_x reads the same negated and
    reversed, and fold numbers the first half of each shell in order and
    sends each point of the second half to its mirror in the first."""
    norm = (twice_x.astype(np.int64) ** 2).sum(axis=0)
    assert np.all(np.diff(norm) >= 0)
    starts = np.flatnonzero(np.diff(norm, prepend=-1)).tolist()
    want, number = [], 0
    for s, e in zip(starts, starts[1:] + [norm.size]):
        shell = twice_x[:, s:e]
        assert np.array_equal(shell[:, ::-1], -shell)
        want.extend(number + min(p, e - s - 1 - p) for p in range(e - s))
        number += (e - s + 1) // 2
    assert fold.tolist() == want


@pytest.mark.usefixtures("cold_cache")
class TestAntipodalFold:
    """Each coset is folded onto the first half of each shell of one norm:
    x^T Z x and exp are computed there, and the fold reads them at every
    point, bit for bit as a term per point."""

    @pytest.mark.parametrize("g, radii", [
        # growing, then shrinking to just inside points at x_i = 3/2 or
        # x_i = 2, which the 1e-12 slack keeps
        (1, (2.5, 9.0, 1.5 - 1e-14, 2.0 - 1e-14, 4.0)),
        (2, (1.0, 3.5, 2.0 - 1e-14, 1.5 - 1e-14, 2.5)),
        (3, (3.0, 1.5 - 1e-14, 2.0 - 1e-14, 1.0, 3.5)),
        (4, (2.0 - 1e-14, 2.5, 1.5 - 1e-14, 1.0)),
        (5, (1.0, 2.0, 1.5 - 1e-14, 2.0 - 1e-14)),
        (6, (2.0, 1.5 - 1e-14, 1.0, 2.0 - 1e-14)),
    ])
    def test_shells_read_the_same_negated_and_reversed(self, g, radii):
        z = random_siegel(g, random.Random(120 + g), min_im=0.5)
        for r in radii:
            for kp in range(1 << g):
                quad, fold, twice_x = thetanum._coset(z, r, kp)
                ball = thetanum._BALLS[g, kp]
                _assert_antipodal(ball.twice_x, ball.fold)
                assert ball.fold.dtype == \
                    np.min_scalar_type(ball.twice_x.shape[1])
                _assert_antipodal(twice_x, fold)
                assert quad.size == (fold.max() + 1 if fold.size else 0)
                want_quad = _reference_coset(z, r, kp)[1]
                assert quad[fold].tobytes() == want_quad.tobytes()

    @pytest.mark.parametrize("g, radii", [
        (1, (9.0, 0.25, 1.0, 1.5 - 1e-14, 4.5)),
        (2, (4.0, 0.25, 1.0, 1.5 - 1e-14, 2.5, 3.2)),
        (3, (3.0, 0.25, 1.0, 2.0 - 1e-14, 2.5)),
        (4, (2.5, 0.25, 1.0, 1.5, 2.0)),
    ])
    def test_half_ball_is_the_fold_step_points(self, g, radii, monkeypatch):
        # the ball of the largest radius is cut at each smaller one
        seen = []
        quad_form = thetanum._quad_form

        def recording(xt, z):
            seen.append(xt)
            return quad_form(xt, z)
        monkeypatch.setattr(thetanum, "_quad_form", recording)
        z = random_siegel(g, random.Random(180 + g), min_im=0.5)
        for r in radii:
            for kp in range(1 << g):
                seen.clear()
                _quad, fold, _twice_x = thetanum._coset(z, r, kp)
                ball = thetanum._BALLS[g, kp]
                assert ball.nmax == math.floor(4 * (radii[0] ** 2 + 1e-12))
                first = np.empty(fold.size, dtype=bool)
                first[:1] = True
                np.greater(fold[1:], fold[:-1], out=first[1:])
                want = ball.twice_x[:, :fold.size].compress(first, axis=1)
                assert ball.half.dtype == ball.twice_x.dtype
                assert seen[0].tobytes() == (want / 2).tobytes()

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_quad_form_sees_half_of_each_coset(self, g, monkeypatch):
        columns = []
        quad_form = thetanum._quad_form

        def counting(xt, z):
            columns.append(xt.shape[1])
            return quad_form(xt, z)
        monkeypatch.setattr(thetanum, "_quad_form", counting)
        z = random_siegel(g, random.Random(130 + g), min_im=0.5)
        for kp in range(1 << g):
            columns.clear()
            theta_constant(z, F2Vector(g, kp), 1e-10)
            n = thetanum._LATTICE.cosets[kp][0].size
            assert len(columns) == 1 and columns[0] <= -(-n // 2) + 1

    def test_phase_sum_past_int8(self):
        # r is about 55: each |2x_i| fits int8, but 2x_1 + 2x_2 does not,
        # and wraps mod 2^8 in the phase sum
        z = SiegelMatrix([[0.25 + 0.003j, 0.125], [0.125, -0.5 + 0.003j]])
        for k in all_characteristics(2):
            assert _bits(theta_constant(z, k, 1e-8)) == \
                _bits(_reference_theta(z, k, 1e-8)), k
        twice_x = thetanum._LATTICE.cosets[0][1]
        assert twice_x.dtype == np.int8
        assert np.abs(twice_x.astype(np.int64).sum(axis=0)).max() > 128


def _quarter_turns(value, power):
    return value * (1j ** (power % 4))


class TestRealPartShift:
    """theta[k](Z + 2S) = i^(k'^T S k') theta[k](Z) for integer symmetric
    S: the series is summed at Re Z - 2 round(Re Z / 2), in [-1, 1]."""

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_shift_by_twice_an_integer_matrix(self, g):
        rng = random.Random(140 + g)
        for _ in range(4):
            base = random_siegel(g, rng, min_im=0.6).z
            # dyadic real parts in [-2, 2], so that Z + 2S is exact
            re = np.round(base.real * 2 * 1024) / 1024
            z = SiegelMatrix(re + 1j * base.imag)
            s = np.zeros((g, g), dtype=np.int64)
            for i in range(g):
                for j in range(i, g):
                    s[i, j] = s[j, i] = rng.choice(
                        [rng.randrange(-10 ** 9, 10 ** 9 + 1), 10 ** 9,
                         -10 ** 9, rng.randrange(-3, 4)])
            moved = SiegelMatrix(z.z + 2 * s)
            assert np.array_equal(moved.z.real - 2 * s, z.z.real)
            for k in all_characteristics(g):
                kp = np.array(k.to_list()[:g])
                v, b = theta_constant(z, k, 1e-10)
                mv, mb = theta_constant(moved, k, 1e-10)
                want = _quarter_turns(v, int(kp @ s @ kp))
                assert abs(mv - want) <= b + mb, (k, s)
                ref, ref_bound = _reference_theta(z, k, 1e-10)
                assert abs(mv - _quarter_turns(ref, int(kp @ s @ kp))) \
                    <= mb + ref_bound, (k, s)

    @pytest.mark.parametrize("re", [1e6, 1e9, -1e9, 2.0 ** 60, 1e300])
    def test_huge_real_part_genus_one(self, re):
        # theta[0](tau + 2n) = theta[0](tau); the direct sum at Re = 1e6 is
        # off by 1.9e-11 against a bound of 1.55e-12
        value, bound = theta_constant(SiegelMatrix([[re + 1j]]),
                                      F2Vector(1, 0), 1e-12)
        assert abs(value - math.pi ** 0.25 / math.gamma(0.75)) <= bound

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_bit_identical_within_unit_real_part(self, g):
        rng = random.Random(150 + g)
        im = random_siegel(g, rng, min_im=0.5).z.imag
        edge = [1.0, -1.0, -0.0, 0.5, -0.5, 0.999]
        re = np.zeros((g, g))
        for i in range(g):
            for j in range(i, g):
                re[i, j] = re[j, i] = rng.choice(edge)
        z = SiegelMatrix(re + 1j * im)
        assert z.shift is None and z.reduced is z.z
        for k in all_characteristics(g):
            assert _bits(theta_constant(z, k, 1e-10)) == \
                _bits(_reference_theta(z, k, 1e-10))
