"""Scalar quaternion arithmetic, similarity classes, and literal parsing."""

import math

import numpy as np
import pytest

from qqwalk.quaternion import (
    Quaternion,
    QuaternionFormatError,
    canonical_class_rep,
    parse_quaternion,
)

ONE, I, J, K = Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K


def random_quaternion(rng, scale=1.0):
    return Quaternion(*rng.uniform(-scale, scale, 4))


class TestMultiplication:
    def test_basis_relation_table(self):
        minus_one = -ONE
        assert (I * I).isclose(minus_one)
        assert (J * J).isclose(minus_one)
        assert (K * K).isclose(minus_one)
        assert (I * J).isclose(K) and (J * I).isclose(-K)
        assert (J * K).isclose(I) and (K * J).isclose(-I)
        assert (K * I).isclose(J) and (I * K).isclose(-J)

    def test_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = random_quaternion(rng)
            assert (ONE * q).isclose(q)
            assert (q * ONE).isclose(q)

    def test_hand_expansion(self):
        # (1+i)(1-j) = 1 - j + i - ij = 1 + i - j - k, from the relation table.
        lhs = Quaternion(1, 1) * Quaternion(1, 0, -1)
        assert lhs.isclose(Quaternion(1, 1, -1, -1))

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p, q, r = (random_quaternion(rng) for _ in range(3))
            assert ((p * q) * r).isclose(p * (q * r), atol=1e-12)

    def test_norm_multiplicativity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p, q = random_quaternion(rng), random_quaternion(rng)
            assert (p * q).norm() == pytest.approx(p.norm() * q.norm(),
                                                   rel=1e-12, abs=1e-14)


class TestConjugate:
    def test_definition(self):
        assert Quaternion(1, 1, 1, 1).conjugate().isclose(
            Quaternion(1, -1, -1, -1))

    def test_reals_fixed(self):
        assert Quaternion(2.5).conjugate().isclose(Quaternion(2.5))

    def test_involution(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            q = random_quaternion(rng)
            assert q.conjugate().conjugate().isclose(q)

    def test_antihomomorphism(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            p, q = random_quaternion(rng), random_quaternion(rng)
            assert (p * q).conjugate().isclose(
                q.conjugate() * p.conjugate(), atol=1e-12)


class TestInverse:
    def test_unit_imaginary(self):
        assert I.inverse().isclose(-I)

    def test_real_scalar(self):
        assert Quaternion(2).inverse().isclose(Quaternion(0.5))

    def test_all_ones(self):
        q = Quaternion(1, 1, 1, 1)
        assert q.inverse().isclose(Quaternion(0.25, -0.25, -0.25, -0.25))
        assert (q * q.inverse()).isclose(ONE, atol=1e-12)
        assert (q.inverse() * q).isclose(ONE, atol=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Quaternion.ZERO.inverse()


class TestSimilarityClass:
    def test_minus_i_in_class_of_i(self):
        # -i = j^-1 i j, so both map to the representative 0 + 1i.
        assert (J.inverse() * I * J).isclose(-I)
        assert canonical_class_rep(-I) == pytest.approx(1j)
        assert canonical_class_rep(I) == pytest.approx(1j)

    def test_reals_are_singletons(self):
        assert canonical_class_rep(Quaternion(-3.0)) == pytest.approx(-3.0 + 0j)

    def test_j_in_class_of_i(self):
        # Exhibit h with h^-1 i h = j, e.g. h = i + j.
        h = I + J
        assert (h.inverse() * I * h).isclose(J, atol=1e-12)
        assert canonical_class_rep(J) == pytest.approx(1j)

    def test_invariance_under_conjugation(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            q = random_quaternion(rng)
            h = random_quaternion(rng)
            if h.norm() < 1e-3:
                continue
            conjugated = h.inverse() * q * h
            assert canonical_class_rep(conjugated) == pytest.approx(
                canonical_class_rep(q), abs=1e-10)

    def test_upper_half_plane(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            rep = canonical_class_rep(random_quaternion(rng))
            assert rep.imag >= 0.0


class TestNorm:
    def test_norm_squared_matches_conjugate_product(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            q = random_quaternion(rng)
            assert (q * q.conjugate()).isclose(
                Quaternion(q.norm_sq()), atol=1e-12)
            assert (q.conjugate() * q).isclose(
                Quaternion(q.norm_sq()), atol=1e-12)


class TestParsing:
    @pytest.mark.parametrize("text,expected", [
        ("1", Quaternion(1)),
        ("-0.5+0.5i", Quaternion(-0.5, 0.5)),
        ("1-j", Quaternion(1, 0, -1)),
        ("2k", Quaternion(0, 0, 0, 2)),
        ("1+i+j+k", Quaternion(1, 1, 1, 1)),
        ("-i", Quaternion(0, -1)),
        ("0", Quaternion(0)),
        ("1e-2i", Quaternion(0, 0.01)),
        ("2+0i", Quaternion(2)),
    ])
    def test_literals(self, text, expected):
        assert parse_quaternion(text).isclose(expected)

    @pytest.mark.parametrize("bad", [
        "", "1+", "x", "1+Ij", "i j", "++i",
        # every term after the first needs its sign
        "1.5.5", "ii", "i2", "2ij",
        # coordinates must be finite
        "1e400", "1-1e400k", "1e308+1e308",
    ])
    def test_rejects_garbage(self, bad):
        with pytest.raises(QuaternionFormatError):
            parse_quaternion(bad)

    def test_roundtrip_through_str(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            q = Quaternion(*np.round(rng.uniform(-2, 2, 4), 4))
            assert parse_quaternion(str(q)).isclose(q, atol=1e-9)

    def test_symplectic_pair_roundtrip(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            q = random_quaternion(rng)
            s, p = q.simplex, q.perplex
            # q = s + j*p with p = x2 - x3*i
            rebuilt = Quaternion(s.real, s.imag) + J * Quaternion(p.real, p.imag)
            assert rebuilt.isclose(q, atol=1e-12)
            assert Quaternion.from_complex_pair(s, p).isclose(q)
