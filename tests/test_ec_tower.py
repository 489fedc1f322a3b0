"""Tests for the Fq2 / Fq6 / Fq12 extension tower."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field.fp import BN254_FQ_MODULUS as Q
from repro.ec.tower import FQ2, FQ12, fq2

coeff = st.integers(min_value=0, max_value=Q - 1)


class TestFQ2:
    def test_constructor_validates_length(self):
        with pytest.raises(ValueError):
            FQ2([1, 2, 3])

    def test_u_squared_is_minus_one(self):
        u = fq2(0, 1)
        assert u * u == fq2(Q - 1, 0)

    def test_add_sub(self):
        a, b = fq2(3, 4), fq2(10, 20)
        assert a + b == fq2(13, 24)
        assert b - a == fq2(7, 16)
        assert a + 0 == a

    def test_int_coercion(self):
        a = fq2(3, 4)
        assert a * 2 == fq2(6, 8)
        assert 2 * a == fq2(6, 8)
        assert a + 5 == fq2(8, 4)
        assert 5 - a == fq2(2, Q - 4)

    def test_inverse(self):
        a = fq2(3, 4)
        assert a * a.inverse() == FQ2.one()

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            FQ2.zero().inverse()

    def test_division(self):
        a, b = fq2(3, 4), fq2(5, 6)
        assert (a / b) * b == a
        assert (1 / b) * b == FQ2.one()

    def test_pow(self):
        a = fq2(3, 4)
        assert a**0 == FQ2.one()
        assert a**3 == a * a * a
        assert a**-1 == a.inverse()

    def test_frobenius_via_pow_q(self):
        # x^q is the conjugate in Fq2: (a + bu)^q = a - bu.
        a = fq2(3, 4)
        assert a**Q == fq2(3, Q - 4)

    def test_cross_type_mixing_rejected(self):
        with pytest.raises(TypeError):
            fq2(1, 2) + FQ12.one()

    @given(a0=coeff, a1=coeff, b0=coeff, b1=coeff)
    @settings(max_examples=20)
    def test_mul_commutative(self, a0, a1, b0, b1):
        a, b = fq2(a0, a1), fq2(b0, b1)
        assert a * b == b * a

    @given(a0=coeff, a1=coeff)
    @settings(max_examples=20)
    def test_inverse_roundtrip(self, a0, a1):
        a = fq2(a0, a1)
        if a:
            assert a * a.inverse() == FQ2.one()


class TestFQ12:
    def test_one_and_zero(self):
        assert FQ12.one() * FQ12.one() == FQ12.one()
        assert FQ12.one() + FQ12.zero() == FQ12.one()
        assert not FQ12.zero()

    def test_w_generates_the_tower(self):
        w = FQ12([0] * 6 + [1] + [0] * 5)  # c1 = 1: the tower's w
        # w^2 = v, v^3 = xi = 9 + u, u^2 = -1  =>  w^12 = 18 w^6 - 82.
        assert w**6 == FQ12([9, 1] + [0] * 10)
        lhs = w**12
        rhs = 18 * w**6 - FQ12.from_int(82)
        assert lhs == rhs

    def test_inverse(self):
        x = FQ12(list(range(1, 13)))
        assert x * x.inverse() == FQ12.one()

    def test_division_roundtrip(self):
        x = FQ12(list(range(1, 13)))
        y = FQ12([5, 0, 3] + [0] * 9)
        assert (x / y) * y == x

    def test_pow_agrees_with_repeated_mul(self):
        x = FQ12([2, 1] + [0] * 10)
        acc = FQ12.one()
        for _ in range(5):
            acc = acc * x
        assert x**5 == acc

    def test_negation(self):
        x = FQ12(list(range(12)))
        assert x + (-x) == FQ12.zero()
