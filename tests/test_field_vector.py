"""Tests for batch field utilities: inversion, row dot products, powers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field.fp import BN254_FR
from repro.field.backend import from_limbs, plan_for, powers_limbs
from repro.field.vector import batch_inverse
from repro.r1cs.csr import CSRMatrix, matrix_row_evals
from repro.r1cs.lc import Digits

P = BN254_FR.modulus


class TestBatchInverse:
    def test_empty(self):
        assert batch_inverse(BN254_FR, []) == []

    def test_single(self):
        assert batch_inverse(BN254_FR, [7]) == [BN254_FR.inv(7)]

    def test_matches_individual_inverses(self):
        values = [3, 1, P - 2, 123456789, 42]
        expected = [pow(v, -1, P) for v in values]
        assert batch_inverse(BN254_FR, values) == expected

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            batch_inverse(BN254_FR, [1, 0, 2])

    @given(st.lists(st.integers(min_value=1, max_value=P - 1), min_size=1, max_size=20))
    @settings(max_examples=25)
    def test_property_all_inverted(self, values):
        out = batch_inverse(BN254_FR, values)
        assert all((v * i) % P == 1 for v, i in zip(values, out))


def dot(coeffs, values):
    """One CSR row ``coeffs`` against ``z = values``: the prover's dot
    product (``repro.r1cs.csr.matrix_row_evals``)."""
    row = CSRMatrix(
        [0, len(coeffs)], list(range(len(coeffs))), Digits.of(list(coeffs), P)
    )
    return matrix_row_evals(row, list(values), P)[0]


class TestFieldDot:
    def test_basic(self):
        assert dot([1, 2, 3], [4, 5, 6]) == 32

    def test_reduction(self):
        assert dot([P - 1], [P - 1]) == 1

    def test_empty(self):
        assert dot([], []) == 0


def powers(base, count):
    """``[base^0, ..., base^(count-1)] mod p`` from the kernel's table
    builder (``repro.field.backend.powers_limbs``)."""
    plan = plan_for(BN254_FR)
    return from_limbs(plan, powers_limbs(plan, base, count))


class TestPowers:
    def test_basic(self):
        assert powers(3, 4) == [1, 3, 9, 27]

    def test_zero_count(self):
        assert powers(3, 0) == []

    def test_reduction(self):
        assert powers(P - 1, 3) == [1, P - 1, 1]  # (-1)^k
