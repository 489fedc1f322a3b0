"""Tests for NTT domains and QAP machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field.fp import BN254_FR
from repro.field.vector import batch_inverse
from repro.r1cs.system import ConstraintSystem
from repro.snark.qap import (
    Domain,
    qap_evaluations_at,
    quotient_coefficients,
    variable_order,
    witness_polynomial_evals,
)

P = BN254_FR.modulus


def _poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % P
    return acc


def lagrange_by_inversion(d, tau):
    """The closed form ``L_j(tau) = Z(tau) w^j / (d (tau - w^j))`` with one
    batch inversion — the oracle for :meth:`Domain.lagrange_at`."""
    inverses = batch_inverse(BN254_FR, [(tau - w) % P for w in d.omega_powers])
    scale = d.vanishing_at(tau) * d.size_inv % P
    return [scale * w * inv % P for w, inv in zip(d.omega_powers, inverses)]


class TestDomain:
    def test_size_rounds_to_pow2(self):
        assert Domain(5).size == 8
        assert Domain(8).size == 8
        assert Domain(1).size == 2

    def test_omega_has_exact_order(self):
        d = Domain(8)
        assert pow(d.omega, d.size, P) == 1
        assert pow(d.omega, d.size // 2, P) != 1

    def test_ntt_intt_roundtrip(self):
        d = Domain(8)
        coeffs = [3, 1, 4, 1, 5, 9, 2, 6]
        assert d.intt(d.ntt(coeffs)) == coeffs

    def test_ntt_matches_naive_evaluation(self):
        d = Domain(4)
        coeffs = [7, 0, 2, 5]
        evals = d.ntt(coeffs)
        omega_pow = 1
        for j in range(d.size):
            assert evals[j] == _poly_eval(coeffs, omega_pow)
            omega_pow = (omega_pow * d.omega) % P

    def test_coset_roundtrip(self):
        d = Domain(8)
        coeffs = [1, 2, 3, 4, 0, 0, 0, 0]
        assert d.coset_intt(d.coset_ntt(coeffs)) == coeffs

    def test_coset_evaluates_off_domain(self):
        d = Domain(4)
        coeffs = [5, 1, 0, 0]
        evals = d.coset_ntt(coeffs)
        x = d.coset_shift
        for j in range(d.size):
            assert evals[j] == _poly_eval(coeffs, x)
            x = (x * d.omega) % P

    def test_vanishing_polynomial(self):
        d = Domain(8)
        assert d.vanishing_at(d.omega) == 0
        assert d.vanishing_at(pow(d.omega, 5, P)) == 0
        assert d.vanishing_at(12345) != 0
        assert d.coset_vanishing_constant() != 0

    def test_ntt_size_validation(self):
        d = Domain(4)
        with pytest.raises(ValueError):
            d._ntt([1, 2], d.omega)

    def test_lagrange_at_matches_definition(self):
        d = Domain(4)
        tau = 987654321
        lagrange = d.lagrange_at(tau)
        # L_j(w^i) = delta_ij, so interpolating evals through lagrange
        # weights must equal direct polynomial evaluation.
        evals = [11, 22, 33, 44]
        coeffs = d.intt(evals)
        direct = _poly_eval(coeffs, tau)
        via_lagrange = sum(l * e for l, e in zip(lagrange, evals)) % P
        assert direct == via_lagrange

    @pytest.mark.parametrize("size", [2, 32, 128, 4096])
    def test_lagrange_at_is_the_closed_form(self, size):
        """The INTT of tau's powers equals the batch-inverse closed form,
        below and above the array kernel's threshold."""
        d = Domain(size)
        rng = random.Random(size)
        for tau in (rng.randrange(P), 2, P - 2, d.omega_inv + 1):
            assert d.lagrange_at(tau) == lagrange_by_inversion(d, tau)
        powers = d.powers_at(5)
        assert powers == [pow(5, i, P) for i in range(d.size)]
        assert d.lagrange_at(5, powers) == lagrange_by_inversion(d, 5)

    def test_lagrange_rejects_domain_point(self):
        d = Domain(4)
        with pytest.raises(ValueError):
            d.lagrange_at(d.omega)

    @given(st.lists(st.integers(min_value=0, max_value=P - 1), min_size=8, max_size=8))
    @settings(max_examples=15)
    def test_property_roundtrip(self, coeffs):
        d = Domain(8)
        assert d.intt(d.ntt(coeffs)) == coeffs


def _example_cs():
    """x * y = z, z + 3 = ref (public)."""
    cs = ConstraintSystem()
    x = cs.new_private(4)
    y = cs.new_private(5)
    z = cs.mul_private(x, y)
    ref = cs.new_public(23)
    lc = cs.lc_variable(z) + cs.lc_constant(3)
    cs.enforce_equal(lc, cs.lc_variable(ref))
    return cs


class TestQAP:
    def test_variable_order(self):
        cs = _example_cs()
        order = variable_order(cs)
        assert order[0] == 0
        assert order[1] == -1  # the one public ref
        assert order[2:] == [1, 2, 3]

    def test_witness_evals_match_constraints(self):
        cs = _example_cs()
        d = Domain(cs.num_constraints)
        a, b, c = witness_polynomial_evals(cs, d)
        for j in range(cs.num_constraints):
            assert (a[j] * b[j]) % P == c[j] % P

    def test_qap_divisibility_identity(self):
        """A(tau)B(tau) - C(tau) == h(tau) Z(tau) for valid witnesses."""
        cs = _example_cs()
        d = Domain(cs.num_constraints)
        tau = 1234567890123456789
        a_at, b_at, c_at = qap_evaluations_at(cs, d.lagrange_at(tau))
        order = variable_order(cs)
        assignment = cs.assignment()
        z = [assignment[i] for i in order]
        a_tau = sum(ai * zi for ai, zi in zip(a_at, z)) % P
        b_tau = sum(bi * zi for bi, zi in zip(b_at, z)) % P
        c_tau = sum(ci * zi for ci, zi in zip(c_at, z)) % P
        h = quotient_coefficients(cs, d)
        h_tau = _poly_eval(h, tau)
        assert (a_tau * b_tau - c_tau) % P == (h_tau * d.vanishing_at(tau)) % P

    def test_quotient_rejects_bad_witness(self):
        cs = _example_cs()
        cs.assign(3, 999)  # corrupt the product wire
        d = Domain(cs.num_constraints)
        with pytest.raises(ValueError):
            quotient_coefficients(cs, d)

    def test_quotient_degree_bound(self):
        cs = _example_cs()
        d = Domain(cs.num_constraints)
        h = quotient_coefficients(cs, d)
        assert len(h) == d.size - 1
