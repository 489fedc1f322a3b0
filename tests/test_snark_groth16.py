"""Tests for Groth16 setup / prove / verify on both group backends."""

import random

import pytest

from repro.ec.backend import RealBN254Backend, SimulatedBackend
from repro.r1cs.system import ConstraintSystem
from repro.snark.groth16 import Groth16, prove, setup, verify
from repro.snark.proof import PROOF_BYTES


def dot_product_cs(weights, features, both_private=True):
    """Constraint system proving ref = <w, x> (public ref)."""
    cs = ConstraintSystem()
    ref_value = sum(w * x for w, x in zip(weights, features))
    ref = cs.new_public(ref_value)
    lc = cs.lc()
    if both_private:
        for w, x in zip(weights, features):
            wire = cs.mul_private(cs.new_private(x), cs.new_private(w))
            lc.add_term(wire, 1)
    else:
        for w, x in zip(weights, features):
            lc.add_term(cs.new_private(x), w)
    cs.enforce_equal(lc, cs.lc_variable(ref))
    return cs, ref_value


def no_public_cs():
    """A system with zero public inputs: prove knowledge of factors of 12."""
    cs = ConstraintSystem()
    x = cs.new_private(3)
    y = cs.new_private(4)
    w = cs.mul_private(x, y)
    cs.enforce_equal(cs.lc_variable(w), cs.lc_constant(12))
    return cs


class TestSimulatedBackend:
    backend = SimulatedBackend()

    def _roundtrip(self, cs, publics):
        result = setup(cs, self.backend, random.Random(1))
        proof = prove(result.proving_key, cs, self.backend, random.Random(2))
        return result, proof, verify(result.verifying_key, publics, proof, self.backend)

    def test_valid_proof_verifies(self):
        cs, ref = dot_product_cs([1, 2, 3], [4, 5, 6])
        _, _, ok = self._roundtrip(cs, [ref])
        assert ok

    def test_one_private_variant_verifies(self):
        cs, ref = dot_product_cs([1, 2, 3], [4, 5, 6], both_private=False)
        _, _, ok = self._roundtrip(cs, [ref])
        assert ok

    def test_wrong_public_input_rejected(self):
        cs, ref = dot_product_cs([1, 2, 3], [4, 5, 6])
        result, proof, _ = self._roundtrip(cs, [ref])
        assert not verify(result.verifying_key, [ref + 1], proof, self.backend)

    def test_tampered_proof_rejected(self):
        cs, ref = dot_product_cs([2, 2], [3, 3])
        result, proof, _ = self._roundtrip(cs, [ref])
        proof.c = self.backend.scalar_mul(proof.c, 2)
        assert not verify(result.verifying_key, [ref], proof, self.backend)

    def test_bad_witness_fails_at_prove(self):
        cs, ref = dot_product_cs([2, 2], [3, 3])
        result = setup(cs, self.backend, random.Random(1))
        cs.assign(2, 999)  # corrupt a wire value
        with pytest.raises(ValueError):
            prove(result.proving_key, cs, self.backend, random.Random(2))

    def test_public_input_count_validated(self):
        cs, ref = dot_product_cs([1], [1])
        result, proof, _ = self._roundtrip(cs, [ref])
        with pytest.raises(ValueError):
            verify(result.verifying_key, [], proof, self.backend)

    def test_witness_shape_validated_against_key(self):
        cs, ref = dot_product_cs([1, 2], [3, 4])
        result = setup(cs, self.backend, random.Random(1))
        cs.new_private(0)  # grow the system after setup
        with pytest.raises(ValueError):
            prove(result.proving_key, cs, self.backend, random.Random(2))

    def test_proofs_are_randomized(self):
        cs, ref = dot_product_cs([1, 2], [3, 4])
        result = setup(cs, self.backend, random.Random(1))
        p1 = prove(result.proving_key, cs, self.backend, random.Random(10))
        p2 = prove(result.proving_key, cs, self.backend, random.Random(20))
        assert p1.a != p2.a  # zero-knowledge randomizers r, s differ
        assert verify(result.verifying_key, [ref], p1, self.backend)
        assert verify(result.verifying_key, [ref], p2, self.backend)

    def test_setup_stats(self):
        cs, _ = dot_product_cs([1, 2, 3], [4, 5, 6])
        result = setup(cs, self.backend, random.Random(1))
        assert result.stats["num_constraints"] == cs.num_constraints
        assert result.stats["domain_size"] >= cs.num_constraints

    def test_facade_class(self):
        snark = Groth16(self.backend)
        cs, ref = dot_product_cs([9], [9])
        result = snark.setup(cs, random.Random(3))
        proof = snark.prove(result.proving_key, cs, random.Random(4))
        assert snark.verify(result.verifying_key, [ref], proof)

    def test_proof_size_constant(self):
        cs, _ = dot_product_cs([1, 2, 3, 4], [5, 6, 7, 8])
        result = setup(cs, self.backend, random.Random(1))
        proof = prove(result.proving_key, cs, self.backend, random.Random(2))
        assert proof.size_bytes() == PROOF_BYTES

    def test_larger_circuit(self):
        weights = list(range(1, 40))
        features = list(range(2, 41))
        cs, ref = dot_product_cs(weights, features)
        _, _, ok = self._roundtrip(cs, [ref])
        assert ok

    def test_zero_public_inputs(self):
        """Regression: the empty IC MSM is the identity, not an error."""
        cs = no_public_cs()
        _, _, ok = self._roundtrip(cs, [])
        assert ok


class TestRealBN254Backend:
    """End-to-end soundness on the genuine curve with real pairings."""

    backend = RealBN254Backend()

    def test_real_curve_roundtrip_and_forgery_rejection(self):
        cs, ref = dot_product_cs([3, 1], [2, 5])
        result = setup(cs, self.backend, random.Random(1))
        proof = prove(result.proving_key, cs, self.backend, random.Random(2))
        assert verify(result.verifying_key, [ref], proof, self.backend)
        assert not verify(result.verifying_key, [ref + 1], proof, self.backend)

    def test_wrong_alpha_rejects_with_the_fixed_pair_memoised(self):
        """``(alpha, beta)`` is memoised per key — on both points, so a
        key that differs in alpha alone gets its own Miller value."""
        import dataclasses

        cs, ref = dot_product_cs([3, 1], [2, 5])
        result = setup(cs, self.backend, random.Random(1))
        vk = result.verifying_key
        proof = prove(result.proving_key, cs, self.backend, random.Random(2))
        forged = dataclasses.replace(
            vk, alpha_g1=self.backend.scalar_mul(vk.alpha_g1, 2)
        )
        for _ in range(2):  # cold, then warm memo
            assert verify(vk, [ref], proof, self.backend)
            assert not verify(forged, [ref], proof, self.backend)

    def test_zero_public_inputs_on_real_curve(self):
        """Regression: zero-public-input circuits prove and verify end to
        end on the genuine curve (empty MSMs return the identity)."""
        cs = no_public_cs()
        result = setup(cs, self.backend, random.Random(1))
        proof = prove(result.proving_key, cs, self.backend, random.Random(2))
        assert verify(result.verifying_key, [], proof, self.backend)

    def test_precomputed_tables_match_direct_proving(self):
        from repro.snark.keys import precompute_proving_tables
        from repro.snark.serialize import serialize_proof

        cs, ref = dot_product_cs([2, 7], [5, 3])
        result = setup(cs, self.backend, random.Random(3))
        pk = result.proving_key
        direct = prove(pk, cs, self.backend, random.Random(4))
        tables = precompute_proving_tables(pk, self.backend)
        assert pk.tables is tables  # attached: no way to pass another key's
        proof = prove(pk, cs, self.backend, random.Random(4))
        assert verify(result.verifying_key, [ref], proof, self.backend)
        assert tables.uses() > 0
        assert serialize_proof(proof) == serialize_proof(direct)
