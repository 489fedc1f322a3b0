"""Tests for compressed proof/point serialization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.bn254 import BN254_G1, BN254_G2
from repro.ec.simulated import G1_TAG, GT_TAG, SimPoint
from repro.ec.tower import FQ2
from repro.field.fp import BN254_FQ_MODULUS as Q
from repro.snark.serialize import (
    SerializationError,
    deserialize_g1,
    deserialize_g2,
    deserialize_g2_on_curve,
    deserialize_proof,
    deserialize_sim,
    serialize_g1,
    serialize_g2,
    serialize_proof,
    serialize_sim,
    sqrt_fq,
    sqrt_fq2,
)
from repro.snark.proof import Proof


def off_subgroup_g2_point():
    """The first ``x = k + u`` whose ``x^3 + b`` is a square in Fq2 and whose
    point the cofactor does not clear: on the twist, outside the order-r
    subgroup (as almost every on-curve Fq2 point is)."""
    from repro.ec.jacobian import in_subgroup

    for k in range(1, 64):
        x = FQ2([k, 1])
        y = sqrt_fq2(x * x * x + BN254_G2.b)
        if y is None:
            continue
        point = BN254_G2.point(x, y)
        if not in_subgroup(point):
            return point
    raise AssertionError("no off-subgroup point among the first 63 x")


class TestSqrt:
    def test_sqrt_fq_roundtrip(self):
        for v in (2, 3, 12345, Q - 5):
            square = (v * v) % Q
            root = sqrt_fq(square)
            assert root in (v, Q - v)

    def test_sqrt_fq_nonresidue(self):
        # -1 is a non-residue mod q (q = 3 mod 4).
        assert sqrt_fq(Q - 1) is None

    @given(st.integers(min_value=1, max_value=Q - 1))
    @settings(max_examples=25)
    def test_sqrt_fq2_roundtrip(self, seed):
        a = FQ2([seed, (seed * 7 + 3) % Q])
        square = a * a
        root = sqrt_fq2(square)
        assert root is not None
        assert root * root == square

    def test_sqrt_fq2_pure_real_and_imaginary(self):
        assert sqrt_fq2(FQ2([4, 0])) * sqrt_fq2(FQ2([4, 0])) == FQ2([4, 0])
        minus_four = FQ2([Q - 4, 0])
        root = sqrt_fq2(minus_four)
        assert root * root == minus_four

    def test_sqrt_fq2_zero(self):
        assert sqrt_fq2(FQ2.zero()) == FQ2.zero()


class TestG1Serialization:
    def test_roundtrip(self):
        for k in (1, 2, 7, 123456789):
            p = k * BN254_G1.generator
            assert deserialize_g1(serialize_g1(p)) == p

    def test_infinity(self):
        inf = BN254_G1.infinity()
        assert deserialize_g1(serialize_g1(inf)).is_infinity()

    def test_length(self):
        assert len(serialize_g1(BN254_G1.generator)) == 33

    def test_bad_length_rejected(self):
        with pytest.raises(SerializationError):
            deserialize_g1(b"\x00" * 32)

    def test_off_curve_x_rejected(self):
        # x = 3 gives x^3+3 = 30, a non-residue candidate check.
        data = bytes([0]) + (5).to_bytes(32, "big")
        try:
            p = deserialize_g1(data)
            assert BN254_G1.is_on_curve(p)
        except SerializationError:
            pass  # also acceptable: 5 is not an x-coordinate

    def test_out_of_range_x_rejected(self):
        data = bytes([0]) + Q.to_bytes(32, "big")
        with pytest.raises(SerializationError):
            deserialize_g1(data)


class TestG2Serialization:
    def test_roundtrip(self):
        for k in (1, 3, 99991):
            p = k * BN254_G2.generator
            assert deserialize_g2(serialize_g2(p)) == p

    def test_infinity(self):
        assert deserialize_g2(serialize_g2(BN254_G2.infinity())).is_infinity()

    def test_length(self):
        assert len(serialize_g2(BN254_G2.generator)) == 65

    def test_negated_point_distinct_encoding(self):
        p = 5 * BN254_G2.generator
        assert serialize_g2(p) != serialize_g2(-p)
        assert deserialize_g2(serialize_g2(-p)) == -p

    def test_off_subgroup_point_rejected(self):
        """On the curve is not enough: the pairing is defined on the
        order-r subgroup, and G2's cofactor is ~2^254."""
        data = serialize_g2(off_subgroup_g2_point())
        with pytest.raises(SerializationError, match="subgroup"):
            deserialize_g2(data)
        # the prover-side decoder for its own CRS chunks stops at the curve
        assert BN254_G2.is_on_curve(deserialize_g2_on_curve(data))


class TestSimSerialization:
    def test_roundtrip(self):
        p = SimPoint(G1_TAG, 123456789)
        assert deserialize_sim(serialize_sim(p)) == p
        gt = SimPoint(GT_TAG, 42)
        assert deserialize_sim(serialize_sim(gt)) == gt

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            deserialize_sim(bytes([0xFF]) + b"\x00" * 32)


class TestProofSerialization:
    def test_real_proof_roundtrip_and_verify(self):
        """Serialize a genuine proof, ship it, verify the deserialized copy."""
        from repro.ec.backend import RealBN254Backend
        from repro.r1cs.system import ConstraintSystem
        from repro.snark import groth16

        cs = ConstraintSystem()
        ref = cs.new_public(35)
        wire = cs.mul_private(cs.new_private(5), cs.new_private(7))
        cs.enforce_equal(cs.lc_variable(wire), cs.lc_variable(ref))
        backend = RealBN254Backend()
        setup = groth16.setup(cs, backend, random.Random(1))
        proof = groth16.prove(setup.proving_key, cs, backend, random.Random(2))

        wire_bytes = serialize_proof(proof)
        assert len(wire_bytes) == 131
        received = deserialize_proof(wire_bytes)
        assert groth16.verify(setup.verifying_key, [35], received, backend)

    def test_off_subgroup_b_rejected_at_decode(self):
        """An otherwise valid proof (and key) carrying an on-curve,
        off-subgroup G2 point never reaches the pairing."""
        from repro.ec.backend import RealBN254Backend
        from repro.r1cs.system import ConstraintSystem
        from repro.snark import groth16
        from repro.snark.serialize import (
            deserialize_verifying_key,
            serialize_verifying_key,
        )

        cs = ConstraintSystem()
        ref = cs.new_public(35)
        wire = cs.mul_private(cs.new_private(5), cs.new_private(7))
        cs.enforce_equal(cs.lc_variable(wire), cs.lc_variable(ref))
        backend = RealBN254Backend()
        setup = groth16.setup(cs, backend, random.Random(1))
        proof = groth16.prove(setup.proving_key, cs, backend, random.Random(2))
        good = serialize_proof(proof)
        assert groth16.verify(
            setup.verifying_key, [35], deserialize_proof(good), backend
        )
        rogue = serialize_g2(off_subgroup_g2_point())
        with pytest.raises(SerializationError, match="subgroup"):
            deserialize_proof(good[:33] + rogue + good[98:])
        vk_bytes = serialize_verifying_key(setup.verifying_key)
        deserialize_verifying_key(vk_bytes)
        for offset in (33, 98, 163):  # beta, gamma, delta
            with pytest.raises(SerializationError, match="subgroup"):
                deserialize_verifying_key(
                    vk_bytes[:offset] + rogue + vk_bytes[offset + 65:]
                )

    def test_sim_proof_roundtrip(self):
        proof = Proof(
            a=SimPoint("G1", 1), b=SimPoint("G2", 2), c=SimPoint("G1", 3)
        )
        received = deserialize_proof(serialize_proof(proof))
        assert received.a == proof.a and received.b == proof.b
        assert received.c == proof.c

    def test_garbage_length_rejected(self):
        with pytest.raises(SerializationError):
            deserialize_proof(b"\x00" * 50)


class TestProvingKeySerialization:
    """Round-trip of the full CRS (the serving artifact store relies on it)."""

    @staticmethod
    def _toy_cs():
        from repro.r1cs.system import ConstraintSystem

        cs = ConstraintSystem()
        ref = cs.new_public(35)
        wire = cs.mul_private(cs.new_private(5), cs.new_private(7))
        cs.enforce_equal(cs.lc_variable(wire), cs.lc_variable(ref))
        return cs

    def _roundtrip(self, backend):
        from repro.snark import groth16
        from repro.snark.serialize import (
            deserialize_proving_key,
            serialize_proving_key,
        )

        cs = self._toy_cs()
        setup = groth16.setup(cs, backend, random.Random(3))
        pk = setup.proving_key
        restored = deserialize_proving_key(serialize_proving_key(pk))
        assert restored.domain_size == pk.domain_size
        assert restored.num_public == pk.num_public
        assert restored.num_variables() == pk.num_variables()
        # a key deserialized from bytes must still produce valid proofs
        proof = groth16.prove(restored, cs, backend, random.Random(4))
        assert groth16.verify(setup.verifying_key, [35], proof, backend)

    def test_sim_roundtrip_proves(self):
        from repro.ec.backend import SimulatedBackend

        self._roundtrip(SimulatedBackend())

    def test_real_roundtrip_proves(self):
        from repro.ec.backend import RealBN254Backend

        self._roundtrip(RealBN254Backend())

    def test_truncated_rejected(self):
        from repro.ec.backend import SimulatedBackend
        from repro.snark import groth16
        from repro.snark.serialize import (
            deserialize_proving_key,
            serialize_proving_key,
        )

        cs = self._toy_cs()
        pk = groth16.setup(cs, SimulatedBackend(), random.Random(3)).proving_key
        data = serialize_proving_key(pk)
        with pytest.raises(SerializationError):
            deserialize_proving_key(data[:-5])
        with pytest.raises(SerializationError):
            deserialize_proving_key(data + b"\x00")
        with pytest.raises(SerializationError):
            deserialize_proving_key(b"\x7f" + data[1:])
