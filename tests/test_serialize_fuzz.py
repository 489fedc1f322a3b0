"""Property-based fuzzing of the point/proof/key wire formats.

The central property is **canonicity**: whenever a buffer decodes at all,
re-serializing the decoded value reproduces the buffer byte for byte.
Truncations, stray flag bits, non-canonical infinities, and out-of-range
SimPoint exponents must all raise :class:`SerializationError` — they are
exactly the second encodings that would break the cluster's byte-identity
checks (coordinator vs local proofs) if the decoder accepted them.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.bn254 import BN254_G1, BN254_G2
from repro.ec.simulated import G1_TAG, SimPoint
from repro.field.fp import BN254_FQ_MODULUS, BN254_FR_MODULUS
from repro.snark.serialize import (
    FLAG_INFINITY,
    FLAG_Y_ODD,
    SerializationError,
    deserialize_g1,
    deserialize_g2,
    deserialize_proof,
    deserialize_proving_key,
    deserialize_sim,
    deserialize_verifying_key,
    serialize_g1,
    serialize_g2,
    serialize_proof,
    serialize_proving_key,
    serialize_sim,
    serialize_verifying_key,
)

R = BN254_G1.order

scalars = st.integers(min_value=0, max_value=R - 1)


class TestPointRoundtripFuzz:
    @given(k=scalars)
    @settings(max_examples=30, deadline=None)
    def test_g1_roundtrip(self, k):
        p = k * BN254_G1.generator
        assert deserialize_g1(serialize_g1(p)) == p

    @given(k=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_g2_roundtrip(self, k):
        p = k * BN254_G2.generator
        assert deserialize_g2(serialize_g2(p)) == p


class TestMalformedInputFuzz:
    @given(data=st.binary(min_size=33, max_size=33))
    @settings(max_examples=50, deadline=None)
    def test_g1_never_returns_off_curve(self, data):
        """Arbitrary 33-byte strings either decode to a curve point or
        raise — never a bogus point."""
        try:
            p = deserialize_g1(data)
        except SerializationError:
            return
        assert BN254_G1.is_on_curve(p)

    @given(
        x0=st.integers(min_value=0, max_value=BN254_FQ_MODULUS - 1),
        x1=st.integers(min_value=0, max_value=BN254_FQ_MODULUS - 1),
        odd=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_g2_never_returns_outside_the_subgroup(self, x0, x1, odd):
        """A well-formed 65-byte string over a random Fq2 x (half of which
        are on the twist, practically none in the order-r subgroup) either
        raises SerializationError or decodes to a subgroup point — and so
        does a proof carrying it as B."""
        data = (
            bytes([FLAG_Y_ODD if odd else 0])
            + x0.to_bytes(32, "big") + x1.to_bytes(32, "big")
        )
        g1 = serialize_g1(BN254_G1.generator)
        for decode, blob in (
            (deserialize_g2, data),
            (lambda b: deserialize_proof(b).b, g1 + data + g1),
        ):
            try:
                p = decode(blob)
            except SerializationError:
                continue
            assert BN254_G2.is_on_curve(p)
            assert BN254_G2.scalar_mul(p, R - 1) == -p

    @given(data=st.binary(min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_proof_decoder_never_crashes_unhandled(self, data):
        try:
            deserialize_proof(data)
        except SerializationError:
            pass  # the only acceptable failure mode


def _toy_setup(backend):
    from repro.r1cs.system import ConstraintSystem
    from repro.snark import groth16

    cs = ConstraintSystem()
    ref = cs.new_public(35)
    wire = cs.mul_private(cs.new_private(5), cs.new_private(7))
    cs.enforce_equal(cs.lc_variable(wire), cs.lc_variable(ref))
    return cs, groth16.setup(cs, backend, random.Random(3))


_CODECS = {
    "proof": (serialize_proof, deserialize_proof),
    "vk": (serialize_verifying_key, deserialize_verifying_key),
    "pk": (serialize_proving_key, deserialize_proving_key),
}


@pytest.fixture(scope="module", params=["simulated", "bn254"])
def artifact_bytes(request):
    """Genuine serialized proof/VK/PK for one backend."""
    from repro.ec.backend import RealBN254Backend, SimulatedBackend
    from repro.snark import groth16

    backend = (
        RealBN254Backend() if request.param == "bn254" else SimulatedBackend()
    )
    cs, setup = _toy_setup(backend)
    proof = groth16.prove(setup.proving_key, cs, backend, random.Random(7))
    return {
        "proof": serialize_proof(proof),
        "vk": serialize_verifying_key(setup.verifying_key),
        "pk": serialize_proving_key(setup.proving_key),
    }


class TestByteIdenticalRoundtrip:
    """decode → re-encode reproduces the exact input bytes."""

    @pytest.mark.parametrize("kind", sorted(_CODECS))
    def test_artifact_roundtrip_is_identity(self, artifact_bytes, kind):
        encode, decode = _CODECS[kind]
        assert encode(decode(artifact_bytes[kind])) == artifact_bytes[kind]

    @given(k=scalars)
    @settings(max_examples=25, deadline=None)
    def test_g1_bytes_roundtrip(self, k):
        data = serialize_g1(k * BN254_G1.generator)
        assert serialize_g1(deserialize_g1(data)) == data

    @given(k=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_g2_bytes_roundtrip(self, k):
        data = serialize_g2(k * BN254_G2.generator)
        assert serialize_g2(deserialize_g2(data)) == data

    @given(log=scalars)
    @settings(max_examples=25, deadline=None)
    def test_sim_bytes_roundtrip(self, log):
        data = serialize_sim(SimPoint(G1_TAG, log))
        assert serialize_sim(deserialize_sim(data)) == data


class TestTruncationAndBitFlips:
    @pytest.mark.parametrize("kind", sorted(_CODECS))
    def test_truncations_rejected(self, artifact_bytes, kind):
        _, decode = _CODECS[kind]
        data = artifact_bytes[kind]
        # every strict prefix, and a byte appended, must fail to decode
        cuts = list(range(0, len(data), max(1, len(data) // 64))) + [len(data) - 1]
        for cut in cuts:
            with pytest.raises(SerializationError):
                decode(data[:cut])
        with pytest.raises(SerializationError):
            decode(data + b"\x00")

    @pytest.mark.parametrize("kind", sorted(_CODECS))
    def test_bit_flips_never_break_canonicity(self, artifact_bytes, kind):
        """A flipped buffer either raises or stays canonical.

        Some single-bit flips land on another valid encoding (e.g. a
        different x-coordinate) — that's fine, as long as re-serializing
        reproduces the *flipped* bytes exactly, i.e. no buffer decodes to
        a value whose canonical form differs from it.
        """
        encode, decode = _CODECS[kind]
        data = artifact_bytes[kind]
        rng = random.Random(0xF1)
        for _ in range(48):
            pos = rng.randrange(len(data) * 8)
            mutated = bytearray(data)
            mutated[pos // 8] ^= 1 << (pos % 8)
            mutated = bytes(mutated)
            try:
                value = decode(mutated)
            except SerializationError:
                continue
            assert encode(value) == mutated


class TestNonCanonicalRejected:
    def test_g1_infinity_with_nonzero_coordinate(self):
        with pytest.raises(SerializationError):
            deserialize_g1(bytes([FLAG_INFINITY]) + b"\x00" * 31 + b"\x01")

    def test_g2_infinity_with_nonzero_coordinate(self):
        with pytest.raises(SerializationError):
            deserialize_g2(bytes([FLAG_INFINITY]) + b"\x01" + b"\x00" * 63)

    @pytest.mark.parametrize("flag", [0x80, 0x02, 0x41, 0xFF])
    def test_unknown_or_conflicting_flag_bits(self, flag):
        g1 = serialize_g1(BN254_G1.generator)
        with pytest.raises(SerializationError):
            deserialize_g1(bytes([flag]) + g1[1:])
        g2 = serialize_g2(BN254_G2.generator)
        with pytest.raises(SerializationError):
            deserialize_g2(bytes([flag]) + g2[1:])

    @pytest.mark.parametrize(
        "log", [BN254_FR_MODULUS, BN254_FR_MODULUS + 5, (1 << 256) - 1]
    )
    def test_sim_exponent_out_of_range(self, log):
        data = bytes([0x01]) + log.to_bytes(32, "big")
        with pytest.raises(SerializationError):
            deserialize_sim(data)

    def test_canonical_sim_boundary_accepted(self):
        data = bytes([0x01]) + (BN254_FR_MODULUS - 1).to_bytes(32, "big")
        assert serialize_sim(deserialize_sim(data)) == data


class TestVerifyingKeyDispatch:
    def test_real_vk_with_sim_colliding_flag_byte(self):
        """A real VK whose alpha has odd y starts with 0x01 — the sim G1
        tag.  Dispatch must still pick the real layout (regression for
        first-byte-only dispatch)."""
        from repro.ec.backend import RealBN254Backend
        from repro.snark import groth16

        cs, _ = _toy_setup(RealBN254Backend())
        for seed in range(40):
            setup = groth16.setup(cs, RealBN254Backend(), random.Random(seed))
            data = serialize_verifying_key(setup.verifying_key)
            if data[0] == 0x01:
                break
        else:  # pragma: no cover - ~2^-40
            pytest.skip("no odd-y alpha found in 40 seeds")
        vk = deserialize_verifying_key(data)
        assert vk.backend_name == "bn254"
        assert serialize_verifying_key(vk) == data
