"""Tests for Groth16 batch verification (random-linear-combination trick)."""

import random

import pytest

from repro.ec.backend import RealBN254Backend, SimulatedBackend
from repro.snark.groth16 import batch_verify, prove, setup, verify
from tests.test_snark_groth16 import dot_product_cs


def _make_batch(backend, count, seed=0):
    """One circuit, ``count`` proofs over different witnesses."""
    claims = []
    setup_result = None
    for i in range(count):
        weights = [1 + i, 2, 3]
        features = [4, 5 + i, 6]
        cs, ref = dot_product_cs(weights, features)
        if setup_result is None:
            setup_result = setup(cs, backend, random.Random(seed))
        proof = prove(setup_result.proving_key, cs, backend, random.Random(i))
        claims.append(([ref], proof))
    return setup_result.verifying_key, claims


class TestBatchVerifySimulated:
    backend = SimulatedBackend()

    def test_valid_batch_accepted(self):
        vk, claims = _make_batch(self.backend, 5)
        assert batch_verify(vk, claims, self.backend, random.Random(7))

    def test_empty_batch_trivially_true(self):
        vk, _ = _make_batch(self.backend, 1)
        assert batch_verify(vk, [], self.backend)

    def test_single_proof_matches_plain_verify(self):
        vk, claims = _make_batch(self.backend, 1)
        assert verify(vk, *claims[0], self.backend)
        assert batch_verify(vk, claims, self.backend, random.Random(1))

    def test_one_bad_claim_poisons_the_batch(self):
        vk, claims = _make_batch(self.backend, 4)
        publics, proof = claims[2]
        claims[2] = ([publics[0] + 1], proof)
        assert not batch_verify(vk, claims, self.backend, random.Random(3))

    def test_one_tampered_proof_poisons_the_batch(self):
        vk, claims = _make_batch(self.backend, 4)
        publics, proof = claims[1]
        proof.c = self.backend.scalar_mul(proof.c, 2)
        assert not batch_verify(vk, claims, self.backend, random.Random(3))

    def test_swapped_claims_rejected(self):
        """Proof i against claim j fails (claims differ across the batch)."""
        vk, claims = _make_batch(self.backend, 3)
        swapped = [
            (claims[1][0], claims[0][1]),
            (claims[0][0], claims[1][1]),
            claims[2],
        ]
        assert not batch_verify(vk, swapped, self.backend, random.Random(3))

    def test_public_input_count_validated(self):
        vk, claims = _make_batch(self.backend, 1)
        with pytest.raises(ValueError):
            batch_verify(vk, [([], claims[0][1])], self.backend)

    def test_different_randomness_same_verdict(self):
        vk, claims = _make_batch(self.backend, 3)
        for seed in (1, 2, 3, 99):
            assert batch_verify(vk, claims, self.backend, random.Random(seed))

    def test_pairing_count_scales_as_k_plus_3(self):
        """The whole point: k+3 pairings instead of 4k."""
        from repro.field.counters import count_ops

        vk, claims = _make_batch(self.backend, 6)
        with count_ops() as batched:
            batch_verify(vk, claims, self.backend, random.Random(1))
        with count_ops() as individual:
            for publics, proof in claims:
                verify(vk, publics, proof, self.backend)
        assert batched.pairing == 6 + 3
        assert individual.pairing == 4 * 6


class TestBatchVerifyRealCurve:
    def test_real_curve_batch(self):
        backend = RealBN254Backend()
        vk, claims = _make_batch(backend, 2)
        assert batch_verify(vk, claims, backend, random.Random(5))
        claims[0] = ([claims[0][0][0] + 1], claims[0][1])
        assert not batch_verify(vk, claims, backend, random.Random(5))


R = SimulatedBackend().scalar_field.modulus
NON_CANONICAL = {
    "plus_r": lambda v: v + R,
    "minus_r": lambda v: v - R,
    "two_to_256": lambda v: v + 2**256,
    "negative": lambda v: -1 - v,
}


@pytest.fixture(
    scope="module", params=[SimulatedBackend, RealBN254Backend],
    ids=["simulated", "bn254"],
)
def three_claims(request):
    backend = request.param()
    vk, claims = _make_batch(backend, 3, seed=4)
    return backend, vk, claims


class TestPublicInputRange:
    """A public input outside [0, r) is a rejection, never an exception —
    and never an acceptance, though the MSM would reduce ``v + r`` to ``v``."""

    @pytest.mark.parametrize("shift", sorted(NON_CANONICAL))
    def test_verify_rejects(self, three_claims, shift):
        backend, vk, claims = three_claims
        (value,), proof = claims[0]
        assert verify(vk, [value], proof, backend)
        assert not verify(vk, [NON_CANONICAL[shift](value)], proof, backend)

    @pytest.mark.parametrize("shift", sorted(NON_CANONICAL))
    def test_batch_verify_rejects(self, three_claims, shift):
        backend, vk, claims = three_claims
        (value,), proof = claims[1]
        tampered = list(claims)
        tampered[1] = ([NON_CANONICAL[shift](value)], proof)
        assert batch_verify(vk, claims, backend)
        assert not batch_verify(vk, tampered, backend)
        assert not batch_verify(vk, tampered, backend, random.Random(2))

    @pytest.mark.parametrize(
        "backend", [SimulatedBackend(), RealBN254Backend()],
        ids=["simulated", "bn254"],
    )
    def test_r_itself_is_rejected(self, backend):
        """A claim whose honest public is 0: ``r`` is the same value mod r
        and the first integer past the range."""
        cs, ref = dot_product_cs([2, 0], [0, 5])
        assert ref == 0
        result = setup(cs, backend, random.Random(1))
        proof = prove(result.proving_key, cs, backend, random.Random(2))
        vk = result.verifying_key
        assert verify(vk, [0], proof, backend)
        assert not verify(vk, [R], proof, backend)
        assert not batch_verify(vk, [([R], proof)], backend)

    @pytest.mark.parametrize("shift", ["plus_r", "two_to_256"])
    def test_verify_claims_fails_only_that_claim(self, three_claims, shift):
        from repro.cluster.verification import verify_claims
        from repro.snark.serialize import (
            serialize_proof,
            serialize_verifying_key,
        )

        _, vk, claims = three_claims
        wire = [(publics, serialize_proof(proof)) for publics, proof in claims]
        (value,), blob = wire[2]
        wire[2] = ([NON_CANONICAL[shift](value)], blob)
        verdict = verify_claims(serialize_verifying_key(vk), wire)
        assert verdict.per_proof == [True, True, False]
        assert not verdict.aggregate and not verdict.all_ok
        assert verdict.errors == [None, None, None]

    def test_the_check_is_cheap(self):
        """Ten publics (``cnn_whole``'s claim) cost a few percent of one
        simulated verification (≈ 0.5 us against ≈ 13 us on a 2-vCPU x86
        host), measured as a ratio so host speed cancels."""
        import timeit

        from repro.snark.groth16 import _in_range

        backend = SimulatedBackend()
        vk, claims = _make_batch(backend, 1)
        publics = [R - 1 - k for k in range(10)]

        def best(call):
            return min(timeit.repeat(call, number=500, repeat=5))

        check = best(lambda: _in_range(publics, R))
        whole = best(lambda: verify(vk, *claims[0], backend))
        assert check < 0.2 * whole


class TestFiatShamirCoefficients:
    """RLC coefficients are transcript-derived by default (rng= opts out)."""

    backend = SimulatedBackend()

    def test_no_rng_needed(self):
        vk, claims = _make_batch(self.backend, 3)
        assert batch_verify(vk, claims, self.backend)  # no rng argument

    def test_deterministic_across_runs(self):
        from repro.snark.groth16 import _fs_coefficients, _fs_transcript

        vk, claims = _make_batch(self.backend, 3)
        seed_a = _fs_transcript([(vk, claims)])
        seed_b = _fs_transcript([(vk, claims)])
        assert seed_a == seed_b
        p = self.backend.scalar_field.modulus
        assert _fs_coefficients(seed_a, 5, p) == _fs_coefficients(seed_b, 5, p)

    def test_coefficients_bind_the_claims(self):
        """Any change to a claim changes every derived coefficient."""
        from repro.snark.groth16 import _fs_coefficients, _fs_transcript

        vk, claims = _make_batch(self.backend, 3)
        base = _fs_transcript([(vk, claims)])
        publics, proof = claims[1]
        tampered = list(claims)
        tampered[1] = ([publics[0] + 1], proof)
        assert base != _fs_transcript([(vk, tampered)])
        p = self.backend.scalar_field.modulus
        a = _fs_coefficients(base, 3, p)
        b = _fs_coefficients(_fs_transcript([(vk, tampered)]), 3, p)
        assert all(x != y for x, y in zip(a, b))

    def test_coefficients_in_multiplicative_range(self):
        from repro.snark.groth16 import _fs_coefficients

        p = self.backend.scalar_field.modulus
        coeffs = _fs_coefficients(b"\x00" * 32, 64, p)
        assert all(1 <= c < p for c in coeffs)
        assert len(set(coeffs)) == len(coeffs)  # no accidental repeats

    def test_rng_escape_hatch_still_works(self):
        vk, claims = _make_batch(self.backend, 3)
        assert batch_verify(vk, claims, self.backend, rng=random.Random(1))
        publics, proof = claims[0]
        claims[0] = ([publics[0] + 1], proof)
        assert not batch_verify(vk, claims, self.backend, rng=random.Random(1))
        assert not batch_verify(vk, claims, self.backend)  # and FS agrees


class TestBatchVerifyMulti:
    """Grouped verification: k proofs over v keys in k + 3v pairings."""

    backend = SimulatedBackend()

    def _two_groups(self):
        from repro.snark.groth16 import batch_verify_multi

        vk_a, claims_a = _make_batch(self.backend, 2, seed=0)
        vk_b, claims_b = _make_batch(self.backend, 3, seed=9)
        return batch_verify_multi, [(vk_a, claims_a), (vk_b, claims_b)]

    def test_valid_groups_accepted(self):
        batch_verify_multi, groups = self._two_groups()
        assert batch_verify_multi(groups, self.backend)

    def test_any_bad_group_poisons_all(self):
        batch_verify_multi, groups = self._two_groups()
        publics, proof = groups[1][1][0]
        groups[1][1][0] = ([publics[0] + 1], proof)
        assert not batch_verify_multi(groups, self.backend)

    def test_empty_groups_trivially_true(self):
        batch_verify_multi, _ = self._two_groups()
        assert batch_verify_multi([], self.backend)
        vk, _ = _make_batch(self.backend, 1)
        assert batch_verify_multi([(vk, [])], self.backend)

    def test_pairing_count_is_k_plus_3v(self):
        from repro.field.counters import count_ops

        batch_verify_multi, groups = self._two_groups()
        with count_ops() as ops:
            assert batch_verify_multi(groups, self.backend)
        assert ops.pairing == (2 + 3) + 3 * 2  # 5 proofs, 2 keys
