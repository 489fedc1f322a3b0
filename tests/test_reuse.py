"""Tests for NN-inspired computation reuse (§6.1): cache + batch sharing."""

import random

import pytest

from repro.core.circuit.compute import CompilerOptions
from repro.core.lang.types import PrivacySetting
from repro.core.reuse.batch import BatchProver
from repro.core.reuse.cache import CacheService
from repro.ec.backend import SimulatedBackend
from repro.snark import groth16
from tests.conftest import tiny_conv_model, tiny_image


class TestCacheService:
    def test_table_for_contexts_isolated(self):
        cache = CacheService()
        t1 = cache.table_for((1, 24))
        t2 = cache.table_for((2, 24))
        t1[5] = 50
        assert 5 not in t2
        assert cache.table_for((1, 24)) is t1
        assert cache.table_for((2, 24)) == {}

    def test_record(self):
        cache = CacheService()
        cache.record(hits=10, misses=2)
        cache.record(hits=1, misses=0)
        assert cache.hits == 11 and cache.misses == 2


class TestBatchSharing:
    @pytest.fixture(scope="class")
    def prover(self):
        model = tiny_conv_model()
        return model, BatchProver(model, tiny_image(seed=1))

    def test_reassigned_system_satisfied(self, prover):
        model, bp = prover
        for seed in (2, 3, 4):
            bp.assign_image(tiny_image(seed=seed))
            assert bp.cs.is_satisfied(), f"seed {seed}"

    def test_recipe_covers_every_variable(self, prover):
        _, bp = prover
        logged = {
            var for step in bp.result.recipe
            for var in step.variables().tolist()
        }
        # every private var and every public var must be reassignable
        expected = set(range(1, bp.cs.num_private + 1)) | {
            -(i + 1) for i in range(bp.cs.num_public)
        }
        assert logged == expected

    def test_public_outputs_track_image(self, prover):
        model, bp = prover
        image = tiny_image(seed=9)
        bp.assign_image(image)
        p = bp.cs.field.modulus
        expected = [int(v) % p for v in model.forward(image)]
        assert bp.cs.public_values() == expected

    def test_shared_proving_across_batch(self, prover):
        """One setup, fresh proof per image — all verify (Fig. 14 flow)."""
        model, bp = prover
        backend = SimulatedBackend()
        setup = groth16.setup(bp.cs, backend, random.Random(1))
        for seed in (5, 6):
            bp.assign_image(tiny_image(seed=seed))
            proof = groth16.prove(
                setup.proving_key, bp.cs, backend, random.Random(seed)
            )
            assert groth16.verify(
                setup.verifying_key, bp.cs.public_values(), proof, backend
            )

    def test_assign_is_cheaper_than_compile(self, prover):
        _, bp = prover
        assert bp.stats.assign_times
        compile_cost = bp.stats.generate_time + bp.stats.circuit_time
        assert min(bp.stats.assign_times) < compile_cost

    def test_stats_ledger(self, prover):
        _, bp = prover
        n = len(bp.stats.assign_times)
        assert bp.stats.unshared_total() == pytest.approx(
            (bp.stats.generate_time + bp.stats.circuit_time) * n
        )
        assert bp.stats.shared_total() < bp.stats.unshared_total()

    def test_both_private_batch(self):
        model = tiny_conv_model()
        bp = BatchProver(
            model,
            tiny_image(seed=1),
            options=CompilerOptions(
                privacy=PrivacySetting.PRIVATE_IMAGE_PRIVATE_WEIGHTS
            ),
        )
        bp.assign_image(tiny_image(seed=7))
        assert bp.cs.is_satisfied()

    def test_strict_gadget_batch(self):
        model = tiny_conv_model()
        bp = BatchProver(
            model,
            tiny_image(seed=1),
            options=CompilerOptions(gadget_mode="strict"),
        )
        bp.assign_image(tiny_image(seed=8))
        assert bp.cs.is_satisfied()
