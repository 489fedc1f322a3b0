"""Tests for NN-inspired computation reuse (§6.1): cache + batch sharing."""

import random

import numpy as np
import pytest

from repro.core.circuit.compute import ComputeOptions
from repro.core.lang.types import Privacy
from repro.core.reuse.batch import BatchProver
from repro.core.reuse.cache import CacheService, profile_operand_pairs
from repro.ec.backend import SimulatedBackend
from repro.field.fp import BN254_FR
from repro.field.counters import count_ops
from repro.nn.data import synthetic_images
from repro.snark import groth16
from tests.conftest import tiny_conv_model, tiny_image


class TestCacheService:
    def test_hit_after_miss(self):
        cache = CacheService()
        a = cache.mul(BN254_FR, 7, 9)
        b = cache.mul(BN254_FR, 7, 9)
        assert a == b == 63
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate() == 0.5

    def test_capacity_bound(self):
        cache = CacheService(capacity=2)
        for i in range(5):
            cache.mul(BN254_FR, i, i)
        assert len(cache._table) == 2

    def test_topk_admission(self):
        cache = CacheService(top_k_values=[5])
        cache.mul(BN254_FR, 5, 2)
        cache.mul(BN254_FR, 7, 2)  # 7 not admitted
        assert (5, 2) in cache._table
        assert (7, 2) not in cache._table

    def test_mul_keyed(self):
        cache = CacheService()
        assert cache.mul_keyed(BN254_FR, 3, 4, key=("k", 1)) == 12
        assert cache.mul_keyed(BN254_FR, 3, 4, key=("k", 1)) == 12
        assert cache.hits == 1

    def test_table_for_contexts_isolated(self):
        cache = CacheService()
        t1 = cache.table_for((1, 24))
        t2 = cache.table_for((2, 24))
        t1[5] = 50
        assert 5 not in t2
        assert cache.table_for((1, 24)) is t1
        assert cache.num_entries() == 1

    def test_record_and_sync(self):
        cache = CacheService()
        cache.record(hits=10, misses=2)
        with count_ops() as ops:
            cache.sync_counters()
        assert ops.cache_hit == 10
        assert ops.cache_miss == 2

    def test_reset_stats(self):
        cache = CacheService()
        cache.record(3, 4)
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.hit_rate() == 0.0


class TestOfflineProfiling:
    def test_profile_finds_frequent_weights(self, tiny_model):
        images = synthetic_images((1, 6, 6), n=3, seed=0)
        counts = profile_operand_pairs(tiny_model, images, top_k=5)
        assert len(counts) <= 5
        assert all(count > 0 for count in counts.values())

    def test_topk_zero_keeps_all(self, tiny_model):
        images = synthetic_images((1, 6, 6), n=1, seed=0)
        full = profile_operand_pairs(tiny_model, images, top_k=0)
        top = profile_operand_pairs(tiny_model, images, top_k=3)
        assert len(top) <= 3 <= len(full)
        # top-k really is the most frequent subset
        floor = min(top.values())
        assert all(v <= floor for k, v in full.items() if k not in top)


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
            weights_privacy=Privacy.PRIVATE,
            options=ComputeOptions(),
        )
        bp.assign_image(tiny_image(seed=7))
        assert bp.cs.is_satisfied()

    def test_strict_gadget_batch(self):
        model = tiny_conv_model()
        bp = BatchProver(
            model,
            tiny_image(seed=1),
            options=ComputeOptions(gadget_mode="strict"),
        )
        bp.assign_image(tiny_image(seed=8))
        assert bp.cs.is_satisfied()
