"""`repro.core.pool`: the one worker-process layer and its four clients."""

import multiprocessing
import os
import random
import re
from pathlib import Path

import pytest

from repro.aggregate import prove_split, setup_split
from repro.core import pool
from repro.core.compiler import PrivacySetting, ZenoCompiler, zeno_options
from repro.core.schedule import ScheduleExecutor
from repro.core.schedule import executor as executor_mod
from repro.ec.batch_affine import msm_parallel
from repro.ec.bn254 import BN254_G1
from repro.field.backend import backend_name, set_backend
from repro.field.counters import count_ops, global_counter
from repro.r1cs import evaluate_rows
from repro.snark.qap import Domain, quotient_coefficients
from repro.snark.serialize import serialize_proof
from tests.conftest import tiny_conv_model, tiny_image
from tests.test_parallel_prover import random_system


@pytest.fixture(autouse=True)
def fresh_pools():
    pool.shutdown()
    yield
    pool.shutdown()


# Worker entry points must be importable by path (spawn re-imports them).


def _square(x):
    global_counter().field_mul += 1  # one "op" per task, to trace merging
    return x * x, os.getpid()


def _scale(shared, x):
    global_counter().field_mul += 1
    return shared["factor"] * x


def _nested(shared, x):
    # A pool worker that itself maps: must start its own executor, not
    # submit to the one it inherited from the parent.
    return [r for r, _ in pool.map(_square, [x, x + 1], 1)]


class TestMap:
    def test_results_in_order_and_ops_merged(self):
        with count_ops() as ops:
            out = list(pool.map(_square, range(6), 2))
        assert [r for r, _ in out] == [x * x for x in range(6)]
        assert ops.field_mul == 6

    def test_executor_cached_per_worker_count(self):
        pids = {pid for _, pid in pool.map(_square, range(4), 1)}
        one = pool._cached[1]
        assert {pid for _, pid in pool.map(_square, range(4), 1)} == pids
        assert pool._cached[1] is one  # reused, not rebuilt
        list(pool.map(_square, range(4), 2))
        assert set(pool._cached) == {1, 2}
        assert pool._cached[1] is one

    def test_shutdown_idempotent_and_recreatable(self):
        list(pool.map(_square, [1], 1))
        list(pool.map_shared({"factor": 2}, _scale, [1], 1, key="k"))
        pool.shutdown()
        pool.shutdown()
        assert pool._cached == {} and pool._shared_pool is None
        assert [r for r, _ in pool.map(_square, [3], 1)] == [9]
        assert list(
            pool.map_shared({"factor": 2}, _scale, [3], 1, key="k")
        ) == [6]


class TestMapShared:
    def test_equals_sequential_map(self):
        shared = {"factor": 7}
        payloads = list(range(9))
        with count_ops() as ops:
            got = list(pool.map_shared(shared, _scale, payloads, 2))
        assert got == [_scale(shared, x) for x in payloads]
        assert ops.field_mul == len(payloads)
        assert pool._shared_pool is None  # unkeyed: one-shot, nothing kept

    def test_keyed_pool_reused_until_key_changes(self):
        shared = {"factor": 3}
        assert list(pool.map_shared(shared, _scale, [1], 2, key=1)) == [3]
        first = pool._shared_pool
        assert list(pool.map_shared(shared, _scale, [2], 2, key=1)) == [6]
        assert pool._shared_pool is first
        # Workers hold the object as published; a new key republishes it.
        shared["factor"] = 5
        assert list(pool.map_shared(shared, _scale, [2], 2, key=1)) == [6]
        assert list(pool.map_shared(shared, _scale, [2], 2, key=2)) == [10]
        assert pool._shared_pool is not first
        second = pool._shared_pool
        list(pool.map_shared(shared, _scale, [2], 1, key=2))
        assert pool._shared_pool is not second  # worker count is in the key

    def test_pickled_publish_equals_fork(self, monkeypatch):
        shared = {"factor": 11}
        forked = list(pool.map_shared(shared, _scale, range(5), 2))
        monkeypatch.setattr(
            pool, "context", lambda: multiprocessing.get_context("spawn")
        )
        with count_ops() as ops:
            spawned = list(pool.map_shared(shared, _scale, range(5), 2))
        assert spawned == forked
        assert ops.field_mul == 5

    def test_nested_map_in_forked_worker(self):
        list(pool.map(_square, [0], 1))  # parent owns a cached executor
        got = list(pool.map_shared(None, _nested, [2, 5], 1))
        assert got == [[4, 9], [25, 36]]


def _in_process(monkeypatch):
    """Swap both map calls for in-process equivalents: the sequential
    reference the pooled op counts are compared against."""
    monkeypatch.setattr(
        pool, "map", lambda fn, payloads, workers: (fn(p) for p in payloads)
    )
    monkeypatch.setattr(
        pool,
        "map_shared",
        lambda shared, fn, payloads, workers, key=None: (
            fn(shared, p) for p in payloads
        ),
    )


class TestClientOpCountParity:
    """Sequential vs pooled, folded in through ``OpCounter.merge``: every
    client's cost-model counters must not depend on where the work ran."""

    def test_witness_executor(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "PARALLEL_MIN_TERMS", 0)
        csr = random_system(random.Random(41), rows=20).to_csr()
        with count_ops() as seq:
            expected = evaluate_rows(csr)
        with count_ops() as pooled:
            got = ScheduleExecutor(2).evaluate_witness(csr)
        assert (got.a_rows, got.b_rows, got.c_rows) == expected
        assert pooled.snapshot() == seq.snapshot()
        assert pool._shared_key == (csr.stamp, 2)

    def test_qap_coset_chains(self):
        cs = random_system(random.Random(43), rows=20)
        domain = Domain(max(cs.num_constraints, 2))
        original = backend_name()
        try:
            # The vectorized backend batches all three chains in-process;
            # the scalar one is the path that dispatches to workers.
            set_backend("scalar")
            # unsatisfied random system: compare up to the remainder check
            with count_ops() as seq:
                with pytest.raises(ValueError):
                    quotient_coefficients(cs, domain)
            with count_ops() as pooled:
                with pytest.raises(ValueError):
                    quotient_coefficients(cs, domain, parallelism=2)
        finally:
            set_backend(original)
        assert 2 in pool._cached
        assert pooled.snapshot() == seq.snapshot()

    def test_chunked_msm(self, monkeypatch):
        rng = random.Random(47)
        g = BN254_G1.generator
        points = [g * rng.randrange(1, 1 << 20) for _ in range(24)]
        scalars = [rng.randrange(BN254_G1.order) for _ in points]
        with count_ops() as pooled:
            got = msm_parallel(points, scalars, parallelism=2)
        assert 2 in pool._cached
        _in_process(monkeypatch)
        with count_ops() as seq:
            expected = msm_parallel(points, scalars, parallelism=2)
        assert got == expected
        assert pooled.snapshot() == seq.snapshot()
        assert pooled.group_add > 0 and pooled.field_inv > 0

    def test_per_layer_proving(self, monkeypatch):
        opts = zeno_options(
            PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS, record_recipe=True
        )
        artifact = ZenoCompiler(opts).compile_model(
            tiny_conv_model(), tiny_image()
        )
        split = artifact.split(mode="public")
        setups = setup_split(split, crs_seed=9)
        with count_ops() as seq:
            expected = prove_split(split, setups, crs_seed=9)
        with count_ops() as pooled:
            got = prove_split(split, setups, crs_seed=9, parallelism=2)
        assert pooled.snapshot() == seq.snapshot()
        assert seq.field_mul > 0
        monkeypatch.setattr(
            pool, "context", lambda: multiprocessing.get_context("spawn")
        )
        spawned = prove_split(split, setups, crs_seed=9, parallelism=2)
        blobs = [serialize_proof(p) for p in expected]
        assert [serialize_proof(p) for p in got] == blobs
        assert [serialize_proof(p) for p in spawned] == blobs


def test_only_the_pool_module_starts_processes():
    """One place decides worker-process mechanics: under ``src/`` only
    ``core/pool.py`` and the serve ``WorkerPool`` (crash recovery) may
    build an executor or pick a multiprocessing context."""
    src = Path(__file__).resolve().parent.parent / "src"
    pattern = re.compile(r"ProcessPoolExecutor\(|get_context\(")
    offenders = {
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if pattern.search(path.read_text())
    }
    assert offenders == {"repro/core/pool.py", "repro/serve/workers.py"}
