"""`repro.core.pool`: the one worker-process layer and its two clients."""

import inspect
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.aggregate import prove_split, setup_split
from repro.core import pool
from repro.core.compiler import PrivacySetting, ZenoCompiler, zeno_options
from repro.core.schedule import ScheduleExecutor
from repro.core.schedule import executor as executor_mod
from repro.ec.backend import GroupBackend
from repro.field.counters import count_ops, global_counter
from repro.r1cs import evaluate_rows
from repro.snark.serialize import serialize_proof
from tests.conftest import tiny_conv_model, tiny_image
from tests.test_parallel_prover import random_system


@pytest.fixture(autouse=True)
def fresh_pools():
    pool.shutdown()
    yield
    pool.shutdown()


# Worker entry points must be importable by path (spawn re-imports them).


def _square(shared, x):
    global_counter().field_mul += 1  # one "op" per task, to trace merging
    return x * x, os.getpid()


def _scale(shared, x):
    global_counter().field_mul += 1
    return shared["factor"] * x


def _nested(shared, x):
    # A pool worker that itself maps — under the key and worker count its
    # parent's kept pool has: must start its own executor, not submit to
    # the one it inherited.
    out = pool.map_shared(None, _square, [x, x + 1], 1, key="k")
    return [r for r, _ in out]


class TestMap:
    """The kept (keyed) pool: what a caller that maps again and again over
    the same shared state gets."""

    def test_results_in_order_and_ops_merged(self):
        with count_ops() as ops:
            out = list(pool.map_shared(None, _square, range(6), 2, key="k"))
        assert [r for r, _ in out] == [x * x for x in range(6)]
        assert ops.field_mul == 6

    def test_executor_cached_per_worker_count(self):
        def pids(workers):
            out = pool.map_shared(None, _square, range(4), workers, key="k")
            return {pid for _, pid in out}

        first = pids(1)
        one = pool._shared_pool
        assert pids(1) == first
        assert pool._shared_pool is one  # reused, not rebuilt
        assert not pids(2) & first
        assert pool._shared_pool is not one  # replaced: one kept pool
        assert pool._shared_key == ("k", 2)

    def test_shutdown_idempotent_and_recreatable(self):
        list(pool.map_shared({"factor": 2}, _scale, [1], 1, key="k"))
        pool.shutdown()
        pool.shutdown()
        assert pool._shared_pool is None and pool._shared_key is None
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
        # The parent owns a kept executor, which its worker inherits.
        got = list(pool.map_shared(None, _nested, [2, 5], 1, key="k"))
        assert got == [[4, 9], [25, 36]]


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


_KILLED_PARENT = """
import multiprocessing, os, time
from repro.core import pool
from repro.serve.workers import WorkerPool

def pid(shared, payload):
    return os.getpid()

workers = WorkerPool(2)
workers.prewarm()
list(pool.map_shared(None, pid, range(4), 2, key="k"))
print(*(child.pid for child in multiprocessing.active_children()), flush=True)
time.sleep(60)
"""


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # unreaped is still gone


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigkilled_parent_leaves_no_children():
    """Nobody dismisses the workers of a parent that is SIGKILLed: they
    have to notice on their own, the serve pool's and the prover's alike."""
    src = Path(__file__).resolve().parent.parent / "src"
    parent = subprocess.Popen(
        [sys.executable, "-c", _KILLED_PARENT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        children = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(children) == 4 and all(map(_running, children))
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait()
    deadline = time.monotonic() + 5
    while any(map(_running, children)) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not [pid for pid in children if _running(pid)]


def test_retired_layers_stay_retired():
    """One benchmark layer, one meaning per prover knob: the legacy
    harnesses, their checked-in JSON and the prover modes that lived only
    as their columns cannot grow back."""
    root = Path(__file__).resolve().parent.parent
    harness = {
        path.stem for path in (root / "benchmarks").glob("*.py")
        if not path.stem.startswith("test_")
    }
    assert harness <= {"__init__", "_shared", "conftest"}
    assert not list(root.glob("BENCH_*.json"))
    assert {
        name for name, value in vars(pool).items()
        if callable(value) and not name.startswith("_")
        and value.__module__ == pool.__name__
    } == {"context", "map_shared", "shutdown"}
    assert "parallelism" not in inspect.signature(GroupBackend.msm).parameters
    retired = re.compile(
        "msm_parallel|_coset_chain|Gmpy2Backend|witness_polynomial_evals_lc"
    )
    assert not [
        str(path.relative_to(root))
        for path in (root / "src").rglob("*.py")
        if retired.search(path.read_text())
    ]
