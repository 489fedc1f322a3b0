"""`repro.core.pool`: the one worker-process layer and its client."""

import inspect
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tokenize
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.aggregate import prove_split, setup_split
from repro.core import pool
from repro.core.compiler import PrivacySetting, ZenoCompiler, zeno_options
from repro.core.reuse.batch import BatchProver
from repro.ec.backend import GroupBackend
from repro.field.counters import count_ops, global_counter
from repro.serve import ProvingService, ServiceConfig
from repro.snark import groth16, qap
from repro.snark.serialize import serialize_proof
from tests.conftest import tiny_conv_model, tiny_image


def _no_children(within: float = 5.0) -> bool:
    deadline = time.monotonic() + within
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return not multiprocessing.active_children()


# Worker entry points must be importable by path (spawn re-imports them).


def _square(shared, x):
    global_counter().field_mul += 1  # one "op" per task, to trace merging
    return x * x, os.getpid()


def _scale(shared, x):
    global_counter().field_mul += 1
    return shared["factor"] * x


def _nested(shared, x):
    # A pool worker that itself maps: the nested call starts its own
    # workers from inside a forked child.
    out = pool.map_shared(None, _square, [x, x + 1], 1)
    return [r for r, _ in out]


def _die_once(shared, x):
    # As serve.workers._maybe_crash: the token makes the death one-shot.
    if x == 3 and os.path.exists(shared):
        os.remove(shared)
        os._exit(1)
    return x


def _mark_or_raise(shared, x):
    if x == 0:
        raise ValueError("payload 0 is bad")
    time.sleep(0.05)
    Path(shared, str(x)).touch()
    return x


class TestMap:
    def test_results_in_order_and_ops_merged(self):
        with count_ops() as ops:
            out = list(pool.map_shared(None, _square, range(6), 2))
        assert [r for r, _ in out] == [x * x for x in range(6)]
        assert ops.field_mul == 6


class TestMapShared:
    def test_equals_sequential_map(self):
        shared = {"factor": 7}
        payloads = list(range(9))
        with count_ops() as ops:
            got = list(pool.map_shared(shared, _scale, payloads, 2))
        assert got == [_scale(shared, x) for x in payloads]
        assert ops.field_mul == len(payloads)
        assert not multiprocessing.active_children()  # nothing is kept

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
        got = list(pool.map_shared(None, _nested, [2, 5], 1))
        assert got == [[4, 9], [25, 36]]


class TestClientOpCountParity:
    """Sequential vs pooled, folded in through ``OpCounter.merge``: every
    client's cost-model counters must not depend on where the work ran."""

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


@pytest.fixture(scope="module")
def tiny_split():
    """``(split, setups, sequential proof bytes)`` of the tiny conv model."""
    opts = zeno_options(
        PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS, record_recipe=True
    )
    artifact = ZenoCompiler(opts).compile_model(
        tiny_conv_model(), tiny_image()
    )
    split = artifact.split(mode="public")
    setups = setup_split(split, crs_seed=9)
    proofs = prove_split(split, setups, crs_seed=9)
    return split, setups, [serialize_proof(p) for p in proofs]


class TestFailureModel:
    """What the caller of ``map_shared`` sees when a worker dies or a task
    raises: the error, no process left behind, and a next call that works."""

    def test_dead_worker_breaks_the_call_not_the_next_one(
        self, tmp_path, tiny_split
    ):
        token = tmp_path / "crash"
        token.touch()
        with pytest.raises(BrokenProcessPool):
            list(pool.map_shared(str(token), _die_once, range(8), 2))
        assert not token.exists()  # the worker really died mid-map
        assert _no_children()
        split, setups, blobs = tiny_split
        again = prove_split(split, setups, crs_seed=9, parallelism=2)
        assert [serialize_proof(p) for p in again] == blobs

    def test_task_error_reaches_caller_and_cancels_the_rest(self, tmp_path):
        with pytest.raises(ValueError, match="payload 0 is bad"):
            list(pool.map_shared(str(tmp_path), _mark_or_raise, range(12), 1))
        assert _no_children()
        # The executor had already queued a call or two past the failing
        # one; everything behind those was cancelled, not run.
        assert len(list(tmp_path.iterdir())) <= 3

    def test_unsatisfied_instance_fails_the_split(self, tiny_split):
        split, setups, blobs = tiny_split
        inst = split.instances[1]
        var = max(v for c in inst.cs.constraints for v in c.a.terms)
        assert var > 0  # a private wire this instance's rows read
        value = inst.cs.value_of(var)
        inst.cs.assign(var, value + 1)
        try:
            with pytest.raises(ValueError, match="does not satisfy"):
                prove_split(split, setups, crs_seed=9, parallelism=2)
        finally:
            inst.cs.assign(var, value)
        assert _no_children()
        again = prove_split(split, setups, crs_seed=9, parallelism=2)
        assert [serialize_proof(p) for p in again] == blobs


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
held = pool.map_shared(None, pid, range(4), 2)  # open: its workers stay
next(held)
print(*(child.pid for child in multiprocessing.active_children()), flush=True)
time.sleep(60)
"""

_OPEN_ITERATOR_AT_EXIT = """
import os
from repro.core import pool

def pid(shared, payload):
    return os.getpid()

held = pool.map_shared(None, pid, range(4), 2)
print(next(held), flush=True)
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


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_exit_with_open_iterator_is_clean():
    """The module has no exit hook: a process that ends with results still
    unread neither hangs on its idle workers nor leaves them behind."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _OPEN_ITERATOR_AT_EXIT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert not _running(int(done.stdout))


def _code_names(path: Path) -> set:
    """Identifiers and whole string literals of a module — parameters,
    keywords, attributes, dict keys; prose in docstrings does not count."""
    with tokenize.open(path) as handle:
        return {
            tok.string if tok.type == tokenize.NAME else tok.string[1:-1]
            for tok in tokenize.generate_tokens(handle.readline)
            if tok.type in (tokenize.NAME, tokenize.STRING)
        }


def _names_in_code(path: Path, word: str) -> bool:
    return word in _code_names(path)


def test_retired_layers_stay_retired():
    """One benchmark layer, one process-parallel axis: the legacy
    harnesses, their checked-in JSON, the prover modes that lived only as
    their columns, and the witness-row executor with every ``parallelism=``
    that fed it cannot grow back."""
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
    } == {"context", "map_shared"}
    assert list(inspect.signature(pool.map_shared).parameters) == [
        "shared", "fn", "payloads", "workers"
    ]
    for fn in (
        GroupBackend.msm, groth16.prove, groth16.Groth16.prove,
        BatchProver.prove, qap.witness_polynomial_evals,
        qap.quotient_coefficients,
    ):
        assert "parallelism" not in inspect.signature(fn).parameters
    assert "parallelism" not in ServiceConfig.__dataclass_fields__
    with pytest.raises(TypeError, match="parallelism"):
        ProvingService(parallelism=2)  # loud, not a silent no-op
    package = root / "src" / "repro"
    assert not (package / "core" / "schedule" / "executor.py").exists()
    assert {
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if _names_in_code(path, "parallelism")
    } == {"aggregate/prove.py", "cli.py"}
    retired = re.compile(
        "msm_parallel|_coset_chain|Gmpy2Backend|witness_polynomial_evals_lc"
        "|ScheduleExecutor|PARALLEL_MIN_TERMS|restamp"
    )
    assert not [
        str(path.relative_to(root))
        for path in (root / "src").rglob("*.py")
        if retired.search(path.read_text())
    ]


def test_prover_reads_no_environment():
    """Every prover decision follows its arguments or a module constant:
    the only environment access under ``src/repro`` is the autoscaler
    copying it for the worker processes it starts, and the backend-object
    layer the variables selected cannot grow back."""
    from repro.field import vector

    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "repro"
    assert {
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if _code_names(path) & {"environ", "getenv", "putenv"}
    } == {"gateway/autoscale.py"}
    retired = {
        "get_backend", "set_backend", "ScalarBackend", "NumpyBackend",
        "HAS_NUMPY", "chunk_bytes_from_env", "CHUNK_BYTES_ENV", "field_dot",
    }
    assert not [
        str(path.relative_to(root))
        for path in (root / "src").rglob("*.py")
        if _code_names(path) & retired
    ]
    assert {
        name for name, value in vars(vector).items()
        if callable(value) and not name.startswith("_")
        and value.__module__ == vector.__name__
    } == {"batch_inverse"}
