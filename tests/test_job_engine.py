"""The one job lifecycle, checked once: :class:`repro.serve.engine.JobEngine`.

The stateful property drives an engine subclass with an in-memory fake
transport and an injected clock through ``step(now)`` — no threads, no
sockets, no proving — and holds every scheduling invariant after every
rule.  The remaining tests pin what sharing the engine buys: the local
service and the cluster build the same batch spec (they had drifted),
each proves two gadget profiles side by side under the keys the compiler
derives, and the duplicated scheduler cannot grow back.
"""

import random
import re
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ClusterConfig, ClusterCoordinator, WorkerNode
from repro.core.spec import CircuitSpec
from repro.serve import (
    JobEngine,
    JobState,
    ProvingService,
    ServiceConfig,
)
from repro.serve import engine as engine_module
from repro.serve.batcher import Batch
from repro.snark import groth16
from repro.snark.serialize import serialize_verifying_key

MAX_RETRIES = 2
IMAGE = np.zeros((1, 2, 2), dtype=np.int64)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FakeTransport(JobEngine):
    """A two-batch window the test can fill, answer, break and restore."""

    WINDOW = 2

    def __init__(self, config, clock):
        super().__init__(config, clock=clock)
        self.up = True
        self.wire = {}  # batch_id -> Batch the "worker" holds

    def _slot(self, now):
        return self if self.up and len(self.wire) < self.WINDOW else None

    def _send(self, slot, batch, spec, payloads):
        assert slot is self and batch.batch_id not in self.wire
        assert len({job.batch_key() for job in batch.jobs}) == 1
        assert CircuitSpec.from_mapping(spec) == batch.jobs[0].circuit
        assert [p["job_id"] for p in payloads] == [j.job_id for j in batch.jobs]
        for job in batch.jobs:
            assert job.state is JobState.RUNNING
            assert not job.expired(self._clock()), "sent an expired job"
        self.wire[batch.batch_id] = batch


def answer(batch: Batch) -> dict:
    return {
        "cold": False, "phases": {}, "vk": b"vk", "pid": 7,
        "results": [
            {"job_id": job.job_id, "proof": job.job_id.encode(),
             "public_inputs": [1], "logits": [0], "verified": True}
            for job in batch.jobs
        ],
    }


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = Clock()
        self.store_dir = tempfile.mkdtemp(prefix="repro-engine-test-")
        self.engine = FakeTransport(
            ServiceConfig(
                max_batch=3, max_wait=0.5, max_retries=MAX_RETRIES,
                store_dir=self.store_dir,
            ),
            self.clock,
        )
        self.events = []
        self.engine.add_listener(
            lambda event, job, info: self.events.append((event, job.job_id))
        )
        self.lost = []  # batch ids rerouted while "on the wire"

    def teardown(self):
        """Drain: with the transport up and every answer arriving, nothing
        may be left non-terminal."""
        engine = self.engine
        engine.up = True
        engine._halt(drain=True)
        for _ in range(4 * (MAX_RETRIES + 2)):
            if engine._all_terminal():
                break
            engine.step(self.clock.now)
            for batch_id in list(engine.wire):
                self.answer_ok(batch_id)
            self.clock.now += 2.0  # past any backoff
        assert engine._all_terminal()
        assert not engine._sent and not engine._ready and not engine.wire
        assert len(engine._queue) == 0 and engine._batcher.pending() == 0
        for job_id, job in engine._jobs.items():
            if job.state is JobState.FAILED:
                assert job.attempts == MAX_RETRIES + 1
            elif job.state is JobState.DONE:
                assert job.result.proof == job_id.encode()
        self.check_events()
        shutil.rmtree(self.store_dir, ignore_errors=True)

    # -- rules -----------------------------------------------------------------------

    @rule(
        model=st.sampled_from(["SHAL", "LCS"]),
        priority=st.integers(0, 2),
        tenant=st.sampled_from(["acme", "globex"]),
        timeout=st.sampled_from([None, 0.3, 1.5, 30.0]),
    )
    def submit(self, model, priority, tenant, timeout):
        self.engine.submit(
            CircuitSpec(model, scale="micro"), IMAGE, priority=priority,
            tenant=tenant, timeout=timeout,
        )

    @rule()
    def step(self):
        self.engine.step(self.clock.now)
        # Whatever expired while queued or in the ready backlog is gone
        # after a pass (the batcher's groups are reaped as they flush).
        now = self.clock.now
        waiting = [job for _, _, job in self.engine._queue._ready]
        waiting += [job for _, _, job in self.engine._queue._delayed]
        waiting += [job for b in self.engine._ready for job in b.jobs]
        assert not any(job.expired(now) for job in waiting)

    @rule(dt=st.sampled_from([0.05, 0.2, 0.6, 3.0]))
    def advance(self, dt):
        self.clock.now += dt

    def claim(self, batch_id):
        batch = self.engine.wire.pop(batch_id)
        assert self.engine.take(batch_id) is batch
        return batch

    def answer_ok(self, batch_id):
        batch = self.claim(batch_id)
        assert self.engine.complete(batch, answer(batch)) == []

    @precondition(lambda self: self.engine.wire)
    @rule(data=st.data())
    def complete(self, data):
        self.answer_ok(data.draw(st.sampled_from(sorted(self.engine.wire))))

    @precondition(lambda self: self.engine.wire)
    @rule(data=st.data(), reject=st.lists(st.booleans(), min_size=3, max_size=3))
    def complete_with_bad_proofs(self, data, reject):
        batch = self.claim(data.draw(st.sampled_from(sorted(self.engine.wire))))
        verdicts = [not r for r in reject[: len(batch)]]
        bad = self.engine.complete(batch, answer(batch), verdicts)
        assert bad == [j for j, ok in zip(batch.jobs, verdicts) if not ok]
        self.engine.requeue_or_fail(bad, "bad proof")

    @precondition(lambda self: self.engine.wire)
    @rule(data=st.data())
    def fail(self, data):
        batch = self.claim(data.draw(st.sampled_from(sorted(self.engine.wire))))
        self.engine.requeue_or_fail(batch.jobs, "worker raised")

    @precondition(lambda self: self.engine.up)
    @rule()
    def lose_transport(self):
        self.engine.up = False
        for batch_id in list(self.engine.wire):
            self.engine.requeue_or_fail(
                self.claim(batch_id).jobs, "transport lost"
            )
            self.lost.append(batch_id)

    @precondition(lambda self: not self.engine.up)
    @rule()
    def restore_transport(self):
        self.engine.up = True

    @precondition(lambda self: self.lost)
    @rule()
    def late_answer(self):
        """A node declared dead answers after all: nothing left to claim."""
        assert self.engine.take(self.lost.pop()) is None

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def check_events(self):
        terminal = [job_id for event, job_id in self.events if event == "terminal"]
        assert len(terminal) == len(set(terminal)), "two terminal events"
        ended = {j for j, job in self.engine._jobs.items() if job.state.terminal}
        assert set(terminal) == ended

    @invariant()
    def check_jobs(self):
        now = self.clock.now
        for job in self.engine._jobs.values():
            assert job.attempts <= MAX_RETRIES + 1
            if job.state is JobState.TIMED_OUT:
                assert job.deadline is not None and job.deadline < now

    @invariant()
    def check_sent(self):
        sent = self.engine._sent
        assert sent == self.engine.wire
        on_wire = [job.job_id for batch in sent.values() for job in batch.jobs]
        assert len(on_wire) == len(set(on_wire)), "a job in two sent batches"
        for batch in sent.values():
            assert len({job.batch_key() for job in batch.jobs}) == 1
            assert all(job.state is JobState.RUNNING for job in batch.jobs)


EngineMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestEngineLifecycle = EngineMachine.TestCase


def test_long_finished_jobs_are_forgotten(tmp_path, monkeypatch):
    """A finished job stays readable until more than ``STORE_ENTRIES`` jobs
    have finished after it (by then the store has evicted its proof);
    then ``status`` and ``result`` raise ``KeyError`` as for an id never
    issued.  A job still on the wire is never forgotten."""
    monkeypatch.setattr(engine_module, "STORE_ENTRIES", 2)
    clock = Clock()
    engine = FakeTransport(
        ServiceConfig(max_batch=1, max_wait=0.0, store_dir=str(tmp_path)),
        clock,
    )
    circuit = CircuitSpec("SHAL", scale="micro")
    held = engine.submit(circuit, IMAGE)
    engine.step(clock.now)
    (held_batch,) = engine.wire
    finished = []
    for _ in range(6):
        finished.append(engine.submit(circuit, IMAGE))
        engine.step(clock.now)
        (batch_id,) = set(engine.wire) - {held_batch}
        batch = engine.wire.pop(batch_id)
        assert engine.complete(engine.take(batch_id), answer(batch)) == []
    kept = finished[-3:]  # the newest, and two finished after the oldest
    assert sorted(engine._jobs) == sorted([held] + kept)
    assert engine.status(held) is JobState.RUNNING
    for job_id in kept:
        assert engine.result(job_id, timeout=0).proof == job_id.encode()
    for job_id in finished[:-3] + ["job-999999"]:
        with pytest.raises(KeyError):
            engine.status(job_id)
        with pytest.raises(KeyError):
            engine.result(job_id, timeout=0)


class TestNoDrift:
    CIRCUIT = CircuitSpec(
        "SHAL", scale="micro", gadgets="strict", relu_mode="lookup"
    )

    def test_both_transports_build_the_same_spec(self, tmp_path):
        """The cluster's copy of the spec builder had lost ``relu_mode``;
        now the submitted spec rides on the job and one ``batch_spec``
        reads it back."""
        service = ProvingService(  # max_wait: the job is held, never run
            max_workers=1, store_dir=str(tmp_path / "s"),
            max_wait=3600.0, deterministic=True,
        )
        coord = ClusterCoordinator(ClusterConfig(service=ServiceConfig(
            store_dir=str(tmp_path / "c"), deterministic=True)))
        specs = []
        for engine in (service, coord):
            job = engine.job(engine.submit(self.CIRCUIT, IMAGE))
            assert job.circuit is self.CIRCUIT
            specs.append(
                engine.batch_spec(Batch(1, job.batch_key(), [job], 0.0))
            )
        service.shutdown(drain=False)
        local, remote = specs
        assert local == remote
        assert CircuitSpec.from_mapping(local) == self.CIRCUIT

    def test_one_service_two_profiles(self, tmp_path):
        """The lowering is the submitter's choice: one service, and one
        cluster with an inline node, each prove a lean and a strict
        SHAL:micro job in one run — two batches, two verifying keys, each
        the key ``zeno prove`` derives from the spec and the serve CRS
        seed — and the two transports return the same proof bytes."""
        lean = CircuitSpec("SHAL", scale="micro")
        circuits = [lean, replace(lean, gadgets="strict")]
        expected = [
            serialize_verifying_key(groth16.setup(
                c.compile(c.image(7)).cs, rng=random.Random(0x5E70)
            ).verifying_key)
            for c in circuits
        ]
        assert expected[0] != expected[1]

        def run(engine):
            job_ids = [engine.submit(c, image_seed=7) for c in circuits]
            results = [engine.result(j, timeout=300) for j in job_ids]
            assert engine.stats()["batches"]["runs"] == 2
            vks = [engine.store.get(r.store_keys["vk"]) for r in results]
            assert vks == expected
            return [r.proof for r in results]

        with ProvingService(
            max_workers=1, max_wait=0.0, deterministic=True,
            store_dir=str(tmp_path / "s"),
        ) as service:
            local = run(service)
        cfg = ClusterConfig(service=ServiceConfig(
            max_wait=0.0, deterministic=True, store_dir=str(tmp_path / "c")))
        with ClusterCoordinator(cfg) as coord:
            node = WorkerNode(coord.address, node_id="n1", mode="inline").start()
            try:
                assert run(coord) == local
            finally:
                node.stop()


def test_one_scheduler_under_src():
    """The queue, the batcher and the lifecycle methods exist once: only
    ``serve/engine.py`` builds a ``JobQueue``/``MicroBatcher``, and no
    module re-grows a private copy of the engine's methods."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    sources = {
        str(path.relative_to(src)): path.read_text() for path in src.rglob("*.py")
    }
    builds = re.compile(r"\b(JobQueue|MicroBatcher)\(")
    assert {
        name for name, text in sources.items() if builds.search(text)
    } == {"serve/engine.py"}
    for method in ("_requeue_or_fail", "_finalize", "_audit_reject",
                   "_synthesize"):
        count = sum(text.count(f"def {method}(") for text in sources.values())
        assert count <= 1, f"{method} defined {count} times under src/repro"
    for method in ("requeue_or_fail", "finalize", "audit_reject", "complete",
                   "batch_spec", "step", "submit"):
        owners = {
            name for name, text in sources.items()
            if name.startswith(("serve/", "cluster/"))
            and f"    def {method}(" in text
        }
        assert owners <= {"serve/engine.py"}, (method, owners)
