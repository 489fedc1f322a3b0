"""The durable gateway's job lifecycle, as a hypothesis state machine.

A :class:`DurableCoordinator` over a never-started
:class:`ClusterCoordinator` (no threads, no nodes) and a real
:class:`JobJournal`.  Rules submit with fresh and repeated request ids,
finish engine jobs done or failed, compact, crash (the next epoch opens a
copy of the WAL cut at some byte at or after the last acknowledged
durable append) and restart cleanly.  The invariants are the gateway's
durability contract: the journal's state is exactly what replaying its
file gives, nothing acknowledged is ever lost, a request id names one
job, and a done result reads back byte-identical in every later epoch.

The last test pins the structure that makes this hold: the journal's
state is the only job table.
"""

import dataclasses
import shutil
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.core.spec import CircuitSpec
from repro.gateway import DurableCoordinator, GatewayJob, JobJournal
from repro.gateway.journal import encode_record, recover_state
from repro.serve import JobState, ServiceConfig, engine
from repro.serve.jobs import JobResult

CIRCUIT = CircuitSpec("SHAL", scale="micro")
REQUEST_IDS = [None, "r0", "r1", "r2"]


class GatewayMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="repro-gateway-test-"))
        self.epoch = 0
        self.acked = set()  # every gid a submit returned
        self.owner = {}  # request id -> the gid its first submit returned
        self.proofs = {}  # gid -> proof hex of an acknowledged done record
        self.before_start = set()  # acked gids submitted in an earlier epoch
        self._start(self.dir / "journal-0.wal")

    def _start(self, path):
        """One gateway epoch on the WAL at ``path``."""
        self.before_start = set(self.acked)
        self.coord = ClusterCoordinator(ClusterConfig(
            service=ServiceConfig(store_dir=str(self.dir / "store"))
        ))
        self.engine_jobs = []  # this epoch's engine jobs, in submit order
        self.coord.add_listener(self._on_event)
        self.journal = JobJournal(path, batch_window=0)
        self.durable = DurableCoordinator(self.coord, self.journal)

    def _on_event(self, event, job, info):
        if event == "queued":  # no retries here: once per engine job
            self.engine_jobs.append(job)

    def _live(self):
        return [job for job in self.engine_jobs if not job.state.terminal]

    def teardown(self):
        self.journal.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- rules -----------------------------------------------------------------------

    @rule(image_seed=st.integers(0, 3), request_id=st.sampled_from(REQUEST_IDS))
    def submit(self, image_seed, request_id):
        gid = self.durable.submit(
            CIRCUIT, image_seed=image_seed, request_id=request_id
        )
        self.acked.add(gid)
        if request_id is not None:
            assert self.owner.setdefault(request_id, gid) == gid

    @precondition(lambda self: self._live())
    @rule(data=st.data(), done=st.booleans())
    def finish(self, data, done):
        job = data.draw(st.sampled_from(self._live()))
        gid = job.extra["gid"]
        if done:
            job.result = JobResult(
                proof=gid.encode(), public_inputs=[1, 2], logits=[3],
                verified=True, worker_pid=0, batch_id=0, batch_size=1,
            )
            self.coord.finalize(job, JobState.DONE)
            self.proofs[gid] = gid.encode().hex()
        else:
            self.coord.finalize(job, JobState.FAILED, error="node died")

    @rule()
    def compact(self):
        assert self.journal.compact(force=True)

    @rule(data=st.data())
    def crash(self, data):
        """SIGKILL with records in flight: the file keeps every acked
        append and some byte-prefix of what was being written."""
        durable = self.journal.path.read_bytes()
        in_flight = b"".join(
            encode_record(record)
            for job in self._live()
            for record in (
                {"t": "dispatched", "gid": job.extra["gid"], "batch_id": 1},
                {"t": "done", "gid": job.extra["gid"], "attempts": 1,
                 "proof": "ff", "public_inputs": [], "logits": [],
                 "batch_size": 1},
            )
        )
        cut = data.draw(st.integers(0, len(in_flight)), label="cut")
        self.journal.close()
        self.epoch += 1
        path = self.dir / f"journal-{self.epoch}.wal"
        path.write_bytes(durable + in_flight[:cut])
        self._start(path)

    @rule()
    def restart(self):
        self.journal.close()
        self._start(self.journal.path)

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def state_is_what_the_file_replays_to(self):
        self.journal.sync()
        assert self.journal.state == recover_state(self.journal.path)

    @invariant()
    def acked_jobs_survive(self):
        assert self.acked <= set(self.journal.state.jobs)
        for gid in self.acked:
            recovered = self.durable.status(gid)["recovered"]
            assert recovered == (gid in self.before_start), gid

    @invariant()
    def one_job_per_request_id(self):
        jobs = self.journal.state.jobs.values()
        rids = Counter(job.spec["request_id"] for job in jobs)
        assert all(n == 1 for rid, n in rids.items() if rid is not None)
        for rid, gid in self.owner.items():
            assert self.journal.state.request_index[rid] == gid

    @invariant()
    def engine_ids_only_for_unfinished_jobs(self):
        jobs = self.journal.state.jobs
        assert all(not jobs[gid].terminal for gid in self.durable._engine_ids)

    @invariant()
    def never_double_proved(self):
        assert self.journal.state.duplicate_done == 0

    @invariant()
    def done_results_read_back_identical(self):
        for gid, proof in self.proofs.items():
            assert self.durable.result_view(gid)["proof"] == proof


GatewayMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestGatewayLifecycle = GatewayMachine.TestCase


def test_the_journal_state_is_the_only_job_table(tmp_path):
    """``DurableCoordinator`` keeps no job of its own — no container of
    ``GatewayJob``, no request-id index — and ``GatewayJob`` carries only
    what the journal's records say."""
    coord = ClusterCoordinator(ClusterConfig(
        service=ServiceConfig(store_dir=str(tmp_path / "store"))
    ))
    with JobJournal(tmp_path / "j.wal", batch_window=0) as journal:
        durable = DurableCoordinator(coord, journal)
        durable.submit(CIRCUIT, image_seed=1, request_id="r1")
        durable.submit(CIRCUIT, image_seed=2)
        for name, held in vars(durable).items():
            if isinstance(held, (dict, list, set, tuple)):
                items = held.values() if isinstance(held, dict) else held
                assert not any(isinstance(x, GatewayJob) for x in items), name
                assert "r1" not in held, name
    assert not hasattr(durable, "_request_index")
    fields = {f.name for f in dataclasses.fields(GatewayJob)}
    assert not fields & {"coordinator_id", "recovered"}


def test_finished_jobs_leave_no_engine_state(tmp_path, monkeypatch):
    """Five jobs submitted and finished: the gateway keeps no engine id for
    any of them, and the engine (its bound patched to 2) only the three
    newest; every status still reads from the journal."""
    monkeypatch.setattr(engine, "STORE_ENTRIES", 2)
    coord = ClusterCoordinator(ClusterConfig(
        service=ServiceConfig(store_dir=str(tmp_path / "store"))
    ))
    with JobJournal(tmp_path / "j.wal", batch_window=0) as journal:
        durable = DurableCoordinator(coord, journal)
        gids = [durable.submit(CIRCUIT, image_seed=i) for i in range(5)]
        assert len(durable._engine_ids) == 5
        for job in list(coord._jobs.values()):
            coord.finalize(job, JobState.FAILED, error="node died")
        assert durable._engine_ids == {}
        assert len(coord._jobs) == 3
        assert [durable.status(gid)["state"] for gid in gids] == ["failed"] * 5
