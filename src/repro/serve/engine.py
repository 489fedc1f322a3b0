"""The job engine: one scheduler for every way of running a proving job.

ZENO §6.1 shares a constraint system and proving key across a batch, which
only pays off if equal-key jobs reliably land in one batch.  That policy
lives here, once::

    submit() ─> JobQueue ─step─> MicroBatcher ─flush─> ready backlog ─> _send()
                   ▲                                                      │
                   └── requeue_or_fail (backoff, retry budget) <── take ──┤
    result() <── finalize (DONE / FAILED / TIMED_OUT) <── complete <──────┘

:class:`JobEngine` owns the queue, the micro-batcher, the backlog of
flushed batches awaiting room (with deadline reaping), the table of sent
batches, the artifact store, telemetry and the job table.  A subclass
supplies the transport — :meth:`_slot` ("is there room, and where") and
:meth:`_send` ("put this batch on the wire") — and feeds every answer back
through :meth:`take` and then :meth:`complete`, :meth:`audit_reject` or
:meth:`requeue_or_fail`.  :class:`repro.serve.service.ProvingService`
sends to a local process pool, :class:`repro.cluster.coordinator.
ClusterCoordinator` to TCP worker nodes.

All scheduling happens in :meth:`step`, which the subclass's loop thread
calls through :meth:`_loop`; tests drive ``step(now)`` directly with an
injected clock and no threads.  Listeners registered with
:meth:`add_listener` see every transition as ``fn(event, job, info)``:
``"queued"`` (``info["delay"]``, first enqueue and retries alike),
``"dispatched"`` (``info["batch_id"]``, as the batch goes to a worker)
and ``"terminal"`` (exactly once per job).
"""

from __future__ import annotations

import itertools
import tempfile
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

import numpy as np

from repro.core.spec import CircuitSpec
from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.jobs import JobQueue, JobResult, JobState, ProofJob
from repro.serve.store import ArtifactStore
from repro.serve.telemetry import ServiceTelemetry

Listener = Callable[[str, ProofJob, Dict[str, Any]], None]

POLL_INTERVAL = 0.01  # the loop's wake period (seconds) when nothing wakes it
# The artifact store's LRU bound, in entries.  The engine also forgets a
# finished job once more than this many jobs have finished after it: by
# then the store has evicted that job's proof.
STORE_ENTRIES = 256


class JobFailedError(RuntimeError):
    """Raised by :meth:`JobEngine.result` for FAILED/TIMED_OUT jobs."""

    def __init__(self, job: ProofJob) -> None:
        super().__init__(
            f"{job.job_id} ended {job.state.value}: {job.error or 'unknown'}"
        )
        self.job = job


class JobEngine:
    """Queue → micro-batch → send → retry/expire → finalize, minus transport.

    ``config`` is a :class:`repro.serve.service.ServiceConfig`; ``clock``
    replaces ``time.monotonic`` for every scheduling decision.
    """

    def __init__(self, config, clock: Callable[[], float] = time.monotonic):
        self._cfg = config
        self._clock = clock
        self._queue = JobQueue()
        self._batcher = MicroBatcher(config.max_batch, config.max_wait)
        self._ready: Deque[Batch] = deque()  # flushed, awaiting a slot
        self._sent: Dict[int, Batch] = {}  # batch_id -> batch at a worker
        self.telemetry = ServiceTelemetry()
        store_dir = config.store_dir or tempfile.mkdtemp(prefix="repro-serve-")
        self.store = ArtifactStore(store_dir, max_entries=STORE_ENTRIES)

        self._jobs: Dict[str, ProofJob] = {}  # live and recently finished
        self._finished: Deque[str] = deque()  # finished job ids, oldest first
        self._job_ids = itertools.count(1)
        self._lock = threading.RLock()
        self._terminal = threading.Condition(self._lock)  # job finalized
        self._wake = threading.Event()  # the loop has new work
        self._stop = False
        self._drain = False
        self._listeners: List[Listener] = []

    # -- transport (subclass) --------------------------------------------------------

    def _slot(self, now: float) -> Optional[Any]:
        """Whatever :meth:`_send` needs to place one more batch, or None
        when the transport has no room right now."""
        raise NotImplementedError

    def _send(
        self, slot: Any, batch: Batch, spec: dict, payloads: List[dict]
    ) -> None:
        """Hand ``batch`` to ``slot``.  The answer must come back through
        :meth:`take`; a failed send is a :meth:`requeue_or_fail`."""
        raise NotImplementedError

    # -- submission ------------------------------------------------------------------

    def submit(
        self,
        circuit: CircuitSpec,
        image: Optional[np.ndarray] = None,
        *,
        image_seed: Optional[int] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        tenant: str = "default",
        extra: Optional[dict] = None,
    ) -> str:
        """Enqueue one proving job of ``circuit`` on ``image`` (or the
        synthetic input ``image_seed`` names); returns its job id at once.
        Everything downstream — batch key, worker spec, warm cache — reads
        the job's spec."""
        if not isinstance(circuit, CircuitSpec):
            raise TypeError(f"circuit must be a CircuitSpec, got {circuit!r}")
        with self._lock:
            if self._stop or self._drain:
                raise RuntimeError("shutting down")
        cfg = self._cfg
        if image is None:
            image = circuit.image(image_seed)
        job = ProofJob(
            job_id=f"job-{next(self._job_ids):06d}",
            circuit=circuit,
            image=image,
            priority=priority,
            timeout=timeout,
            max_retries=cfg.max_retries if max_retries is None else max_retries,
            tenant=tenant,
            extra=extra or {},
        )
        job.submitted_at = self._clock()
        with self._lock:
            self._jobs[job.job_id] = job
        self.telemetry.record_submit(tenant=tenant)
        self._push(job, 0.0, job.submitted_at)
        # Sample depth at submit time too: a fast loop can otherwise drain
        # the queue between its own (poll-interval) samples and report a
        # zero peak for a workload that really queued.
        self.telemetry.record_queue_depth(max(1, self._queue.depth()))
        return job.job_id

    def _push(self, job: ProofJob, delay: float, now: float) -> None:
        self._queue.push(job, delay=delay, now=now)
        self._emit("queued", job, delay=delay)
        self._wake.set()

    # -- listeners -------------------------------------------------------------------

    def add_listener(self, listener: Listener) -> None:
        """Call ``listener(event, job, info)`` on every ``queued`` /
        ``dispatched`` / ``terminal`` transition, on the thread that made
        it (must not block long)."""
        with self._lock:
            self._listeners.append(listener)

    def _emit(self, event: str, job: ProofJob, **info: Any) -> None:
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            try:
                listener(event, job, info)
            except Exception:  # listeners must never break scheduling
                pass

    # -- inspection ------------------------------------------------------------------

    def job(self, job_id: str) -> ProofJob:
        with self._lock:
            return self._jobs[job_id]

    def status(self, job_id: str) -> JobState:
        return self.job(job_id).state

    def result(self, job_id: str, timeout: Optional[float] = None) -> JobResult:
        """Block until ``job_id`` is terminal; return its proof result.

        Raises :class:`JobFailedError` if the job failed or timed out,
        ``TimeoutError`` if it is still live after ``timeout`` seconds, and
        ``KeyError`` for an unknown id or a job finished more than
        :data:`STORE_ENTRIES` jobs ago (forgotten).
        """
        job = self.job(job_id)
        if not self._wait(lambda: job.state.terminal, timeout):
            raise TimeoutError(f"{job_id} still {job.state.value}")
        if job.state is not JobState.DONE:
            raise JobFailedError(job)
        assert job.result is not None
        return job.result

    def wait_all(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted job is terminal; False on timeout."""
        return self._wait(self._all_terminal, timeout)

    def _all_terminal(self) -> bool:
        return all(j.state.terminal for j in self._jobs.values())

    def _wait(self, done: Callable[[], bool], timeout: Optional[float]) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._terminal:
            while not done():
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._terminal.wait(timeout=remaining)
            return True

    def stats(self) -> dict:
        """JSON-safe snapshot of telemetry and the artifact store."""
        snap = self.telemetry.snapshot()
        snap["store"] = self.store.stats()
        return snap

    # -- the loop --------------------------------------------------------------------

    def _halt(self, drain: bool) -> None:
        """Refuse new submissions; ``drain`` lets accepted jobs finish."""
        with self._lock:
            if drain:
                self._drain = True
            else:
                self._stop = True
        self._wake.set()

    def _loop(self) -> None:
        while True:
            self._wake.clear()
            self.step()
            with self._lock:
                if self._stop or (self._drain and self._all_terminal()):
                    return
            self._wake.wait(timeout=POLL_INTERVAL)

    def step(self, now: Optional[float] = None) -> None:
        """One scheduling pass: expire, batch, reap the backlog, send."""
        now = self._clock() if now is None else now
        overdue = self._queue.expire(now)
        while True:
            job = self._queue.pop(now)
            if job is None:
                break
            if job.expired(now):
                overdue.append(job)
            else:
                self._batcher.add(job, now)
        with self._lock:
            force = self._drain or self._stop
        self._ready.extend(self._batcher.take_ready(now, force=force))
        # ``JobQueue.expire`` only sees queued jobs; with no room at the
        # transport a flushed batch can sit here past every deadline, which
        # must surface as TIMED_OUT rather than waiting forever.
        for batch in self._ready:
            overdue.extend(j for j in batch.jobs if j.expired(now))
            batch.jobs = [j for j in batch.jobs if not j.expired(now)]
        self._ready = deque(b for b in self._ready if b.jobs)
        for job in overdue:
            self.finalize(
                job, JobState.TIMED_OUT,
                error="deadline exceeded before dispatch",
            )
        while self._ready:
            slot = self._slot(now)
            if slot is None:
                break
            self._dispatch(slot, self._ready.popleft(), now)
        waiting = self._batcher.pending() + sum(len(b) for b in self._ready)
        with self._lock:
            inflight = sum(len(b) for b in self._sent.values())
        self.telemetry.record_queue_depth(self._queue.depth() + waiting)
        self.telemetry.record_gauges(
            batcher_pending=waiting, inflight_jobs=inflight
        )

    def batch_spec(self, batch: Batch) -> dict:
        """What a worker needs to build the batch's circuit and prover."""
        cfg, first = self._cfg, batch.jobs[0]
        spec = {
            **first.circuit.to_json(),
            "backend": cfg.backend,
            "audit": cfg.audit,
            "deterministic": cfg.deterministic,
        }
        # Per-layer aggregate fan-out: the whole batch shares one layer
        # (batch_key includes it), so the first job's dict speaks for all.
        aggregate = first.extra.get("aggregate")
        if aggregate:
            spec["aggregate"] = aggregate
        return spec

    def _dispatch(self, slot: Any, batch: Batch, now: float) -> None:
        payloads = []
        for job in batch.jobs:
            job.state = JobState.RUNNING
            job.started_at = now
            job.attempts += 1
            payload = {"job_id": job.job_id, "image": job.image}
            if "crash_token" in job.extra:
                payload["crash_token"] = job.extra["crash_token"]
            payloads.append(payload)
        with self._lock:
            self._sent[batch.batch_id] = batch
        for job in batch.jobs:
            self._emit("dispatched", job, batch_id=batch.batch_id)
        self._send(slot, batch, self.batch_spec(batch), payloads)

    # -- answers (transport threads) -------------------------------------------------

    def take(self, batch_id: int) -> Optional[Batch]:
        """Claim a sent batch for completion or rerouting.  None means it
        was already claimed (e.g. rerouted off a node that then answered),
        so exactly one caller ever settles a batch."""
        with self._lock:
            batch = self._sent.pop(batch_id, None)
        self._wake.set()
        return batch

    def complete(
        self,
        batch: Batch,
        out: dict,
        verdicts: Optional[List[bool]] = None,
        **store_keys: str,
    ) -> List[ProofJob]:
        """Store a worker's answer and finalize every job it proved.

        ``verdicts`` is an independent per-job check (None trusts the
        worker's own ``verified`` flag).  Returns the jobs left unproved —
        no result, or a failing verdict — for the caller to settle.
        """
        self.telemetry.record_batch(
            len(batch), out["cold"], out["phases"], out.get("msm_tables"),
            aggregate_layer=out.get("aggregate_layer"),
        )
        vk_key = self.store.put("vk", out["vk"])
        by_id = {r["job_id"]: r for r in out["results"]}
        unproved = []
        for i, job in enumerate(batch.jobs):
            res = by_id.get(job.job_id)
            if res is None or not (
                res["verified"] if verdicts is None else verdicts[i]
            ):
                unproved.append(job)
                continue
            job.result = JobResult(
                proof=res["proof"],
                public_inputs=[int(v) for v in res["public_inputs"]],
                logits=[int(v) for v in res["logits"]],
                verified=True,
                worker_pid=int(out["pid"]),
                batch_id=batch.batch_id,
                batch_size=len(batch),
                store_keys={
                    "proof": self.store.put("proof", res["proof"]),
                    "vk": vk_key,
                    **store_keys,
                },
            )
            self.finalize(job, JobState.DONE)
        return unproved

    def audit_reject(self, batch: Batch, out: dict) -> None:
        """Fail every job in an audit-rejected batch — no retries.

        The rejection is a property of the compiled circuit, not of the
        worker or the witness, so retrying would only re-pay compilation
        to hit the same verdict.
        """
        rejected = out["audit_rejected"]
        self.telemetry.record_audit_rejection(len(batch))
        for phase, seconds in out.get("phases", {}).items():
            self.telemetry.phases.add(phase, seconds)
        error = (
            f"circuit audit rejected batch: {rejected['errors']} error(s); "
            f"first: {rejected['first']}"
        )
        for job in batch.jobs:
            self.finalize(job, JobState.FAILED, error=error)

    def requeue_or_fail(self, jobs: List[ProofJob], error: str) -> None:
        """Retry each job with backoff, or end it once its deadline or
        retry budget is spent."""
        now = self._clock()
        for job in jobs:
            if job.expired(now):
                self.finalize(
                    job, JobState.TIMED_OUT, error="deadline exceeded"
                )
            elif job.attempts > job.max_retries:
                self.finalize(job, JobState.FAILED, error=error)
            else:
                self.telemetry.record_retry()
                job.state = JobState.QUEUED
                self._push(job, job.next_backoff(), now)

    def finalize(
        self, job: ProofJob, state: JobState, error: Optional[str] = None
    ) -> None:
        with self._terminal:
            if job.state.terminal:
                return  # one terminal state, one ``terminal`` event
            job.state = state
            job.error = error
            job.finished_at = self._clock()
            self._terminal.notify_all()
        self.telemetry.record_terminal(state.value, tenant=job.tenant)
        self._emit("terminal", job)
        with self._lock:  # after the listeners, so each one saw the job
            self._finished.append(job.job_id)
            if len(self._finished) > STORE_ENTRIES + 1:
                del self._jobs[self._finished.popleft()]
