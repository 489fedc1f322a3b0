""":class:`DurableCoordinator`: a crash-safe shell around the cluster.

The cluster coordinator keeps every job in memory; this wrapper gives it
a memory that survives SIGKILL:

* every accepted submission is appended to the :class:`JobJournal`
  (durable — the fsync happens before the caller gets its job id back);
* the coordinator's engine listener streams every transition into the
  journal: ``queued`` and ``dispatched`` as non-durable records that ride
  along with the next group commit, ``terminal`` as a durable ``done`` /
  ``failed`` record carrying the full result (proof bytes, public inputs,
  logits, artifact-store keys);
* on construction, the WAL is replayed: completed jobs come back as
  served-from-journal results (never re-proved), pending jobs are
  resubmitted to the coordinator in ``seq`` order — zero jobs lost, zero
  jobs double-proved.  A pending record that names no valid circuit
  (written before submits were checked at the door) gets a durable
  ``failed`` record instead of stopping the restart.

A submit names its circuit with one :class:`~repro.core.spec.CircuitSpec`;
the submit record carries it as the spec's flat keys next to the job's
own (``gid``, ``seq``, ``tenant``, ``priority``, ``image_seed`` …).

Gateway job ids (``g-...``) are stable across restarts and ride on each
engine job as ``extra["gid"]``; the engine ids they map to are an
implementation detail of one coordinator epoch.  Submissions may carry a
client ``request_id`` for idempotency: retrying a submit whose ack was
lost returns the original job instead of proving twice.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.cluster.coordinator import ClusterCoordinator
from repro.core.spec import CircuitSpec
from repro.gateway.journal import (
    GatewayJob,
    JobJournal,
    decode_image,
    encode_image,
)
from repro.serve.jobs import JobState, ProofJob


class DurableCoordinator:
    """Journal + coordinator + recovery, behind one synchronous API."""

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        journal: JobJournal,
    ) -> None:
        self.coordinator = coordinator
        self.journal = journal
        self._lock = threading.Lock()
        self._terminal_cond = threading.Condition(self._lock)
        self._jobs: Dict[str, GatewayJob] = {}
        self._request_index: Dict[str, str] = {}
        self._seq = 0
        self.recovered_pending = 0  # jobs requeued by WAL replay
        self.recovered_completed = 0  # results served from the journal

        coordinator.add_listener(self._on_event)
        self._recover()

    # -- recovery --------------------------------------------------------------------

    def _recover(self) -> None:
        state = self.journal.state
        for rec in state.jobs.values():
            # A copy: the journal applies each record to its own state
            # before the fsync, and nothing may be visible before durable.
            self._jobs[rec.gid] = replace(
                rec, recovered=True,
                state=rec.state if rec.terminal else "queued",
            )
            self._seq = max(self._seq, int(rec.spec.get("seq", 0)))
        self._request_index.update(state.request_index)
        self.recovered_completed = len(state.completed())
        # Everything without a durable terminal record goes back to the
        # (fresh) coordinator in submit order, under a new epoch-local id.
        for rec in sorted(state.pending(), key=lambda j: j.spec.get("seq", 0)):
            job = self._jobs[rec.gid]
            try:
                circuit, image = _job_input(job.spec)
            except ValueError as exc:
                # Written before submits were checked at the door: it can
                # never prove, and must not stop the gateway from starting.
                self._finish(job, {
                    "t": "failed", "gid": job.gid, "state": "failed",
                    "error": f"unreplayable submit record: {exc}",
                    "attempts": job.attempts,
                })
                continue
            self._enqueue(job, circuit, image)
            self.recovered_pending += 1

    def _enqueue(
        self, job: GatewayJob, circuit: CircuitSpec, image: np.ndarray
    ) -> None:
        job.coordinator_id = self.coordinator.submit(
            circuit,
            image,
            priority=job.spec.get("priority", 0),
            timeout=job.spec.get("timeout"),
            tenant=job.tenant,
            extra={"gid": job.gid},
        )

    # -- submission ------------------------------------------------------------------

    def submit(
        self,
        circuit: CircuitSpec,
        *,
        image: Optional[np.ndarray] = None,
        image_seed: Optional[int] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        tenant: str = "default",
        request_id: Optional[str] = None,
    ) -> str:
        """Durably accept one job of ``circuit`` on ``image`` (or the
        synthetic input ``image_seed`` names); returns its stable gateway
        id.

        The id is handed back only after the submit record is fsynced:
        an acked job survives any later crash.  A ``request_id`` seen
        before (this run or any previous one) returns the original job.
        The input is built before anything is written, so a job that
        cannot be proved is refused here rather than journaled.
        """
        if request_id:
            with self._lock:
                gid = self._request_index.get(request_id)
                if gid is not None:
                    return gid
        if image is None:
            image = circuit.image(image_seed)
            source: Dict[str, Any] = {"image_seed": image_seed}
        else:
            source = {"image": encode_image(image)}
        gid = f"g-{uuid.uuid4().hex[:12]}"
        with self._lock:
            self._seq += 1
            seq = self._seq
        spec: Dict[str, Any] = {
            "t": "submit",
            "gid": gid,
            "seq": seq,
            "ts": time.time(),
            "tenant": tenant,
            "request_id": request_id,
            **circuit.to_json(),
            "priority": priority,
            "timeout": timeout,
            **source,
        }
        job = GatewayJob(gid, spec)
        with self._lock:
            self._jobs[gid] = job
            if request_id:
                self._request_index[request_id] = gid
        # Durable ack: the record is on disk before the caller sees gid.
        self.journal.append(spec, durable=True)
        self._enqueue(job, circuit, image)
        return gid

    # -- journal hook (coordinator threads) ------------------------------------------

    def _on_event(
        self, event: str, proof_job: ProofJob, info: Dict[str, Any]
    ) -> None:
        """The engine listener.  A :class:`JournalError` from a journal
        already closed at shutdown is dropped by the engine: a lost
        queued/dispatched record only loses telemetry, and recovery
        re-proves anything without a terminal record."""
        gid = proof_job.extra.get("gid")
        if gid is None:
            return  # submitted to the coordinator directly, not through us
        if event == "terminal":
            self._on_terminal(gid, proof_job)
        elif event == "queued":
            if proof_job.attempts:  # a retry: the submit record is the first
                self.journal.append(
                    {"t": "queued", "gid": gid,
                     "attempts": proof_job.attempts,
                     "delay": round(info["delay"], 4)}
                )
        else:
            self.journal.append(
                {"t": "dispatched", "gid": gid, "batch_id": info["batch_id"]}
            )

    def _on_terminal(self, gid: str, proof_job: ProofJob) -> None:
        with self._lock:
            job = self._jobs.get(gid)
            if job is None or job.terminal:
                return  # never write a second terminal record
        state = proof_job.state
        if state is JobState.DONE and proof_job.result is not None:
            res = proof_job.result
            record = {
                "t": "done",
                "gid": gid,
                "attempts": proof_job.attempts,
                "proof": res.proof.hex(),
                "public_inputs": [str(v) for v in res.public_inputs],
                "logits": [int(v) for v in res.logits],
                "batch_size": res.batch_size,
                "worker_pid": res.worker_pid,
                "store_keys": dict(res.store_keys),
            }
        else:
            record = {
                "t": "failed",
                "gid": gid,
                "state": state.value,
                "error": proof_job.error,
                "attempts": proof_job.attempts,
            }
        self._finish(job, record)

    def _finish(self, job: GatewayJob, record: Dict[str, Any]) -> None:
        """Journal a terminal record, then show it.  Durable before
        visible: a client must never observe a result that a crash could
        take back."""
        self.journal.append(record, durable=True)
        with self._terminal_cond:
            job.attempts = record["attempts"]
            if record["t"] == "done":
                job.state = "done"
                job.result = record
            else:
                job.state = record["state"]
                job.error = record["error"]
            self._terminal_cond.notify_all()
        self.journal.compact()  # no-op below the size threshold

    # -- queries ---------------------------------------------------------------------

    def job(self, gid: str) -> Optional[GatewayJob]:
        with self._lock:
            return self._jobs.get(gid)

    def status(self, gid: str) -> Optional[Dict[str, Any]]:
        job = self.job(gid)
        if job is None:
            return None
        view = job.public_view()
        if not job.terminal and job.coordinator_id is not None:
            try:
                live = self.coordinator.status(job.coordinator_id)
                view["state"] = (
                    live.value if not live.terminal else view["state"]
                )
            except KeyError:
                pass
        return view

    def result_view(self, gid: str) -> Optional[Dict[str, Any]]:
        """JSON-safe result payload, or None if not DONE yet."""
        job = self.job(gid)
        if job is None or job.state != "done" or job.result is None:
            return None
        res = job.result
        payload = {
            "job_id": gid,
            "state": "done",
            "proof": res["proof"],
            "public_inputs": list(res["public_inputs"]),
            "logits": list(res["logits"]),
            "attempts": res.get("attempts", job.attempts),
            "batch_size": res.get("batch_size"),
            "store_keys": res.get("store_keys", {}),
            "recovered": job.recovered,
        }
        vk_key = (res.get("store_keys") or {}).get("vk")
        if vk_key:
            try:
                payload["vk"] = self.coordinator.store.get(vk_key).hex()
            except KeyError:
                payload["vk"] = None  # evicted / pre-restart artifact
        return payload

    def wait_terminal(
        self, gid: str, timeout: Optional[float] = None
    ) -> Optional[GatewayJob]:
        """Block until ``gid`` is terminal (or timeout); returns the job."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._terminal_cond:
            job = self._jobs.get(gid)
            if job is None:
                return None
            while not job.terminal:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return job
                self._terminal_cond.wait(timeout=remaining)
            return job

    def jobs_snapshot(self) -> Dict[str, int]:
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts

    def stats(self) -> Dict[str, Any]:
        snap = self.coordinator.stats()
        snap["journal"] = self.journal.stats()
        snap["gateway_jobs"] = dict(
            self.jobs_snapshot(),
            recovered_pending=self.recovered_pending,
            recovered_completed=self.recovered_completed,
        )
        return snap

    def close(self) -> None:
        self.journal.close()


def _job_input(record: Dict[str, Any]) -> Tuple[CircuitSpec, np.ndarray]:
    """The circuit and image a submit record names (``ValueError`` if
    either is out of range).  Records written before the spec's lowering
    fields were journaled lack them and take the spec defaults."""
    circuit = CircuitSpec.from_mapping(record)
    if "image" in record:
        return circuit, decode_image(record["image"])
    return circuit, circuit.image(record.get("image_seed"))
