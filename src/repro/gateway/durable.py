""":class:`DurableCoordinator`: a crash-safe shell around the cluster.

The cluster coordinator keeps every job in memory; this wrapper gives it
a memory that survives SIGKILL.  It is the only caller of
:meth:`ClusterCoordinator.submit` in a deployment (the coordinator's port
serves nodes only), so every job passes the gateway's auth, rate limit
and journal:

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

The journal's replayed state (``JobJournal.state``) is the only job
table: every query reads it, and it holds only fsynced records, so
nothing served can be taken back by a crash.

Gateway job ids (``g-...``) are stable across restarts and ride on each
engine job as ``extra["gid"]``; the engine ids they map to are an
implementation detail of one coordinator epoch.  Submissions may carry a
client ``request_id`` for idempotency: retrying a submit whose ack was
lost returns the original job instead of proving twice.
"""

from __future__ import annotations

import time
import uuid
from collections import Counter
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
    """Journal + coordinator + recovery, behind one synchronous API.

    Every job it serves is read from ``journal.state``; of its own it
    keeps only each unfinished job's engine id in this epoch (for the live
    state :meth:`status` overlays) and the highest ``seq`` it found at
    start-up (a job at or below it is ``recovered``).
    """

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        journal: JobJournal,
    ) -> None:
        self.coordinator = coordinator
        self.journal = journal
        # gid -> this epoch's job id, until the terminal record is durable
        self._engine_ids: Dict[str, str] = {}
        self._boot_seq = journal.last_seq
        self.recovered_pending = 0  # jobs requeued by WAL replay
        self.recovered_completed = 0  # results served from the journal

        coordinator.add_listener(self._on_event)
        self._recover()

    # -- recovery --------------------------------------------------------------------

    def _recover(self) -> None:
        with self.journal.committed:
            state = self.journal.state
            self.recovered_completed = len(state.completed())
            pending = sorted(
                state.pending(), key=lambda j: j.spec.get("seq", 0)
            )
        # Everything without a durable terminal record goes back to the
        # (fresh) coordinator in submit order, under a new epoch-local id.
        for job in pending:
            try:
                circuit, image = _job_input(job.spec)
            except ValueError as exc:
                # Written before submits were checked at the door: it can
                # never prove, and must not stop the gateway from starting.
                self._finish({
                    "t": "failed", "gid": job.gid, "state": "failed",
                    "error": f"unreplayable submit record: {exc}",
                    "attempts": job.attempts,
                })
                continue
            self._enqueue(job.spec, circuit, image)
            self.recovered_pending += 1

    def _enqueue(
        self, record: Dict[str, Any], circuit: CircuitSpec, image: np.ndarray
    ) -> None:
        gid = record["gid"]
        self._engine_ids[gid] = self.coordinator.submit(
            circuit,
            image,
            priority=record.get("priority", 0),
            timeout=record.get("timeout"),
            tenant=record.get("tenant", "default"),
            extra={"gid": gid},
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
        before (this run or any previous one) returns the original job,
        once its record is durable.  The input is built before anything
        is written, so a job that cannot be proved is refused here rather
        than journaled.
        """
        if image is None:
            image = circuit.image(image_seed)
            source: Dict[str, Any] = {"image_seed": image_seed}
        else:
            source = {"image": encode_image(image)}
        record: Dict[str, Any] = {
            "t": "submit",
            "gid": f"g-{uuid.uuid4().hex[:12]}",
            "ts": time.time(),
            "tenant": tenant,
            "request_id": request_id,
            **circuit.to_json(),
            "priority": priority,
            "timeout": timeout,
            **source,
        }
        gid = self.journal.submit(record)  # the journal numbers ``seq``
        if gid == record["gid"]:
            self._enqueue(record, circuit, image)
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
        job = self.job(gid)
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
        self._finish(record)

    def _finish(self, record: Dict[str, Any]) -> None:
        """Journal a terminal record.  The journal shows it only once it
        is fsynced: a client never observes a result a crash could take
        back."""
        self.journal.append(record, durable=True)
        self._engine_ids.pop(record["gid"], None)
        self.journal.compact()  # no-op below the size threshold

    # -- queries (each reads the journal's current state) ----------------------------

    def job(self, gid: str) -> Optional[GatewayJob]:
        with self.journal.committed:
            return self.journal.state.jobs.get(gid)

    def _recovered(self, job: GatewayJob) -> bool:
        return int(job.spec.get("seq", 0)) <= self._boot_seq

    def status(self, gid: str) -> Optional[Dict[str, Any]]:
        """JSON-safe status payload, with this epoch's live engine state
        for a job the journal has not seen finish."""
        with self.journal.committed:
            job = self.journal.state.jobs.get(gid)
            if job is None:
                return None
            view = {
                "job_id": gid,
                "state": job.state,
                "tenant": job.tenant,
                "attempts": job.attempts,
                "recovered": self._recovered(job),
            }
            if job.error:
                view["error"] = job.error
            terminal = job.terminal
        engine_id = self._engine_ids.get(gid)
        if not terminal and engine_id is not None:
            live = self.coordinator.status(engine_id)
            if not live.terminal:
                view["state"] = live.value
        return view

    def result_view(self, gid: str) -> Optional[Dict[str, Any]]:
        """JSON-safe result payload, or None if not DONE yet."""
        with self.journal.committed:
            job = self.journal.state.jobs.get(gid)
            if job is None or job.state != "done":
                return None
            res, attempts = job.result, job.attempts
            recovered = self._recovered(job)
        payload = {
            "job_id": gid,
            "state": "done",
            "proof": res["proof"],
            "public_inputs": list(res["public_inputs"]),
            "logits": list(res["logits"]),
            "attempts": attempts,
            "batch_size": res.get("batch_size"),
            "store_keys": res.get("store_keys", {}),
            "recovered": recovered,
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
        with self.journal.committed:
            while True:
                job = self.journal.state.jobs.get(gid)
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if job is None or job.terminal or (
                    remaining is not None and remaining <= 0
                ):
                    return job
                self.journal.committed.wait(timeout=remaining)

    def jobs_snapshot(self) -> Dict[str, int]:
        with self.journal.committed:
            return dict(
                Counter(job.state for job in self.journal.state.jobs.values())
            )

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
