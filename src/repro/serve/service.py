"""The :class:`ProvingService`: the job engine over a local process pool.

Scheduling — queue, micro-batching, retries, deadlines, finalization — is
:class:`repro.serve.engine.JobEngine`; see that module for the lifecycle.
This module holds the engine's :class:`ServiceConfig` and the one
transport the in-process service needs: ready batches go to a
:class:`~repro.serve.workers.WorkerPool`, whose futures complete on the
executor's callback thread.  ``shutdown(drain=True)`` stops accepting work
and blocks until every accepted job reaches a terminal state.
"""

from __future__ import annotations

import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.serve.batcher import Batch
from repro.serve.engine import JobEngine, JobFailedError
from repro.serve.jobs import JobState
from repro.serve.workers import WorkerPool

__all__ = ["JobFailedError", "ProvingService", "ServiceConfig"]

@dataclass
class ServiceConfig:
    """Scheduling and proving options for one :class:`JobEngine`; which
    circuit a job proves is its own :class:`~repro.core.spec.CircuitSpec`.
    The loop's wake period and the store bound are constants of
    :mod:`repro.serve.engine`, the retry backoff one of
    :mod:`repro.serve.jobs`; a job has no deadline unless its submit
    names one."""

    max_workers: int = 2
    max_batch: int = 4  # micro-batcher size trigger
    max_wait: float = 0.05  # micro-batcher latency trigger (seconds)
    max_retries: int = 2  # extra attempts after a worker failure
    backend: str = "simulated"  # "simulated" | "bn254"
    store_dir: Optional[str] = None  # None = fresh temp directory
    # Pre-prove soundness audit of each cold circuit: jobs whose circuit
    # is lean (``CircuitSpec.gadgets``) fail it.
    audit: bool = False
    # Derive each proof's (r, s) blinding from the CRS seed + image digest
    # instead of fresh OS randomness.  Proofs become a pure function of the
    # job, so any two nodes proving the same job emit byte-identical bytes
    # — the cluster's cross-node equivalence checks depend on this.  Leave
    # False for deployments that want fresh per-proof blinding.
    deterministic: bool = False


class ProvingService(JobEngine):
    """Long-running batched proving service over the ZENO pipeline."""

    def __init__(self, config: Optional[ServiceConfig] = None, **overrides):
        self.config = replace(config or ServiceConfig(), **overrides)
        super().__init__(self.config)
        self._pool = WorkerPool(self.config.max_workers)
        self.worker_pids = self._pool.prewarm()
        self._dispatcher = threading.Thread(
            target=self._loop, name="repro-serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    def stats(self) -> dict:
        """JSON-safe snapshot of telemetry, store, and pool state."""
        snap = super().stats()
        snap["workers"] = {
            "max": self.config.max_workers,
            "pool_generation": self._pool.generation,
            "prewarmed_pids": self.worker_pids,
        }
        return snap

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the service; with ``drain`` wait for in-flight jobs first."""
        self._halt(drain)
        self._dispatcher.join(timeout=timeout)
        self._halt(drain=False)
        self._pool.shutdown(wait=drain)

    def __enter__(self) -> "ProvingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # -- transport: the local process pool -------------------------------------------

    def _slot(self, now: float) -> WorkerPool:
        return self._pool  # the executor queues internally: always room

    def _send(
        self, pool: WorkerPool, batch: Batch, spec: dict, payloads: List[dict]
    ) -> None:
        pool.submit_batch(spec, payloads).add_done_callback(
            lambda future: self._on_batch_done(batch, future)
        )

    def _on_batch_done(self, batch: Batch, future) -> None:
        """Runs on the executor callback thread."""
        self.take(batch.batch_id)
        try:
            out = future.result()
        except BrokenProcessPool as exc:
            self._pool.reset()
            self.requeue_or_fail(batch.jobs, f"worker died: {exc!r}")
        except Exception as exc:  # pickling errors, worker exceptions...
            self.requeue_or_fail(batch.jobs, f"batch failed: {exc!r}")
        else:
            if out.get("audit_rejected"):
                self.audit_reject(batch, out)
                return
            for job in self.complete(batch, out):
                self.finalize(
                    job, JobState.FAILED, error="proof failed verification"
                )
