"""`repro.serve` — a batched, multi-worker Groth16 proving service.

Turns the one-shot compiler/prover pipeline into a long-running service:
jobs — each naming its circuit with one checked `CircuitSpec` — enter a
priority queue (:mod:`repro.serve.jobs`), an adaptive micro-batcher
groups jobs for the same circuit so the §6.1 batch-specialized
constraint-system sharing is exercised on the serving path
(:mod:`repro.serve.batcher`), and a process worker pool with warm
per-worker proving-key caches executes them (:mod:`repro.serve.workers`).
Artifacts land in a content-addressed store (:mod:`repro.serve.store`) and
live counters are exported as a JSON snapshot
(:mod:`repro.serve.telemetry`).

Entry point: :class:`repro.serve.service.ProvingService`, the local-pool
transport of the one scheduler in :mod:`repro.serve.engine`.
"""

from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.engine import JobEngine, JobFailedError
from repro.serve.jobs import JobQueue, JobResult, JobState, ProofJob
from repro.serve.service import ProvingService, ServiceConfig
from repro.serve.store import ArtifactStore
from repro.serve.telemetry import ServiceTelemetry

__all__ = [
    "ArtifactStore",
    "Batch",
    "JobEngine",
    "JobFailedError",
    "JobQueue",
    "JobResult",
    "JobState",
    "MicroBatcher",
    "ProofJob",
    "ProvingService",
    "ServiceConfig",
    "ServiceTelemetry",
]
