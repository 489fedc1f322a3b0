"""`repro.cluster` — a distributed multi-node proving cluster with failover.

Scales :mod:`repro.serve` past one machine: a :class:`ClusterCoordinator`
owns the job queue and §6.1 micro-batcher and shards ready batches over
TCP to registered :class:`WorkerNode` daemons, each wrapping the existing
warm-cache worker pool (compiled circuits, CRS, fixed-base ``msm_tables``
per node).  The wire format (:mod:`repro.cluster.protocol`) is a
length-prefixed, versioned, CRC-checked frame codec whose proof/key blobs
are produced and validated by :mod:`repro.snark.serialize`.

Robustness is first-class: heartbeats with liveness timeouts, per-node
circuit breakers, bounded per-node in-flight windows, retry-with-backoff
rerouting off dead or faulty nodes, and graceful drain.  The coordinator
batch-verifies every returned proof against the VK
(:mod:`repro.cluster.verification`) before acking, so a faulty node can
never corrupt results.

Jobs enter through :meth:`ClusterCoordinator.submit`, called in-process
by the gateway's :class:`~repro.gateway.durable.DurableCoordinator`; the
coordinator's TCP port serves worker nodes only.  Entry points:
``python -m repro.cli gateway`` (coordinator + journal + HTTP),
``python -m repro.cli cluster worker`` (one node) and ``python -m
repro.cli cluster submit`` (an HTTP client of the gateway).
"""

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.cluster.node import WorkerNode
from repro.cluster.protocol import (
    ConnectionClosed,
    MsgType,
    ProtocolError,
    PROTOCOL_VERSION,
)
from repro.cluster.verification import BatchVerdict, verify_claims

__all__ = [
    "BatchVerdict",
    "ClusterConfig",
    "ClusterCoordinator",
    "ConnectionClosed",
    "MsgType",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WorkerNode",
    "verify_claims",
]
