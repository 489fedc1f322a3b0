"""``repro.gateway`` — the proving cluster's one front door.

The cluster coordinator (`repro.cluster`) holds every job in memory, and
its TCP port serves worker nodes only: a job enters the cluster through
this package, which adds the pieces a production front door needs:

* :mod:`repro.gateway.journal` — a crash-durable append-only WAL
  recording every job submission, state transition, and result, with
  group-commit fsync batching, torn-tail recovery, and log compaction;
* :mod:`repro.gateway.durable` — :class:`DurableCoordinator`, wrapping a
  :class:`~repro.cluster.coordinator.ClusterCoordinator` with the
  journal: acked submissions survive a SIGKILL, recovery resubmits the
  WAL's pending jobs to the coordinator, and completed jobs are never
  re-proved (exactly-once results);
* :mod:`repro.gateway.http` — an asyncio HTTP/JSON server with
  ``submit`` / ``status`` / ``result`` / ``metrics`` / ``healthz``
  endpoints, API-key auth, per-tenant token-bucket rate limiting, and
  weighted fair-share admission;
* :mod:`repro.gateway.autoscale` — an autoscaler watching queue-depth /
  in-flight gauges and spawning or draining
  :class:`~repro.cluster.node.WorkerNode` daemons between configurable
  min/max bounds.

``python -m repro.cli gateway`` wires all four together, and
``python -m repro.cli cluster submit`` is a client of its HTTP door.
"""

from repro.gateway.autoscale import (
    Autoscaler,
    AutoscalerConfig,
    InProcessNodeLauncher,
    SubprocessNodeLauncher,
)
from repro.gateway.durable import DurableCoordinator
from repro.gateway.http import GatewayConfig, GatewayServer
from repro.gateway.journal import (
    GatewayJob,
    JobJournal,
    JournalError,
    RecoveredState,
    iter_records,
    recover_state,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "DurableCoordinator",
    "GatewayConfig",
    "GatewayJob",
    "GatewayServer",
    "InProcessNodeLauncher",
    "JobJournal",
    "JournalError",
    "RecoveredState",
    "SubprocessNodeLauncher",
    "iter_records",
    "recover_state",
]
