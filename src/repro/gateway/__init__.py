"""``repro.gateway`` — durable HTTP front door for the proving cluster.

The cluster coordinator (`repro.cluster`) holds every job in memory and
speaks a bespoke TCP protocol: a coordinator crash loses all queued work
and only the ``zeno`` CLI can submit jobs.  This package adds the three
pieces a production front door needs:

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

``python -m repro.cli gateway`` wires all four together.
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
