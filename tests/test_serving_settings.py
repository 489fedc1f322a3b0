"""The serving stack's settable values, pinned.

Each server-side class offers exactly the settings a deployment sets.  A
value no deployment sets to a second value is a module constant holding
the default it had as a setting, so putting a removed setting back (or
adding a new one) fails :func:`test_each_class_offers_exactly_its_settings`.
The eight classes hold 35 values (50 before these became constants).
"""

import dataclasses
import inspect

import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator, WorkerNode
from repro.cluster import coordinator, node
from repro.gateway import (
    AutoscalerConfig,
    GatewayConfig,
    InProcessNodeLauncher,
    SubprocessNodeLauncher,
    autoscale,
    http,
)
from repro.serve import ServiceConfig, engine, jobs
from repro.serve.workers import WorkerPool

SETTINGS = {
    ServiceConfig: {
        "max_workers", "max_batch", "max_wait", "max_retries", "backend",
        "store_dir", "audit", "deterministic",
    },
    ClusterConfig: {
        "host", "port", "heartbeat_timeout", "node_window", "service",
    },
    GatewayConfig: {
        "host", "port", "api_keys", "tenant_weights", "rate", "burst",
        "gadgets",
    },
    AutoscalerConfig: {
        "min_nodes", "max_nodes", "scale_up_backlog", "scale_down_idle",
    },
    WorkerNode: {"node_id", "pool_workers", "window", "mode", "prewarm"},
    InProcessNodeLauncher: {"mode", "pool_workers", "window"},
    SubprocessNodeLauncher: {"pool_workers", "window"},
    WorkerPool: {"max_workers"},
}


def settings_of(cls) -> set:
    """A dataclass's fields, or what its constructor takes besides the
    coordinator address every node and launcher needs."""
    if dataclasses.is_dataclass(cls):
        return {f.name for f in dataclasses.fields(cls)}
    return set(inspect.signature(cls.__init__).parameters) - {
        "self", "address"
    }


@pytest.mark.parametrize("cls", list(SETTINGS), ids=lambda c: c.__name__)
def test_each_class_offers_exactly_its_settings(cls):
    assert settings_of(cls) == SETTINGS[cls]


def test_removed_settings_are_constants_with_their_old_defaults():
    assert engine.POLL_INTERVAL == 0.01
    assert engine.STORE_ENTRIES == 256
    assert jobs.BACKOFF_BASE == 0.05
    assert node.HEARTBEAT_INTERVAL == 0.5
    assert node.CONNECT_TIMEOUT == 10.0
    assert coordinator.BREAKER_THRESHOLD == 3
    assert coordinator.BREAKER_RESET == 5.0
    assert http.ADMISSION_WORKERS == 8
    assert autoscale.POLL_INTERVAL == 0.25
    assert autoscale.COOLDOWN == 1.0


class TestHeartbeatTimeout:
    """A timeout at or below the node beat period would declare every idle
    node dead between two of its beats."""

    @pytest.mark.parametrize("timeout", [0.3, node.HEARTBEAT_INTERVAL])
    def test_at_or_below_the_beat_period_is_refused(self, timeout):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            ClusterConfig(heartbeat_timeout=timeout)

    def test_coordinator_override_is_checked(self):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            ClusterCoordinator(heartbeat_timeout=0.3)
