"""Autoscaling hooks: grow and shrink the worker fleet from telemetry.

The :class:`Autoscaler` runs a small policy loop against the same
telemetry gauges the gateway exports over ``/metrics``: when queued +
in-flight work per node exceeds ``scale_up_backlog`` it launches another
:class:`~repro.cluster.node.WorkerNode`, and when the fleet has been
idle for ``scale_down_idle`` seconds it drains one back down — never
dropping below ``min_nodes`` or climbing above ``max_nodes``.  Scale-ups
are rate limited by :data:`COOLDOWN` so one burst doesn't overshoot the
fleet while freshly launched nodes are still warming their CRS caches.

Launch mechanics are pluggable:

* :class:`InProcessNodeLauncher` starts nodes inside the gateway process
  (inline proving threads — the right choice for tests and the crash
  benchmarks, where killing the gateway must take the whole fleet down
  with it);
* :class:`SubprocessNodeLauncher` shells out to
  ``python -m repro.cli cluster worker`` so each node gets its own
  process and multiprocessing pool, like a real deployment.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.node import WorkerNode

POLL_INTERVAL = 0.25  # seconds between two reads of the gauges
COOLDOWN = 1.0  # min seconds between scale-ups


class InProcessNodeLauncher:
    """Run worker nodes as threads inside the current process."""

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        mode: str = "inline",
        pool_workers: int = 1,
        window: int = 2,
    ) -> None:
        self.address = address
        self.mode = mode
        self.pool_workers = pool_workers
        self.window = window
        self._seq = 0

    def launch(self) -> WorkerNode:
        self._seq += 1
        node = WorkerNode(
            self.address,
            node_id=f"auto-{os.getpid()}-{self._seq}",
            mode=self.mode,
            pool_workers=self.pool_workers,
            window=self.window,
            prewarm=False,  # pool processes start with the first batch
        )
        node.start()
        return node

    def drain(self, node: WorkerNode) -> None:
        node.stop()


class SubprocessNodeLauncher:
    """Run worker nodes as ``zeno cluster worker`` subprocesses."""

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        pool_workers: int = 1,
        window: int = 2,
    ) -> None:
        self.address = address
        self.pool_workers = pool_workers
        self.window = window

    def launch(self) -> subprocess.Popen:
        host, port = self.address
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "cluster", "worker",
                "--connect", f"{host}:{port}",
                "--pool-workers", str(self.pool_workers),
                "--window", str(self.window),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def drain(self, proc: subprocess.Popen) -> None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


@dataclass
class AutoscalerConfig:
    min_nodes: int = 1
    max_nodes: int = 4
    # Scale up when (queued + in-flight) / live_nodes exceeds this.
    scale_up_backlog: float = 8.0
    # Scale down after this many seconds with an empty queue and no
    # in-flight jobs (and more than min_nodes running).
    scale_down_idle: float = 10.0


class Autoscaler:
    """Policy loop: watch gauges, launch or drain worker nodes."""

    def __init__(
        self,
        coordinator,  # ClusterCoordinator (duck-typed for tests)
        launcher,
        config: Optional[AutoscalerConfig] = None,
    ) -> None:
        self.coordinator = coordinator
        self.launcher = launcher
        self.config = config or AutoscalerConfig()
        self._nodes: List[Any] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._idle_since: Optional[float] = None
        self._last_scale_up = 0.0
        self.scale_ups = 0
        self.scale_downs = 0

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "Autoscaler":
        for _ in range(self.config.min_nodes):
            self._scale_up()
        self._thread = threading.Thread(
            target=self._loop, name="gateway-autoscaler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
        with self._lock:
            nodes, self._nodes = list(self._nodes), []
        for node in nodes:
            try:
                self.launcher.drain(node)
            except Exception:
                pass

    # -- policy ----------------------------------------------------------------------

    def _gauges(self) -> Tuple[int, int]:
        snap = self.coordinator.telemetry.snapshot()
        gauges = snap.get("gauges", {})
        backlog = int(gauges.get("queue_depth", 0)) + int(
            gauges.get("batcher_pending", 0)
        )
        return backlog, int(gauges.get("inflight_jobs", 0))

    def decide(self, backlog: int, inflight: int, now: float) -> int:
        """Return +1 (scale up), -1 (scale down), or 0. Pure policy."""
        cfg = self.config
        n = len(self._nodes)
        outstanding = backlog + inflight
        if outstanding > 0:
            self._idle_since = None
            if (
                n < cfg.max_nodes
                and outstanding / max(n, 1) > cfg.scale_up_backlog
                and now - self._last_scale_up >= COOLDOWN
            ):
                return 1
            return 0
        if n <= cfg.min_nodes:
            self._idle_since = None
            return 0
        if self._idle_since is None:
            self._idle_since = now
            return 0
        if now - self._idle_since >= cfg.scale_down_idle:
            self._idle_since = None  # one drain per idle window
            return -1
        return 0

    def _loop(self) -> None:
        while not self._stop.wait(POLL_INTERVAL):
            try:
                backlog, inflight = self._gauges()
                action = self.decide(backlog, inflight, time.monotonic())
                if action > 0:
                    self._scale_up()
                elif action < 0:
                    self._scale_down()
            except Exception:
                # Policy errors must never take down the gateway; the
                # next tick re-reads fresh gauges.
                continue

    def _scale_up(self) -> None:
        node = self.launcher.launch()
        with self._lock:
            self._nodes.append(node)
        self._last_scale_up = time.monotonic()
        self.scale_ups += 1

    def _scale_down(self) -> None:
        with self._lock:
            if len(self._nodes) <= self.config.min_nodes:
                return
            node = self._nodes.pop()
        try:
            self.launcher.drain(node)
        finally:
            self.scale_downs += 1

    # -- introspection ---------------------------------------------------------------

    @property
    def node_count(self) -> int:
        with self._lock:
            return len(self._nodes)

    def stats(self) -> Dict[str, Any]:
        return {
            "nodes": self.node_count,
            "min_nodes": self.config.min_nodes,
            "max_nodes": self.config.max_nodes,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
        }
