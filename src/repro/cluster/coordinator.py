"""The cluster coordinator: one queue, many nodes, zero trust.

Scheduling — queue, micro-batching, retries, deadlines, finalization — is
:class:`repro.serve.engine.JobEngine`, configured by the embedded
:class:`~repro.serve.service.ServiceConfig`; see that module for the
lifecycle.  This module is the engine's TCP transport: ready batches go to
registered :class:`repro.cluster.node.WorkerNode` daemons, and everything
below is what a network of untrusted nodes adds to that.  The TCP port
serves nodes only: a job enters through :meth:`submit`, which in a
deployment only the gateway's
:class:`~repro.gateway.durable.DurableCoordinator` calls.

Robustness model:

* **liveness** — every frame from a node refreshes ``last_seen``; a
  monitor thread, waking twice per node beat period
  (:data:`repro.cluster.node.HEARTBEAT_INTERVAL`), declares a node dead
  after ``heartbeat_timeout`` silent seconds (socket EOF/reset is detected
  immediately);
* **failover** — a dead node's in-flight jobs reroute: each job re-enters
  the queue with :meth:`ProofJob.next_backoff` until its retry budget is
  spent, so killing a node mid-batch loses nothing;
* **backpressure** — a node never holds more than ``node_window``
  batches; ready batches queue at the coordinator until a node has room;
* **circuit breaking** — :data:`BREAKER_THRESHOLD` *consecutive* faults
  (errors, bad proofs) open a node's breaker for :data:`BREAKER_RESET`
  seconds: it keeps its warm caches but receives no new work;
* **verification** — every returned proof is checked against the VK
  (:func:`repro.cluster.verification.verify_claims`, the ``k+3``-pairing
  batch check) before the job is acked, so a faulty node can never
  corrupt results.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import verification
from repro.cluster.node import HEARTBEAT_INTERVAL
from repro.cluster.protocol import (
    MsgType,
    ProtocolError,
    read_frame,
    write_frame,
)
from repro.serve.batcher import Batch
from repro.serve.engine import JobEngine
from repro.serve.jobs import ProofJob
from repro.serve.service import ServiceConfig

BREAKER_THRESHOLD = 3  # consecutive faults to open a node's breaker
BREAKER_RESET = 5.0  # seconds the breaker stays open


@dataclass
class ClusterConfig:
    """Coordinator tunables; scheduling knobs live in ``service``."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = bind an ephemeral port (reported by start())
    heartbeat_timeout: float = 3.0  # silent seconds before a node is dead
    node_window: int = 2  # max in-flight batches per node
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self) -> None:
        # At or below one beat period an idle node is silent that long
        # between two beats, and would be declared dead.
        if self.heartbeat_timeout <= HEARTBEAT_INTERVAL:
            raise ValueError(
                f"heartbeat_timeout={self.heartbeat_timeout!r} must exceed "
                f"the {HEARTBEAT_INTERVAL} s node beat period"
            )


class _Node:
    """Coordinator-side handle for one registered worker node."""

    def __init__(
        self, node_id: str, sock: socket.socket, payload: Dict[str, Any]
    ) -> None:
        self.node_id = node_id
        self.sock = sock
        self.send_lock = threading.Lock()
        self.pid = int(payload.get("pid", 0))
        self.window = max(int(payload.get("window", 1)), 1)
        self.pool_workers = int(payload.get("pool_workers", 1))
        self.mode = str(payload.get("mode", "pool"))
        self.registered_at = time.monotonic()
        self.last_seen = self.registered_at
        self.alive = True
        self.inflight: Dict[int, Batch] = {}
        self.consecutive_faults = 0
        self.breaker_open_until = 0.0
        self.breaker_opens = 0
        self.batches_done = 0
        self.jobs_done = 0
        self.faults = 0
        self.last_heartbeat: Dict[str, Any] = {}

    def breaker_open(self, now: float) -> bool:
        return now < self.breaker_open_until

    def has_room(self, now: float) -> bool:
        return (
            self.alive
            and not self.breaker_open(now)
            and len(self.inflight) < self.window
        )

    def stats(self, now: float) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "mode": self.mode,
            "pool_workers": self.pool_workers,
            "window": self.window,
            "alive": self.alive,
            "inflight_batches": len(self.inflight),
            "inflight_jobs": sum(len(b) for b in self.inflight.values()),
            "batches_done": self.batches_done,
            "jobs_done": self.jobs_done,
            "faults": self.faults,
            "breaker_open": self.breaker_open(now),
            "breaker_opens": self.breaker_opens,
            "last_seen_age_seconds": now - self.last_seen,
            "heartbeat": dict(self.last_heartbeat),
        }


class ClusterCoordinator(JobEngine):
    """TCP coordinator sharding proof batches across registered nodes."""

    def __init__(self, config: Optional[ClusterConfig] = None, **overrides):
        self.config = replace(config or ClusterConfig(), **overrides)
        super().__init__(self.config.service)
        self._nodes: Dict[str, _Node] = {}
        self._dead_nodes: Dict[str, Dict[str, Any]] = {}
        self._unregistered: set = set()  # connections awaiting their HELLO
        self.node_deaths = 0
        self.reroutes = 0  # jobs requeued off a dead/faulty node
        self.late_results = 0  # results from nodes already declared dead
        self.bad_proof_batches = 0  # batches failing coordinator verification

        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and start the accept/dispatch/monitor threads."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(64)
        self._listener = listener
        self.address = listener.getsockname()
        for target, name in (
            (self._accept_loop, "accept"),
            (self._loop, "dispatch"),
            (self._monitor_loop, "monitor"),
        ):
            thread = threading.Thread(
                target=target, name=f"repro-cluster-{name}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self.address

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the cluster; with ``drain`` wait for in-flight jobs first."""
        self._halt(drain)
        if drain:
            self.wait_all(timeout=timeout)
        self._halt(drain=False)
        listener, self._listener = self._listener, None
        if listener is not None:
            # close() alone does not wake a thread blocked in accept():
            # the syscall pins the kernel socket, leaving the port in
            # LISTEN and an immediate restart on the same address with
            # EADDRINUSE.  shutdown() aborts the pending accept first.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()
        with self._lock:
            nodes = list(self._nodes.values())
            unregistered = list(self._unregistered)
        for node in nodes:
            self._send_to_node(node, MsgType.BYE, {})
            try:
                node.sock.close()
            except OSError:
                pass
        # Sever connections still awaiting their HELLO too: a lingering
        # handler thread from this epoch must not register a node after a
        # restart takes over the address.
        for conn in unregistered:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ClusterCoordinator":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def stats(self) -> dict:
        """Service telemetry merged with per-node cluster state."""
        now = time.monotonic()
        snap = super().stats()
        with self._lock:
            snap["cluster"] = {
                "nodes": {
                    node_id: node.stats(now)
                    for node_id, node in self._nodes.items()
                },
                "dead_nodes": {k: dict(v) for k, v in self._dead_nodes.items()},
                "node_deaths": self.node_deaths,
                "reroutes": self.reroutes,
                "late_results": self.late_results,
                "bad_proof_batches": self.bad_proof_batches,
                "pending_batches": len(self._ready),
            }
        return snap

    def live_nodes(self) -> List[str]:
        with self._lock:
            return [n.node_id for n in self._nodes.values() if n.alive]

    # -- accept / per-connection handlers --------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed during shutdown
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-cluster-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve a fresh connection as a worker node, or close it.

        A node's first frame is its HELLO; any other frame (or none) ends
        the connection.  The conn is tracked from accept time (not first
        frame) so that shutdown can sever even connections still awaiting
        their HELLO — a handler thread from a dead epoch must never
        register a node after a restarted coordinator takes over the
        address.
        """
        with self._lock:
            if self._stop:
                conn.close()
                return
            self._unregistered.add(conn)
        try:
            msg_type, payload = read_frame(conn)
        except (ProtocolError, OSError):
            msg_type = None
        with self._lock:
            self._unregistered.discard(conn)
        if msg_type is MsgType.HELLO:
            self._serve_node(conn, payload)
        else:
            conn.close()

    # -- node side -------------------------------------------------------------------

    def _serve_node(self, conn: socket.socket, hello: Dict[str, Any]) -> None:
        node_id = str(hello.get("node_id") or f"node-{id(conn):x}")
        node = _Node(node_id, conn, hello)
        # HELLO_ACK must be the node's first frame: its send lock is held
        # from registration until the ack is written, so a batch the
        # dispatcher routes to it in between waits behind the ack.
        with node.send_lock:
            with self._lock:
                stale = self._nodes.get(node_id)
                if stale is not None:  # reconnect: replace the stale handle
                    self._node_died(stale, "replaced by reconnect")
                self._nodes[node_id] = node
                self._dead_nodes.pop(node_id, None)
            try:
                write_frame(conn, MsgType.HELLO_ACK, {"node_id": node_id})
                acked = True
            except OSError:
                acked = False
        if not acked:
            self._node_died(node, "handshake failed")
            return
        self._wake.set()
        while node.alive:
            try:
                msg_type, payload = read_frame(conn)
            except (ProtocolError, OSError):
                self._node_died(node, "connection lost")
                return
            node.last_seen = time.monotonic()
            if msg_type is MsgType.HEARTBEAT:
                node.last_heartbeat = {
                    k: v for k, v in payload.items() if k != "node_id"
                }
                self._send_to_node(node, MsgType.HEARTBEAT_ACK, {})
            elif msg_type is MsgType.JOB_RESULT:
                self._on_job_result(node, payload)
            elif msg_type is MsgType.JOB_ERROR:
                self._on_job_error(node, payload)
            elif msg_type is MsgType.BYE:
                self._node_died(node, "deregistered", graceful=True)
                return

    def _send_to_node(
        self, node: _Node, msg_type: MsgType, payload: Dict[str, Any]
    ) -> bool:
        try:
            with node.send_lock:
                write_frame(node.sock, msg_type, payload)
            return True
        except (OSError, ProtocolError):
            self._node_died(node, "send failed")
            return False

    def _node_died(
        self, node: _Node, reason: str, graceful: bool = False
    ) -> None:
        """Mark a node dead and reroute everything it was proving."""
        with self._lock:
            if not node.alive:
                return
            node.alive = False
            if self._nodes.get(node.node_id) is node:
                del self._nodes[node.node_id]
            stranded = list(node.inflight.values())
            node.inflight.clear()
            if not graceful:
                self.node_deaths += 1
            self._dead_nodes[node.node_id] = {
                "reason": reason,
                "graceful": graceful,
                "batches_done": node.batches_done,
                "jobs_done": node.jobs_done,
                "rerouted_jobs": sum(len(b) for b in stranded),
            }
        try:
            node.sock.close()
        except OSError:
            pass
        for batch in stranded:
            self.take(batch.batch_id)
            self._reroute(batch.jobs, f"node {node.node_id} died: {reason}")

    def _reroute(self, jobs: List[ProofJob], error: str) -> None:
        with self._lock:
            self.reroutes += len(jobs)
        self.requeue_or_fail(jobs, error)

    def _take_batch(self, node: _Node, payload: Dict[str, Any]) -> Optional[Batch]:
        with self._lock:
            batch = node.inflight.pop(payload.get("batch_id"), None)
            if batch is None:
                # Already rerouted (node was declared dead, then answered).
                self.late_results += 1
                return None
        return self.take(batch.batch_id)

    def _on_job_result(self, node: _Node, payload: Dict[str, Any]) -> None:
        batch = self._take_batch(node, payload)
        if batch is None:
            return
        out = payload["out"]
        if out.get("audit_rejected"):
            with self._lock:
                node.consecutive_faults = 0  # the circuit's fault, not the node's
            self.audit_reject(batch, out)
            return
        # Verify before ack: a faulty node can never corrupt results.
        by_id = {r["job_id"]: r for r in out["results"]}
        claims = []
        for job in batch.jobs:
            res = by_id.get(job.job_id)
            claims.append(
                (res["public_inputs"], res["proof"]) if res else ([], b"")
            )
        try:
            verdict = verification.verify_claims(out["vk"], claims)
        except verification.SerializationError as exc:
            self._node_fault(node)
            self.requeue_or_fail(
                batch.jobs,
                f"node {node.node_id} returned a malformed VK: {exc}",
            )
            return
        with self._lock:  # counted before the jobs' waiters wake
            node.batches_done += 1
            node.jobs_done += sum(verdict.per_proof)
        bad_jobs = self.complete(
            batch, out, verdict.per_proof, node=node.node_id
        )
        if bad_jobs:
            with self._lock:
                self.bad_proof_batches += 1
            self._node_fault(node)
            self._reroute(
                bad_jobs,
                f"node {node.node_id} returned proofs that fail verification",
            )
        else:
            with self._lock:
                node.consecutive_faults = 0

    def _on_job_error(self, node: _Node, payload: Dict[str, Any]) -> None:
        batch = self._take_batch(node, payload)
        if batch is None:
            return
        self._node_fault(node)
        self._reroute(
            batch.jobs,
            f"node {node.node_id} failed batch: {payload.get('error')}",
        )

    def _node_fault(self, node: _Node) -> None:
        """Count one fault; open the circuit breaker on a streak."""
        with self._lock:
            node.faults += 1
            node.consecutive_faults += 1
            if node.consecutive_faults >= BREAKER_THRESHOLD:
                node.breaker_open_until = time.monotonic() + BREAKER_RESET
                node.breaker_opens += 1
                node.consecutive_faults = 0

    # -- transport: the registered nodes ---------------------------------------------

    def _slot(self, now: float) -> Optional[_Node]:
        """Least-loaded live node with window room (fraction of window used)."""
        with self._lock:
            candidates = [n for n in self._nodes.values() if n.has_room(now)]
            if not candidates:
                return None
            return min(
                candidates,
                key=lambda n: (len(n.inflight) / n.window, n.registered_at),
            )

    def _send(
        self, node: _Node, batch: Batch, spec: dict, payloads: List[dict]
    ) -> None:
        with self._lock:
            alive = node.alive
            if alive:
                node.inflight[batch.batch_id] = batch
        if not alive:  # died since _slot picked it: nobody else will reroute
            self.take(batch.batch_id)
            self._reroute(batch.jobs, f"node {node.node_id} died before send")
            return
        # A failed send marks the node dead, which reroutes this batch too.
        self._send_to_node(
            node,
            MsgType.JOB,
            {"batch_id": batch.batch_id, "spec": spec, "payloads": payloads},
        )

    def _monitor_loop(self) -> None:
        timeout = self.config.heartbeat_timeout
        while True:
            time.sleep(HEARTBEAT_INTERVAL / 2)
            with self._lock:
                if self._stop:
                    return
                now = time.monotonic()
                silent = [
                    node
                    for node in self._nodes.values()
                    if now - node.last_seen > timeout
                ]
            for node in silent:
                self._node_died(node, "heartbeat timeout")
