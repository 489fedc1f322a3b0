"""The worker-node daemon: a warm proving pool behind a TCP connection.

A node dials the coordinator, registers with a ``HELLO`` (its id, pid,
in-flight window, and pool size), then serves ``JOB`` frames.  Each JOB is
one sharded batch — the same ``(spec, payloads)`` contract as
:func:`repro.serve.workers.prove_batch` — executed on the node's own
:class:`repro.serve.workers.WorkerPool`, so the per-worker warm caches
(compiled circuit + CRS + fixed-base ``msm_tables`` per batch key) live in
the node's processes and amortize across every batch the coordinator
routes to it.

Robustness:

* a heartbeat thread sends a telemetry frame every
  :data:`HEARTBEAT_INTERVAL` seconds; the coordinator declares the node
  dead when frames stop;
* a batch that kills a pool process (``BrokenProcessPool``) is reported as
  ``JOB_ERROR`` and the pool is rebuilt — the node survives, the
  coordinator reroutes the jobs;
* losing the coordinator connection shuts the node down cleanly.

``mode="inline"`` runs :func:`prove_batch` in a thread instead of the
process pool (one shared warm cache per *process*, serialized by a lock) —
used by tests and benchmarks that stack several nodes in one process.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Optional, Tuple

from repro.cluster.protocol import (
    ConnectionClosed,
    MsgType,
    ProtocolError,
    read_frame,
    write_frame,
)
from repro.serve.workers import WorkerPool, prove_batch

# Inline-mode batches share the module-level warm cache of
# repro.serve.workers within this process; BatchProver re-assignment is
# stateful, so concurrent inline batches for the same key must serialize.
_INLINE_LOCK = threading.Lock()

# The node beat period (seconds).  The coordinator reads it too: it checks
# liveness every half period and refuses a timeout that is not longer.
HEARTBEAT_INTERVAL = 0.5
CONNECT_TIMEOUT = 10.0  # seconds start() keeps dialling the coordinator


class WorkerNode:
    """One proving node: a warm worker pool registered with a coordinator."""

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        node_id: Optional[str] = None,
        pool_workers: int = 1,
        window: int = 2,
        mode: str = "pool",  # "pool" | "inline"
        prewarm: bool = True,
    ) -> None:
        if mode not in ("pool", "inline"):
            raise ValueError(f"unknown node mode {mode!r}")
        self.address = address
        self.node_id = node_id or f"node-{uuid.uuid4().hex[:8]}"
        self.window = window
        self.mode = mode
        self.pool_workers = pool_workers
        self.prewarm = prewarm

        self._pool: Optional[WorkerPool] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._inflight = 0
        self._batches_done = 0
        self._jobs_done = 0
        self._failures = 0
        self._stop = threading.Event()
        self._threads: list = []

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "WorkerNode":
        """Connect, register, and start serving jobs in the background."""
        self._sock = self._connect()
        write_frame(
            self._sock,
            MsgType.HELLO,
            {
                "node_id": self.node_id,
                "pid": os.getpid(),
                "window": self.window,
                "pool_workers": self.pool_workers,
                "mode": self.mode,
            },
        )
        msg_type, payload = read_frame(self._sock)
        if msg_type is not MsgType.HELLO_ACK:
            raise ProtocolError(f"expected HELLO_ACK, got {msg_type.name}")
        if payload.get("node_id") not in (None, self.node_id):
            self.node_id = payload["node_id"]

        if self.mode == "pool":
            self._pool = WorkerPool(self.pool_workers)
            if self.prewarm:
                self._pool.prewarm()
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=max(self.window, 1),
                thread_name_prefix=f"{self.node_id}-prove",
            )
        for target, name in (
            (self._recv_loop, "recv"),
            (self._heartbeat_loop, "heartbeat"),
        ):
            thread = threading.Thread(
                target=target, name=f"{self.node_id}-{name}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def _connect(self) -> socket.socket:
        """Dial the coordinator, retrying for :data:`CONNECT_TIMEOUT` s."""
        deadline = time.monotonic() + CONNECT_TIMEOUT
        while True:
            try:
                sock = socket.create_connection(self.address, timeout=5.0)
                sock.settimeout(None)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def run_forever(self) -> None:
        """Block until the coordinator disconnects or :meth:`stop` is called."""
        self._stop.wait()

    def stop(self) -> None:
        """Graceful shutdown: deregister, close, tear down the pool."""
        if self._stop.is_set():
            return
        self._send(MsgType.BYE, {"node_id": self.node_id})
        self._shutdown()

    def kill(self) -> None:
        """Fault injection for tests: drop the connection with no BYE.

        From the coordinator's point of view this is indistinguishable
        from the node process dying — in-flight batches must reroute.
        """
        self._shutdown()

    def _shutdown(self) -> None:
        self._stop.set()
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    # -- serving ---------------------------------------------------------------------

    def _recv_loop(self) -> None:
        sock = self._sock
        while not self._stop.is_set():
            try:
                msg_type, payload = read_frame(sock)
            except (ProtocolError, OSError):
                self._shutdown()
                return
            if msg_type is MsgType.JOB:
                self._start_batch(payload)
            elif msg_type is MsgType.BYE:
                self._shutdown()
                return
            # HEARTBEAT_ACK and anything else: liveness only.

    def _start_batch(self, payload: Dict[str, Any]) -> None:
        batch_id = payload["batch_id"]
        spec = payload["spec"]
        jobs = payload["payloads"]
        with self._lock:
            self._inflight += 1
        if self.mode == "pool":
            try:
                future = self._pool.submit_batch(spec, jobs)
            except Exception as exc:  # pool broken beyond repair
                self._batch_failed(batch_id, len(jobs), exc)
                return
            future.add_done_callback(
                lambda fut, b=batch_id, n=len(jobs): self._on_pool_done(
                    b, n, fut
                )
            )
        else:
            self._executor.submit(self._run_inline, batch_id, spec, jobs)

    def _on_pool_done(self, batch_id: int, n_jobs: int, future) -> None:
        try:
            out = future.result()
        except BrokenProcessPool as exc:
            self._pool.reset()  # node survives; coordinator reroutes
            self._batch_failed(batch_id, n_jobs, exc)
        except Exception as exc:
            self._batch_failed(batch_id, n_jobs, exc)
        else:
            self._batch_done(batch_id, n_jobs, out)

    def _run_inline(self, batch_id: int, spec, jobs) -> None:
        try:
            with _INLINE_LOCK:
                out = prove_batch(spec, jobs)
        except Exception as exc:
            self._batch_failed(batch_id, len(jobs), exc)
        else:
            self._batch_done(batch_id, len(jobs), out)

    def _batch_done(self, batch_id: int, n_jobs: int, out: Dict) -> None:
        with self._lock:
            self._inflight -= 1
            self._batches_done += 1
            self._jobs_done += n_jobs
        self._send(
            MsgType.JOB_RESULT,
            {"node_id": self.node_id, "batch_id": batch_id, "out": out},
        )

    def _batch_failed(self, batch_id: int, n_jobs: int, exc: Exception) -> None:
        with self._lock:
            self._inflight -= 1
            self._failures += 1
        self._send(
            MsgType.JOB_ERROR,
            {
                "node_id": self.node_id,
                "batch_id": batch_id,
                "error": f"{type(exc).__name__}: {exc}",
            },
        )

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(HEARTBEAT_INTERVAL):
            with self._lock:
                frame = {
                    "node_id": self.node_id,
                    "pid": os.getpid(),
                    "inflight": self._inflight,
                    "batches_done": self._batches_done,
                    "jobs_done": self._jobs_done,
                    "failures": self._failures,
                }
            if not self._send(MsgType.HEARTBEAT, frame):
                return

    def _send(self, msg_type: MsgType, payload: Dict[str, Any]) -> bool:
        sock = self._sock
        if sock is None:
            return False
        try:
            with self._send_lock:
                write_frame(sock, msg_type, payload)
            return True
        except (OSError, ProtocolError):
            self._shutdown()
            return False
