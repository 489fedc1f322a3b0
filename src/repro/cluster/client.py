"""Client for submitting proving jobs to a cluster coordinator.

One persistent TCP connection carries request/response pairs (``SUBMIT``/
``SUBMIT_ACK``, ``STATS``/``STATS_REPLY``, matched by a ``req`` counter)
interleaved with ``JOB_DONE`` pushes the coordinator sends when a
submitted job reaches a terminal state.  A background receive thread
demultiplexes them; :meth:`ClusterClient.result` blocks on the push.

Losing the coordinator socket mid-session does NOT surface to callers as
a dead client: the receive thread redials with capped exponential
backoff (``reconnect_backoff_base * 2^attempt``, capped at
``reconnect_backoff_cap``, for up to ``reconnect_deadline`` seconds) and,
once reconnected, re-registers every outstanding job with a ``WATCH``
frame so pending :meth:`result` calls keep working.  Jobs the coordinator
no longer knows (it restarted and lost its in-memory state) are reported
in the ``WATCH_ACK`` and surface as :class:`ClusterError` from
:meth:`result` — the caller can resubmit.  Requests that were in flight
when the connection dropped fail with :class:`ClusterError` (their reply
may have been lost; a blind retry of SUBMIT could double-submit).  Only
when every redial attempt within the deadline fails does the client give
up and fail all waiters.

Results mirror :class:`repro.serve.jobs.JobResult` and additionally carry
the serialized verifying key, so a client can re-verify and archive the
proof with no further round trips.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.protocol import (
    MsgType,
    ProtocolError,
    read_frame,
    write_frame,
)
from repro.core.spec import CircuitSpec
from repro.serve.engine import JobFailedError
from repro.serve.jobs import JobResult, JobState


class ClusterError(RuntimeError):
    """Submission failed or the coordinator connection was lost."""


class RemoteJobFailedError(JobFailedError):
    """A cluster job ended FAILED/TIMED_OUT; carries the remote error."""

    def __init__(self, job_id: str, state: str, error: Optional[str]) -> None:
        RuntimeError.__init__(
            self, f"{job_id} ended {state}: {error or 'unknown'}"
        )
        self.job_id = job_id
        self.state = JobState(state)
        self.remote_error = error


class ClusterClient:
    """Thread-safe client bound to one coordinator; survives reconnects."""

    def __init__(
        self,
        address: Tuple[str, int],
        connect_timeout: float = 10.0,
        *,
        reconnect: bool = True,
        reconnect_backoff_base: float = 0.05,
        reconnect_backoff_cap: float = 2.0,
        reconnect_deadline: float = 30.0,
    ) -> None:
        self.address = tuple(address)
        self.connect_timeout = connect_timeout
        self.reconnect = reconnect
        self.reconnect_backoff_base = reconnect_backoff_base
        self.reconnect_backoff_cap = reconnect_backoff_cap
        self.reconnect_deadline = reconnect_deadline
        self.reconnects = 0  # successful redials this session

        self._sock = self._dial(connect_timeout)
        self._send_lock = threading.Lock()
        self._cond = threading.Condition()
        self._req_ids = itertools.count(1)
        self._replies: Dict[int, Dict[str, Any]] = {}
        self._pending_reqs: set = set()  # reqs awaiting a reply
        self._done: Dict[str, Dict[str, Any]] = {}  # job_id -> JOB_DONE payload
        self._outstanding: set = set()  # submitted, not yet terminal
        self._lost: Dict[str, str] = {}  # job_id -> reason (coordinator forgot)
        self._closed = False  # user called close()
        self._failed = False  # reconnect exhausted; client is dead
        self._connected = True
        self._recv_thread = threading.Thread(
            target=self._recv_loop, name="repro-cluster-client", daemon=True
        )
        self._recv_thread.start()

    # -- plumbing --------------------------------------------------------------------

    def _dial(self, timeout: float) -> socket.socket:
        sock = socket.create_connection(self.address, timeout)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _recv_loop(self) -> None:
        while True:
            sock = self._sock
            try:
                msg_type, payload = read_frame(sock)
            except (ProtocolError, OSError):
                with self._cond:
                    if self._closed:
                        return
                if not self.reconnect or not self._reconnect():
                    with self._cond:
                        self._failed = True
                        self._connected = False
                        self._cond.notify_all()
                    return
                continue
            with self._cond:
                if msg_type is MsgType.JOB_DONE:
                    job_id = payload["job_id"]
                    self._done[job_id] = payload
                    self._outstanding.discard(job_id)
                elif msg_type is MsgType.WATCH_ACK and payload.get("req") == 0:
                    # Reconnect-time re-watch (no waiter): jobs this
                    # coordinator has never heard of are unrecoverable
                    # through this client — fail their result() waiters.
                    for job_id in payload.get("unknown") or []:
                        self._lost[job_id] = (
                            "coordinator does not know this job "
                            "(it restarted?)"
                        )
                        self._outstanding.discard(job_id)
                else:
                    self._replies[payload.get("req", 0)] = payload
                    self._pending_reqs.discard(payload.get("req", 0))
                self._cond.notify_all()

    def _reconnect(self) -> bool:
        """Redial with capped exponential backoff; re-watch outstanding jobs.

        Returns True once a new connection is registered (the recv loop
        resumes reading from it), False when the deadline expires.
        """
        # Requests that were awaiting replies may have lost them with the
        # socket; fail them now rather than hanging forever.
        with self._cond:
            self._connected = False
            for req in list(self._pending_reqs):
                self._replies[req] = {"req": req, "connection_lost": True}
            self._pending_reqs.clear()
            self._cond.notify_all()
        deadline = time.monotonic() + self.reconnect_deadline
        attempt = 0
        while True:
            with self._cond:
                if self._closed:
                    return False
            try:
                sock = self._dial(min(self.connect_timeout, 5.0))
            except OSError:
                delay = min(
                    self.reconnect_backoff_cap,
                    self.reconnect_backoff_base * (2 ** attempt),
                )
                attempt += 1
                if time.monotonic() + delay >= deadline:
                    return False
                time.sleep(delay)
                continue
            with self._send_lock:
                old, self._sock = self._sock, sock
            try:
                old.close()
            except OSError:
                pass
            with self._cond:
                self._connected = True
                self.reconnects += 1
                outstanding = sorted(self._outstanding)
                self._cond.notify_all()
            if outstanding:
                try:
                    with self._send_lock:
                        write_frame(
                            self._sock,
                            MsgType.WATCH,
                            {"req": 0, "job_ids": outstanding},
                        )
                except (OSError, ProtocolError):
                    continue  # the fresh socket died already; redial
            return True

    def _check_alive(self) -> None:
        if self._closed:
            raise ClusterError("client is closed")
        if self._failed:
            raise ClusterError(
                "coordinator connection lost and reconnect gave up"
            )

    def _request(
        self,
        msg_type: MsgType,
        payload: Dict[str, Any],
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        req = next(self._req_ids)
        payload = dict(payload, req=req)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._check_alive()
            # During a redial window, wait for the new socket instead of
            # writing into a dead one.
            while not self._connected:
                self._check_alive()
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"no connection to send {msg_type.name}"
                    )
                self._cond.wait(timeout=remaining)
            self._pending_reqs.add(req)
        try:
            with self._send_lock:
                write_frame(self._sock, msg_type, payload)
        except (OSError, ProtocolError):
            # The recv loop will notice and redial; this request's send
            # never completed, so it is safe to report as failed.
            with self._cond:
                self._pending_reqs.discard(req)
            raise ClusterError(
                f"connection lost while sending {msg_type.name}; retry"
            ) from None
        with self._cond:
            while req not in self._replies:
                self._check_alive()
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    self._pending_reqs.discard(req)
                    raise TimeoutError(f"no reply to {msg_type.name}")
                self._cond.wait(timeout=remaining)
            reply = self._replies.pop(req)
        if reply.get("connection_lost"):
            raise ClusterError(
                f"connection lost awaiting the {msg_type.name} reply; "
                "it may or may not have been processed"
            )
        return reply

    # -- API -------------------------------------------------------------------------

    def submit(
        self,
        circuit: CircuitSpec,
        image: Optional[np.ndarray] = None,
        *,
        image_seed: Optional[int] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        tenant: str = "default",
        extra: Optional[dict] = None,
    ) -> str:
        """Enqueue one job on the coordinator; returns its job id.  The
        arguments are :meth:`JobEngine.submit`'s; the SUBMIT frame carries
        ``circuit`` as its flat keys."""
        reply = self._request(
            MsgType.SUBMIT,
            {
                **circuit.to_json(),
                "image": image,
                "image_seed": image_seed,
                "priority": priority,
                "timeout": timeout,
                "max_retries": max_retries,
                "tenant": tenant,
                "extra": extra or {},
            },
        )
        if "error" in reply:
            raise ClusterError(f"submit rejected: {reply['error']}")
        job_id = reply["job_id"]
        with self._cond:
            if job_id not in self._done:
                self._outstanding.add(job_id)
        return job_id

    def result(self, job_id: str, timeout: Optional[float] = None) -> JobResult:
        """Block until ``job_id`` finishes; return its verified result.

        Raises :class:`RemoteJobFailedError` for FAILED/TIMED_OUT jobs,
        :class:`ClusterError` if the job was lost to a coordinator
        restart or the connection is unrecoverable, and ``TimeoutError``
        if nothing arrives within ``timeout`` seconds.  A transient
        disconnect does not fail this call — the client reconnects and
        re-watches the job.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while job_id not in self._done:
                if job_id in self._lost:
                    raise ClusterError(
                        f"{job_id} lost: {self._lost[job_id]}"
                    )
                self._check_alive()
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(f"{job_id} still pending")
                self._cond.wait(timeout=remaining)
            payload = self._done[job_id]
        if payload["state"] != JobState.DONE.value:
            raise RemoteJobFailedError(
                job_id, payload["state"], payload.get("error")
            )
        res = payload["result"]
        result = JobResult(
            proof=res["proof"],
            public_inputs=[int(v) for v in res["public_inputs"]],
            logits=[int(v) for v in res["logits"]],
            verified=bool(res["verified"]),
            worker_pid=int(res["worker_pid"]),
            batch_id=int(res["batch_id"]),
            batch_size=int(res["batch_size"]),
            store_keys=dict(res["store_keys"]),
        )
        return result

    def lost_jobs(self) -> List[str]:
        """Job ids the coordinator forgot across a reconnect (resubmit them)."""
        with self._cond:
            return sorted(self._lost)

    def verifying_key(self, job_id: str) -> Optional[bytes]:
        """Serialized VK shipped with a finished job's JOB_DONE push."""
        with self._cond:
            payload = self._done.get(job_id)
        if payload is None or "result" not in payload:
            return None
        return payload["result"].get("vk")

    def attempts(self, job_id: str) -> Optional[int]:
        """How many dispatch attempts a finished job consumed."""
        with self._cond:
            payload = self._done.get(job_id)
        return None if payload is None else payload.get("attempts")

    def stats(self, timeout: Optional[float] = None) -> dict:
        """The coordinator's merged telemetry + per-node snapshot."""
        return self._request(MsgType.STATS, {}, timeout=timeout)["stats"]

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
        try:
            with self._send_lock:
                write_frame(self._sock, MsgType.BYE, {})
        except (OSError, ProtocolError):
            pass
        self._sock.close()
        with self._cond:
            self._cond.notify_all()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
