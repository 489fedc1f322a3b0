"""Proof jobs and the priority job queue.

A :class:`ProofJob` is one request: "prove this model's inference on this
image".  Jobs carry a priority (higher pops first), an optional deadline,
and a retry budget consumed when a worker dies mid-batch.  The queue is a
thread-safe priority heap with a *delayed* lane for retry-with-backoff:
a requeued job only becomes poppable once its backoff expires.

State machine::

    QUEUED ──dispatch──> RUNNING ──ok──────> DONE
      │  ▲                  │
      │  └──retry+backoff───┤ (worker died, attempts left)
      │                     └──no budget──> FAILED
      └──deadline passed──> TIMED_OUT

All transitions are driven by :class:`repro.serve.engine.JobEngine`;
this module only provides the data structures.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.spec import CircuitSpec

BACKOFF_BASE = 0.05  # seconds before the first retry; doubles per attempt


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMED_OUT = "timed_out"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.TIMED_OUT)


@dataclass
class JobResult:
    """What a completed job hands back to the submitter."""

    proof: bytes  # canonical serialized Groth16 proof
    public_inputs: List[int]  # public field elements the proof binds
    logits: List[int]  # public inputs decoded back to signed NN space
    verified: bool
    worker_pid: int
    batch_id: int
    batch_size: int
    store_keys: Dict[str, str] = field(default_factory=dict)  # proof / vk


@dataclass
class ProofJob:
    """One proving request; batchable by :meth:`batch_key`."""

    job_id: str
    circuit: CircuitSpec  # which constraint system this job proves
    image: np.ndarray
    priority: int = 0  # higher pops first
    timeout: Optional[float] = None  # seconds from submission to deadline
    max_retries: int = 2
    tenant: str = "default"  # fair-share / telemetry attribution
    extra: Dict[str, Any] = field(default_factory=dict)  # e.g. fault injection

    # -- mutable bookkeeping (owned by the service) --
    state: JobState = JobState.QUEUED
    attempts: int = 0
    submitted_at: float = 0.0  # monotonic
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[JobResult] = None
    error: Optional[str] = None

    def batch_key(self) -> Tuple:
        """Jobs with equal keys share one constraint system / proving key.

        Per-layer aggregate jobs (``extra["aggregate"]``) additionally key
        on the split parameters AND the layer index: two different layers
        are two different circuits, so the micro-batcher must never merge
        them into one batch even though they share a model.
        """
        key: Tuple = (self.circuit,)
        agg = self.extra.get("aggregate")
        if agg:
            key += (
                "aggregate",
                agg.get("mode", "public"),
                agg.get("num_segments"),
                agg.get("crs_seed"),
                agg.get("layer"),
            )
        return key

    @property
    def deadline(self) -> Optional[float]:
        if self.timeout is None:
            return None
        return self.submitted_at + self.timeout

    def expired(self, now: Optional[float] = None) -> bool:
        deadline = self.deadline
        if deadline is None:
            return False
        return (time.monotonic() if now is None else now) > deadline

    def next_backoff(
        self, base: float = BACKOFF_BASE, cap: float = 2.0
    ) -> float:
        """Exponential backoff for the attempt about to be queued."""
        return min(cap, base * (2 ** max(self.attempts - 1, 0)))


class JobQueue:
    """Thread-safe priority queue with deadlines and a delayed retry lane.

    Higher ``priority`` pops first; ties pop in submission order.  Jobs
    pushed with ``delay > 0`` (retry backoff) stay in the delayed lane and
    only become poppable after the delay elapses.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._ready: List[Tuple[int, int, ProofJob]] = []  # (-prio, seq, job)
        self._delayed: List[Tuple[float, int, ProofJob]] = []  # (not_before, ...)

    def push(
        self, job: ProofJob, delay: float = 0.0, now: Optional[float] = None
    ) -> None:
        now = time.monotonic() if now is None else now
        with self._lock:
            seq = next(self._seq)
            if delay > 0:
                heapq.heappush(self._delayed, (now + delay, seq, job))
            else:
                heapq.heappush(self._ready, (-job.priority, seq, job))

    def _promote(self, now: float) -> None:
        """Move delayed jobs whose backoff has elapsed into the ready heap."""
        while self._delayed and self._delayed[0][0] <= now:
            _, seq, job = heapq.heappop(self._delayed)
            heapq.heappush(self._ready, (-job.priority, seq, job))

    def pop(self, now: Optional[float] = None) -> Optional[ProofJob]:
        """Highest-priority ready job; None if nothing is ready.

        An expired job may still be returned — callers must check
        :meth:`ProofJob.expired` (the dispatcher finalizes such jobs as
        TIMED_OUT; dropping them here would leave them unobservable).
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            self._promote(now)
            if not self._ready:
                return None
            return heapq.heappop(self._ready)[2]

    def expire(self, now: Optional[float] = None) -> List[ProofJob]:
        """Remove and return every queued job whose deadline has passed."""
        now = time.monotonic() if now is None else now
        overdue: List[ProofJob] = []
        with self._lock:
            self._promote(now)
            for heap in (self._ready, self._delayed):
                keep = [item for item in heap if not item[2].expired(now)]
                if len(keep) != len(heap):
                    overdue.extend(
                        item[2] for item in heap if item[2].expired(now)
                    )
                    heap[:] = keep
                    heapq.heapify(heap)
        return overdue

    def __len__(self) -> int:
        with self._lock:
            return len(self._ready) + len(self._delayed)

    def depth(self) -> int:
        return len(self)
