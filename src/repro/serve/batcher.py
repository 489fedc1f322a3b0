"""Adaptive micro-batching: group jobs that share a constraint system.

ZENO §6.1 observes that "the same computation applies to each image such
that the constraint system can be shared" — but sharing only pays off if
the serving layer actually *forms* batches.  The micro-batcher holds
pending jobs per :meth:`ProofJob.batch_key` and flushes a group when it
reaches ``max_batch`` jobs (size trigger) or its oldest job has waited
``max_wait`` seconds (latency trigger).  Under load batches fill; when
idle a lone job is delayed by at most ``max_wait``.

One flushed :class:`Batch` becomes one warm ``BatchProver`` run in a
worker: Generate + Circuit Computation are paid once per batch (and, with
the per-worker key cache, once per worker lifetime), not once per job.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.serve.jobs import ProofJob


@dataclass
class Batch:
    """A flushed group of jobs sharing one :meth:`ProofJob.batch_key`."""

    batch_id: int
    key: Tuple
    jobs: List[ProofJob]
    created_at: float  # monotonic time the group was opened

    def __len__(self) -> int:
        return len(self.jobs)


@dataclass
class _PendingGroup:
    jobs: List[ProofJob] = field(default_factory=list)
    opened_at: float = 0.0


class MicroBatcher:
    """Groups pending jobs by batch key; flushes on size or age."""

    def __init__(self, max_batch: int = 4, max_wait: float = 0.05) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.max_wait = max_wait
        self._groups: Dict[Tuple, _PendingGroup] = {}
        self._ids = itertools.count(1)

    def add(self, job: ProofJob, now: Optional[float] = None) -> None:
        now = time.monotonic() if now is None else now
        group = self._groups.get(job.batch_key())
        if group is None:
            group = _PendingGroup(opened_at=now)
            self._groups[job.batch_key()] = group
        group.jobs.append(job)

    def pending(self) -> int:
        return sum(len(g.jobs) for g in self._groups.values())

    def take_ready(
        self, now: Optional[float] = None, force: bool = False
    ) -> List[Batch]:
        """Flush every group that is full, stale, or (``force``) non-empty.

        A group larger than ``max_batch`` (possible after a multi-job
        retry) is split into ``max_batch``-sized batches.
        """
        now = time.monotonic() if now is None else now
        flushed: List[Batch] = []
        for key in list(self._groups):
            group = self._groups[key]
            full = len(group.jobs) >= self.max_batch
            stale = now - group.opened_at >= self.max_wait
            if not (full or stale or force):
                continue
            del self._groups[key]
            jobs = group.jobs
            for i in range(0, len(jobs), self.max_batch):
                flushed.append(
                    Batch(
                        batch_id=next(self._ids),
                        key=key,
                        jobs=jobs[i : i + self.max_batch],
                        created_at=group.opened_at,
                    )
                )
        return flushed

    def next_flush_at(self) -> Optional[float]:
        """Monotonic time the oldest pending group becomes stale, if any."""
        if not self._groups:
            return None
        return min(g.opened_at for g in self._groups.values()) + self.max_wait
