"""Live serving metrics, exported as a JSON-safe snapshot.

Tracks what an operator of the paper's imagined deployment ("a service
that the public can easily access" serving millions of users) would watch:

* queue depth (current / peak) and terminal-state counters;
* live gauges — queue depth, batcher backlog, in-flight jobs, and
  per-tenant in-flight/terminal counts — exported under ``gauges`` for
  the gateway's ``/metrics`` endpoint and the autoscaler's policy loop;
* the batch-size histogram — how well the micro-batcher is filling;
* per-phase latency matching Fig. 4's split: Generate, Circuit
  Computation, setup, per-image assign, and Security Computation (prove);
* warm-key-cache hit rate — how often a worker skipped compilation;
* throughput (completed jobs per second since start).

All mutation goes through one lock; :meth:`snapshot` returns plain dicts
and floats so callers can ``json.dumps`` it directly.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional


class Histogram:
    """Exact counting histogram over small integer values (batch sizes)."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    def add(self, value: int) -> None:
        self._counts[value] = self._counts.get(value, 0) + 1

    def snapshot(self) -> Dict[str, object]:
        total = sum(self._counts.values())
        weighted = sum(v * c for v, c in self._counts.items())
        return {
            "counts": {str(k): v for k, v in sorted(self._counts.items())},
            "observations": total,
            "mean": weighted / total if total else 0.0,
            "max": max(self._counts) if self._counts else 0,
        }


class PhaseLatency:
    """Bounded reservoir of per-phase wall times (seconds)."""

    def __init__(self, keep: int = 512) -> None:
        self.keep = keep
        self._samples: Dict[str, List[float]] = {}

    def add(self, phase: str, seconds: float) -> None:
        bucket = self._samples.setdefault(phase, [])
        bucket.append(seconds)
        if len(bucket) > self.keep:
            del bucket[: len(bucket) - self.keep]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for phase, samples in sorted(self._samples.items()):
            ordered = sorted(samples)
            n = len(ordered)
            out[phase] = {
                "count": n,
                "mean": sum(ordered) / n,
                "p50": ordered[n // 2],
                "max": ordered[-1],
            }
        return out


class ServiceTelemetry:
    """All serving counters behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.monotonic()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.timed_out = 0
        self.retries = 0
        self.batch_runs = 0
        self.queue_depth = 0
        self.queue_peak = 0
        self.key_cache_hits = 0  # warm batches: worker reused its prover+CRS
        self.key_cache_misses = 0  # cold batches: paid compile + setup
        self.msm_table_builds = 0  # one-time fixed-base CRS table builds
        self.msm_table_uses = 0  # ProvingKeyTables.uses(), summed over batches
        self.audit_rejected_batches = 0  # pre-prove audit gate rejections
        self.audit_rejected_jobs = 0
        self.aggregate_batches = 0  # per-layer (repro.aggregate) batches
        self.aggregate_proofs = 0  # layer proofs produced by those batches
        self.aggregate_layers: Dict[str, int] = {}  # layer index -> proofs
        self.batcher_pending = 0  # jobs parked in the micro-batcher
        self.inflight_jobs = 0  # jobs dispatched and not yet terminal
        self.batch_sizes = Histogram()
        self.phases = PhaseLatency()
        # tenant -> {"submitted", "completed", "failed", "timed_out"};
        # in-flight is derived (submitted - terminal) at snapshot time.
        self._tenants: Dict[str, Dict[str, int]] = {}

    def _tenant(self, tenant: str) -> Dict[str, int]:
        bucket = self._tenants.get(tenant)
        if bucket is None:
            bucket = {"submitted": 0, "completed": 0, "failed": 0,
                      "timed_out": 0}
            self._tenants[tenant] = bucket
        return bucket

    def record_submit(self, n: int = 1, tenant: Optional[str] = None) -> None:
        with self._lock:
            self.submitted += n
            if tenant is not None:
                self._tenant(tenant)["submitted"] += n

    def record_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth = depth
            self.queue_peak = max(self.queue_peak, depth)

    def record_gauges(
        self,
        batcher_pending: Optional[int] = None,
        inflight_jobs: Optional[int] = None,
    ) -> None:
        """Update the dispatcher-sampled live gauges."""
        with self._lock:
            if batcher_pending is not None:
                self.batcher_pending = batcher_pending
            if inflight_jobs is not None:
                self.inflight_jobs = inflight_jobs

    def record_batch(
        self,
        size: int,
        cold: bool,
        phases: Dict[str, float],
        msm_tables: Optional[Dict[str, int]] = None,
        aggregate_layer: Optional[int] = None,
    ) -> None:
        with self._lock:
            self.batch_runs += 1
            self.batch_sizes.add(size)
            if aggregate_layer is not None:
                self.aggregate_batches += 1
                self.aggregate_proofs += size
                key = str(aggregate_layer)
                self.aggregate_layers[key] = (
                    self.aggregate_layers.get(key, 0) + size
                )
            if cold:
                self.key_cache_misses += 1
            else:
                self.key_cache_hits += 1
            if msm_tables:
                self.msm_table_builds += 1 if msm_tables.get("built") else 0
                self.msm_table_uses += msm_tables.get("uses", 0)
            for phase, seconds in phases.items():
                self.phases.add(phase, seconds)

    def record_terminal(
        self, state_name: str, tenant: Optional[str] = None
    ) -> None:
        with self._lock:
            if state_name == "done":
                self.completed += 1
            elif state_name == "failed":
                self.failed += 1
            elif state_name == "timed_out":
                self.timed_out += 1
            if tenant is not None and state_name in (
                "done", "failed", "timed_out"
            ):
                bucket = self._tenant(tenant)
                key = "completed" if state_name == "done" else state_name
                bucket[key] += 1

    def record_retry(self, n: int = 1) -> None:
        with self._lock:
            self.retries += n

    def record_audit_rejection(self, jobs: int) -> None:
        with self._lock:
            self.audit_rejected_batches += 1
            self.audit_rejected_jobs += jobs

    def key_cache_hit_rate(self) -> float:
        total = self.key_cache_hits + self.key_cache_misses
        return self.key_cache_hits / total if total else 0.0

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            elapsed = max(time.monotonic() - self.started_at, 1e-9)
            tenants = {}
            for tenant, bucket in sorted(self._tenants.items()):
                terminal = (
                    bucket["completed"] + bucket["failed"]
                    + bucket["timed_out"]
                )
                tenants[tenant] = dict(
                    bucket, in_flight=bucket["submitted"] - terminal
                )
            from repro.core.metrics import peak_rss_bytes

            return {
                "uptime_seconds": elapsed,
                "gauges": {
                    "queue_depth": self.queue_depth,
                    "batcher_pending": self.batcher_pending,
                    "inflight_jobs": self.inflight_jobs,
                    "peak_rss_bytes": peak_rss_bytes(),
                    "tenants": tenants,
                },
                "jobs": {
                    "submitted": self.submitted,
                    "completed": self.completed,
                    "failed": self.failed,
                    "timed_out": self.timed_out,
                    "retries": self.retries,
                },
                "queue": {
                    "depth": self.queue_depth,
                    "peak": self.queue_peak,
                },
                "batches": {
                    "runs": self.batch_runs,
                    "sizes": self.batch_sizes.snapshot(),
                },
                "key_cache": {
                    "hits": self.key_cache_hits,
                    "misses": self.key_cache_misses,
                    "hit_rate": self.key_cache_hit_rate(),
                },
                "msm_tables": {
                    "builds": self.msm_table_builds,
                    "uses": self.msm_table_uses,
                },
                "audit": {
                    "rejected_batches": self.audit_rejected_batches,
                    "rejected_jobs": self.audit_rejected_jobs,
                },
                "aggregate": {
                    "batches": self.aggregate_batches,
                    "layer_proofs": self.aggregate_proofs,
                    "per_layer": dict(
                        sorted(self.aggregate_layers.items())
                    ),
                },
                "phase_latency_seconds": self.phases.snapshot(),
                "throughput_jobs_per_second": self.completed / elapsed,
            }
