"""Executor-backed §5.2 scheduling: real workers over CSR constraint rows.

:mod:`repro.core.schedule.simclock` *models* the paper's Circuit
Computation parallelism (exact layer partition, simulated wall time); this
module *executes* it.  The unit of work is one constraint row of the CSR
snapshot (:mod:`repro.r1cs.csr`): rows inside one layer's range are
independent (they only read the already-assigned witness), so each layer's
row range is partitioned across a process pool following the
:class:`~repro.core.schedule.scheduler.ParallelSchedule` worker
assignments, and layers are gathered in order — the paper's
"parallelism within a layer, layers sequential" shape.

Workers come from :mod:`repro.core.pool`: the CSR snapshot is published
to a pool keyed by the snapshot's ``stamp`` (see :mod:`repro.r1cs.csr`),
so payloads are just ``(start, stop)`` row spans, repeated proves over the
same witness reuse the warm pool, and any structure change or witness
re-assignment restamps the snapshot and replaces the pool.  Worker op
counts are merged back, so the parent's cost-model counters match the
sequential path exactly — the op-count parity the regression tests pin
down.

Small systems stay in-process: below :data:`PARALLEL_MIN_TERMS` CSR terms
the fork + result pickling costs more than the rows themselves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import pool
from repro.core.schedule.scheduler import ParallelSchedule
from repro.r1cs.csr import CSRSystem, evaluate_rows

# Below this many CSR terms (nnz over A, B, C) the rows evaluate in-process
# whatever the worker count.  Measured on the 2-core reference host, 2
# workers vs in-process, pool already warm (two runs, best of 7): 14.5k
# terms 0.51x, 219k 0.51x, 239k 1.13x/0.58x, 382k 0.66x, 475k 0.96x, 1.15M
# 0.87x/1.24x, 2.58M 1.19x/1.51x — a loss or a coin-flip through 1.15M,
# ahead in both runs only at 2.58M, so the gate sits between those two.
# Even there it is marginal on two cores: with a fresh fork per witness
# the workers lost at every one of these sizes (0.72-0.86x at 2.58M), and
# inside a whole groth16.prove on LCL:full (2.58M terms, the one paper
# model above the gate) two workers lost 5 of 5 alternating pairs, 1.28 s
# against 0.90 s: the reference host's second vCPU only delivers a second
# core after about a second of sustained load, which a 0.3 s phase never
# is (EXPERIMENTS.md "One benchmark layer").  The gate is a placeholder
# until it is re-measured on a host with real cores.
PARALLEL_MIN_TERMS = 2_000_000


def _eval_span(csr: CSRSystem, span: Tuple[int, int]):
    """Worker entry: rows ``[start, stop)`` of the published snapshot, plus
    the measured seconds."""
    began = time.perf_counter()
    rows = evaluate_rows(csr, *span)
    return rows, time.perf_counter() - began


# -- layer planning ---------------------------------------------------------------


@dataclass(frozen=True)
class LayerSlices:
    """One layer's row range, partitioned into per-worker spans."""

    name: str
    start: int
    stop: int
    spans: Tuple[Tuple[int, int], ...]  # contiguous, non-empty, in order

    @property
    def num_rows(self) -> int:
        return self.stop - self.start


def _proportional_spans(
    start: int, stop: int, shares: Sequence[int]
) -> Tuple[Tuple[int, int], ...]:
    """Split ``[start, stop)`` into contiguous spans proportional to
    ``shares`` (monotone integer cuts; zero-width spans are dropped)."""
    total = sum(shares)
    n = stop - start
    if total <= 0 or n <= 0:
        return ((start, stop),) if n > 0 else ()
    spans: List[Tuple[int, int]] = []
    acc = 0
    prev = 0
    for share in shares:
        acc += share
        cut = (n * acc) // total
        if cut > prev:
            spans.append((start + prev, start + cut))
        prev = cut
    return tuple(spans)


def plan_layer_slices(
    num_rows: int,
    layer_ranges: Optional[Dict[str, range]] = None,
    num_workers: int = 1,
    schedule: Optional[ParallelSchedule] = None,
) -> List[LayerSlices]:
    """Partition ``num_rows`` constraint rows into per-layer worker spans.

    Layer provenance comes from ``ConstraintSystem.layer_ranges``; rows
    outside every tagged range (e.g. a trailing knit flush) become
    anonymous filler layers so coverage is total.  When a
    :class:`ParallelSchedule` is given, each matching layer's rows are
    split proportionally to its ``units_per_worker`` assignment — the
    §5.2 partition, re-expressed over constraint rows; otherwise rows
    split evenly across ``num_workers``.
    """
    by_name = (
        {a.name: a for a in schedule.assignments} if schedule is not None else {}
    )
    ordered = sorted(
        (
            (rng.start, min(rng.stop, num_rows), name)
            for name, rng in (layer_ranges or {}).items()
            if rng.start < min(rng.stop, num_rows)
        ),
    )
    plan: List[LayerSlices] = []

    def add(name: str, start: int, stop: int) -> None:
        assignment = by_name.get(name)
        shares = (
            assignment.units_per_worker
            if assignment is not None
            else [1] * max(num_workers, 1)
        )
        spans = _proportional_spans(start, stop, shares)
        if spans:
            plan.append(LayerSlices(name, start, stop, spans))

    cursor = 0
    for start, stop, name in ordered:
        if start > cursor:
            add(f"rows[{cursor}:{start}]", cursor, start)
        add(name, max(start, cursor), stop)
        cursor = max(cursor, stop)
    if cursor < num_rows:
        add(f"rows[{cursor}:{num_rows}]", cursor, num_rows)
    return plan


# -- the executor -----------------------------------------------------------------


@dataclass
class WitnessEvaluation:
    """Result of one executor-parallel witness evaluation."""

    a_rows: List[int]
    b_rows: List[int]
    c_rows: List[int]
    num_workers: int
    layer_seconds: Dict[str, float] = field(default_factory=dict)  # max span
    wall_time: float = 0.0


class ScheduleExecutor:
    """Evaluates witness rows layer-by-layer in real worker processes.

    The deterministic model (:mod:`~repro.core.schedule.simclock`) stays
    the source of *predicted* speedups; this executor produces *measured*
    per-layer spans that
    :func:`~repro.core.schedule.simclock.modeled_vs_measured` compares
    against the model.
    """

    def __init__(self, num_workers: int = 2) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers

    def evaluate_witness(
        self,
        csr: CSRSystem,
        layer_ranges: Optional[Dict[str, range]] = None,
        schedule: Optional[ParallelSchedule] = None,
    ) -> WitnessEvaluation:
        """``(A_w, B_w, C_w)`` rows via the worker pool, layers in order."""
        if csr.z is None:
            raise ValueError("CSR snapshot has no assignment vector")
        began = time.perf_counter()
        plan = plan_layer_slices(
            csr.num_rows, layer_ranges, self.num_workers, schedule
        )
        if (
            self.num_workers == 1
            or not plan
            or csr.total_terms() < PARALLEL_MIN_TERMS
        ):
            a_rows, b_rows, c_rows = evaluate_rows(csr)
            layer_seconds = {layer.name: 0.0 for layer in plan}
        else:
            a_rows, b_rows, c_rows = ([0] * csr.num_rows for _ in range(3))
            layer_seconds = {}
            done = pool.map_shared(
                csr,
                _eval_span,
                [span for layer in plan for span in layer.spans],
                self.num_workers,
                key=csr.stamp,
            )
            for layer in plan:
                span_max = 0.0
                for start, stop in layer.spans:
                    (a, b, c), seconds = next(done)
                    a_rows[start:stop] = a
                    b_rows[start:stop] = b
                    c_rows[start:stop] = c
                    span_max = max(span_max, seconds)
                layer_seconds[layer.name] = span_max
        return WitnessEvaluation(
            a_rows, b_rows, c_rows, self.num_workers, layer_seconds,
            wall_time=time.perf_counter() - began,
        )
