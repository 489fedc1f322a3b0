"""Simulated-clock execution of a parallel schedule.

Python's GIL prevents genuine thread-level speedup for this workload, so —
per the substitution note in DESIGN.md — parallel latency is *simulated*:
the schedule's per-layer worker assignment is exact, and the parallel wall
time is derived from the measured **sequential** wall time of each layer,

    parallel_time(layer) = sequential_time(layer) * span_work / total_work.

This preserves every effect the paper measures (imbalance on small layers,
sequential cross-layer dependencies, diminishing returns with more
workers) while staying deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.schedule.scheduler import ParallelSchedule


def simulate_parallel_time(
    schedule: ParallelSchedule, layer_work: Sequence
) -> float:
    """Parallel wall time implied by measured sequential layer times."""
    by_name = {layer.name: layer for layer in layer_work}
    total = 0.0
    for assignment in schedule.assignments:
        layer = by_name[assignment.name]
        work = assignment.total_work()
        if work <= 0 or layer.wall_time <= 0:
            total += layer.wall_time
            continue
        total += layer.wall_time * assignment.span_work() / work
    return total


@dataclass(frozen=True)
class LayerComparison:
    """Modeled vs measured span for one layer."""

    name: str
    modeled: float  # seconds the simclock model predicts for this layer
    measured: float  # seconds a real run spent on this layer

    @property
    def ratio(self) -> float:
        """measured / modeled — 1.0 means the model was exact."""
        return self.measured / self.modeled if self.modeled > 0 else 0.0


def modeled_vs_measured(
    schedule: ParallelSchedule,
    layer_work: Sequence,
    measured_spans: Dict[str, float],
) -> List[LayerComparison]:
    """Compare the simclock's predicted per-layer spans against measured
    ones (``measured_spans``: ``{layer name: seconds}``, from whatever ran
    the layers for real).

    The model stays the deterministic source of truth for figures; this
    hook quantifies how far a real run lands from it.  Layers present on
    only one side are skipped.
    """
    by_name = {layer.name: layer for layer in layer_work}
    out: List[LayerComparison] = []
    for assignment in schedule.assignments:
        layer = by_name.get(assignment.name)
        measured = measured_spans.get(assignment.name)
        if layer is None or measured is None:
            continue
        work = assignment.total_work()
        modeled = (
            layer.wall_time * assignment.span_work() / work
            if work > 0 and layer.wall_time > 0
            else layer.wall_time
        )
        out.append(
            LayerComparison(
                name=assignment.name, modeled=modeled, measured=measured
            )
        )
    return out
