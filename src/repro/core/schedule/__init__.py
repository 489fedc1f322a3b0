"""Workload-specialized parallel scheduler (§5.2) on a simulated clock."""

from repro.core.schedule.counter import layer_gate_counts
from repro.core.schedule.scheduler import ParallelSchedule, WorkloadScheduler
from repro.core.schedule.simclock import (
    LayerComparison,
    modeled_vs_measured,
    simulate_parallel_time,
)

__all__ = [
    "layer_gate_counts",
    "LayerComparison",
    "WorkloadScheduler",
    "ParallelSchedule",
    "modeled_vs_measured",
    "simulate_parallel_time",
]
