"""Tests for the workload-specialized parallel scheduler (§5.2)."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit.compute import CircuitComputer, CompilerOptions
from repro.core.lang.program import program_from_model
from repro.core.schedule.counter import gate_count_map, layer_gate_counts
from repro.core.schedule.scheduler import ParallelSchedule, WorkloadScheduler
from repro.core.schedule.simclock import simulate_parallel_time
from repro.nn.models import build_model
from tests.conftest import tiny_conv_model, tiny_image


@dataclass
class FakeWork:
    name: str
    num_units: int
    work_units: int
    wall_time: float = 1.0


class TestGateCounting:
    def test_counts_from_shapes_match_layer_methods(self, tiny_model):
        counts = layer_gate_counts(tiny_model)
        by_name = {c.name: c for c in counts}
        conv = tiny_model.node("conv").layer
        assert by_name["conv"].multiplications == conv.macs((1, 6, 6))
        assert by_name["conv"].additions == conv.adds((1, 6, 6))
        assert by_name["conv"].independent_units == 2 * 4 * 4

    def test_no_circuit_parsing_needed(self, tiny_model):
        """Counting works on the plaintext model alone — the §5.2 point."""
        counts = gate_count_map(tiny_model)
        assert set(counts) == {n.name for n in tiny_model.nodes}

    def test_counts_match_program_macs(self, tiny_model):
        program = program_from_model(tiny_model, tiny_image())
        counts = gate_count_map(tiny_model)
        total_from_shapes = sum(
            c.multiplications for c in counts.values() if c.kind == "dot"
        )
        assert total_from_shapes == program.total_macs()


class TestPartitioning:
    def test_even_split(self):
        scheduler = WorkloadScheduler(4)
        assert scheduler.partition_units(8) == [2, 2, 2, 2]
        assert scheduler.partition_units(10) == [3, 3, 2, 2]
        assert scheduler.partition_units(2) == [1, 1, 0, 0]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkloadScheduler(0)

    @given(
        units=st.integers(min_value=0, max_value=10_000),
        workers=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50)
    def test_property_partition_conserves_and_balances(self, units, workers):
        parts = WorkloadScheduler(workers).partition_units(units)
        assert sum(parts) == units
        assert max(parts) - min(parts) <= 1


class TestSchedule:
    def test_speedup_bounded_by_workers(self):
        scheduler = WorkloadScheduler(16)
        work = [FakeWork("a", 1600, 16000), FakeWork("b", 320, 3200)]
        schedule = scheduler.schedule(work)
        assert 1.0 <= schedule.speedup() <= 16.0
        assert schedule.speedup() == pytest.approx(16.0)

    def test_small_layers_limit_speedup(self):
        """Layers with fewer units than workers leave workers idle —
        why the paper's measured scheduler speedup (6.2x) < thread count."""
        scheduler = WorkloadScheduler(16)
        work = [FakeWork("tiny", 2, 100)]
        schedule = scheduler.schedule(work)
        assert schedule.speedup() == pytest.approx(2.0)
        assert schedule.utilization() < 0.2

    def test_sequential_layers_sum(self):
        scheduler = WorkloadScheduler(4)
        work = [FakeWork("a", 4, 40), FakeWork("b", 1, 100)]
        schedule = scheduler.schedule(work)
        # span = 10 (a balanced) + 100 (b serial); total = 140
        assert schedule.span_work() == pytest.approx(110.0)
        assert schedule.total_work() == pytest.approx(140.0)

    def test_single_worker_is_sequential(self):
        schedule = WorkloadScheduler(1).schedule([FakeWork("a", 10, 100)])
        assert schedule.speedup() == pytest.approx(1.0)

    def test_empty_schedule(self):
        schedule = WorkloadScheduler(4).schedule([])
        assert schedule.speedup() == 1.0
        assert schedule.utilization() == 1.0


class TestSimulatedClock:
    def test_parallel_time_scales_sequential_time(self):
        scheduler = WorkloadScheduler(4)
        work = [FakeWork("a", 4, 400, wall_time=2.0)]
        schedule = scheduler.schedule(work)
        assert simulate_parallel_time(schedule, work) == pytest.approx(0.5)

    def test_zero_work_layers_pass_through(self):
        scheduler = WorkloadScheduler(4)
        work = [FakeWork("a", 1, 0, wall_time=0.25)]
        schedule = scheduler.schedule(work)
        assert simulate_parallel_time(schedule, work) == pytest.approx(0.25)

    def test_end_to_end_on_real_layer_work(self, tiny_model):
        program = program_from_model(tiny_model, tiny_image())
        result = CircuitComputer(program, CompilerOptions()).compute()
        schedule = WorkloadScheduler(8).schedule(result.layer_work)
        parallel = simulate_parallel_time(schedule, result.layer_work)
        assert 0 < parallel <= result.wall_time

    def test_schedule_from_shapes_predicts_measured_schedule(self):
        """§5.2's point: scheduling needs no compiled circuit.  The
        shape-derived schedule's speedup must approximate the schedule
        built from measured per-layer work."""
        model = build_model("LCS", scale="mini")
        from repro.nn.data import synthetic_images

        image = synthetic_images(model.input_shape, n=1, seed=0)[0]
        scheduler = WorkloadScheduler(16)
        predicted = scheduler.schedule_from_model(model)

        program = program_from_model(model, image)
        result = CircuitComputer(program, CompilerOptions()).compute()
        measured = scheduler.schedule(result.layer_work)

        assert predicted.speedup() == pytest.approx(
            measured.speedup(), rel=0.5
        )
        assert predicted.speedup() > 4.0

    def test_schedule_from_model_covers_all_layers(self):
        model = build_model("SHAL", scale="mini")
        schedule = WorkloadScheduler(4).schedule_from_model(model)
        assert {a.name for a in schedule.assignments} == {
            n.name for n in model.nodes
        }

    def test_more_workers_never_slower(self):
        model = build_model("LCS", scale="mini")
        from repro.nn.data import synthetic_images

        image = synthetic_images(model.input_shape, n=1, seed=0)[0]
        program = program_from_model(model, image)
        result = CircuitComputer(program, CompilerOptions()).compute()
        times = []
        for workers in (1, 2, 4, 16):
            schedule = WorkloadScheduler(workers).schedule(result.layer_work)
            times.append(simulate_parallel_time(schedule, result.layer_work))
        assert times == sorted(times, reverse=True)
