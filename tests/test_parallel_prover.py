"""Parallel prover engine: CSR evaluation, schedule executor, QAP domains.

The contract under test (ISSUE 4): the CSR fast path, the
executor-parallel path, and the legacy per-LC path are *the same
function* — identical ``(A_w, B_w, C_w)``, identical quotients, identical
proofs, identical op counts — differing only in wall-clock.
"""

import multiprocessing
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pool
from repro.core.compiler import PrivacySetting, ZenoCompiler, zeno_options
from repro.core.schedule import executor as executor_mod
from repro.core.schedule import (
    LayerComparison,
    ParallelSchedule,
    ScheduleExecutor,
    modeled_vs_measured,
    plan_layer_slices,
)
from repro.core.schedule.scheduler import LayerAssignment
from repro.field.counters import count_ops
from repro.r1cs import evaluate_rows
from repro.r1cs.system import ConstraintSystem
from repro.snark import groth16
from repro.snark.qap import (
    Domain,
    quotient_coefficients,
    witness_polynomial_evals,
)
from repro.snark.serialize import serialize_proof
from tests.conftest import tiny_conv_model, tiny_image
from tests.lc_oracle import witness_polynomial_evals_lc


@pytest.fixture(autouse=True)
def open_witness_gate(monkeypatch):
    """These circuits are far below the size where worker processes pay;
    open the executor's gate so its pool path is what gets tested."""
    monkeypatch.setattr(executor_mod, "PARALLEL_MIN_TERMS", 0)


def random_system(rng: random.Random, rows: int) -> ConstraintSystem:
    """A satisfiable-or-not random R1CS exercising all index namespaces."""
    cs = ConstraintSystem(name="rand")
    p = cs.field.modulus
    publics = [cs.new_public(rng.randrange(p)) for _ in range(rng.randint(1, 3))]
    privates = [cs.new_private(rng.randrange(p)) for _ in range(rng.randint(2, 6))]
    indices = [0] + publics + privates  # 0 == ONE
    for _ in range(rows):
        lcs = []
        for _side in range(3):
            lc = cs.lc()
            for _ in range(rng.randint(0, 4)):
                lc = lc + cs.lc_variable(
                    rng.choice(indices), rng.randrange(1, p)
                )
            lcs.append(lc)
        cs.enforce(*lcs)
    return cs


class TestCSREquivalence:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_csr_matches_legacy_lc(self, seed):
        rng = random.Random(seed)
        cs = random_system(rng, rows=rng.randint(1, 12))
        domain = Domain(max(cs.num_constraints, 2))
        lc_evals = witness_polynomial_evals_lc(cs, domain)
        csr_evals = witness_polynomial_evals(cs, domain)
        assert csr_evals == lc_evals

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_executor_matches_sequential(self, seed):
        rng = random.Random(seed)
        cs = random_system(rng, rows=rng.randint(4, 16))
        csr = cs.to_csr()
        seq = evaluate_rows(csr)
        par = ScheduleExecutor(num_workers=2).evaluate_witness(csr)
        assert (par.a_rows, par.b_rows, par.c_rows) == seq

    def test_csr_structure_reused_z_refreshed(self):
        cs = random_system(random.Random(3), rows=6)
        csr1 = cs.to_csr()
        stamp = csr1.stamp
        var = cs.num_private  # last allocated private variable
        cs.assign(var, 12345)
        csr2 = cs.to_csr()
        assert csr2 is csr1  # structure cache hit
        assert csr2.stamp != stamp  # but the snapshot state moved
        assert csr2.z[1 + cs.num_public + var - 1] == 12345
        # appending a constraint rebuilds the structure
        cs.enforce(cs.lc_constant(0), cs.lc_constant(0), cs.lc())
        assert cs.to_csr() is not csr1

    def test_violations_csr_path_matches_legacy(self):
        rng = random.Random(9)
        cs = random_system(rng, rows=10)
        fast = cs.violations()
        slow = cs.violations(assignment=cs.assignment())
        assert [v.index for v in fast] == [v.index for v in slow]


class TestCompiledModelEquivalence:
    """All privacy modes, knit on/off: every path computes the same proof."""

    @pytest.mark.parametrize(
        "privacy", [
            PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS,
            PrivacySetting.PRIVATE_IMAGE_PRIVATE_WEIGHTS,
        ],
    )
    @pytest.mark.parametrize("knit", [True, False])
    def test_witness_evals_identical(self, privacy, knit):
        compiler = ZenoCompiler(zeno_options(privacy, knit=knit))
        artifact = compiler.compile_model(tiny_conv_model(), tiny_image())
        cs = artifact.cs
        domain = Domain.for_size(max(cs.num_constraints, 2))
        legacy = witness_polynomial_evals_lc(cs, domain)
        csr_path = witness_polynomial_evals(cs, domain)
        parallel = witness_polynomial_evals(cs, domain, parallelism=2)
        assert csr_path == legacy
        assert parallel == legacy
        h_seq = quotient_coefficients(cs, domain)
        h_par = quotient_coefficients(cs, domain, parallelism=2)
        assert h_par == h_seq

    def test_proofs_byte_identical_seq_vs_parallel(self):
        compiler = ZenoCompiler(
            zeno_options(PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS)
        )
        artifact = compiler.compile_model(tiny_conv_model(), tiny_image())
        cs = artifact.cs
        setup = groth16.setup(cs, rng=random.Random(5))
        seq = groth16.prove(setup.proving_key, cs, rng=random.Random(6))
        par = groth16.prove(
            setup.proving_key, cs, rng=random.Random(6), parallelism=2
        )
        assert serialize_proof(seq) == serialize_proof(par)
        assert groth16.verify(setup.verifying_key, cs.public_values(), par)

    def test_op_count_parity_sequential_vs_parallel(self):
        """parallelism=1 and the plain path tally identical field ops;
        parallel workers' merged tallies match too."""
        cs = random_system(random.Random(17), rows=24)
        domain = Domain(max(cs.num_constraints, 2))
        with count_ops() as seq_ops:
            witness_polynomial_evals(cs, domain)
        with count_ops() as one_ops:
            witness_polynomial_evals(cs, domain, parallelism=1)
        with count_ops() as par_ops:
            witness_polynomial_evals(cs, domain, parallelism=2)
        assert seq_ops.snapshot() == one_ops.snapshot()
        assert seq_ops.field_mul == par_ops.field_mul


class TestScheduleExecutor:
    def test_plan_covers_all_rows(self):
        layer_ranges = {"a": range(0, 10), "b": range(10, 25)}
        plan = plan_layer_slices(30, layer_ranges, num_workers=3)
        covered = sorted(
            (s, e) for layer in plan for (s, e) in layer.spans
        )
        # spans are contiguous, disjoint, and cover [0, 30)
        assert covered[0][0] == 0 and covered[-1][1] == 30
        for (s0, e0), (s1, e1) in zip(covered, covered[1:]):
            assert e0 == s1 and s0 < e0
        names = [layer.name for layer in plan]
        assert "a" in names and "b" in names
        assert any(name.startswith("rows[") for name in names)  # gap filler

    def test_plan_follows_schedule_shares(self):
        schedule = ParallelSchedule(
            num_workers=2,
            assignments=[
                LayerAssignment(
                    name="conv", units_per_worker=[3, 1], work_per_unit=1.0
                )
            ],
        )
        plan = plan_layer_slices(
            8, {"conv": range(0, 8)}, num_workers=2, schedule=schedule
        )
        assert plan[0].spans == ((0, 6), (6, 8))  # 3:1 split of 8 rows

    def test_pickle_mode_matches_fork_mode(self, monkeypatch):
        """Without fork the snapshot reaches the workers pickled (here:
        spawn); rows and merged op counts must not depend on which."""
        cs = random_system(random.Random(23), rows=9)
        csr = cs.to_csr()
        with count_ops() as fork_ops:
            fork = ScheduleExecutor(num_workers=2).evaluate_witness(csr)
        monkeypatch.setattr(
            pool, "context", lambda: multiprocessing.get_context("spawn")
        )
        csr.restamp()  # same rows, but force a fresh (spawned) pool
        with count_ops() as pick_ops:
            pick = ScheduleExecutor(num_workers=2).evaluate_witness(csr)
        pool.shutdown()
        assert (fork.a_rows, fork.b_rows, fork.c_rows) == (
            pick.a_rows, pick.b_rows, pick.c_rows
        )
        assert fork_ops.snapshot() == pick_ops.snapshot()
        assert fork_ops.field_mul == csr.total_terms()

    def test_small_systems_stay_in_process(self, monkeypatch):
        """The gate: below PARALLEL_MIN_TERMS no worker is started, however
        many workers the caller asked for."""
        monkeypatch.undo()  # restore the real threshold
        cs = random_system(random.Random(29), rows=12)
        csr = cs.to_csr()
        assert csr.total_terms() < executor_mod.PARALLEL_MIN_TERMS
        pool.shutdown()
        gated = ScheduleExecutor(num_workers=2).evaluate_witness(csr)
        assert pool._shared_pool is None
        assert (gated.a_rows, gated.b_rows, gated.c_rows) == evaluate_rows(csr)

    def test_snapshot_survives_pickling(self):
        """What a non-fork start method does to the published snapshot."""
        csr = random_system(random.Random(4), rows=8).to_csr()
        clone = pickle.loads(pickle.dumps(csr))
        assert clone.stamp == csr.stamp
        assert evaluate_rows(clone, 3, 7) == tuple(
            rows[3:7] for rows in evaluate_rows(csr)
        )

    def test_modeled_vs_measured(self):
        class Work:
            def __init__(self, name, wall_time):
                self.name = name
                self.wall_time = wall_time

        schedule = ParallelSchedule(
            num_workers=2,
            assignments=[
                LayerAssignment("conv", [2, 2], 1.0),
                LayerAssignment("fc", [1, 0], 1.0),
            ],
        )
        work = [Work("conv", 4.0), Work("fc", 1.0)]
        comparisons = modeled_vs_measured(
            schedule, work, {"conv": 2.5, "fc": 1.1}
        )
        assert [c.name for c in comparisons] == ["conv", "fc"]
        conv = comparisons[0]
        assert isinstance(conv, LayerComparison)
        assert conv.modeled == pytest.approx(2.0)  # 4.0 * span 2 / total 4
        assert conv.ratio == pytest.approx(1.25)
        # layers missing measurements are skipped, not fabricated
        assert modeled_vs_measured(schedule, work, {"conv": 2.5}) != []


class TestDomainTables:
    def test_chain_to_coset_equals_two_step(self):
        domain = Domain(16)
        p = domain.field.modulus
        rng = random.Random(0)
        evals = [rng.randrange(p) for _ in range(domain.size)]
        assert domain.chain_to_coset(evals) == domain.coset_ntt(
            domain.intt(evals)
        )

    def test_for_size_memoizes(self):
        assert Domain.for_size(100) is Domain.for_size(128)
        assert Domain.for_size(100).size == 128

    def test_ntt_tallies_adds_and_muls(self):
        domain = Domain(8)
        with count_ops() as ops:
            domain.ntt([1, 2, 3, 4, 5, 6, 7, 8])
        d, log2d = 8, 3
        assert ops.field_mul == (d // 2) * log2d
        assert ops.field_add == d * log2d


class TestPlanLayerSlicesEdgeCases:
    """Edge shapes the splitter (`repro.aggregate`) leans on."""

    def test_single_layer_covers_everything(self):
        plan = plan_layer_slices(20, {"only": range(0, 20)}, num_workers=2)
        assert [layer.name for layer in plan] == ["only"]
        assert (plan[0].start, plan[0].stop) == (0, 20)
        spans = [span for layer in plan for span in layer.spans]
        assert spans[0][0] == 0 and spans[-1][1] == 20

    def test_no_named_layers_yields_anonymous_filler(self):
        for ranges in (None, {}):
            plan = plan_layer_slices(7, ranges, num_workers=2)
            assert len(plan) == 1
            assert plan[0].name == "rows[0:7]"
            assert (plan[0].start, plan[0].stop) == (0, 7)

    def test_more_workers_than_rows(self):
        plan = plan_layer_slices(3, {"tiny": range(0, 3)}, num_workers=8)
        # Coverage is total and no span is empty.
        covered = sorted(
            span for layer in plan for span in layer.spans
        )
        assert covered[0][0] == 0 and covered[-1][1] == 3
        for start, stop in covered:
            assert start < stop
        for (s0, e0), (s1, e1) in zip(covered, covered[1:]):
            assert e0 == s1

    def test_more_workers_than_layers(self):
        ranges = {"a": range(0, 4), "b": range(4, 9)}
        plan = plan_layer_slices(9, ranges, num_workers=6)
        assert [layer.name for layer in plan] == ["a", "b"]
        covered = sorted(
            span for layer in plan for span in layer.spans
        )
        assert covered[0][0] == 0 and covered[-1][1] == 9
        for (s0, e0), (s1, e1) in zip(covered, covered[1:]):
            assert e0 == s1 and s0 < e0

    def test_layer_range_clipped_to_row_count(self):
        # A provenance range extending past the system (rows were
        # optimized away) must clip, not fabricate rows.
        plan = plan_layer_slices(5, {"long": range(0, 99)}, num_workers=2)
        assert (plan[0].start, plan[0].stop) == (0, 5)

    def test_zero_width_layer_dropped(self):
        plan = plan_layer_slices(
            4, {"empty": range(2, 2), "real": range(0, 4)}, num_workers=1
        )
        assert [layer.name for layer in plan] == ["real"]
