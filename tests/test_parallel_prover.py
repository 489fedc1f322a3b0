"""The prover's first two phases: CSR evaluation, layer slices, QAP domains.

The contract under test (ISSUE 4, narrowed by ISSUE 22): the CSR path and
the per-LC oracle it replaced are *the same function* — identical
``(A_w, B_w, C_w)``, identical op counts.  (The file keeps its name from
the executor-parallel path that was a third arm of that contract until
PR 22; the test ids that outlived it are recorded under it.)
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate.split import plan_layer_slices
from repro.core.compiler import PrivacySetting, ZenoCompiler, zeno_options
from repro.core.schedule import (
    LayerComparison,
    ParallelSchedule,
    modeled_vs_measured,
)
from repro.core.schedule.scheduler import LayerAssignment
from repro.field.counters import count_ops
from repro.r1cs import evaluate_rows, system as r1cs_system
from repro.r1cs.lc import ONE, LinearCombination, RowBlock, RowSide
from repro.r1cs.system import ConstraintSystem
from repro.snark.qap import Domain, witness_polynomial_evals
from tests.conftest import tiny_conv_model, tiny_image
from tests.lc_oracle import witness_polynomial_evals_lc


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

    def test_csr_structure_reused_z_refreshed(self):
        cs = random_system(random.Random(3), rows=6)
        csr1 = cs.to_csr()
        stale = csr1.z
        var = cs.num_private  # last allocated private variable
        cs.assign(var, 12345)
        csr2 = cs.to_csr()
        assert csr2 is csr1  # structure cache hit
        assert csr2.z is not stale  # but the assignment vector is new
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


def random_side(rng: random.Random, indices, rows: int) -> RowSide:
    p = ConstraintSystem().field.modulus
    indptr, variables, coeffs = [0], [], []
    for _ in range(rows):
        picked = rng.sample(indices, rng.randint(0, min(4, len(indices))))
        variables.extend(picked)
        coeffs.extend(rng.randrange(1, p) for _ in picked)
        indptr.append(len(variables))
    return RowSide(indptr, variables, coeffs)


def pending_system(seed: int) -> ConstraintSystem:
    """``enforce`` rows, a three-sided block, more ``enforce`` rows, rows
    ``[1, 3)`` of an A-only block with its own tags, one more ``enforce``
    row — nothing read yet."""
    rng = random.Random(seed)
    cs = random_system(rng, rows=3)
    indices = list(range(-cs.num_public, cs.num_private + 1))
    cs.mark_layer("head", 0)
    start = cs.num_constraints
    cs.enforce_rows(
        RowBlock(*(random_side(rng, indices, 4) for _ in range(3))),
        tag="three-sided",
    )
    cs.enforce(cs.lc_variable(1), cs.lc_variable(-1), cs.lc_variable(2), tag="mid")
    cs.enforce_rows(
        RowBlock(random_side(rng, indices, 4), tags=["t0", "t1", "t2", "t3"]),
        start=1, stop=3,
    )
    cs.mark_layer("body", start)
    cs.enforce(cs.lc(), cs.lc_constant(1), cs.lc(), tag="tail")
    return cs


class TestPendingRows:
    """Rows stay columns and arrays until something reads
    ``cs.constraints``; the prover's path never does."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_csr_of_pending_rows_equals_csr_of_their_constraints(self, seed):
        pending, listed = pending_system(seed), pending_system(seed)
        assert [type(row).__name__ for row in listed.constraints] == (
            ["Constraint"] * 11
        )
        before, after = pending.to_csr(), listed.to_csr()
        for mine, theirs in zip(before.matrices(), after.matrices()):
            assert mine.indptr.tolist() == theirs.indptr.tolist()
            assert mine.indices.tolist() == theirs.indices.tolist()
            assert mine.coeffs == theirs.coeffs
        assert evaluate_rows(before) == evaluate_rows(after)
        domain = Domain(16)
        assert witness_polynomial_evals(pending, domain) == (
            witness_polynomial_evals_lc(listed, domain)
        )
        assert pending.row_tags() == [c.tag for c in listed.constraints]

    def test_materialized_rows(self):
        cs = pending_system(5)
        rows = cs.constraints
        assert [c.tag for c in rows] == (
            [""] * 3 + ["three-sided"] * 4 + ["mid", "t1", "t2", "tail"]
        )
        three_sided, a_only = rows[3], rows[8]
        assert all(
            type(lc) is LinearCombination
            for lc in (three_sided.a, three_sided.b, three_sided.c)
        )
        assert three_sided.a is not rows[3].a  # every read builds afresh
        assert len(a_only.a) == len(a_only.a.terms)
        assert a_only.b.terms == {ONE: 1} and a_only.c.terms == {}
        assert [c.tag for c in rows[7:10]] == ["mid", "t1", "t2"]
        assert [c.tag for c in rows[-2::-3]] == [
            "t2", "three-sided", "three-sided", ""
        ]
        with pytest.raises(IndexError):
            rows[11]
        # a view read earlier shows rows added later
        cs.enforce(cs.lc(), cs.lc(), cs.lc(), tag="late")
        cs.enforce_rows(RowBlock(random_side(random.Random(1), [1, 2], 2)), tag="later")
        assert [c.tag for c in rows[-3:]] == ["late", "later", "later"]
        assert cs.num_constraints == len(rows) == 14

    def test_an_enforced_lc_is_copied(self):
        cs = ConstraintSystem()
        x = cs.new_private(3)
        lc = cs.lc_variable(x)
        cs.enforce(lc, cs.lc_constant(1), cs.lc())
        lc.add_term(ONE, 5)  # after the fact, before any read
        assert cs.to_csr(assignment=False).a.nnz == 1
        assert cs.constraints[0].a.terms == {x: 1}

    def test_proving_path_builds_no_row_object(self, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("a per-row object was built")

        cs = pending_system(7)
        # x * y = w by enforce, y * w = u as a three-sided block row,
        # (u - 75) * 1 = 0 as an A-only one: satisfied
        sat = ConstraintSystem()
        x, y = sat.new_private(3), sat.new_private(5)
        w = sat.mul_private(x, y)
        u = sat.new_private(75)
        sat.enforce_rows(RowBlock(
            *(RowSide([0, 1], [v], [1]) for v in (y, w, u))
        ))
        sat.enforce_rows(RowBlock(
            RowSide([0, 2], [u, ONE], [1, sat.field.modulus - 75])
        ))
        monkeypatch.setattr(r1cs_system, "Constraint", no_rows)
        monkeypatch.setattr(r1cs_system, "LinearCombination", no_rows)
        assert cs.num_constraints == 11
        assert [cs.layer_of(i) for i in (0, 3, 7, 9, 10)] == [
            "head", "body", "body", "body", None
        ]
        evals = evaluate_rows(cs.to_csr())
        clone = pickle.loads(pickle.dumps(cs))  # prove_split under spawn
        assert clone.num_constraints == 11
        assert evaluate_rows(clone.to_csr()) == evals
        # a satisfied system reports no violation without reading a row
        assert sat.violations() == [] and sat.is_satisfied()
        sat.assign(u, 76)
        with pytest.raises(AssertionError, match="per-row object"):
            sat.violations()  # reporting one does read it

    def test_block_sides_must_agree(self):
        rng = random.Random(2)
        with pytest.raises(ValueError, match="disagree"):
            RowBlock(random_side(rng, [1], 3), random_side(rng, [1], 2))
        with pytest.raises(ValueError, match="disagree"):
            RowBlock(random_side(rng, [1], 3), tags=["only", "two"])


class TestCompiledModelEquivalence:
    """All privacy modes, knit on/off: the CSR path equals the oracle."""

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
        with count_ops() as lc_ops:
            legacy = witness_polynomial_evals_lc(cs, domain)
        with count_ops() as csr_ops:
            csr_path = witness_polynomial_evals(cs, domain)
        assert csr_path == legacy
        assert csr_ops.field_mul == lc_ops.field_mul


class TestScheduleExecutor:
    """What is left under this name: the layer plan's coverage rule, the
    snapshot's pickled form, and the simulated clock's comparison hook."""

    def test_plan_covers_all_rows(self):
        layer_ranges = {"a": range(0, 10), "b": range(10, 25)}
        # contiguous, disjoint, non-empty, covering [0, 30): gap filled
        assert plan_layer_slices(30, layer_ranges) == [
            ("a", 0, 10), ("b", 10, 25), ("rows[25:30]", 25, 30)
        ]

    def test_snapshot_survives_pickling(self):
        """What a non-fork start method does to the snapshots inside a
        published split (``prove_split`` under ``spawn``)."""
        csr = random_system(random.Random(4), rows=8).to_csr()
        clone = pickle.loads(pickle.dumps(csr))
        assert clone.z == csr.z
        assert evaluate_rows(clone) == evaluate_rows(csr)

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
    """Edge shapes the splitter (`repro.aggregate.split`) leans on."""

    def test_single_layer_covers_everything(self):
        assert plan_layer_slices(20, {"only": range(0, 20)}) == [
            ("only", 0, 20)
        ]

    def test_no_named_layers_yields_anonymous_filler(self):
        for ranges in (None, {}):
            assert plan_layer_slices(7, ranges) == [("rows[0:7]", 0, 7)]

    def test_layer_range_clipped_to_row_count(self):
        # A provenance range extending past the system (rows were
        # optimized away) must clip, not fabricate rows.
        assert plan_layer_slices(5, {"long": range(0, 99)}) == [
            ("long", 0, 5)
        ]

    def test_zero_width_layer_dropped(self):
        ranges = {"empty": range(2, 2), "real": range(0, 4)}
        assert plan_layer_slices(4, ranges) == [("real", 0, 4)]

    def test_overlap_resolved_by_start_order(self):
        # Not first-tag-wins (ConstraintSystem._build_layer_index): the
        # range that starts later keeps only what lies past the earlier
        # one, whatever the insertion order; a swallowed range vanishes.
        ranges = {"late": range(6, 12), "inner": range(2, 5),
                  "early": range(0, 8)}
        assert plan_layer_slices(14, ranges) == [
            ("early", 0, 8), ("late", 8, 12), ("rows[12:14]", 12, 14)
        ]
