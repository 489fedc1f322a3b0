"""Tests for the constraint-system optimizer passes."""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.circuit.compute import CircuitComputer, CompilerOptions
from repro.core.compiler import ZenoCompiler, zeno_options
from repro.core.lang.types import Privacy
from repro.r1cs.optimize import (
    deduplicate_constraints,
    eliminate_unconstrained,
    optimize,
    referenced_private_variables,
)
from repro.r1cs.system import ConstraintSystem
from repro.snark import groth16
from tests.conftest import tiny_conv_model, tiny_image
from tests.test_property_compiler import small_programs


def cs_with_dead_vars():
    cs = ConstraintSystem()
    x = cs.new_private(6)
    cs.new_private(999)  # never referenced
    w = cs.new_private(7)
    cs.new_private(888)  # never referenced
    wire = cs.mul_private(x, w)
    ref = cs.new_public(42)
    cs.enforce_equal(cs.lc_variable(wire), cs.lc_variable(ref))
    return cs


class TestEliminateUnconstrained:
    def test_drops_only_dead_vars(self):
        cs = cs_with_dead_vars()
        slim, dropped = eliminate_unconstrained(cs)
        assert dropped == 2
        assert slim.num_private == cs.num_private - 2
        assert slim.num_public == cs.num_public
        assert slim.is_satisfied()

    def test_referenced_set(self):
        cs = cs_with_dead_vars()
        used = referenced_private_variables(cs)
        assert used == {1, 3, 5}  # x, w, wire

    def test_public_values_preserved(self):
        cs = cs_with_dead_vars()
        slim, _ = eliminate_unconstrained(cs)
        assert slim.public_values() == cs.public_values()

    def test_noop_when_all_used(self):
        cs = ConstraintSystem()
        wire = cs.mul_private(cs.new_private(2), cs.new_private(3))
        cs.enforce_equal(cs.lc_variable(wire), cs.lc_constant(6))
        slim, dropped = eliminate_unconstrained(cs)
        assert dropped == 0
        assert slim.num_private == cs.num_private


class TestDeduplicate:
    def test_removes_exact_duplicates(self):
        cs = ConstraintSystem()
        x = cs.new_private(5)
        lc = cs.lc_variable(x)
        for _ in range(3):
            cs.enforce(lc.copy(), cs.lc_constant(1), cs.lc_variable(x))
        deduped, removed = deduplicate_constraints(cs)
        assert removed == 2
        assert deduped.num_constraints == 1
        assert deduped.is_satisfied()

    def test_distinct_constraints_kept(self):
        cs = cs_with_dead_vars()
        _, removed = deduplicate_constraints(cs)
        assert removed == 0


class TestOptimizeCompiledSystems:
    def test_both_private_sheds_zero_weight_commitments(self):
        """Zero int8 weights are committed but never referenced (Eq. 2
        skips zero products) — the pass reclaims them."""
        model = tiny_conv_model()
        program_opts = CompilerOptions()
        from repro.core.lang.program import program_from_model

        program = program_from_model(
            model, tiny_image(), weights_privacy=Privacy.PRIVATE
        )
        result = CircuitComputer(program, program_opts).compute()
        zero_weights = sum(
            int(np.sum(op.weight_rows == 0)) for op in program.dot_ops()
        )
        slim, report = optimize(result.cs)
        assert report.variables_removed >= zero_weights > 0
        assert slim.is_satisfied()
        assert slim.public_values() == result.cs.public_values()

    def test_optimized_system_still_proves(self):
        artifact = ZenoCompiler(zeno_options()).compile_model(
            tiny_conv_model(), tiny_image()
        )
        slim, report = optimize(artifact.cs)
        setup = groth16.setup(slim, rng=random.Random(1))
        proof = groth16.prove(setup.proving_key, slim, rng=random.Random(2))
        assert groth16.verify(setup.verifying_key, slim.public_values(), proof)
        assert report.constraints_after <= report.constraints_before

    @given(program=small_programs())
    @settings(max_examples=15, deadline=None)
    def test_property_optimization_preserves_semantics(self, program):
        result = CircuitComputer(program, CompilerOptions()).compute()
        slim, report = optimize(result.cs)
        assert slim.is_satisfied()
        assert slim.public_values() == result.cs.public_values()
        assert report.variables_after <= report.variables_before
        assert report.constraints_after <= report.constraints_before
        # Every remaining private variable is referenced.
        assert len(referenced_private_variables(slim)) == slim.num_private


class TestCanonicalKey:
    def test_scalar_multiple_and_term_order(self):
        from repro.r1cs.optimize import canonical_constraint_key

        cs = ConstraintSystem()
        x = cs.lc_variable(cs.new_private(2))
        y = cs.lc_variable(cs.new_private(3))
        base = cs.constraints
        cs.enforce(x + y, x, cs.lc_constant(10))
        cs.enforce((x + y) * 7, x * 5, cs.lc_constant(10) * 35)  # scaled
        cs.enforce(x * 5, (x + y) * 7, cs.lc_constant(10) * 35)  # A/B swapped
        keys = {canonical_constraint_key(c) for c in base}
        assert len(keys) == 1

    def test_linear_constraints_normalized(self):
        from repro.r1cs.optimize import canonical_constraint_key

        cs = ConstraintSystem()
        x = cs.lc_variable(cs.new_private(4))
        # An empty product side leaves a pure linear statement <C, z> = 0.
        cs.enforce(cs.lc(), cs.lc(), x - cs.lc_constant(4))
        cs.enforce(cs.lc(), cs.lc(), (x - cs.lc_constant(4)) * 9)
        k1, k2 = (canonical_constraint_key(c) for c in cs.constraints)
        assert k1 == k2
        assert k1[0] == "linear"
        # The equality-check shape (diff * 1 = 0) also dedupes mod scale.
        cs2 = ConstraintSystem()
        y = cs2.lc_variable(cs2.new_private(4))
        cs2.enforce(y - cs2.lc_constant(4), cs2.lc_constant(1), cs2.lc())
        cs2.enforce((y - cs2.lc_constant(4)) * 9, cs2.lc_constant(1), cs2.lc())
        k3, k4 = (canonical_constraint_key(c) for c in cs2.constraints)
        assert k3 == k4

    def test_distinct_relations_differ(self):
        from repro.r1cs.optimize import canonical_constraint_key

        cs = ConstraintSystem()
        x = cs.lc_variable(cs.new_private(2))
        cs.enforce(x, x, cs.lc_constant(4))
        cs.enforce(x, x, cs.lc_constant(5))
        k1, k2 = (canonical_constraint_key(c) for c in cs.constraints)
        assert k1 != k2


class TestDeduplicateScalarMultiples:
    def scaled_dup_cs(self):
        cs = ConstraintSystem()
        x = cs.lc_variable(cs.new_private(2))
        y = cs.lc_variable(cs.new_private(5))
        cs.enforce(x + y, x, cs.lc_constant(14), tag="orig")
        cs.enforce(x * 3, (x + y) * 2, cs.lc_constant(14) * 6, tag="scaled-dup")
        cs.enforce(x, y, cs.lc_constant(10), tag="distinct")
        return cs

    def test_scaled_duplicates_removed(self):
        cs = self.scaled_dup_cs()
        out, removed = deduplicate_constraints(cs)
        assert removed == 1
        assert [c.tag for c in out.constraints] == ["orig", "distinct"]
        assert out.is_satisfied()

    def test_optimize_reports_lint_compatible_findings(self):
        from repro.analysis.report import Finding, Severity

        cs = self.scaled_dup_cs()
        cs.new_private(77)  # unreferenced: dropped + reported
        slim, report = optimize(cs)
        assert report.constraints_removed == 1
        assert report.variables_removed == 1
        assert slim.is_satisfied()
        rules = sorted({f.rule for f in report.findings})
        assert rules == ["duplicate-constraint", "unreferenced-private"]
        for finding in report.findings:
            assert isinstance(finding, Finding)
            assert finding.severity is Severity.INFO
        dup = next(f for f in report.findings if f.rule == "duplicate-constraint")
        assert dup.details["kept"] == 0
