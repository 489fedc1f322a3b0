"""Tests for the under-constrained-witness detector.

The acceptance story has three legs: every stock strict-mode gadget and a
full compiled model must pass clean; lean-mode slack and deliberately
broken fixtures (a deleted range constraint, a deleted booleanity) must
be flagged; and the flags must carry usable provenance (layer tag,
touching constraints).
"""

import pytest

from repro.analysis import (
    assume_from_recipe,
    check_determinism,
)
from repro.analysis.report import Severity
from repro.core.circuit.gadgets import GadgetEmitter, lc_entries
from repro.core.compiler import ZenoCompiler, zeno_options
from repro.core.privacy.knit import KnitPacker
from repro.r1cs.system import ConstraintSystem
from tests.commit_oracle import decompose
from tests.conftest import commit_lc, relu_wire, tiny_conv_model, tiny_image
from tests.replay_oracle import named


def emitter(mode="strict", knit=None):
    cs = ConstraintSystem()
    return cs, GadgetEmitter(cs, mode=mode, knit=knit)


def private_input(cs, value):
    var = cs.new_private(value)
    return cs.lc_variable(var), var


class TestStrictGadgetsClean:
    """Every stock strict-mode gadget determines all its wires."""

    @pytest.mark.parametrize("value", [-100, -1, 0, 1, 100])
    def test_relu(self, value):
        cs, em = emitter()
        in_var = cs.new_private(value)
        relu_wire(em, in_var, value)
        result = check_determinism(cs, assume=[in_var])
        assert result.undetermined == []

    @pytest.mark.parametrize("acc,shift", [(42, 0), (1000, 3), (-1000, 3)])
    def test_commit_output(self, acc, shift):
        cs, em = emitter()
        lc, in_var = private_input(cs, acc)
        commit_lc(em, lc, acc, shift=shift, slot_bits=16)
        result = check_determinism(cs, assume=[in_var])
        assert result.undetermined == []

    def test_commit_output_knit_packed(self):
        # Knit-packed equalities decode through the same mixed-radix rule:
        # delta^j slot weights against the per-slot honest-value bounds.
        cs = ConstraintSystem()
        knit = KnitPacker(cs, batch_size=4)
        em = GadgetEmitter(cs, mode="strict", knit=knit)
        inputs = []
        for acc in (1000, -700, 345, -42, 900):
            lc, in_var = private_input(cs, acc)
            commit_lc(em, lc, acc, shift=3, slot_bits=16)
            inputs.append(in_var)
        knit.flush()
        assert cs.is_satisfied()
        result = check_determinism(cs, assume=inputs)
        assert result.undetermined == []

    def test_maxpool_chain(self):
        # max(a, b) = a + relu(b - a): the comparison chain from compute,
        # each select reading tap - tap_0 - (the selects before it).
        cs, em = emitter()
        values = [7, -3, 12, 5]
        vars_ = [cs.new_private(v) for v in values]
        best_lc, best_val = cs.lc_variable(vars_[0]), values[0]
        outs = []
        for var, val in zip(vars_[1:], values[1:]):
            (r_var,) = em.relu_rows(
                *lc_entries(cs.lc_variable(var) - best_lc), [val - best_val],
                16, "maxpool", -1,
            ).tolist()
            best_lc.add_term(r_var, 1)
            best_val = max(best_val, val)
            outs.append(r_var)
        assert values[0] + sum(cs.value_of(r) for r in outs) == max(values)
        assert cs.is_satisfied()
        result = check_determinism(cs, assume=vars_)
        assert result.undetermined == []

    def test_decompose(self):
        cs, em = emitter()
        decompose(em, 0b1011, 4)
        # Bits are boolean-bounded but pinned by nothing else: a raw
        # decompose without a recomposition is genuinely free.
        result = check_determinism(cs)
        assert len(result.undetermined) == 4


class TestLeanModeFlagged:
    """Lean-mode slack is genuinely under-constrained and must be flagged."""

    def test_relu_sign_free_at_zero(self):
        cs, em = emitter("lean")
        in_var = cs.new_private(0)
        relu_wire(em, in_var, 0)
        result = check_determinism(cs, assume=[in_var])
        assert result.undetermined  # the unproven sign bit

    def test_commit_output_slack_remainder(self):
        cs, em = emitter("lean")
        lc, in_var = private_input(cs, 1000)
        commit_lc(em, lc, 1000, shift=3, slot_bits=16)
        result = check_determinism(cs, assume=[in_var])
        # out and rem share one equation: neither is pinned alone.
        assert result.undetermined


class TestKnownBadFixtures:
    """Deliberately broken strict circuits the detector must flag."""

    def broken_commit(self):
        """A strict output commitment with its offset range proof deleted."""
        cs, em = emitter()
        lc, in_var = private_input(cs, 1000)
        out_var = commit_lc(em, lc, 1000, shift=3, slot_bits=16)
        doomed = [i for i, c in enumerate(cs.constraints) if c.tag == "out/range_eq"]
        assert len(doomed) == 1
        del cs.constraints[doomed[0]]
        assert cs.is_satisfied()  # honest witness still passes!
        return cs, in_var, out_var

    def test_deleted_range_constraint_flagged(self):
        cs, in_var, out_var = self.broken_commit()
        result = check_determinism(cs, assume=[in_var])
        # Without the range proof the prover trades remainder bits against
        # the (now unbounded) output inside the one equality: out and every
        # remainder bit become non-unique.
        assert out_var in result.undetermined

    def test_deleted_booleanity_flagged(self):
        cs, em = emitter()
        in_var = cs.new_private(37)
        relu_wire(em, in_var, 37)
        doomed = [i for i, c in enumerate(cs.constraints) if c.tag == "relu/bits"]
        del cs.constraints[doomed[0]]
        assert cs.is_satisfied()
        result = check_determinism(cs, assume=[in_var])
        assert result.undetermined  # the unbounded bit poisons the sign proof

    def test_findings_carry_provenance(self):
        cs, in_var, out_var = self.broken_commit()
        cs.mark_layer("conv1", 0)
        result = check_determinism(cs, assume=[in_var])
        findings = result.findings(cs)
        assert findings
        by_var = {f.variable: f for f in findings}
        finding = by_var[out_var]
        assert finding.severity is Severity.ERROR
        assert finding.rule == "under-constrained"
        assert finding.layer == "conv1"
        assert finding.details["constraints"]


class TestCompiledModels:
    def test_strict_model_passes_clean(self):
        opts = zeno_options(gadget_mode="strict", record_recipe=True)
        artifact = ZenoCompiler(opts).compile_model(tiny_conv_model(), tiny_image())
        assume = assume_from_recipe(artifact.compute.recipe)
        result = check_determinism(artifact.cs, assume=assume)
        assert result.undetermined == []
        assert result.determined | result.assumed == set(
            range(1, artifact.cs.num_private + 1)
        )

    def test_lean_model_is_flagged(self):
        opts = zeno_options(gadget_mode="lean", record_recipe=True)
        artifact = ZenoCompiler(opts).compile_model(tiny_conv_model(), tiny_image())
        assume = assume_from_recipe(artifact.compute.recipe)
        result = check_determinism(artifact.cs, assume=assume)
        assert result.undetermined  # lean slack wires

    def test_assume_from_recipe_selects_free_inputs(self):
        opts = zeno_options(gadget_mode="strict", record_recipe=True)
        artifact = ZenoCompiler(opts).compile_model(tiny_conv_model(), tiny_image())
        recipe = artifact.compute.recipe
        assume = assume_from_recipe(recipe)
        assert assume
        kinds = {
            desc[0] for var, desc in named(recipe).items() if var in set(assume)
        }
        assert kinds <= {"image", "const"}


class TestResultShape:
    def test_clean_result_ok(self):
        cs, em = emitter()
        in_var = cs.new_private(5)
        relu_wire(em, in_var, 5)
        result = check_determinism(cs, assume=[in_var])
        assert result.ok
        assert result.findings(cs) == []
        assert result.rounds >= 1
        assert result.wall_time >= 0.0
