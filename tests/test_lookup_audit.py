"""Audit integration for lookup circuits (`repro.analysis` × `repro.lookup`).

The determinism detector must (a) pass a sound strict-mode lookup circuit
clean — table membership uniquely determines each output given its input —
and (b) still catch a broken lowering: the grant is gated on the
structural check, so a tampered block degrades to ERROR findings.
"""

import numpy as np
import pytest

from repro.analysis import assume_from_recipe, audit_system
from repro.analysis.determinism import check_determinism
from repro.core.compiler import CompilerOptions, ZenoCompiler
from repro.lookup import get_table
from repro.lookup.argument import LookupEngine
from repro.nn import build_model
from repro.nn.data import synthetic_images
from repro.r1cs.system import ConstraintSystem


def compile_tiny(relu_mode: str, gadget_mode: str = "strict"):
    model = build_model("TINY", scale="micro", seed=3)
    image = synthetic_images(model.input_shape, n=1, seed=0)[0]
    opts = CompilerOptions(
        gadget_mode=gadget_mode, relu_mode=relu_mode, record_recipe=True
    )
    return ZenoCompiler(opts).compile_model(model, image)


def lookup_gadget_cs(xs, mode="strict"):
    """A bare lookup circuit whose inputs are the assumed free wires."""
    cs = ConstraintSystem(name="lookup-audit")
    relu = get_table("relu")
    engine = LookupEngine(cs, mode=mode)
    first = cs.allocate([int(x) for x in xs])
    x_vars = list(range(first, first + len(xs)))
    engine.lookup(relu, x_vars, xs, input_ranged=False)
    blocks = engine.finalize(cs.mark_layer)
    return cs, blocks[0], x_vars


class TestCleanCircuits:
    def test_gadget_level_lookup_determined(self):
        cs, block, x_vars = lookup_gadget_cs([-6, 0, 44])
        result = check_determinism(cs, assume=x_vars)
        assert result.ok, result.undetermined[:5]
        assert result.lookup_blocks_granted == 1
        assert result.lookup_errors == []

    @pytest.mark.parametrize("relu_mode", ["lookup", "bits"])
    def test_tiny_transformer_audits_clean(self, relu_mode):
        art = compile_tiny(relu_mode)
        report = audit_system(
            art.compute.cs,
            assume=assume_from_recipe(art.compute.recipe),
            fuzz=0,
        )
        assert not report.errors, [f.message for f in report.errors[:3]]

    def test_lean_lookup_reported_under_constrained(self):
        """The lean challenge is attacker-independent: no grant, and the
        argument's wires surface as under-constrained."""
        cs, block, x_vars = lookup_gadget_cs([5], mode="lean")
        result = check_determinism(cs, assume=x_vars)
        assert not result.ok
        assert result.lookup_blocks_granted == 0


class TestBrokenLookupFixture:
    """The seeded broken-lookup fixture the auditor must keep catching."""

    def test_dropped_sum_check_caught(self):
        cs, block, x_vars = lookup_gadget_cs([-6, 0, 44])
        # Neuter the balance constraint: Σh - Σg = 0 becomes 0 = 0.
        con = cs.constraints[block.sum_constraint]
        con.a.terms.clear()
        assert cs.is_satisfied()  # honest witness still passes ...
        result = check_determinism(cs, assume=x_vars)
        assert not result.ok  # ... but the audit does not
        assert any("sum check" in d for _, d in result.lookup_errors)
        findings = result.findings(cs)
        assert any(f.rule == "lookup-block" for f in findings)

    def test_unbound_multiplicity_caught(self):
        cs, block, x_vars = lookup_gadget_cs([1, 2])
        # Detach row 40's multiplicity from its g constraint.
        con = cs.constraints[block.g_constraints[40]]
        con.c.terms.clear()
        result = check_determinism(cs, assume=x_vars)
        assert not result.ok
        assert any("multiplicity" in d for _, d in result.lookup_errors)

    def test_tampered_membership_shape_caught(self):
        cs, block, x_vars = lookup_gadget_cs([9])
        con = cs.constraints[block.h_constraints[0]]
        con.a.add_term(block.y_vars[0], 1)  # skew the pair packing
        result = check_determinism(cs, assume=x_vars)
        assert not result.ok
        assert any("membership" in d for _, d in result.lookup_errors)

    def test_broken_fixture_fails_full_audit(self):
        cs, block, x_vars = lookup_gadget_cs([-6, 0, 44])
        cs.constraints[block.sum_constraint].a.terms.clear()
        report = audit_system(cs, assume=x_vars, fuzz=0)
        assert report.errors
