"""Tests for the circuit-computation driver: both IRs, all privacy modes."""

import numpy as np
import pytest

from repro.core.circuit.compute import CircuitComputer, CompilerOptions
from repro.core.lang.program import program_from_model
from repro.core.lang.types import Privacy
from repro.nn.models import build_model
from repro.nn.data import synthetic_images
from tests.conftest import tiny_conv_model, tiny_image


def compile_tiny(zeno=True, knit=True, weights_privacy=Privacy.PUBLIC, **kwargs):
    model = tiny_conv_model()
    image = tiny_image()
    program = program_from_model(model, image, weights_privacy=weights_privacy)
    options = CompilerOptions(zeno_circuit=zeno, knit=knit, **kwargs)
    computer = CircuitComputer(program, options)
    computer.generate()
    return program, computer.compute()


class TestOnePrivate:
    def test_zeno_satisfied(self):
        _, result = compile_tiny(zeno=True)
        assert result.cs.is_satisfied()

    def test_baseline_satisfied(self):
        _, result = compile_tiny(zeno=False, knit=False)
        assert result.cs.is_satisfied()

    def test_ir_equivalence_without_knit(self):
        """ZENO circuit is an in-place replacement (§5.1): same system."""
        _, base = compile_tiny(zeno=False, knit=False)
        _, zeno = compile_tiny(zeno=True, knit=False)
        assert base.cs.num_constraints == zeno.cs.num_constraints
        assert base.cs.num_private == zeno.cs.num_private
        assert base.cs.num_public == zeno.cs.num_public
        # identical constraint semantics: same per-constraint term structure
        for cb, cz in zip(base.cs.constraints, zeno.cs.constraints):
            assert cb.a.terms == cz.a.terms
            assert cb.b.terms == cz.b.terms
            assert cb.c.terms == cz.c.terms

    def test_knit_reduces_constraints(self):
        _, plain = compile_tiny(zeno=True, knit=False)
        _, knit = compile_tiny(zeno=True, knit=True)
        assert knit.cs.num_constraints < plain.cs.num_constraints
        assert knit.knit_expressions > knit.knit_constraints > 0

    def test_forced_knit_batch(self):
        _, forced = compile_tiny(zeno=True, knit=True, knit_batch=2)
        assert forced.knit_expressions / forced.knit_constraints <= 2.0 + 1e-9

    def test_public_outputs_are_logits(self):
        program, result = compile_tiny()
        p = result.cs.field.modulus
        expected = [int(v) % p for v in program.final_logits()]
        assert result.cs.public_values() == expected

    def test_layer_work_covers_all_constraint_layers(self):
        _, result = compile_tiny()
        names = {w.name for w in result.layer_work}
        assert names == {"conv", "relu", "fc"}
        assert all(w.wall_time >= 0 for w in result.layer_work)
        assert sum(w.constraints for w in result.layer_work) == (
            result.cs.num_constraints
        )

    def test_tampered_image_witness_fails(self):
        _, result = compile_tiny()
        result.cs.assign(1, (result.cs.value_of(1) + 1))
        assert not result.cs.is_satisfied()


class TestBothPrivate:
    def test_eq2_constraint_counts(self):
        """Eq. 2: one constraint per private*private product."""
        program, result = compile_tiny(
            weights_privacy=Privacy.PRIVATE, knit=False
        )
        conv_op, _, _, fc_op = program.ops
        mul_constraints = sum(
            1 for c in result.cs.constraints if c.tag.endswith("/mul")
        )
        nonzero_macs = 0
        for op in (conv_op, fc_op):
            for d in range(op.num_dots):
                row = op.weight_rows[op.row_of_dot[d]]
                pos = op.input_cols[:, op.col_of_dot[d]]
                nonzero_macs += int(np.sum((pos > 0) & (row != 0)))
        assert mul_constraints == nonzero_macs

    def test_satisfied_and_knit_disabled(self):
        _, result = compile_tiny(weights_privacy=Privacy.PRIVATE, knit=True)
        assert result.cs.is_satisfied()
        assert result.knit_constraints == 0  # knit requires one public side

    def test_weight_variables_shared_across_dots(self):
        """Conv weight rows allocate once, not once per output pixel."""
        program, result = compile_tiny(weights_privacy=Privacy.PRIVATE)
        base_vars = compile_tiny(weights_privacy=Privacy.PUBLIC)[1].cs.num_private
        conv_op, _, _, fc_op = program.ops
        weight_count = conv_op.weight_rows.size + fc_op.weight_rows.size
        mac_wires = sum(
            1 for c in result.cs.constraints if c.tag.endswith("/mul")
        )
        assert result.cs.num_private == base_vars + weight_count + mac_wires


class TestPrivateWeightsPublicImage:
    def test_first_layer_uses_feature_coefficients(self):
        model = tiny_conv_model()
        image = tiny_image()
        program = program_from_model(
            model,
            image,
            image_privacy=Privacy.PUBLIC,
            weights_privacy=Privacy.PRIVATE,
        )
        computer = CircuitComputer(program, CompilerOptions())
        result = computer.compute()
        assert result.cs.is_satisfied()

    def test_relu_on_public_input_rejected(self):
        """A ReLU directly on a public tensor has no private variable."""
        from repro.core.lang.primitives import ProgramBuilder

        builder = ProgramBuilder(
            "p", np.array([1, -2]), image_privacy=Privacy.PUBLIC
        )
        builder.relu()
        computer = CircuitComputer(builder.build(), CompilerOptions())
        with pytest.raises(ValueError):
            computer.compute()


class TestGeneratePhase:
    def test_gate_counts_differ_by_ir(self):
        model = tiny_conv_model()
        program = program_from_model(model, tiny_image())
        base = CircuitComputer(
            program, CompilerOptions(zeno_circuit=False)
        ).generate()
        zeno = CircuitComputer(
            program, CompilerOptions(zeno_circuit=True)
        ).generate()
        assert base.num_gates > zeno.num_gates
        assert base.critical_path > zeno.critical_path == 2

    def test_compute_auto_generates(self):
        model = tiny_conv_model()
        program = program_from_model(model, tiny_image())
        computer = CircuitComputer(program, CompilerOptions())
        result = computer.compute()  # no explicit generate()
        assert result.cs.num_constraints > 0


class TestMiniModelsAllPrivacyModes:
    @pytest.mark.parametrize("zeno", [True, False])
    @pytest.mark.parametrize(
        "weights_privacy", [Privacy.PUBLIC, Privacy.PRIVATE]
    )
    def test_lcs_mini_satisfied(self, zeno, weights_privacy):
        model = build_model("LCS", scale="mini")
        image = synthetic_images(model.input_shape, n=1, seed=4)[0]
        program = program_from_model(
            model, image, weights_privacy=weights_privacy
        )
        computer = CircuitComputer(program, CompilerOptions(zeno_circuit=zeno))
        result = computer.compute()
        assert result.cs.is_satisfied()

    def test_resnet_mini_with_bn_and_residual(self):
        model = build_model("RES18", scale="mini")
        image = synthetic_images(model.input_shape, n=1, seed=4)[0]
        program = program_from_model(model, image)
        result = CircuitComputer(program, CompilerOptions()).compute()
        assert result.cs.is_satisfied()
