"""Tests for the end-to-end ZENO compiler driver."""

import pytest

from repro.core.compiler import (
    CompilerOptions,
    PrivacySetting,
    ZenoCompiler,
    arkworks_options,
    zeno_options,
)
from repro.core.metrics import CostModel
from repro.core.spec import CircuitSpec
from repro.ec.backend import RealBN254Backend
from repro.snark import groth16
from repro.snark.serialize import serialize_proof
from tests.conftest import tiny_conv_model, tiny_image


@pytest.fixture(scope="module")
def tiny():
    return tiny_conv_model(), tiny_image()


class TestOptions:
    def test_zeno_profile_all_on(self):
        opts = zeno_options()
        assert opts.zeno_circuit and opts.knit and opts.cache and opts.fusion
        assert opts.scheduler_workers > 1

    def test_arkworks_profile_all_off(self):
        opts = arkworks_options()
        assert not (opts.zeno_circuit or opts.knit or opts.cache or opts.fusion)
        assert opts.scheduler_workers == 1
        assert opts.security_profile == "arkworks"

    def test_overrides(self):
        opts = zeno_options(knit=False, scheduler_workers=4)
        assert not opts.knit
        assert opts.scheduler_workers == 4

    @pytest.mark.parametrize("build, field, allowed", [
        (lambda: CircuitSpec("SHAL", scale="micro", relu_mode="Lookup")
         .options(), "relu_mode", "'lookup'"),
        (lambda: zeno_options(audit="Enforce"), "audit", "'enforce'"),
        (lambda: CompilerOptions(gadget_mode="Strict"), "gadget_mode",
         "'strict'"),
        (lambda: CircuitSpec("SHAL", privacy="public").options(), "privacy",
         "'one-private'"),
        (lambda: arkworks_options(privacy="one-private"), "privacy",
         "'both-private'"),
    ], ids=["spec-relu_mode", "audit", "gadget_mode", "spec-privacy",
            "privacy-name"])
    def test_unknown_value_is_rejected(self, build, field, allowed):
        """Where the options object is built, naming the field and the
        values it takes — not compiled as some default."""
        with pytest.raises(ValueError, match=f"^{field}=") as excinfo:
            build()
        assert allowed in str(excinfo.value)

    def test_privacy_setting_properties(self):
        s = PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS
        assert s.image_privacy.is_private
        assert not s.weights_privacy.is_private
        assert s.one_private
        b = PrivacySetting.PRIVATE_IMAGE_PRIVATE_WEIGHTS
        assert b.image_privacy.is_private and b.weights_privacy.is_private
        assert not b.one_private


class TestCompileAndProve:
    @pytest.mark.parametrize(
        "privacy",
        [
            PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS,
            PrivacySetting.PRIVATE_IMAGE_PRIVATE_WEIGHTS,
        ],
    )
    @pytest.mark.parametrize("profile", [zeno_options, arkworks_options])
    def test_all_profiles_prove_and_verify(self, tiny, privacy, profile):
        model, image = tiny
        compiler = ZenoCompiler(profile(privacy))
        artifact = compiler.compile_model(model, image)
        assert artifact.cs.is_satisfied()
        report = compiler.prove(artifact)
        assert report.verified

    def test_zeno_beats_baseline_constraints(self, tiny):
        model, image = tiny
        zeno = ZenoCompiler(zeno_options()).compile_model(model, image)
        base = ZenoCompiler(arkworks_options()).compile_model(model, image)
        assert zeno.num_constraints < base.num_constraints  # knit encoding
        assert zeno.generate.num_gates < base.generate.num_gates  # IR

    def test_public_logits_match_model(self, tiny):
        model, image = tiny
        artifact = ZenoCompiler(zeno_options()).compile_model(model, image)
        assert artifact.public_outputs_signed() == [
            int(v) for v in model.forward(image)
        ]

    def test_real_backend_proof(self, tiny):
        """Full pipeline on the genuine BN254 curve."""
        model, image = tiny
        compiler = ZenoCompiler(zeno_options())
        artifact = compiler.compile_model(model, image)
        report = compiler.prove(artifact, backend=RealBN254Backend())
        assert report.verified

    def test_each_proof_is_blinded_afresh(self, tiny, monkeypatch):
        """One set-up seed, two proofs: their blinding ``(r, s)`` is fresh
        randomness, so the proof bytes differ."""
        model, image = tiny
        compiler = ZenoCompiler(zeno_options())
        artifact = compiler.compile_model(model, image)
        proofs = []
        prove = groth16.prove

        def capture(*args, **kwargs):
            proof = prove(*args, **kwargs)
            proofs.append(serialize_proof(proof))
            return proof

        monkeypatch.setattr(groth16, "prove", capture)
        assert compiler.prove(artifact).verified
        assert compiler.prove(artifact).verified
        assert len(proofs) == 2 and proofs[0] != proofs[1]

    def test_prove_without_verify(self, tiny):
        model, image = tiny
        compiler = ZenoCompiler(zeno_options())
        artifact = compiler.compile_model(model, image)
        report = compiler.prove(artifact, verify=False)
        assert report.verified is None


class TestReports:
    def test_phase_structure(self, tiny):
        model, image = tiny
        compiler = ZenoCompiler(zeno_options())
        artifact = compiler.compile_model(model, image)
        report = compiler.report(artifact)
        assert set(report.phases) == {
            "generate",
            "circuit_computation",
            "security_computation",
        }
        assert report.total_latency > 0
        assert report.phase("security_computation").modeled_time is not None

    def test_scheduler_recorded_in_report(self, tiny):
        model, image = tiny
        artifact = ZenoCompiler(zeno_options()).compile_model(model, image)
        report = ZenoCompiler(zeno_options()).report(artifact)
        counts = report.phase("circuit_computation").counts
        assert counts["scheduler_speedup"] >= 1.0

    def test_speedup_over(self, tiny):
        model, image = tiny
        cost = CostModel()
        zeno_compiler = ZenoCompiler(zeno_options())
        base_compiler = ZenoCompiler(arkworks_options())
        zeno_report = zeno_compiler.report(
            zeno_compiler.compile_model(model, image), cost
        )
        base_report = base_compiler.report(
            base_compiler.compile_model(model, image), cost
        )
        assert zeno_report.speedup_over(base_report) > 1.0
        assert (
            zeno_report.phase_speedup_over(base_report, "security_computation")
            > 1.0
        )

    def test_summary_text(self, tiny):
        model, image = tiny
        compiler = ZenoCompiler(zeno_options())
        report = compiler.report(compiler.compile_model(model, image))
        text = report.summary()
        assert "security_computation" in text and "total" in text


class TestCostModel:
    def test_security_cost_monotone(self):
        cost = CostModel()
        assert cost.security_seconds(1000, 500) < cost.security_seconds(
            100_000, 50_000
        )

    def test_calibration_positive(self):
        cost = CostModel.calibrate_python(samples=50)
        assert cost.g1_add_seconds > 0

    def test_setup_cost_positive(self):
        assert CostModel().setup_seconds(100, 100) > 0


class TestAuditKnob:
    def test_report_mode_attaches_audit(self):
        from tests.conftest import tiny_conv_model, tiny_image

        opts = zeno_options(gadget_mode="strict", audit="report")
        artifact = ZenoCompiler(opts).compile_model(tiny_conv_model(), tiny_image())
        assert artifact.audit is not None
        assert artifact.audit.ok
        assert "determinism" in artifact.audit.sections

    def test_enforce_mode_raises_on_lean_slack(self):
        import pytest as _pytest

        from repro.analysis import CircuitAuditError
        from tests.conftest import tiny_conv_model, tiny_image

        opts = zeno_options(gadget_mode="lean", audit="enforce")
        with _pytest.raises(CircuitAuditError) as excinfo:
            ZenoCompiler(opts).compile_model(tiny_conv_model(), tiny_image())
        assert not excinfo.value.report.ok
        assert excinfo.value.report.errors

    def test_audit_forces_recipe(self):
        from tests.conftest import tiny_conv_model, tiny_image

        opts = zeno_options(gadget_mode="strict", audit="report")
        artifact = ZenoCompiler(opts).compile_model(
            tiny_conv_model(), tiny_image()
        )
        assert opts.record_recipe is False  # user toggle untouched
        assert artifact.compute.recipe is not None

    def test_off_by_default(self):
        from tests.conftest import tiny_conv_model, tiny_image

        artifact = ZenoCompiler(zeno_options()).compile_model(
            tiny_conv_model(), tiny_image()
        )
        assert artifact.audit is None

    def test_audit_phase_in_report(self):
        from tests.conftest import tiny_conv_model, tiny_image

        opts = zeno_options(gadget_mode="strict", audit="report")
        compiler = ZenoCompiler(opts)
        artifact = compiler.compile_model(tiny_conv_model(), tiny_image())
        report = compiler.report(artifact)
        assert "audit" in report.phases
        assert report.phases["audit"].counts["error"] == 0.0
        assert "audit" in report.summary()
