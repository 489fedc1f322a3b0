"""Sparsity-aware compilation: pruning, term elision, sharing, soundness.

Three layers of guarantees under test:

* **Byte identity** — with sub-circuit sharing off, sparse compilation is
  a pure term-elision over already-masked zero weights, so the constraint
  system and therefore the Groth16 proof bytes match the dense path
  exactly, on every field backend.
* **Constraint reduction** — with sharing on, canonicalizing repeated
  filter blocks drops the constraint count on pruned models (the target
  is >= 30% on the conv nets) while proofs still verify.
* **Soundness** — pruning only ever elides *zero*-weight terms; every
  nonzero weight's term survives into some constraint (hypothesis
  property), and the strict audit stays clean modulo INFO-level
  ``pruned-input`` findings for dead input pixels.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import PrivacySetting, ZenoCompiler, zeno_options
from repro.nn.models import build_model
from repro.nn.prune import PruneSpec, model_sparsity, prune_model
from repro.snark import groth16
from repro.snark.serialize import serialize_proof
from tests.conftest import tiny_conv_model, tiny_image

ONE_PRIVATE = PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS
BOTH_PRIVATE = PrivacySetting.PRIVATE_IMAGE_PRIVATE_WEIGHTS


def compile_with(model, image, **overrides):
    compiler = ZenoCompiler(zeno_options(**overrides))
    return compiler.compile_model(model, image)


def cs_signature(cs):
    """Order-sensitive structural fingerprint of a constraint system."""
    return [
        (sorted(c.a.terms.items()), sorted(c.b.terms.items()),
         sorted(c.c.terms.items()))
        for c in cs.constraints
    ]


def proof_bytes(cs) -> bytes:
    setup = groth16.setup(cs, rng=random.Random(5))
    proof = groth16.prove(setup.proving_key, cs, rng=random.Random(6))
    assert groth16.verify(setup.verifying_key, cs.public_values(), proof)
    return serialize_proof(proof)


class TestPrune:
    def test_spec_parsing(self):
        assert PruneSpec.parse(None) == PruneSpec()
        assert not PruneSpec.parse(None).enabled
        assert PruneSpec.parse(0.5) == PruneSpec(unstructured=0.5)
        assert PruneSpec.parse("0.6,0.2") == PruneSpec(0.6, 0.2)
        assert PruneSpec.parse("0.4") == PruneSpec(unstructured=0.4)
        spec = PruneSpec(0.3, 0.1)
        assert PruneSpec.parse(spec) is spec
        with pytest.raises(ValueError):
            PruneSpec.parse("1.5")
        with pytest.raises(ValueError):
            PruneSpec.parse("-0.1,0")
        with pytest.raises(ValueError):
            PruneSpec.parse("1,2,3")

    def test_prune_is_deterministic_and_sparsifying(self):
        ma, mb = tiny_conv_model(), tiny_conv_model()
        stats = prune_model(ma, PruneSpec(0.5, 0.2))
        prune_model(mb, PruneSpec(0.5, 0.2))
        for na, nb in zip(ma.nodes, mb.nodes):
            wa = getattr(na.layer, "weight", None)
            if wa is not None:
                assert np.array_equal(wa, nb.layer.weight)
        assert stats.rows_zero > 0
        assert stats.density < 1.0
        assert model_sparsity(ma)["density"] == pytest.approx(stats.density)

    def test_head_layer_exempt_from_structured(self):
        model = tiny_conv_model()
        prune_model(model, PruneSpec(structured=0.9))
        layers = [n.layer for n in model.nodes if hasattr(n.layer, "weight")]
        head = layers[-1]
        # Every logit row must keep at least one nonzero weight.
        rows = head.weight.reshape(head.weight.shape[0], -1)
        assert all(np.any(row != 0) for row in rows)

    def test_build_model_prune_hook(self):
        dense = build_model("RES18", scale="mini", seed=0)
        pruned = build_model("RES18", scale="mini", seed=0, prune="0.6,0.2")
        assert (model_sparsity(pruned)["density"]
                < model_sparsity(dense)["density"])
        again = build_model("RES18", scale="mini", seed=0, prune="0.6,0.2")
        for na, nb in zip(pruned.nodes, again.nodes):
            wa = getattr(na.layer, "weight", None)
            if wa is not None:
                assert np.array_equal(wa, nb.layer.weight)


class TestByteIdentity:
    """sparse (share off) elides only terms the dense path already masks."""

    def _pair(self, prune=None):
        def build():
            model = tiny_conv_model()
            if prune:
                prune_model(model, prune)
            return model

        image = tiny_image()
        dense = compile_with(build(), image)
        sparse = compile_with(build(), image, sparse=True,
                              sparse_share=False)
        return dense, sparse

    @pytest.mark.parametrize("prune", [None, "0.5,0.2"])
    def test_constraint_systems_identical(self, prune):
        dense, sparse = self._pair(prune)
        assert cs_signature(dense.cs) == cs_signature(sparse.cs)
        assert dense.cs.dense_assignment() == sparse.cs.dense_assignment()

    def test_sparsity_report_populated(self):
        _, sparse = self._pair("0.5,0.2")
        rep = sparse.sparsity
        assert rep is not None and rep.enabled
        assert rep.zero_terms_elided > 0
        assert rep.terms_kept + rep.zero_terms_elided == rep.weight_terms_total

    def test_private_weights_disable_elision(self):
        model = tiny_conv_model()
        prune_model(model, PruneSpec(0.5, 0.2))
        artifact = compile_with(model, tiny_image(), privacy=BOTH_PRIVATE,
                                sparse=True)
        rep = artifact.sparsity
        assert rep is not None and not rep.enabled
        assert rep.zero_terms_elided == 0

    @pytest.mark.parametrize("backend", ["scalar", "numpy"])
    def test_proofs_byte_identical_per_field_backend(
        self, backend, monkeypatch
    ):
        from repro.snark import qap

        # "scalar" keeps every transform off the array kernel.
        if backend == "scalar":
            monkeypatch.setattr(qap, "_VECTOR_NTT_MIN", 1 << 30)
        dense, sparse = self._pair("0.5,0.2")
        assert proof_bytes(dense.cs) == proof_bytes(sparse.cs)


class TestSharing:
    def test_share_reduces_constraints_and_still_verifies(self):
        image = tiny_image()
        model = tiny_conv_model()
        prune_model(model, PruneSpec(0.5, 0.2))
        dense = compile_with(model, image)
        shared = compile_with(model, image, sparse=True)
        assert shared.num_constraints < dense.num_constraints
        rep = shared.sparsity
        assert rep.outputs_shared + rep.relus_shared > 0
        # Logits agree: sharing only merges wires with provably equal
        # values, never changes the computed function.
        assert dense.public_outputs_signed() == shared.public_outputs_signed()
        proof_bytes(shared.cs)  # proves + verifies

    def test_res18_mini_reduction_hits_bench_target(self):
        dense_model = build_model("RES18", scale="mini", seed=0,
                                  prune="0.6,0.2")
        from repro.nn.data import synthetic_images

        image = synthetic_images(dense_model.input_shape, n=1, seed=42)[0]
        dense = compile_with(dense_model, image)
        sparse = compile_with(
            build_model("RES18", scale="mini", seed=0, prune="0.6,0.2"),
            image, sparse=True,
        )
        reduction = 1 - sparse.num_constraints / dense.num_constraints
        assert reduction >= 0.30
        assert (dense.public_outputs_signed()
                == sparse.public_outputs_signed())


class TestAuditProvenance:
    def test_strict_audit_clean_with_pruned_input_info(self):
        from repro.analysis import assume_from_recipe, audit_system
        from repro.analysis.report import Severity

        model = build_model("SHAL", scale="micro", seed=0, prune="0.8,0.3")
        from repro.nn.data import synthetic_images

        image = synthetic_images(model.input_shape, n=1, seed=42)[0]
        compiler = ZenoCompiler(zeno_options(
            ONE_PRIVATE, record_recipe=True, sparse=True,
            gadget_mode="strict",
        ))
        artifact = compiler.compile_model(model, image)
        assume = assume_from_recipe(artifact.compute.recipe)
        report = audit_system(artifact.cs, assume=assume, fuzz=25,
                              rng=random.Random(7))
        assert report.ok, report.summary()
        # Dead pixels (all referencing weights pruned to zero) surface as
        # INFO provenance, never WARNING/ERROR false positives.
        for f in report.findings:
            if f.rule == "pruned-input":
                assert f.severity is Severity.INFO
            else:
                assert f.severity is not Severity.ERROR
        assert not any(f.rule == "unreferenced-private"
                       for f in report.findings)


# Small random linear models for the elision-soundness property.
@st.composite
def linear_models(draw):
    n_in = draw(st.integers(2, 5))
    n_out = draw(st.integers(1, 4))
    weight = np.array(
        draw(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=n_in, max_size=n_in),
                min_size=n_out, max_size=n_out,
            )
        ),
        dtype=np.int64,
    )
    bias = np.array(draw(st.lists(st.integers(-2, 2), min_size=n_out,
                                  max_size=n_out)), dtype=np.int64)
    return weight, bias


class TestElisionSoundness:
    @given(linear_models(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_every_nonzero_weight_term_survives(self, wb, image_seed):
        """Pruning elides only zero-weight terms.

        With knit off, each dot product becomes one constraint, so the
        union of sparse-constraint variables must cover every private
        witness variable that any *nonzero* weight multiplies.
        """
        from repro.nn.graph import Model
        from repro.nn.layers import Linear
        from repro.nn.models import calibrate
        from repro.nn.data import synthetic_images

        weight, bias = wb
        model = Model("hyp", (1, 1, weight.shape[1]))
        from repro.nn.layers import Flatten

        model.add("flatten", Flatten())
        model.add("fc", Linear(weight, bias))
        model = calibrate(model)
        image = synthetic_images(model.input_shape, n=1,
                                 seed=image_seed % 1000)[0]

        dense = compile_with(model, image, knit=False)
        sparse = compile_with(model, image, knit=False, sparse=True,
                              sparse_share=False, record_recipe=True)
        assert cs_signature(dense.cs) == cs_signature(sparse.cs)

        # Every input variable touched by a nonzero weight is referenced.
        referenced = set()
        for c in sparse.cs.constraints:
            for lc in (c.a, c.b, c.c):
                referenced.update(lc.terms)
        image_var = dict(enumerate(sparse.compute.recipe[0].variables()))
        needed = {
            image_var[j]
            for i in range(weight.shape[0])
            for j in range(weight.shape[1])
            if weight[i, j] != 0
        }
        assert needed <= referenced
