"""End-to-end proving of the transformer model family (ISSUE-10 tentpole).

TinyTransformer compiles through quantize -> compile -> prove -> verify in
every (relu_mode x gadget_mode) combination, its public logits equal the
plain integer forward pass, the lookup path measurably beats the bit
decomposition path on constraints, and the circuit splits per layer into
an aggregate whose verification round-trips.
"""

import random

import numpy as np
import pytest

from repro.aggregate import (
    fold,
    prove_split,
    setup_split,
    verify_aggregate,
)
from repro.core.compiler import CompilerOptions, ZenoCompiler
from repro.core.circuit.compute import CompilerOptions
from repro.core.reuse.batch import BatchProver
from repro.nn import build_model
from repro.nn.data import synthetic_images
from repro.snark import groth16

CRS_SEED = 0xC0FFEE

MODES = [
    ("bits", "lean"),
    ("bits", "strict"),
    ("lookup", "lean"),
    ("lookup", "strict"),
]


def compile_transformer(abbr, relu_mode, gadget_mode, scale="micro", seed=3):
    model = build_model(abbr, scale=scale, seed=seed)
    image = synthetic_images(model.input_shape, n=1, seed=0)[0]
    opts = CompilerOptions(
        gadget_mode=gadget_mode, relu_mode=relu_mode, record_recipe=True
    )
    return model, image, ZenoCompiler(opts).compile_model(model, image)


@pytest.fixture(scope="module")
def tiny_lookup_strict():
    return compile_transformer("TINY", "lookup", "strict")


class TestCompile:
    @pytest.mark.parametrize("relu_mode,gadget_mode", MODES)
    def test_tiny_satisfied_and_logits_match(self, relu_mode, gadget_mode):
        model, image, art = compile_transformer("TINY", relu_mode, gadget_mode)
        assert art.cs.is_satisfied()
        assert art.public_outputs_signed() == [
            int(v) for v in model.forward(image)
        ]

    def test_vit_satisfied_and_logits_match(self):
        model, image, art = compile_transformer("VIT", "lookup", "strict")
        assert art.cs.is_satisfied()
        assert art.public_outputs_signed() == [
            int(v) for v in model.forward(image)
        ]

    def test_lookup_beats_bits_strict(self):
        """The headline economics: shared lookup columns cost measurably
        fewer constraints than per-activation bit decompositions."""
        _, _, bits = compile_transformer("TINY", "bits", "strict")
        _, _, lut = compile_transformer("TINY", "lookup", "strict")
        assert lut.num_constraints < bits.num_constraints
        # Not marginal: the win is at least 1.3x at 8-bit strict.
        assert bits.num_constraints / lut.num_constraints > 1.3

    def test_lookup_report_attached(self, tiny_lookup_strict):
        _, _, art = tiny_lookup_strict
        rep = art.compute.lookup
        assert rep is not None
        assert rep.total_lookups > 0
        names = {t["table"] for t in rep.tables}
        # softmax (exp + recip), LayerNorm (rsqrt), MLP (gelu), ReLU-free
        assert {"exp8", "recip8", "rsqrt8", "gelu8"} <= names


class TestProve:
    def test_monolithic_prove_verify(self, tiny_lookup_strict):
        _, _, art = tiny_lookup_strict
        setup = groth16.setup(art.cs, rng=random.Random(1))
        proof = groth16.prove(setup.proving_key, art.cs, rng=random.Random(2))
        assert groth16.verify(
            setup.verifying_key, art.cs.public_values(), proof
        )

    def test_per_layer_aggregate_round_trip(self, tiny_lookup_strict):
        """Split per layer (incl. the lookup:* pseudo-layers), prove each
        instance, fold, and verify the aggregate."""
        _, _, art = tiny_lookup_strict
        split = art.split(mode="hashed")
        assert split.num_instances >= 8  # many layers, not one blob
        names = [inst.name for inst in split.instances]
        assert any(n.startswith("lookup:") for n in names)
        setups = setup_split(split, crs_seed=CRS_SEED)
        proofs = prove_split(split, setups, crs_seed=CRS_SEED)
        agg = fold(split, setups, [proofs], crs_seed=CRS_SEED)
        verdict = verify_aggregate(agg)
        assert verdict.ok, verdict.reason


class TestBatchReplay:
    @pytest.mark.parametrize("relu_mode,gadget_mode", MODES)
    def test_reassign_across_images(self, relu_mode, gadget_mode):
        """Compile once, re-witness per image (§6.1) — the lookup columns
        and LayerNorm intermediates are all recipe-replayable."""
        model = build_model("TINY", scale="micro", seed=3)
        images = synthetic_images(model.input_shape, n=3, seed=11)
        opts = CompilerOptions(relu_mode=relu_mode, gadget_mode=gadget_mode)
        bp = BatchProver(model, images[0], options=opts)
        p = bp.cs.field.modulus
        for image in images:
            bp.assign_image(image)
            assert bp.cs.is_satisfied()
            expected = [int(v) % p for v in model.forward(image)]
            assert bp.cs.public_values() == expected

    def test_batched_proofs_verify(self):
        model = build_model("TINY", scale="micro", seed=3)
        images = synthetic_images(model.input_shape, n=2, seed=21)
        opts = CompilerOptions(relu_mode="lookup", gadget_mode="strict")
        bp = BatchProver(model, images[0], options=opts)
        setup = groth16.setup(bp.cs, rng=random.Random(3))
        for image in images:
            bp.assign_image(image)
            proof = groth16.prove(
                setup.proving_key, bp.cs, rng=random.Random(4)
            )
            assert groth16.verify(
                setup.verifying_key, bp.cs.public_values(), proof
            )
