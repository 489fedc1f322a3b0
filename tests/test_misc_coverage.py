"""Gap-filling tests across the stack."""

import random

import numpy as np
import pytest

from repro.core.compiler import (
    PrivacySetting,
    ZenoCompiler,
    naive_options,
    zeno_options,
)
from repro.ec.tower import FQ2, FQ12
from repro.field.fp import BN254_FQ_MODULUS as Q
from repro.nn.data import synthetic_images
from repro.nn.models import build_model
from repro.snark import groth16
from repro.snark.qap import Domain, FR_TWO_ADICITY
from tests.conftest import tiny_conv_model, tiny_image
from tests.pairing_oracle import _poly_degree, _poly_div


class TestTowerInternals:
    def test_poly_degree(self):
        assert _poly_degree([5, 0, 0]) == 0
        assert _poly_degree([0, 0, 3]) == 2
        assert _poly_degree([0, Q, 3]) == 2  # Q = 0 mod Q

    def test_poly_div_exact(self):
        # (x^2 + 3x + 2) / (x + 1) = (x + 2)
        quotient = _poly_div([2, 3, 1], [1, 1])
        assert quotient == [2, 1]

    def test_poly_div_with_remainder_floor(self):
        # (x^2 + 1) / (x + 1): floor quotient x - 1.
        quotient = _poly_div([1, 0, 1], [1, 1])
        assert quotient == [Q - 1, 1]

    def test_fq12_coercion_of_ints(self):
        x = FQ12.from_int(7)
        assert x + 3 == FQ12.from_int(10)
        assert 2 * x == FQ12.from_int(14)
        assert (x / 7) == FQ12.one()

    def test_fq2_hash_eq_semantics(self):
        assert hash(FQ2([1, 2])) == hash(FQ2([1 + Q, 2]))
        assert FQ2([1, 2]) != FQ2([1, 3])
        assert FQ2([5, 0]) == 5


class TestDomainLimits:
    def test_max_adicity_enforced(self):
        with pytest.raises(ValueError):
            Domain(1 << (FR_TWO_ADICITY + 1))

    def test_largeish_domain_constructs(self):
        d = Domain(1 << 12)
        assert d.size == 1 << 12
        assert pow(d.omega, d.size, d.field.modulus) == 1


class TestGroth16Determinism:
    def test_setup_deterministic_per_seed(self):
        from tests.test_snark_groth16 import dot_product_cs

        cs1, _ = dot_product_cs([1, 2], [3, 4])
        cs2, _ = dot_product_cs([1, 2], [3, 4])
        s1 = groth16.setup(cs1, rng=random.Random(42))
        s2 = groth16.setup(cs2, rng=random.Random(42))
        assert s1.proving_key.alpha_g1 == s2.proving_key.alpha_g1
        assert s1.verifying_key.ic_g1 == s2.verifying_key.ic_g1

    def test_default_setup_seed_is_reproducible(self):
        from tests.test_snark_groth16 import dot_product_cs

        cs1, _ = dot_product_cs([5], [6])
        cs2, _ = dot_product_cs([5], [6])
        assert (
            groth16.setup(cs1).verifying_key.ic_g1
            == groth16.setup(cs2).verifying_key.ic_g1
        )

    def test_keys_from_one_setup_reject_other_circuit(self):
        from tests.test_snark_groth16 import dot_product_cs

        cs_a, ref_a = dot_product_cs([1, 2], [3, 4])
        cs_b, ref_b = dot_product_cs([9, 9], [9, 9])
        setup_a = groth16.setup(cs_a, rng=random.Random(1))
        proof_b_under_a = groth16.prove(setup_a.proving_key, cs_b)
        # Same circuit *shape*, different witness: the proof is valid for
        # cs_b's public input, not cs_a's.
        assert groth16.verify(setup_a.verifying_key, [ref_b], proof_b_under_a)
        if ref_a != ref_b:
            assert not groth16.verify(
                setup_a.verifying_key, [ref_a], proof_b_under_a
            )


class TestPublicImagePrivateWeights:
    def test_end_to_end(self):
        compiler = ZenoCompiler(
            zeno_options(
                PrivacySetting.PUBLIC_IMAGE_PRIVATE_WEIGHTS, fusion=False
            )
        )
        artifact = compiler.compile_model(tiny_conv_model(), tiny_image())
        assert artifact.cs.is_satisfied()
        report = compiler.prove(artifact)
        assert report.verified

    def test_first_layer_has_no_image_commitments(self):
        """Public image: pixels are coefficients, not witness variables."""
        opts = zeno_options(
            PrivacySetting.PUBLIC_IMAGE_PRIVATE_WEIGHTS, fusion=False
        )
        public_img = ZenoCompiler(opts).compile_model(
            tiny_conv_model(), tiny_image()
        )
        private_img = ZenoCompiler(
            zeno_options(
                PrivacySetting.PRIVATE_IMAGE_PRIVATE_WEIGHTS, fusion=False
            )
        ).compile_model(tiny_conv_model(), tiny_image())
        pixels = int(np.prod(tiny_image().shape))
        assert public_img.num_variables <= private_img.num_variables - pixels


class TestNaiveProfile:
    def test_naive_profile_metadata(self):
        opts = naive_options()
        assert opts.name == "naive"
        assert not opts.privacy_adaptive
        assert not opts.zeno_circuit  # inherits the arkworks baseline

    def test_naive_still_proves(self):
        compiler = ZenoCompiler(naive_options())
        artifact = compiler.compile_model(tiny_conv_model(), tiny_image())
        assert compiler.prove(artifact).verified

    def test_naive_with_zeno_circuit_combination(self):
        """§4.1 and §5.1 are independent axes: naive constraints can still
        use the ZENO circuit IR."""
        opts = naive_options(zeno_circuit=True)
        artifact = ZenoCompiler(opts).compile_model(
            tiny_conv_model(), tiny_image()
        )
        assert artifact.cs.is_satisfied()


class TestModelScaleRegistry:
    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError, match="scale"):
            build_model("SHAL", scale="nano")

    def test_scale_names_in_model_name(self):
        assert build_model("LCS", scale="micro").name.endswith("-micro")
        assert not build_model("LCS", scale="full").name.endswith("-full")

    def test_micro_models_all_run(self):
        for abbr in ("SHAL", "LCS", "VGG16"):
            model = build_model(abbr, scale="micro")
            image = synthetic_images(model.input_shape, n=1, seed=1)[0]
            assert model.forward(image).shape == (10,)
