"""Tests for `repro.aggregate`: split, commit, prove, fold, verify, audit.

The module-scoped fixtures compile ONE tiny model and reuse its split /
setups / proofs across the suite; tamper tests mutate fresh JSON copies
of the folded artifact, never the shared objects.
"""

import ast
import inspect
import io
import json
import random
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import (
    AggregateProof,
    SplitError,
    audit_split,
    blinding_rng,
    boundary_commitment,
    fold,
    mimc_digest,
    prove_instance,
    prove_split,
    setup_split,
    split_model,
    verify_aggregate,
)
from repro.aggregate.commit import cut_digest, mimc_round_constants
from repro.analysis import assume_from_recipe
from repro.core.circuit.compute import CompilerOptions
from repro.core.compiler import (
    CompileArtifact,
    PrivacySetting,
    ZenoCompiler,
    zeno_options,
)
from repro.core.reuse.batch import BatchProver
from repro.field import BN254_FR_MODULUS
from repro.field.counters import count_ops
from repro.nn.data import synthetic_images
from repro.nn.models import build_model
from repro.r1cs.lc import RowBlock, RowSide
from repro.r1cs.system import ConstraintSystem
from repro.snark import groth16
from repro.snark.serialize import serialize_proof
from tests.conftest import tiny_conv_model, tiny_image
from tests.fixtures import make_parent_aggregates as parent_recipe
from tests.fixtures import make_parent_split as parent_split
from tests.split_oracle import split_model_lc
from tests.tamper import tampered
from tests.test_circuit_spec import FAMILIES
from tests.test_lookup_audit import compile_tiny, lookup_gadget_cs

CRS_SEED = 0xC0FFEE


@pytest.fixture(scope="module")
def artifact():
    opts = zeno_options(
        PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS, record_recipe=True
    )
    return ZenoCompiler(opts).compile_model(tiny_conv_model(), tiny_image())


@pytest.fixture(scope="module")
def public_split(artifact):
    return artifact.split(mode="public")


@pytest.fixture(scope="module")
def hashed_split(artifact):
    return artifact.split(mode="hashed")


@pytest.fixture(scope="module")
def public_agg(public_split):
    setups = setup_split(public_split, crs_seed=CRS_SEED)
    proofs = prove_split(public_split, setups, crs_seed=CRS_SEED)
    return fold(public_split, setups, [proofs], crs_seed=CRS_SEED)


@pytest.fixture(scope="module")
def hashed_agg(hashed_split):
    setups = setup_split(hashed_split, crs_seed=CRS_SEED)
    proofs = prove_split(hashed_split, setups, crs_seed=CRS_SEED)
    return fold(hashed_split, setups, [proofs], crs_seed=CRS_SEED)


class TestCommit:
    def test_commitment_deterministic(self):
        assert boundary_commitment([1, 2, 3]) == boundary_commitment([1, 2, 3])

    def test_commitment_order_sensitive(self):
        assert boundary_commitment([1, 2]) != boundary_commitment([2, 1])

    def test_commitment_length_prefixed(self):
        # [1] padded with an implicit 0 must differ from [1, 0].
        assert boundary_commitment([1]) != boundary_commitment([1, 0])

    def test_round_constants_deterministic_and_in_field(self):
        p = 97
        constants = mimc_round_constants(8, p)
        assert constants == mimc_round_constants(8, p)
        assert all(0 <= c < p for c in constants)

    def test_round_constants_memoised_prefixes(self):
        p = 101
        long = mimc_round_constants(12, p)
        short = mimc_round_constants(5, p)
        assert short == long[:5]
        short[0] += 1  # callers get their own list, not the table
        assert mimc_round_constants(12, p) == long
        assert mimc_round_constants(5, 103) != long[:5]

    def test_cut_digest_is_sponge_over_parcel_digests(self):
        p = (1 << 61) - 1
        parcels = [[5, 7, 11], [13]]
        digests = [mimc_digest(values, p) for values in parcels]
        assert cut_digest(parcels, p) == mimc_digest(digests, p)
        assert cut_digest(parcels, p) != cut_digest(parcels[::-1], p)

    @pytest.mark.xfail(
        strict=True,
        reason="known issue: one x^5 round per value, added to the whole "
        "state, leaves the sponge no capacity (ROADMAP, Soundness closure)",
    )
    def test_sponge_has_capacity(self):
        """A second pre-image built by cancelling the first value's change
        with the second: both tuples reach the same state after round 2.
        Fails loudly (strict xfail) the day the round function is fixed."""
        p = BN254_FR_MODULUS
        c0 = mimc_round_constants(1, p)[0]
        steered = 22 + pow(11 + c0, 5, p) - pow(12 + c0, 5, p)
        assert mimc_digest([11, 22, 33], p) != mimc_digest(
            [12, steered, 33], p
        )

    def test_mimc_digest_matches_sponge_rounds(self):
        p = (1 << 61) - 1
        values = [5, 7, 11]
        constants = mimc_round_constants(len(values) + 2, p)
        state = 0
        for i, rc in enumerate(constants):
            v = values[i] if i < len(values) else 0
            t = (state + v + rc) % p
            state = pow(t, 5, p)
        assert mimc_digest(values, p) == state


def _native_cut_digest(split, k: int, orig: ConstraintSystem) -> int:
    """Cut ``k``'s digest from the ORIGINAL system's values alone."""
    return cut_digest(
        [
            [orig.value_of(v) for v in split.parcels[key]]
            for key in split.boundaries[k]
        ],
        orig.field.modulus,
    )


class TestSplit:
    def test_total_coverage(self, artifact, public_split):
        assert public_split.total_constraints() == artifact.cs.num_constraints
        rows = sorted(
            (i.row_start, i.row_stop) for i in public_split.instances
        )
        cursor = 0
        for start, stop in rows:
            assert start == cursor
            cursor = stop
        assert cursor == artifact.cs.num_constraints

    def test_multiple_layers(self, public_split):
        assert public_split.num_instances >= 3

    @pytest.mark.parametrize("mode", ["public", "hashed"])
    def test_instances_satisfied(self, artifact, mode):
        split = artifact.split(mode=mode)
        for inst in split.instances:
            assert inst.cs.is_satisfied(), inst.name

    def test_boundary_values_agree_across_cut(self, public_split):
        for k in range(public_split.num_instances - 1):
            left = public_split.instances[k]
            right = public_split.instances[k + 1]
            assert left.boundary_values(left.out_slots) == (
                right.boundary_values(right.in_slots)
            )

    def test_boundary_matches_original_witness(self, artifact, public_split):
        for k, boundary in enumerate(public_split.boundaries):
            inst = public_split.instances[k]
            expected = [artifact.cs.value_of(v) for v in boundary]
            assert inst.boundary_values(inst.out_slots) == expected

    def test_hashed_digest_is_mimc_of_boundary(self, artifact, hashed_split):
        assert len(hashed_split.boundaries) == hashed_split.num_instances - 1
        for k in range(len(hashed_split.boundaries)):
            inst = hashed_split.instances[k]
            assert inst.boundary_values(inst.out_slots) == [
                _native_cut_digest(hashed_split, k, artifact.cs)
            ]

    def test_num_segments_merges(self, artifact, public_split):
        merged = artifact.split(mode="public", num_segments=2)
        assert merged.num_instances == 2
        assert merged.total_constraints() == artifact.cs.num_constraints
        assert merged.num_instances < public_split.num_instances

    def test_num_segments_clamped(self, artifact, public_split):
        huge = artifact.split(mode="public", num_segments=10_000)
        assert huge.num_instances == public_split.num_instances

    def test_single_segment_has_no_boundaries(self, artifact):
        split = artifact.split(mode="public", num_segments=1)
        assert split.num_instances == 1
        assert split.boundaries == []
        assert split.instances[0].in_slots == []
        assert split.instances[0].out_slots == []

    def test_unknown_mode_rejected(self, artifact):
        with pytest.raises(SplitError):
            split_model(artifact.cs, mode="merkle")

    def test_empty_system_rejected(self, artifact):
        with pytest.raises(SplitError):
            split_model(ConstraintSystem(artifact.cs.field))

    def test_bad_segment_count_rejected(self, artifact):
        with pytest.raises(SplitError):
            split_model(artifact.cs, num_segments=0)


class TestProveFold:
    @pytest.mark.parametrize("agg_fixture", ["public_agg", "hashed_agg"])
    def test_end_to_end_accepts(self, agg_fixture, request):
        agg = request.getfixturevalue(agg_fixture)
        with count_ops() as ops:
            verdict = verify_aggregate(agg)
        assert verdict.ok, verdict.reason
        assert verdict.num_layers == len(agg.layers)
        assert verdict.num_proofs == len(agg.layers)
        assert verdict.num_pairings == verdict.num_proofs + 3 * verdict.num_layers
        assert ops.pairing == verdict.num_pairings  # counted, not claimed

    def test_verdict_exposes_model_prediction(self, artifact, public_agg):
        verdict = verify_aggregate(public_agg)
        p = artifact.cs.field.modulus
        logits = [
            v - p if v > p // 2 else v
            for _, v in sorted(verdict.globals_out.items())
        ]
        assert logits == artifact.public_outputs_signed()

    def test_json_round_trip(self, public_agg):
        clone = AggregateProof.from_json(public_agg.to_json())
        assert clone.to_json() == public_agg.to_json()
        assert verify_aggregate(clone).ok

    def test_parallel_prove_byte_identical(self, public_split):
        setups = setup_split(public_split, crs_seed=CRS_SEED)
        seq = prove_split(public_split, setups, crs_seed=CRS_SEED)
        par = prove_split(
            public_split, setups, crs_seed=CRS_SEED, parallelism=2
        )
        assert [serialize_proof(a) for a in seq] == [
            serialize_proof(b) for b in par
        ]

    def test_blinding_binds_publics(self):
        a = blinding_rng(1, 0, [1, 2, 3]).random()
        b = blinding_rng(1, 0, [1, 2, 4]).random()
        assert a != b

    def test_nondeterministic_blinding_differs(self, public_split):
        setups = setup_split(public_split, crs_seed=CRS_SEED)
        a = prove_instance(public_split, 0, setups[0], crs_seed=None)
        b = prove_instance(public_split, 0, setups[0], crs_seed=None)
        assert serialize_proof(a) != serialize_proof(b)

    def test_setup_count_mismatch_rejected(self, public_split):
        setups = setup_split(public_split, crs_seed=CRS_SEED)
        with pytest.raises(ValueError):
            prove_split(public_split, setups[:-1], crs_seed=CRS_SEED)


def _tampered(agg: AggregateProof, mutate) -> AggregateProof:
    payload = json.loads(agg.to_json())
    mutate(payload)
    return AggregateProof.from_json(
        json.dumps(payload, sort_keys=True, separators=(",", ":"))
    )


def _flip_hex_nibble(hex_str: str, pos: int) -> str:
    pos %= len(hex_str)
    old = int(hex_str[pos], 16)
    return hex_str[:pos] + format(old ^ 1, "x") + hex_str[pos + 1:]


class TestTamperRejection:
    """Flipping any byte of any proof, commitment, or public must reject."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_flipped_proof_byte_rejected(self, public_agg, data):
        layer = data.draw(
            st.integers(0, len(public_agg.layers) - 1), label="layer"
        )
        proof_hex = public_agg.inferences[0]["proofs"][layer]
        pos = data.draw(st.integers(0, len(proof_hex) - 1), label="nibble")

        def mutate(payload):
            payload["inferences"][0]["proofs"][layer] = _flip_hex_nibble(
                proof_hex, pos
            )

        assert not verify_aggregate(_tampered(public_agg, mutate))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_flipped_boundary_commitment_rejected(self, public_agg, data):
        boundaries = public_agg.inferences[0]["boundaries"]
        k = data.draw(st.integers(0, len(boundaries) - 1), label="boundary")
        pos = data.draw(st.integers(0, len(boundaries[k]) - 1), label="nibble")

        def mutate(payload):
            payload["inferences"][0]["boundaries"][k] = _flip_hex_nibble(
                boundaries[k], pos
            )

        verdict = verify_aggregate(_tampered(public_agg, mutate))
        assert not verdict
        assert "chain" in verdict.reason

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_perturbed_public_rejected(self, public_agg, data):
        layer = data.draw(
            st.integers(0, len(public_agg.layers) - 1), label="layer"
        )
        publics = public_agg.inferences[0]["publics"][layer]
        slot = data.draw(st.integers(0, len(publics) - 1), label="slot")
        delta = data.draw(st.integers(1, 1 << 30), label="delta")

        def mutate(payload):
            payload["inferences"][0]["publics"][layer][slot] = str(
                int(publics[slot]) + delta
            )

        assert not verify_aggregate(_tampered(public_agg, mutate))

    def test_hashed_mode_digest_tamper_rejected(self, hashed_agg):
        digest = hashed_agg.inferences[0]["publics"][0][-1]

        def mutate(payload):
            payload["inferences"][0]["publics"][0][-1] = str(int(digest) + 1)

        assert not verify_aggregate(_tampered(hashed_agg, mutate))

    def test_swapped_layer_proofs_rejected(self, public_agg):
        def mutate(payload):
            proofs = payload["inferences"][0]["proofs"]
            proofs[0], proofs[1] = proofs[1], proofs[0]

        assert not verify_aggregate(_tampered(public_agg, mutate))

    def test_dropped_layer_rejected(self, public_agg):
        def mutate(payload):
            payload["layers"].pop()
            payload["inferences"][0]["proofs"].pop()
            payload["inferences"][0]["publics"].pop()
            payload["inferences"][0]["boundaries"].pop()

        assert not verify_aggregate(_tampered(public_agg, mutate))

    def test_out_of_range_public_rejected(self, public_agg, artifact):
        p = artifact.cs.field.modulus

        def mutate(payload):
            payload["inferences"][0]["publics"][0][0] = str(p)

        verdict = verify_aggregate(_tampered(public_agg, mutate))
        assert not verdict
        assert "range" in verdict.reason

    def test_wrong_version_rejected(self, public_agg):
        payload = json.loads(public_agg.to_json())
        payload["version"] = 99
        with pytest.raises(Exception):
            AggregateProof.from_json(json.dumps(payload))

    def test_garbage_json_never_raises_from_verify(self):
        bad = AggregateProof(
            mode="public", model="x", crs_seed=None,
            layers=[{"vk": "zz", "num_public": 1}],
            inferences=[{"proofs": [], "publics": [], "boundaries": []}],
        )
        verdict = verify_aggregate(bad)
        assert not verdict
        assert verdict.reason


@pytest.fixture(scope="module")
def real_curve_agg():
    """SHAL:micro split in public mode, set up, proved and folded on the
    genuine BN254 curve (three instances, ≈ 0.5 s)."""
    from repro.core.spec import CircuitSpec
    from repro.ec.backend import RealBN254Backend

    spec = CircuitSpec(model="SHAL", scale="micro", gadgets="lean")
    split = spec.compile(spec.image(0)).split(mode="public")
    backend = RealBN254Backend()
    setups = setup_split(split, backend, crs_seed=CRS_SEED)
    proofs = prove_split(split, setups, backend, crs_seed=CRS_SEED)
    return fold(split, setups, [proofs], crs_seed=CRS_SEED)


class TestRealCurveAggregate:
    """``verify_aggregate`` on BN254: VK decoding (three G2 subgroup checks
    per layer), proof decoding and one batched real pairing check."""

    def test_accepts(self, real_curve_agg):
        loaded = AggregateProof.from_json(real_curve_agg.to_json())
        verdict = verify_aggregate(loaded)
        assert verdict.ok, verdict.reason
        assert verdict.num_layers == len(real_curve_agg.layers) >= 2

    def test_flipped_proof_byte_rejected(self, real_curve_agg):
        def mutate(payload):
            proof = bytearray.fromhex(payload["inferences"][0]["proofs"][1])
            proof[33 + 40] ^= 0x01  # inside B, the G2 element
            payload["inferences"][0]["proofs"][1] = proof.hex()

        verdict = verify_aggregate(_tampered(real_curve_agg, mutate))
        assert not verdict and verdict.reason

    def test_off_subgroup_beta_rejected(self, real_curve_agg):
        """beta re-encoded as an on-curve point outside the order-r
        subgroup: the VK decoder refuses it."""
        from repro.snark.serialize import serialize_g2
        from tests.test_snark_serialize import off_subgroup_g2_point

        def mutate(payload):
            vk = bytearray.fromhex(payload["layers"][0]["vk"])
            vk[33:98] = serialize_g2(off_subgroup_g2_point())  # alpha || beta
            payload["layers"][0]["vk"] = vk.hex()

        verdict = verify_aggregate(_tampered(real_curve_agg, mutate))
        assert not verdict
        assert "layer 0" in verdict.reason and "subgroup" in verdict.reason

    def test_out_of_range_public_rejected(self, real_curve_agg):
        def mutate(payload):
            value = int(payload["inferences"][0]["publics"][0][0])
            payload["inferences"][0]["publics"][0][0] = str(
                value + BN254_FR_MODULUS
            )

        verdict = verify_aggregate(_tampered(real_curve_agg, mutate))
        assert not verdict and "range" in verdict.reason


class TestBatchReuse:
    """§6.1 reuse: refresh the split for a new image, prove, fold both."""

    @pytest.fixture(scope="class")
    def reuse(self):
        model = tiny_conv_model()
        images = [tiny_image(seed=1), tiny_image(seed=2)]
        prover = BatchProver(model, images[0])
        split = split_model(prover.cs, mode="public")
        setups = setup_split(split, crs_seed=CRS_SEED)
        proof_sets, publics_sets = [], []
        for image in images:
            prover.assign_image(image)
            split.refresh_from(prover.cs)
            proof_sets.append(prove_split(split, setups, crs_seed=CRS_SEED))
            publics_sets.append(
                [inst.cs.public_values() for inst in split.instances]
            )
        agg = fold(
            split, setups, proof_sets,
            crs_seed=CRS_SEED, publics_sets=publics_sets,
        )
        return model, images, split, agg

    def test_refreshed_instances_satisfied(self, reuse):
        _, _, split, _ = reuse
        for inst in split.instances:
            assert inst.cs.is_satisfied(), inst.name

    def test_multi_inference_artifact_accepts(self, reuse):
        _, _, _, agg = reuse
        verdict = verify_aggregate(agg)
        assert verdict.ok, verdict.reason
        assert verdict.num_proofs == 2 * verdict.num_layers
        # sub-linear: P + 3L < 4P once there are >= 2 inferences
        assert verdict.num_pairings < verdict.naive_pairings

    def test_per_inference_predictions_differ_legitimately(self, reuse):
        model, images, _, agg = reuse
        verdict = verify_aggregate(agg)
        p = None
        from repro.field import BN254_FR_MODULUS as p
        for image, globals_out in zip(
            images, verdict.globals_per_inference
        ):
            logits = [
                v - p if v > p // 2 else v
                for _, v in sorted(globals_out.items())
            ]
            assert logits == [int(v) for v in model.forward(image)]

    def test_cross_inference_proof_swap_rejected(self, reuse):
        _, _, _, agg = reuse

        def mutate(payload):
            a = payload["inferences"][0]["proofs"]
            b = payload["inferences"][1]["proofs"]
            a[0], b[0] = b[0], a[0]

        assert not verify_aggregate(_tampered(agg, mutate))

    def test_hashed_refresh_recomputes_digests(self):
        model = tiny_conv_model()
        images = [tiny_image(seed=3), tiny_image(seed=4)]
        prover = BatchProver(model, images[0])
        split = split_model(prover.cs, mode="hashed")
        prover.assign_image(images[1])
        split.refresh_from(prover.cs)
        for inst in split.instances:
            assert inst.cs.is_satisfied(), inst.name
        for k in range(split.num_instances - 1):
            inst = split.instances[k]
            assert inst.boundary_values(inst.out_slots) == [
                _native_cut_digest(split, k, prover.cs)
            ]


class TestAuditSplit:
    @pytest.mark.parametrize("mode", ["public", "hashed"])
    def test_strict_split_audits_clean(self, mode):
        opts = zeno_options(
            PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS, record_recipe=True
        )
        opts.gadget_mode = "strict"
        artifact = ZenoCompiler(opts).compile_model(
            tiny_conv_model(), tiny_image()
        )
        split = artifact.split(mode=mode)
        report = audit_split(
            split,
            assume=assume_from_recipe(artifact.compute.recipe),
            fuzz=2,
            rng=random.Random(2024),
        )
        assert report.ok, report.summary()
        assert report.num_constraints == split.total_constraints()

    @pytest.mark.parametrize("mode", ["public", "hashed"])
    def test_strict_lookup_split_audits_clean(self, mode):
        """A lookup argument's rows are spread over the instances — the
        membership rows in the layers, the column in ``lookup:<table>`` —
        so its grant comes from the split, not from any one instance
        (12,840 / 14,713 false errors before it did)."""
        artifact = compile_tiny("lookup")
        split = artifact.split(mode=mode)
        assert len(split.lookup_blocks) == len(artifact.cs.lookup_blocks) > 0
        report = audit_split(
            split, assume=assume_from_recipe(artifact.compute.recipe)
        )
        assert report.ok, report.summary()
        assert report.num_constraints == split.total_constraints()

    @pytest.mark.parametrize("mode", ["public", "hashed"])
    @pytest.mark.parametrize("defect", ["sum check", "multiplicity", "membership"])
    def test_broken_lookup_surfaces_once_through_the_split(self, mode, defect):
        """The three ``TestBrokenLookupFixture`` defects, split after the
        tampering: one ``lookup-block`` error naming the table, and no
        grant (the argument's wires surface as under-constrained)."""
        cs, block, x_vars = lookup_gadget_cs([-6, 0, 44])
        if defect == "sum check":
            index = block.sum_constraint
            row = cs.constraints[index]
            row.a.terms.clear()
        elif defect == "multiplicity":
            index = block.g_constraints[40]
            row = cs.constraints[index]
            row.c.terms.clear()
        else:
            index = block.h_constraints[0]
            row = cs.constraints[index]
            row.a.add_term(block.y_vars[0], 1)
        cs = tampered(cs, replace={index: row})
        report = audit_split(split_model(cs, mode=mode), assume=x_vars)
        named = [f for f in report.errors if f.rule == "lookup-block"]
        assert [f.layer for f in named] == ["lookup:relu8"]
        assert defect in named[0].message
        assert len(report.errors) > 1

    def test_findings_carry_instance_layer(self, artifact):
        split = artifact.split(mode="public")
        # Inject an unreferenced private into one instance: the merged
        # report must blame that instance by name.
        victim = split.instances[1]
        victim.cs.new_private(7)
        report = audit_split(split)
        flagged = [
            f for f in report.findings if f.rule == "unreferenced-private"
        ]
        assert flagged
        assert any(f.layer == victim.name for f in flagged)


# -- hashed mode commits by parcel ---------------------------------------------

TINY_PUBLICS = [1] + [2] * 18 + [12] + [2] * 7 + [1]


def _tiny_transformer_prover():
    model = build_model("TINY", scale="micro", seed=3)
    images = list(synthetic_images(model.input_shape, n=3, seed=11))
    options = CompilerOptions(relu_mode="lookup", gadget_mode="strict")
    return BatchProver(model, images[0], options=options), images


def _tiny_conv_prover():
    images = [tiny_image(seed=s) for s in (5, 6, 7)]
    return BatchProver(tiny_conv_model(), images[0]), images


@pytest.fixture(scope="module")
def provers():
    """name -> (BatchProver, three images); compiled once per module."""
    return {
        "tiny_conv_model": _tiny_conv_prover(),
        "TINY:micro": _tiny_transformer_prover(),
    }


@pytest.fixture(scope="module")
def tiny_proved(provers):
    """TINY:micro strict+lookup on its first image: the prover, per-layer
    set-ups and honest proofs of the default hashed split."""
    prover, images = provers["TINY:micro"]
    prover.assign_image(images[0])
    split = split_model(prover.cs, mode="hashed")
    setups = setup_split(split, crs_seed=CRS_SEED)
    proofs = prove_split(split, setups, crs_seed=CRS_SEED)
    return prover, images, setups, proofs


def _sponge_wires(inst) -> set:
    wires = set()
    for sponge in inst.sponges:
        rounds = len(sponge.absorbed) + inst.extra_rounds
        wires.update(range(sponge.first_wire, sponge.first_wire + 3 * rounds))
    return wires


def _chain_digests_agree(split) -> bool:
    return all(
        left.boundary_values(left.out_slots)
        == right.boundary_values(right.in_slots)
        for left, right in zip(split.instances, split.instances[1:])
    )


class TestParcels:
    @pytest.mark.parametrize("name", ["tiny_conv_model", "TINY:micro"])
    @settings(max_examples=5, deadline=None)
    @given(num_segments=st.integers(1, 32))
    def test_layout_and_refresh_property(self, provers, name, num_segments):
        prover, images = provers[name]
        prover.assign_image(images[0])
        split = split_model(
            prover.cs, mode="hashed", num_segments=num_segments
        )
        for inst in split.instances:
            # One digest slot per side, nothing else public but the
            # model-level claims; every private is used by an inherited
            # row, or is a sponge wire, or is a carried digest.
            assert len(inst.in_slots) == (1 if inst.index > 0 else 0)
            assert len(inst.out_slots) == (
                1 if inst.index < split.num_instances - 1 else 0
            )
            assert inst.cs.num_public == len(inst.global_slots) + len(
                inst.in_slots + inst.out_slots
            )
            inherited = set()
            for constraint in inst.cs.constraints[: inst.num_rows]:
                for lc in (constraint.a, constraint.b, constraint.c):
                    inherited.update(v for v in lc.indices() if v > 0)
            synthesized = _sponge_wires(inst) | {v for v, _ in inst.carried}
            assert not inherited & synthesized
            assert inherited | synthesized == set(
                range(1, inst.cs.num_private + 1)
            )
        for image in images:
            prover.assign_image(image)
            split.refresh_from(prover.cs)
            fresh = split_model(
                prover.cs, mode="hashed", num_segments=num_segments
            )
            for inst, again in zip(split.instances, fresh.instances):
                assert inst.cs.is_satisfied(), inst.name
                assert (
                    inst.cs.dense_assignment() == again.cs.dense_assignment()
                ), inst.name
            assert _chain_digests_agree(split)

    def test_single_instance_refresh_touches_no_other(self, provers):
        """The serve/cluster path refreshes ONE layer per job: its carried
        digests must come from the original system, not from neighbours."""
        prover, images = provers["TINY:micro"]
        prover.assign_image(images[0])
        split = split_model(prover.cs, mode="hashed")
        target = max(split.instances, key=lambda inst: len(inst.carried))
        assert target.carried
        stale = [inst.cs.dense_assignment() for inst in split.instances]
        prover.assign_image(images[1])
        target.refresh_from(prover.cs)
        fresh = split_model(prover.cs, mode="hashed")
        for inst, before, again in zip(split.instances, stale, fresh.instances):
            if inst is target:
                assert inst.cs.dense_assignment() == again.cs.dense_assignment()
                assert inst.cs.is_satisfied()
            else:
                assert inst.cs.dense_assignment() == before

    def test_whole_split_refresh_digests_each_carried_parcel_once(
        self, provers, monkeypatch
    ):
        """19 distinct parcels are carried 222 times on TINY:micro."""
        from repro.aggregate import split as split_module

        prover, images = provers["TINY:micro"]
        prover.assign_image(images[0])
        split = split_model(prover.cs, mode="hashed")
        carried = [parcel for inst in split.instances for _, parcel in inst.carried]
        assert len(set(carried)) < len(carried)
        digested = []

        def counting(values, modulus):
            digested.append(tuple(values))
            return mimc_digest(values, modulus)

        monkeypatch.setattr(split_module, "mimc_digest", counting)
        prover.assign_image(images[1])
        split.refresh_from(prover.cs)
        assert len(digested) == len(set(carried))
        del digested[:]
        busiest = max(split.instances, key=lambda inst: len(inst.carried))
        busiest.refresh_from(prover.cs)  # on its own: every parcel it carries
        assert len(digested) == len(busiest.carried)
        fresh = split_model(prover.cs, mode="hashed")
        for inst, again in zip(split.instances, fresh.instances):
            assert inst.cs.dense_assignment() == again.cs.dense_assignment()

    def test_transformer_budget(self, tiny_proved):
        """TINY:micro strict+lookup: the split's overhead stays a fraction
        of the model (it was 35,665 rows / Σd 50,944 when every layer
        re-absorbed every live variable)."""
        prover, _, setups, _ = tiny_proved
        split = split_model(prover.cs, mode="hashed")
        assert split.num_instances == 28
        assert [inst.cs.num_public for inst in split.instances] == TINY_PUBLICS
        assert split.total_constraints() <= 21_000
        assert (
            split.total_constraints() - split.commitment_rows()
            == prover.cs.num_constraints
        )
        assert sum(s.proving_key.domain_size for s in setups) <= 33_000

    def test_public_mode_has_no_commitment_rows(self, public_split):
        assert public_split.commitment_rows() == 0
        assert public_split.parcels == {}

    def _assert_only_the_chain_objects(self, tiny_proved, tamper):
        """``tamper(split, prover, other_image)`` corrupts and returns one
        instance of a fresh honest split.  With its sponges replayed the
        instance is satisfied and its re-made proof valid on its own; the
        aggregate must still reject, and name the chain."""
        prover, images, setups, proofs = tiny_proved
        prover.assign_image(images[0])
        split = split_model(prover.cs, mode="hashed")
        inst = tamper(split, prover, images[1])
        inst._replay_sponges()
        assert inst.cs.is_satisfied()
        setup = setups[inst.index]
        proof = prove_instance(split, inst.index, setup, crs_seed=CRS_SEED)
        assert groth16.verify(
            setup.verifying_key, inst.cs.public_values(), proof
        )
        proofs = list(proofs)
        proofs[inst.index] = proof
        verdict = verify_aggregate(
            fold(split, setups, [proofs], crs_seed=CRS_SEED)
        )
        assert not verdict
        assert "chain" in verdict.reason

    def test_reader_changing_its_imports_breaks_the_chain(self, tiny_proved):
        """A reader swaps in another image's values for what it imports
        (and everything it derives from them), keeps the digests it
        carries, and recomputes its own sponge wires honestly."""

        def tamper(split, prover, other_image):
            (_, reader) = next(iter(split.parcels))
            inst = split.instances[reader]
            kept = [(var, inst.cs.value_of(var)) for var, _ in inst.carried]
            imports = inst.boundary_values(inst.in_slots)
            prover.assign_image(other_image)
            inst.refresh_from(prover.cs)
            assert inst.boundary_values(inst.in_slots) != imports
            for var, value in kept:
                inst.cs.assign(var, value)
            return inst

        self._assert_only_the_chain_objects(tiny_proved, tamper)

    def test_altered_carried_digest_breaks_the_chain(self, tiny_proved):
        def tamper(split, prover, other_image):
            inst = next(i for i in split.instances if i.carried)
            var, _ = inst.carried[0]
            inst.cs.assign(var, inst.cs.value_of(var) + 1)
            return inst

        self._assert_only_the_chain_objects(tiny_proved, tamper)


class TestParentArtifacts:
    """``tests/fixtures/parent_aggregate_*.json`` were folded by the commit
    before hashed boundaries were committed by parcel;
    ``parent_split.json`` describes the instances of the commit before
    ``split_model`` planned on the CSR snapshot."""

    @pytest.mark.parametrize("mode", ["public", "hashed"])
    def test_parent_written_artifact_still_verifies(self, mode):
        agg = AggregateProof.load(str(parent_recipe.fixture_path(mode)))
        verdict = verify_aggregate(agg)
        assert verdict.ok, verdict.reason

    def test_public_mode_folds_to_the_parents_bytes(self):
        assert parent_recipe.folded("public") == (
            parent_recipe.fixture_path("public").read_text()
        )


    @pytest.mark.parametrize("name", list(parent_split.SPLITS))
    def test_split_reproduces_the_parents_instances(self, name):
        """Rows, witness, provenance maps, verifying key and proof bytes
        of every instance, as the per-LC split built them."""
        golden = json.loads(
            Path(parent_split.__file__).with_name("parent_split.json").read_text()
        )
        assert parent_split.fingerprint(name) == golden[name]

    def test_rows_stay_arrays_under_src(self):
        """The per-term remap and the dict-LC sponge cannot grow back."""
        src = Path(inspect.getfile(ConstraintSystem)).parents[1]
        split = ast.parse((src / "aggregate" / "split.py").read_text())
        per_variable = {"enforce", "new_private", "new_public"}
        loops = (
            ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
            ast.GeneratorExp,
        )
        for node in ast.walk(split):
            if isinstance(node, ast.Attribute):
                assert node.attr != "terms", node.lineno
            if isinstance(node, (ast.Name, ast.alias)):
                assert "LinearCombination" not in ast.unparse(node), node.lineno
            if isinstance(node, loops):
                for call in ast.walk(node):
                    assert not (
                        isinstance(call, ast.Call)
                        and getattr(call.func, "attr", None) in per_variable
                    ), call.lineno
        for path in src.rglob("*.py"):
            names = {
                token.string
                for token in tokenize.generate_tokens(
                    io.StringIO(path.read_text()).readline
                )
                if token.type == tokenize.NAME
            }
            assert not names & {"_remap_lc", "_build_instance"}, path
        enforce_rows = next(
            node
            for node in ast.walk(ast.parse(inspect.getsource(ConstraintSystem)))
            if isinstance(node, ast.FunctionDef) and node.name == "enforce_rows"
        )
        assert not any(
            isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "Constraint"
            for call in ast.walk(enforce_rows)
        )
        # one path each: no parameter was added to select another
        for function, parameters in (
            (split_model, "cs mode num_segments"),
            (CompileArtifact.split, "self mode num_segments"),
            (ConstraintSystem.enforce_rows, "self block tag start stop"),
            (ConstraintSystem.to_csr, "self assignment"),
        ):
            assert list(inspect.signature(function).parameters) == (
                parameters.split()
            )


# -- split_model against the per-LC split it replaced -------------------------


def _products(cs: ConstraintSystem, pairs, tag: str = "") -> list:
    """``x * y = wire`` for every ``(x, y)`` of ``pairs``, one
    :meth:`~ConstraintSystem.enforce` at a time; returns the wires."""
    return [cs.mul_private(x, y, tag=tag) for x, y in pairs]


def _product_block(cs: ConstraintSystem, pairs, tags=None) -> list:
    """The same rows as one three-sided :class:`RowBlock`."""
    p = cs.field.modulus
    first = cs.allocate(
        [cs.value_of(x) * cs.value_of(y) % p for x, y in pairs]
    )
    wires = list(range(first, first + len(pairs)))
    unit = list(range(len(pairs) + 1)), [1] * len(pairs)
    cs.enforce_rows(
        RowBlock(
            RowSide.of(unit[0], [x for x, _ in pairs], unit[1], p),
            RowSide.of(unit[0], [y for _, y in pairs], unit[1], p),
            RowSide.of(unit[0], wires, unit[1], p),
            tags=tags,
        ),
        tag="block",
    )
    return wires


def _pinned_block(cs: ConstraintSystem, variables) -> None:
    """``(v - value) * 1 = 0`` per variable: a block with an A side only."""
    p = cs.field.modulus
    cs.enforce_rows(
        RowBlock(RowSide.of(
            list(range(0, 2 * len(variables) + 1, 2)),
            [term for v in variables for term in (v, 0)],
            [c for v in variables for c in (1, (-cs.value_of(v)) % p)], p,
        )),
        tag="pin",
    )


def interleaved_system() -> ConstraintSystem:
    """Block rows and ``enforce`` rows alternating inside and across
    layers, as a CNN's dot-then-ReLU lowers."""
    cs = ConstraintSystem(name="interleaved")
    x = [cs.new_private(v) for v in (3, 5, 7, 11)]
    out = cs.new_public(3 * 5)
    start = cs.num_constraints
    a = _products(cs, [(x[0], x[1]), (x[1], x[2])], tag="conv/mul")
    b = _product_block(cs, [(a[0], x[3]), (a[1], a[0]), (x[2], x[2])])
    _products(cs, [(b[2], a[1])], tag="conv/mul")
    cs.mark_layer("conv", start)
    start = cs.num_constraints
    _pinned_block(cs, [b[0], b[1]])
    c = _products(cs, [(b[0], b[1])], tag="relu/mul")
    _product_block(
        cs, [(c[0], x[0]), (a[0], a[0])], tags=["relu/first", "relu/second"]
    )
    cs.mark_layer("relu", start)
    cs.enforce_equal(
        cs.lc_variable(a[0]), cs.lc_variable(out), tag="logits"
    )  # a trailing filler segment reading a model public
    assert cs.is_satisfied()
    return cs


def far_reader_system() -> ConstraintSystem:
    """One variable made in layer 0 and read again in layers 2 and 4, so
    layers 1 and 3 carry a parcel they never open; a model public used by
    layers 1 and 3; and a layer that touches no private of its own."""
    cs = ConstraintSystem(name="far")
    pub = cs.new_public(9)
    seed = cs.new_private(4)
    shared = None
    previous = seed
    for layer in range(5):
        start = cs.num_constraints
        if layer % 2:
            # previous * public: the public keeps its meaning in two layers
            wire = cs.new_private(cs.value_of(previous) * 9)
            cs.enforce(
                cs.lc_variable(previous), cs.lc_variable(pub),
                cs.lc_variable(wire), tag=f"l{layer}/scale",
            )
            previous = wire
        else:
            operand = previous if shared is None else shared
            (previous,) = _products(
                cs, [(previous, operand)], tag=f"l{layer}/mul"
            )
            if shared is None:
                shared = previous
        cs.mark_layer(f"l{layer}", start)
    assert cs.is_satisfied()
    return cs


HAND_BUILT = {
    "interleaved": interleaved_system,
    "far-reader": far_reader_system,
}


def _rows(cs: ConstraintSystem) -> list:
    return [
        (con.tag, *(sorted(lc.terms.items()) for lc in (con.a, con.b, con.c)))
        for con in cs.constraints
    ]


def assert_same_split(got, want) -> None:
    assert (got.mode, got.source_name) == (want.mode, want.source_name)
    assert got.boundaries == want.boundaries
    assert list(got.parcels.items()) == list(want.parcels.items())
    assert got.num_instances == want.num_instances
    for mine, theirs in zip(got.instances, want.instances):
        for attribute in (
            "name", "index", "row_start", "row_stop", "public_map",
            "private_map", "global_slots", "in_slots", "out_slots",
            "sponges", "carried", "extra_rounds",
        ):
            assert getattr(mine, attribute) == getattr(theirs, attribute), (
                mine.name, attribute
            )
        assert mine.cs.name == theirs.cs.name
        assert mine.cs.layer_ranges == theirs.cs.layer_ranges
        assert mine.cs.num_constraints == theirs.cs.num_constraints
        for var in range(-mine.cs.num_public, mine.cs.num_private + 1):
            assert mine.cs.value_of(var) == theirs.cs.value_of(var), (
                mine.name, var
            )
        assert mine.cs.num_public == theirs.cs.num_public
        assert mine.cs.num_private == theirs.cs.num_private
        assert _rows(mine.cs) == _rows(theirs.cs), mine.name


@pytest.fixture(scope="module")
def family_systems():
    """One compiled system per circuit family, compiled on first use."""
    compiled = {}

    def system(circuit) -> ConstraintSystem:
        if circuit not in compiled:
            compiled[circuit] = circuit.compile(circuit.image(11)).cs
        return compiled[circuit]

    return system


@pytest.mark.parametrize("num_segments", [None, 1, 3])
@pytest.mark.parametrize("mode", ["public", "hashed"])
class TestSplitOracle:
    """``split_model`` and ``tests/split_oracle.py`` — the per-LC split it
    replaced — build the same instances, field by field, and tally the
    same operations."""

    def compare(self, cs, mode, num_segments):
        with count_ops() as ops:
            got = split_model(cs, mode=mode, num_segments=num_segments)
        with count_ops() as oracle_ops:
            want = split_model_lc(cs, mode=mode, num_segments=num_segments)
        assert_same_split(got, want)
        assert ops.snapshot() == oracle_ops.snapshot()
        return got

    @pytest.mark.parametrize(
        "circuit", FAMILIES, ids=lambda c: f"{c.model}-{c.privacy}"
    )
    def test_model_families(self, family_systems, circuit, mode, num_segments):
        self.compare(family_systems(circuit), mode, num_segments)

    @pytest.mark.parametrize("name", list(HAND_BUILT))
    def test_hand_built(self, name, mode, num_segments):
        split = self.compare(HAND_BUILT[name](), mode, num_segments)
        for inst in split.instances:
            assert inst.cs.is_satisfied(), inst.name

    def test_unassigned_then_refreshed(self, mode, num_segments):
        cs = far_reader_system()
        blank = parent_split.unassigned_copy(cs)
        split = self.compare(blank, mode, num_segments)
        split.refresh_from(cs)
        assert_same_split(
            split, split_model(cs, mode=mode, num_segments=num_segments)
        )


def test_hand_built_systems_are_what_they_claim():
    """The carried parcel, the twice-used public and the interleaving the
    differential test relies on are really there."""
    far = split_model(far_reader_system(), mode="hashed")
    assert {(0, 2), (0, 4)} <= set(far.parcels)
    assert far.parcels[(0, 2)] == far.parcels[(0, 4)]
    carriers = [inst.index for inst in far.instances if inst.carried]
    assert {1, 3} <= set(carriers)
    assert [bool(inst.global_slots) for inst in far.instances] == [
        False, True, False, True, False
    ]
    # enforce rows (each gap's rows one run) between the blocks
    runs = interleaved_system()._runs_filed()
    assert [run.stop - run.start for run in runs] == [2, 3, 1, 2, 1, 2, 1]
