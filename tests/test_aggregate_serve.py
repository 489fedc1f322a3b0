"""Per-layer aggregate jobs through the batched proving service.

The acceptance claim: the SAME model inference proved per-layer through
`ProvingService` workers (one job per layer, fanned out and micro-batched
independently) yields proofs byte-identical to a local
:func:`repro.aggregate.prove_split` run under deterministic blinding, and
the collected set folds into an `AggregateProof` that verifies.
"""

import numpy as np
import pytest

from repro.aggregate import (
    fold,
    prove_split,
    setup_split,
    split_model,
    verify_aggregate,
)
from repro.core.spec import CircuitSpec
from repro.serve import ProvingService
from repro.snark.serialize import serialize_proof

MODEL, SCALE, SEED, IMAGE_SEED = "LCS", "micro", 0, 77
CRS_SEED = 0xBEEF
SEGMENTS = 3


def _local_reference(model=MODEL):
    """Prove the same inference per-layer locally (no service), from the
    one-shot compile ``zeno prove --per-layer`` runs."""
    circuit = CircuitSpec(model, scale=SCALE, seed=SEED)
    artifact = circuit.compile(circuit.image(IMAGE_SEED))
    split = split_model(artifact.cs, num_segments=SEGMENTS)
    setups = setup_split(split, crs_seed=CRS_SEED)
    proofs = prove_split(split, setups, crs_seed=CRS_SEED)
    return split, setups, proofs


def _serve_layers(service, model, num_layers):
    job_ids = [
        service.submit(
            CircuitSpec(model, scale=SCALE, seed=SEED),
            image_seed=IMAGE_SEED,
            extra={
                "aggregate": {
                    "mode": "public",
                    "num_segments": SEGMENTS,
                    "crs_seed": CRS_SEED,
                    "layer": k,
                }
            },
        )
        for k in range(num_layers)
    ]
    return [service.result(j, timeout=300) for j in job_ids]


@pytest.fixture(scope="module")
def served_layers():
    split, setups, local_proofs = _local_reference()
    service = ProvingService(
        max_workers=2, max_batch=4, max_wait=0.05, deterministic=True
    )
    try:
        results = _serve_layers(service, MODEL, split.num_instances)
        stats = service.stats()
    finally:
        service.shutdown(drain=True)
    return split, setups, local_proofs, results, stats


class TestAggregateServe:
    def test_all_layer_jobs_verified(self, served_layers):
        _, _, _, results, _ = served_layers
        assert all(r.verified for r in results)

    def test_service_proofs_byte_identical_to_local(self, served_layers):
        _, _, local_proofs, results, _ = served_layers
        local = [serialize_proof(p) for p in local_proofs]
        assert [r.proof for r in results] == local

    def test_batchnorm_model_byte_identical_to_local(self):
        """RES18 has BatchNorm layers: served circuits are §6.2-fused like
        the CLI's, so the layer split — and every layer proof — agree."""
        split, _, local_proofs = _local_reference("RES18")
        with ProvingService(
            max_workers=1, max_wait=0.0, deterministic=True
        ) as service:
            results = _serve_layers(service, "RES18", split.num_instances)
        assert [r.proof for r in results] == [
            serialize_proof(p) for p in local_proofs
        ]

    def test_layer_publics_match_split(self, served_layers):
        split, _, _, results, _ = served_layers
        for inst, res in zip(split.instances, results):
            assert res.public_inputs == inst.cs.public_values()

    def test_served_proofs_fold_and_verify(self, served_layers):
        split, setups, _, results, _ = served_layers
        from repro.snark.serialize import deserialize_proof

        proofs = [deserialize_proof(r.proof) for r in results]
        agg = fold(split, setups, [proofs], crs_seed=CRS_SEED)
        verdict = verify_aggregate(agg)
        assert verdict.ok, verdict.reason

    def test_layers_batched_separately(self, served_layers):
        split, _, _, results, _ = served_layers
        # Different layers are different circuits: the micro-batcher must
        # never co-batch two layer indices.
        assert len({r.batch_id for r in results}) == split.num_instances

    def test_aggregate_telemetry(self, served_layers):
        split, _, _, _, stats = served_layers
        agg_stats = stats["aggregate"]
        assert agg_stats["batches"] == split.num_instances
        assert agg_stats["layer_proofs"] == split.num_instances
        assert set(agg_stats["per_layer"]) == {
            str(k) for k in range(split.num_instances)
        }


class TestAggregateJobKeying:
    def test_batch_key_separates_layers(self):
        from repro.core.spec import CircuitSpec
        from repro.serve.jobs import ProofJob

        image = np.zeros((1, 8, 8), dtype=np.uint8)
        base = dict(
            circuit=CircuitSpec(MODEL, scale=SCALE, seed=SEED), image=image
        )
        plain = ProofJob(job_id="a", **base)
        layer0 = ProofJob(
            job_id="b", extra={"aggregate": {"layer": 0}}, **base
        )
        layer1 = ProofJob(
            job_id="c", extra={"aggregate": {"layer": 1}}, **base
        )
        assert plain.batch_key() != layer0.batch_key()
        assert layer0.batch_key() != layer1.batch_key()
        same = ProofJob(
            job_id="d", extra={"aggregate": {"layer": 0}}, **base
        )
        assert same.batch_key() == layer0.batch_key()
