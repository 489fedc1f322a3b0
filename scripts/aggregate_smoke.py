"""CI smoke test for per-layer aggregate proving, local and clustered.

Exercises the full `repro.aggregate` acceptance path on a small
(>= 3-layer) model, once per boundary mode (``public`` and ``hashed``):

1. **local** — split at layer boundaries, prove every instance through
   the process pool, fold into one `AggregateProof`, verify with the
   single batched pairing check, and assert a byte-flip anywhere in the
   artifact (proof, boundary commitment, public input) rejects;
2. **cluster** — run an in-process coordinator with two REAL worker
   subprocesses (``python -m repro.cli cluster worker``), submit one job
   per layer carrying the ``aggregate`` job extra, and assert the
   cluster-produced proofs are byte-identical to the local ones under
   deterministic blinding, then fold + verify those too.

The circuit is the strict + lookup lowering: its trailing ``lookup:*``
segment reads values made several layers earlier, so the ``hashed`` split
has digests to *carry* through the layers in between — and a worker
refreshing ONE layer for its job (`LayerInstance.refresh_from`) must
recompute them from the original system alone.  The local side splits
the circuit while it holds ANOTHER image's witness and refreshes the
split to the job's image; the workers compile on the job's image itself —
so byte-identical proofs also mean a refreshed split is a fresh split.

Exit code 0 on success.  Used by the CI "Aggregate smoke" step::

    PYTHONPATH=src python scripts/aggregate_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.aggregate import (
    AggregateProof,
    fold,
    prove_split,
    setup_split,
    split_model,
    verify_aggregate,
)
from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.core.spec import CircuitSpec
from repro.serve.service import ServiceConfig
from repro.snark.serialize import deserialize_proof, serialize_proof

CIRCUIT = CircuitSpec(
    "LCS", scale="micro", seed=0, gadgets="strict", relu_mode="lookup"
)
IMAGE_SEED = 451
BASE_IMAGE_SEED = 452  # the witness the local split is first built from
SEGMENTS = 4
CRS_SEED = 0xA66C1
MODES = ("public", "hashed")


def wait_for(predicate, timeout, what, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


def spawn_worker(address, node_id):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    host, port = address
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "cluster", "worker",
            "--connect", f"{host}:{port}", "--node-id", node_id,
            "--pool-workers", "1", "--window", "1",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def tampered_rejects(agg, mutate, what):
    doc = json.loads(agg.to_json())
    mutate(doc)
    verdict = verify_aggregate(AggregateProof.from_json(json.dumps(doc)))
    assert not verdict.ok, f"tampered artifact accepted ({what})"


def local_aggregate(prover, mode):
    """Phase 1: split -> pooled prove -> fold -> verify, in ``mode``."""
    prover.assign_image(CIRCUIT.image(BASE_IMAGE_SEED))
    split = split_model(prover.cs, mode=mode, num_segments=SEGMENTS)
    prover.assign_image(CIRCUIT.image(IMAGE_SEED))
    split.refresh_from(prover.cs)
    assert split.num_instances >= 3, "smoke model must split into >= 3 layers"
    if mode == "hashed":
        assert any(inst.carried for inst in split.instances), (
            "smoke circuit carries no digest: the single-layer refresh of "
            "carried digests would go untested"
        )
    setups = setup_split(split, crs_seed=CRS_SEED)
    proofs = prove_split(split, setups, crs_seed=CRS_SEED, parallelism=2)
    agg = fold(split, setups, [proofs], crs_seed=CRS_SEED)
    verdict = verify_aggregate(agg)
    assert verdict.ok, f"local {mode} aggregate rejected: {verdict.reason}"
    assert verdict.globals_out, "aggregate carries no model-level claims"
    print(
        f"phase 1 ok ({mode}): {split.num_instances} layer proofs "
        f"({split.total_constraints()} constraints, "
        f"{split.commitment_rows()} of them commitment rows) folded and "
        f"verified in {verdict.num_pairings} pairings "
        f"({verdict.naive_pairings} naive)"
    )

    def flip_proof(doc):
        raw = bytearray(bytes.fromhex(doc["inferences"][0]["proofs"][1]))
        raw[len(raw) // 2] ^= 1
        doc["inferences"][0]["proofs"][1] = raw.hex()

    def flip_boundary(doc):
        raw = bytearray(bytes.fromhex(doc["inferences"][0]["boundaries"][0]))
        raw[0] ^= 1
        doc["inferences"][0]["boundaries"][0] = raw.hex()

    def flip_public(doc):
        publics = doc["inferences"][0]["publics"][-1]
        publics[-1] = str(int(publics[-1]) ^ 1)

    tampered_rejects(agg, flip_proof, "flipped proof byte")
    tampered_rejects(agg, flip_boundary, "flipped boundary commitment")
    tampered_rejects(agg, flip_public, "flipped public input")
    print(f"phase 1 ok ({mode}): proof/boundary/public tampering all rejected")
    return split, setups, proofs, agg


def cluster_aggregate(coord, mode, split, setups, local_proofs, agg):
    """Phase 2: the same inference, one job per layer, through the nodes."""
    job_ids = [
        coord.submit(
            CIRCUIT,
            image_seed=IMAGE_SEED,
            extra={
                "aggregate": {
                    "mode": mode,
                    "num_segments": SEGMENTS,
                    "crs_seed": CRS_SEED,
                    "layer": k,
                }
            },
        )
        for k in range(split.num_instances)
    ]
    results = [coord.result(j, timeout=300) for j in job_ids]
    assert all(r.verified for r in results), "a cluster layer proof failed"
    nodes_used = sorted({r.store_keys["node"] for r in results})

    local_bytes = [serialize_proof(p) for p in local_proofs]
    assert [r.proof for r in results] == local_bytes, (
        f"cluster per-layer {mode} proofs != local prove_split bytes"
    )
    cluster_agg = fold(
        split, setups,
        [[deserialize_proof(r.proof) for r in results]],
        crs_seed=CRS_SEED,
    )
    cluster_verdict = verify_aggregate(cluster_agg)
    assert cluster_verdict.ok, (
        f"cluster {mode} aggregate rejected: {cluster_verdict.reason}"
    )
    assert cluster_agg.to_json() == agg.to_json(), (
        f"cluster {mode} aggregate artifact != local artifact"
    )
    print(
        f"phase 2 ok ({mode}): {len(results)} layer proofs via nodes "
        f"{nodes_used}, byte-identical to local, folded and verified"
    )


def main() -> int:
    # -- phase 1: local split -> pooled prove -> fold -> verify ------------------
    prover = CIRCUIT.batch_prover(CIRCUIT.image(BASE_IMAGE_SEED))
    local = {mode: local_aggregate(prover, mode) for mode in MODES}

    # -- phase 2: same inference through two real cluster workers ----------------
    coord = ClusterCoordinator(
        ClusterConfig(
            heartbeat_timeout=2.0,
            node_window=1,
            service=ServiceConfig(
                max_batch=2, max_wait=0.02, deterministic=True,
            ),
        )
    )
    address = coord.start()
    print(f"coordinator on {address[0]}:{address[1]}")
    workers = {
        node_id: spawn_worker(address, node_id)
        for node_id in ("agg-w0", "agg-w1")
    }
    try:
        wait_for(
            lambda: len(coord.live_nodes()) == 2, 60, "both workers to register"
        )
        for mode in MODES:
            cluster_aggregate(coord, mode, *local[mode])
        print("AGGREGATE SMOKE PASSED")
        return 0
    finally:
        for proc in workers.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in workers.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        coord.shutdown(drain=False)


if __name__ == "__main__":
    sys.exit(main())
