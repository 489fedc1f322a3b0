"""Per-layer setup and concurrent proving with deterministic blinding.

Every derivation here is a pure function of ``(crs_seed, layer_index)``
(plus the instance's public inputs for blinding), so a local process
pool, the serving :class:`~repro.serve.workers.WorkerPool`, and remote
``repro.cluster`` worker nodes all produce byte-identical proofs for the
same inference — asserted by ``tests/test_pool.py`` (pool),
``tests/test_aggregate_serve.py`` (serve) and ``scripts/aggregate_smoke.py``
(two cluster subprocesses).
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Sequence

from repro.aggregate.split import SplitModel
from repro.core import pool
from repro.ec.backend import GroupBackend, SimulatedBackend, backend_by_name
from repro.snark import groth16
from repro.snark.keys import SetupResult
from repro.snark.proof import Proof
from repro.snark.serialize import deserialize_proof, serialize_proof

CRS_DOMAIN = b"zeno.aggregate.crs.v1"
BLIND_DOMAIN = b"zeno.aggregate.blind.v1"

DEFAULT_CRS_SEED = 0x5E70A66


def _rng_from_digest(digest: bytes) -> random.Random:
    return random.Random(int.from_bytes(digest, "big"))


def crs_rng(crs_seed: int, layer_index: int) -> random.Random:
    """The per-layer trusted-setup RNG: ``H(dom || seed || layer)``."""
    digest = hashlib.sha256(
        CRS_DOMAIN
        + int(crs_seed).to_bytes(8, "big", signed=False)
        + layer_index.to_bytes(4, "big")
    ).digest()
    return _rng_from_digest(digest)


def blinding_rng(
    crs_seed: int, layer_index: int, public_values: Sequence[int]
) -> random.Random:
    """Deterministic Groth16 blinding: seeded by layer AND instance publics.

    Binding the publics means two different inferences never share
    blinding factors (which would leak witness relations), while the same
    inference proved anywhere yields the same ``(r, s)`` and hence the
    same proof bytes.
    """
    inner = hashlib.sha256()
    inner.update(len(public_values).to_bytes(4, "big"))
    for value in public_values:
        inner.update(int(value).to_bytes(32, "big"))
    digest = hashlib.sha256(
        BLIND_DOMAIN
        + int(crs_seed).to_bytes(8, "big", signed=False)
        + layer_index.to_bytes(4, "big")
        + inner.digest()
    ).digest()
    return _rng_from_digest(digest)


def setup_split(
    split: SplitModel,
    backend: Optional[GroupBackend] = None,
    crs_seed: int = DEFAULT_CRS_SEED,
) -> List[SetupResult]:
    """Run the per-layer trusted setups (deterministic per layer)."""
    backend = backend or SimulatedBackend()
    return [
        groth16.setup(inst.cs, backend, crs_rng(crs_seed, inst.index))
        for inst in split.instances
    ]


def prove_instance(
    split: SplitModel,
    layer_index: int,
    setup: SetupResult,
    backend: Optional[GroupBackend] = None,
    crs_seed: Optional[int] = DEFAULT_CRS_SEED,
) -> Proof:
    """Prove one layer instance, with deterministic blinding by default.

    ``crs_seed=None`` opts out of determinism (fresh random blinding).
    """
    backend = backend or SimulatedBackend()
    inst = split.instances[layer_index]
    rng = (
        blinding_rng(crs_seed, inst.index, inst.cs.public_values())
        if crs_seed is not None
        else random.Random()
    )
    return groth16.prove(setup.proving_key, inst.cs, backend, rng)


def _prove_layer(state, layer_index: int) -> bytes:
    """Pool entry point: prove one layer of the published split.

    The proof travels back in its canonical serialized form — compact,
    and exactly the bytes the byte-identity checks compare.
    """
    split, setups, backend_name, crs_seed = state
    proof = prove_instance(
        split, layer_index, setups[layer_index],
        backend_by_name(backend_name), crs_seed,
    )
    return serialize_proof(proof)


def prove_split(
    split: SplitModel,
    setups: Sequence[SetupResult],
    backend: Optional[GroupBackend] = None,
    crs_seed: Optional[int] = DEFAULT_CRS_SEED,
    parallelism: int = 1,
) -> List[Proof]:
    """Prove every layer instance, concurrently when ``parallelism > 1``.

    The parallel path runs complete per-layer prove pipelines in worker
    processes — a model-prove becomes max(layer prove) instead of
    sum(layer prove), which is the whole point of splitting, and the one
    way this codebase spends a second core on one inference.  The split
    and proving keys are published to the workers once
    (:func:`repro.core.pool.map_shared`), so jobs carry only a layer index
    — constant-size regardless of model size.  The pool serves this call
    only; a worker that dies surfaces as ``BrokenProcessPool``, an
    unsatisfied instance as the prover's ``ValueError``, and either way
    no worker outlives the call.
    """
    backend = backend or SimulatedBackend()
    if len(setups) != split.num_instances:
        raise ValueError(
            f"expected {split.num_instances} setups, got {len(setups)}"
        )
    if parallelism <= 1 or split.num_instances == 1:
        return [
            prove_instance(split, k, setups[k], backend, crs_seed)
            for k in range(split.num_instances)
        ]
    proof_bytes = pool.map_shared(
        (split, setups, backend.name, crs_seed),
        _prove_layer,
        range(split.num_instances),
        min(parallelism, split.num_instances),
    )
    return [deserialize_proof(raw) for raw in proof_bytes]
