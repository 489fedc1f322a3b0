"""Trust-but-verify batch verification shared by coordinator and CLI.

The coordinator never acks a batch a worker node returns without checking
every proof against the verifying key — a faulty or malicious node can
therefore never corrupt results, only waste its own cycles.  The same
path backs ``repro.cli verify --batch`` over a directory of claim files.

Verification is batched (:func:`repro.snark.groth16.batch_verify`): one
random-linear-combination check costs ``k + 3`` pairings for ``k`` proofs.
Only when the aggregate check fails do we fall back to per-proof
verification to isolate the culprits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.ec.backend import backend_by_name
from repro.snark import groth16
from repro.snark.serialize import (
    SerializationError,
    deserialize_proof,
    deserialize_verifying_key,
)


@dataclass
class BatchVerdict:
    """Outcome of verifying one batch of claims under one key."""

    per_proof: List[bool]  # one entry per claim, in input order
    aggregate: bool  # the k+3-pairing RLC check (or all(per_proof) on fallback)
    errors: List[Optional[str]]  # decode errors, aligned with per_proof

    @property
    def all_ok(self) -> bool:
        return self.aggregate and all(self.per_proof)


def verify_claims(
    vk_bytes: bytes,
    claims: Sequence[Tuple[Sequence[int], bytes]],
    rng: Optional[random.Random] = None,
) -> BatchVerdict:
    """Verify ``(public_inputs, proof_bytes)`` claims under one serialized VK.

    Proof and key bytes pass through :mod:`repro.snark.serialize`, so
    off-curve or non-canonical points are rejected before any pairing
    runs.  A claim whose proof fails to decode is marked failed without
    poisoning the rest of the batch.
    """
    vk = deserialize_verifying_key(vk_bytes)
    backend = backend_by_name(vk.backend_name)

    proofs = []
    errors: List[Optional[str]] = []
    for _, proof_bytes in claims:
        try:
            proofs.append(deserialize_proof(proof_bytes))
            errors.append(None)
        except SerializationError as exc:
            proofs.append(None)
            errors.append(str(exc))

    decodable = [
        (list(publics), proof)
        for (publics, _), proof in zip(claims, proofs)
        if proof is not None
    ]
    aggregate = all(e is None for e in errors) and groth16.batch_verify(
        vk, decodable, backend, rng=rng
    )
    if aggregate:
        return BatchVerdict(
            per_proof=[True] * len(claims), aggregate=True, errors=errors
        )

    # Aggregate failed (or something didn't decode): isolate per proof.
    per_proof = []
    for (publics, _), proof in zip(claims, proofs):
        if proof is None:
            per_proof.append(False)
        else:
            per_proof.append(
                bool(groth16.verify(vk, list(publics), proof, backend))
            )
    return BatchVerdict(per_proof=per_proof, aggregate=False, errors=errors)
