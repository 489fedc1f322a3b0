"""Accuracy-proof service: ZEN's scheme as a first-class API (§6.1).

"One specific example is the accuracy scheme in ZEN [25], where the same
zkSNARK NN is used to process n(=100) images for proving the accuracy of
the zkSNARK NN."  This module packages that workload:

* the **prover** (`AccuracyProver`) compiles the constraint system once
  (batch-specialized sharing), then per image re-assigns the witness and
  emits a Groth16 proof whose public values are the logits;
* the **verifier** (`AccuracyVerifier`) holds only the verifying key and
  the public test set; it checks every proof (individually or batched via
  the random-linear-combination trick) and recomputes the claimed accuracy
  from the *proved* logits — the prover cannot inflate it.

The privacy setting is the paper's one-private regime: the claim is about
a model on public data, so images are the "private" circuit inputs only in
the structural sense; what the scheme certifies is that the published
logits really came from the committed computation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.circuit.compute import ComputeOptions
from repro.core.lang.types import Privacy
from repro.core.reuse.batch import BatchProver
from repro.ec.backend import GroupBackend, SimulatedBackend
from repro.field import signed
from repro.nn.graph import Model
from repro.snark import groth16
from repro.snark.keys import VerifyingKey
from repro.snark.proof import Proof


@dataclass
class ImageClaim:
    """One image's proved result: public inputs, proof, claimed class."""

    index: int
    public_inputs: List[int]
    proof: Proof
    predicted_class: int


@dataclass
class AccuracyCertificate:
    """Everything the verifier needs: key, per-image claims, metadata."""

    verifying_key: VerifyingKey
    claims: List[ImageClaim]
    num_classes: int
    prove_seconds: float = 0.0

    def claimed_accuracy(self, labels: Sequence[int]) -> float:
        if len(labels) != len(self.claims):
            raise ValueError(
                f"{len(labels)} labels for {len(self.claims)} claims"
            )
        correct = sum(
            claim.predicted_class == int(label)
            for claim, label in zip(self.claims, labels)
        )
        return correct / len(self.claims) if self.claims else 0.0


def _argmax_signed(values: Sequence[int], modulus: int) -> int:
    return int(np.argmax([signed(v, modulus) for v in values]))


class AccuracyProver:
    """Compile once, prove each test image against the shared system."""

    def __init__(
        self,
        model: Model,
        sample_image: np.ndarray,
        backend: Optional[GroupBackend] = None,
        options: Optional[ComputeOptions] = None,
        crs_seed: int = 0xACC,
    ) -> None:
        self.backend = backend or SimulatedBackend()
        self.batch = BatchProver(
            model,
            sample_image,
            image_privacy=Privacy.PRIVATE,
            weights_privacy=Privacy.PUBLIC,
            options=options,
        )
        self.setup = groth16.setup(
            self.batch.cs, self.backend, random.Random(crs_seed)
        )

    @property
    def verifying_key(self) -> VerifyingKey:
        return self.setup.verifying_key

    def prove_images(
        self, images: Sequence[np.ndarray], rng_seed: int = 0
    ) -> AccuracyCertificate:
        """Prove every image; returns the certificate for the verifier."""
        claims: List[ImageClaim] = []
        modulus = self.batch.cs.field.modulus
        start = time.perf_counter()
        for i, image in enumerate(images):
            self.batch.assign_image(image)
            proof = groth16.prove(
                self.setup.proving_key,
                self.batch.cs,
                self.backend,
                random.Random(rng_seed + i),
            )
            publics = list(self.batch.cs.public_values())
            claims.append(
                ImageClaim(
                    index=i,
                    public_inputs=publics,
                    proof=proof,
                    predicted_class=_argmax_signed(publics, modulus),
                )
            )
        return AccuracyCertificate(
            verifying_key=self.setup.verifying_key,
            claims=claims,
            num_classes=len(claims[0].public_inputs) if claims else 0,
            prove_seconds=time.perf_counter() - start,
        )


class AccuracyVerifier:
    """Check a certificate: proofs, class claims, and the accuracy number."""

    def __init__(self, backend: Optional[GroupBackend] = None) -> None:
        self.backend = backend or SimulatedBackend()

    def verify(
        self,
        certificate: AccuracyCertificate,
        labels: Sequence[int],
        claimed_accuracy: Optional[float] = None,
        batched: bool = True,
        rng: Optional[random.Random] = None,
    ) -> Tuple[bool, float]:
        """Returns ``(accepted, recomputed_accuracy)``.

        Rejects if any proof fails, any claimed class disagrees with its
        proved logits, or (when given) the claimed accuracy disagrees with
        the recomputation.
        """
        if len(labels) != len(certificate.claims):
            return False, 0.0
        vk = certificate.verifying_key
        modulus = self.backend.scalar_field.modulus

        # 1. Class claims must match the proved logits.
        for claim in certificate.claims:
            if _argmax_signed(claim.public_inputs, modulus) != (
                claim.predicted_class
            ):
                return False, 0.0

        # 2. Cryptographic verification — batched (k+3 pairings) or one by
        #    one.
        if batched:
            ok = groth16.batch_verify(
                vk,
                [(c.public_inputs, c.proof) for c in certificate.claims],
                self.backend,
                rng or random.Random(),
            )
            if not ok:
                return False, 0.0
        else:
            for claim in certificate.claims:
                if not groth16.verify(
                    vk, claim.public_inputs, claim.proof, self.backend
                ):
                    return False, 0.0

        # 3. Recompute accuracy from the *proved* predictions.
        accuracy = certificate.claimed_accuracy(labels)
        if claimed_accuracy is not None and abs(
            accuracy - claimed_accuracy
        ) > 1e-9:
            return False, accuracy
        return True, accuracy
