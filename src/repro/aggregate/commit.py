"""Boundary commitments for per-layer proving.

Two commitment modes bind the activations crossing a layer boundary:

* ``public`` (default) — the boundary values themselves are public inputs
  of both adjacent instances, and the commitment is a SHA-256 hash over
  their canonical 32-byte big-endian encodings, computed *outside* the
  circuit.  Soundness comes from Groth16 binding the public-input vector:
  the aggregate verifier recomputes both sides' commitments from the
  claimed publics, so layer ``k``'s outputs and layer ``k+1``'s inputs
  must be the same tuple (up to a SHA-256 collision).  Costs zero extra
  constraints — the instance circuits stay exactly as large as the rows
  they inherit.

* ``hashed`` (opt-in) — the boundary values stay *private* and are
  committed by **parcel**: parcel ``(f, j)`` is the ascending tuple of
  variables first used in segment ``f`` and read by segment ``j``, and
  its digest is an in-circuit MiMC-x⁵ sponge over them, computed once by
  ``f`` and once by ``j``.  A cut's digest — the instance's single public
  input on that side — is the same sponge over the digests of the
  parcels open across it (:func:`cut_digest`), so a layer between ``f``
  and ``j`` carries one field element per parcel instead of re-absorbing
  every value passing through.  Costs 3 constraints per absorbed value
  (plus finalization rounds) but keeps intermediate activations hidden
  from the aggregate artifact — the shape recursive accumulation schemes
  need.

Either way the artifact-level commitment bytes are a SHA-256 over the
claimed boundary *slot values* (in ``hashed`` mode that tuple is just the
one digest element), so the fold/verify chain logic is mode-independent.

The sponge itself — round function, constants, rows, witness replay and
its **known issue: it has no capacity**, so ``hashed`` mode's chain
argument does not yet hold against a malicious prover — lives in
:mod:`repro.r1cs.mimc`; this module binds the boundary domain to it.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Sequence, Tuple

from repro.r1cs import mimc

BOUNDARY_DOMAIN = b"zeno.aggregate.boundary.v1"
MIMC_DOMAIN = b"zeno.aggregate.mimc.v1"


def boundary_commitment(values: Sequence[int]) -> bytes:
    """SHA-256 over the canonical encoding of a boundary value tuple.

    Length-prefixed and domain-separated: ``H(dom || u32(n) || v_1 ||
    ... || v_n)`` with each value as 32 big-endian bytes.  Equal digests
    imply equal tuples up to SHA-256 collisions, which is what lets the
    aggregate verifier check layer-to-layer consistency without
    re-proving anything.
    """
    h = hashlib.sha256(BOUNDARY_DOMAIN)
    h.update(len(values).to_bytes(4, "big"))
    for value in values:
        h.update(int(value).to_bytes(32, "big"))
    return h.digest()


def mimc_round_constants(count: int, modulus: int) -> List[int]:
    """The boundary sponge's first ``count`` round constants."""
    return mimc.constants(MIMC_DOMAIN, count, modulus)


def mimc_rounds(
    values: Sequence[int], modulus: int
) -> Iterator[Tuple[int, int, int]]:
    """Each round's ``(t², t⁴, t⁵)`` — the wires the circuit allocates."""
    return zip(*[iter(mimc.rounds(values, MIMC_DOMAIN, modulus))] * 3)


def mimc_digest(values: Sequence[int], modulus: int) -> int:
    """Native evaluation of the boundary sponge: its final state."""
    return mimc.digest(values, MIMC_DOMAIN, modulus)


def cut_digest(parcels: Sequence[Sequence[int]], modulus: int) -> int:
    """Native reference for one ``hashed`` cut's public digest.

    ``parcels`` holds the value tuples of the parcels open across the cut,
    in ``(f, j)`` order: each is digested on its own, and the cut digest
    is the sponge over those digests.
    """
    return mimc_digest(
        [mimc_digest(values, modulus) for values in parcels], modulus
    )
