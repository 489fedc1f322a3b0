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

**Known issue — the sponge has no capacity.**  Each round adds the
absorbed value to the *whole* state before the x⁵ permutation, so anyone
who knows the values can steer the state: change ``v_1``, then pick the
``v_2`` that cancels the difference, and the digest is unchanged
(``tests/test_aggregate.py::TestCommit::test_sponge_has_capacity`` is a
strict xfail that states the collision).  ``hashed`` mode's chain
argument *assumes* a collision-resistant sponge; until the round function
gets a capacity element (ROADMAP "Soundness closure") that assumption
does not hold against a malicious prover.  The fix multiplies the cost
per absorb, which is why the parcel layout — 3.6× fewer absorbs — comes
first.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterator, List, Sequence, Tuple

BOUNDARY_DOMAIN = b"zeno.aggregate.boundary.v1"
MIMC_DOMAIN = b"zeno.aggregate.mimc.v1"

# Finalization rounds absorbed with value 0 after the payload, so the
# digest of a prefix is never the digest of the full tuple.
MIMC_EXTRA_ROUNDS = 2


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


@functools.lru_cache(maxsize=None)
def _round_constant(i: int, modulus: int) -> int:
    # A pure function of (round, modulus), and every sponge of a split
    # asks for a prefix of the same sequence: memoised for the life of
    # the process, one entry per round of the longest sponge seen.
    digest = hashlib.sha256(MIMC_DOMAIN + i.to_bytes(4, "big")).digest()
    return int.from_bytes(digest, "big") % modulus


def mimc_round_constants(count: int, modulus: int) -> List[int]:
    """Deterministic per-round constants: ``sha256(dom || u32(i)) mod p``."""
    return [_round_constant(i, modulus) for i in range(count)]


def mimc_rounds(
    values: Sequence[int], modulus: int, extra_rounds: int = MIMC_EXTRA_ROUNDS
) -> Iterator[Tuple[int, int, int]]:
    """Each round's ``(t², t⁴, t⁵)`` — the wires the circuit allocates.

    One round per absorbed value: ``t = state + v + rc_i``, ``state' =
    t⁵``.  x⁵ is a permutation of BN254 Fr (``gcd(5, r-1) = 1``), which
    is what makes each round invertible.  ``extra_rounds`` rounds
    absorbing 0 finalize.
    """
    rounds = len(values) + extra_rounds
    state = 0
    for i, rc in enumerate(mimc_round_constants(rounds, modulus)):
        v = int(values[i]) if i < len(values) else 0
        t = (state + v + rc) % modulus
        t2 = (t * t) % modulus
        t4 = (t2 * t2) % modulus
        state = (t4 * t) % modulus
        yield t2, t4, state


def mimc_digest(
    values: Sequence[int], modulus: int, extra_rounds: int = MIMC_EXTRA_ROUNDS
) -> int:
    """Native evaluation of the in-circuit sponge: its final state."""
    state = 0
    for _, _, state in mimc_rounds(values, modulus, extra_rounds):
        pass
    return state


def cut_digest(
    parcels: Sequence[Sequence[int]],
    modulus: int,
    extra_rounds: int = MIMC_EXTRA_ROUNDS,
) -> int:
    """Native reference for one ``hashed`` cut's public digest.

    ``parcels`` holds the value tuples of the parcels open across the cut,
    in ``(f, j)`` order: each is digested on its own, and the cut digest
    is the sponge over those digests.
    """
    return mimc_digest(
        [mimc_digest(values, modulus, extra_rounds) for values in parcels],
        modulus,
        extra_rounds,
    )
