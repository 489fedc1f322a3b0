"""Groth16 setup / prove / verify over a pluggable group backend.

This is the textbook Groth16 [30 in the paper: Groth, EUROCRYPT'16]
construction:

* **setup** samples toxic waste ``(tau, alpha, beta, gamma, delta)``,
  evaluates the QAP polynomials at ``tau`` and publishes everything in the
  exponent.  (A production deployment replaces this with an MPC ceremony;
  evaluating at a known ``tau`` is the standard shortcut every reference
  implementation takes and changes nothing downstream.)
* **prove** costs three witness-sized MSMs plus one quotient-sized MSM —
  this is the paper's claim that security-computation latency is
  proportional to the number of private values ``n`` and constraints ``m``.
* **verify** is one product of four pairings — ``e(alpha, beta)`` a
  constant of the key, whose Miller value the real backend computes once.
  A public input outside ``[0, r)`` is rejected before any group work: a
  claim has one encoding, not one per residue class.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ec.backend import GroupBackend, SimulatedBackend
from repro.r1cs.system import ConstraintSystem
from repro.snark.keys import ProvingKey, SetupResult, VerifyingKey
from repro.snark.proof import Proof
from repro.snark.qap import (
    Domain,
    qap_evaluations_at,
    quotient_coefficients,
    witness_polynomial_evals,
)


def setup(
    cs: ConstraintSystem,
    backend: Optional[GroupBackend] = None,
    rng: Optional[random.Random] = None,
    store=None,
) -> SetupResult:
    """Run the (simulated-ceremony) trusted setup for ``cs``.

    With ``store`` (a :class:`repro.serve.ArtifactStore`), the five query
    vectors are emitted as content-addressed chunks of
    :data:`~repro.snark.chunked.DEFAULT_CHUNK_BYTES` (8 MiB)
    instead of in-memory lists: the returned proving key holds lazy
    :class:`~repro.snark.chunked.ChunkedQuery` views, the manifest key
    lands in ``stats["pk_manifest_key"]``, and proving streams one chunk
    at a time — proofs are byte-identical to the dense-key path.
    """
    backend = backend or SimulatedBackend()
    rng = rng or random.Random(0x5E70)  # deterministic by default: reproducibility
    field = backend.scalar_field
    p = field.modulus

    tau = rng.randrange(1, p)
    alpha = rng.randrange(1, p)
    beta = rng.randrange(1, p)
    gamma = rng.randrange(1, p)
    delta = rng.randrange(1, p)
    gamma_inv = pow(gamma, -1, p)
    delta_inv = pow(delta, -1, p)

    domain = Domain.for_size(max(cs.num_constraints, 2), field)
    # Re-draw tau in the (probability ~d/p) event it hits the domain.
    while domain.vanishing_at(tau) == 0:
        tau = rng.randrange(1, p)

    a_at, b_at, c_at = qap_evaluations_at(cs, domain, tau)
    num_vars = len(a_at)
    num_instance = 1 + cs.num_public  # ONE + publics

    g1 = backend.g1_generator()
    g2 = backend.g2_generator()

    # Every published element is a multiple of a generator: collect the
    # scalars first, then ask the backend for whole vectors of multiples.
    combined = [
        (beta * a + alpha * b + c) % p for a, b, c in zip(a_at, b_at, c_at)
    ]
    ic_scalars = [v * gamma_inv % p for v in combined[:num_instance]]
    l_scalars = [v * delta_inv % p for v in combined[num_instance:]]
    h_scalars: List[int] = []
    power = domain.vanishing_at(tau) * delta_inv % p
    for _ in range(domain.size - 1):
        h_scalars.append(power)
        power = (power * tau) % p
    g1_singles = [alpha, beta, delta]
    g2_singles = [beta, gamma, delta]

    def multiples(base, *vectors):
        """One ``base_multiples`` call over the concatenation, split back."""
        flat = backend.base_multiples(base, [k for v in vectors for k in v])
        out, pos = [], 0
        for v in vectors:
            out.append(flat[pos : pos + len(v)])
            pos += len(v)
        return out

    if store is None:
        a_query, b_query_g1, l_query, h_query, ic, g1_points = multiples(
            g1, a_at, b_at, l_scalars, h_scalars, ic_scalars, g1_singles
        )
        b_query_g2, g2_points = multiples(g2, b_at, g2_singles)
    else:
        from repro.snark.chunked import DEFAULT_CHUNK_BYTES, ChunkWriter

        sim = backend.name == "simulated"
        kind1 = "sim" if sim else "g1"
        kind2 = "sim" if sim else "g2"

        def emit_query(kind, base, values):
            """Stream a query into the store one chunk's worth at a time."""
            writer = ChunkWriter(store, kind, DEFAULT_CHUNK_BYTES)
            step = writer.points_per_chunk
            for lo in range(0, len(values), step):
                for point in backend.base_multiples(
                    base, values[lo : lo + step]
                ):
                    writer.append(point)
            return writer.finish()

        a_query = emit_query(kind1, g1, a_at)
        b_query_g1 = emit_query(kind1, g1, b_at)
        b_query_g2 = emit_query(kind2, g2, b_at)
        l_query = emit_query(kind1, g1, l_scalars)
        h_query = emit_query(kind1, g1, h_scalars)
        ic, g1_points = multiples(g1, ic_scalars, g1_singles)
        (g2_points,) = multiples(g2, g2_singles)
    alpha_g1, beta_g1, delta_g1 = g1_points
    beta_g2, gamma_g2, delta_g2 = g2_points

    pk = ProvingKey(
        alpha_g1=alpha_g1,
        beta_g1=beta_g1,
        beta_g2=beta_g2,
        delta_g1=delta_g1,
        delta_g2=delta_g2,
        a_query_g1=a_query,
        b_query_g1=b_query_g1,
        b_query_g2=b_query_g2,
        l_query_g1=l_query,
        h_query_g1=h_query,
        domain_size=domain.size,
        num_public=cs.num_public,
    )
    vk = VerifyingKey(
        alpha_g1=alpha_g1,
        beta_g2=beta_g2,
        gamma_g2=gamma_g2,
        delta_g2=delta_g2,
        ic_g1=ic,
        backend_name=backend.name,
    )
    stats = {
        "num_constraints": cs.num_constraints,
        "num_variables": num_vars,
        "domain_size": domain.size,
        "num_public": cs.num_public,
    }
    if store is not None:
        from repro.snark.chunked import put_manifest

        stats["pk_chunks"] = sum(
            len(q.keys)
            for q in (a_query, b_query_g1, b_query_g2, l_query, h_query)
        )
        stats["pk_manifest_key"] = put_manifest(store, pk, stats=dict(stats))
    return SetupResult(proving_key=pk, verifying_key=vk, stats=stats)


def prove(
    pk: ProvingKey,
    cs: ConstraintSystem,
    backend: Optional[GroupBackend] = None,
    rng: Optional[random.Random] = None,
    phase_sink: Optional[Dict[str, float]] = None,
) -> Proof:
    """Generate a proof for the (fully assigned) constraint system.

    A key carrying fixed-base tables (``pk.tables``, attached by
    :func:`repro.snark.keys.precompute_proving_tables`) takes the quotient
    MSM and the blinding multiples of delta from them — the serving path,
    where one CRS is queried by many proofs; the witness MSMs (a / b / l)
    always go through ``backend.msm``, which sizes itself by the scalars'
    observed width.  Everything runs in the calling process; the way to
    spend a second core on one inference is per-layer instances
    (:func:`repro.aggregate.prove_split`).  ``phase_sink``, if given,
    receives wall seconds per prover phase (``witness`` / ``quotient`` /
    ``msm``) — accumulated, so the serve telemetry can hand the same dict
    to every proof in a batch.
    """
    backend = backend or SimulatedBackend()
    rng = rng or random.Random()
    field = backend.scalar_field
    p = field.modulus
    tables = pk.tables

    def tick(phase: str, since: float) -> float:
        now = time.perf_counter()
        if phase_sink is not None:
            phase_sink[phase] = phase_sink.get(phase, 0.0) + (now - since)
        return now

    began = time.perf_counter()
    # The CSR snapshot's dense z vector *is* the Groth16 variable order
    # [ONE, publics..., privates...] (see repro.r1cs.csr).
    csr = cs.to_csr()
    z = csr.z
    if len(z) != pk.num_variables():
        raise ValueError(
            f"witness has {len(z)} variables but key expects "
            f"{pk.num_variables()} — was the system modified after setup?"
        )

    domain = Domain.for_size(max(cs.num_constraints, 2), field)
    if domain.size != pk.domain_size:
        raise ValueError("constraint count changed since setup")
    evals = witness_polynomial_evals(cs, domain, csr=csr)
    began = tick("witness", began)
    h_coeffs = quotient_coefficients(cs, domain, csr=csr, evals=evals)
    began = tick("quotient", began)

    r = rng.randrange(p)
    s = rng.randrange(p)

    # What has uniform scalars whatever the circuit — the blinding
    # multiples of the two delta points and the quotient MSM — comes from
    # the key's tables when it carries them.
    if tables is not None:
        r_delta, s_delta = tables.delta_g1.multiples([r, s])
        (s_delta_g2,) = tables.delta_g2.multiples([s])
        h_acc = tables.h_query_g1.msm(h_coeffs)
    else:
        r_delta, s_delta = backend.base_multiples(pk.delta_g1, [r, s])
        (s_delta_g2,) = backend.base_multiples(pk.delta_g2, [s])
        h_acc = backend.msm(pk.h_query_g1[: len(h_coeffs)], h_coeffs)

    # A = alpha + sum z_i A_i(tau) + r * delta        (in G1)
    a_sum = backend.add(pk.alpha_g1, backend.msm(pk.a_query_g1, z))
    proof_a = backend.add(a_sum, r_delta)

    # B = beta + sum z_i B_i(tau) + s * delta         (in G2, mirrored in G1)
    proof_b = backend.add(
        backend.add(pk.beta_g2, backend.msm(pk.b_query_g2, z)), s_delta_g2
    )
    b_g1 = backend.add(
        backend.add(pk.beta_g1, backend.msm(pk.b_query_g1, z)), s_delta
    )

    # C = sum_priv z_i L_i + sum h_k [tau^k Z/delta] + s*A + r*B1 - rs*delta,
    # computed as ... + s*(alpha + sum z_i A_i) + r*B1: s*A carries its own
    # rs*delta, so the subtraction cancels on paper instead of on the curve.
    # (Empty MSMs — no private variables, an all-zero quotient — return the
    # identity, so no call-site guards are needed.)
    c_acc = backend.msm(pk.l_query_g1, z[1 + pk.num_public :])
    c_acc = backend.add(c_acc, h_acc)
    c_acc = backend.add(c_acc, backend.scalar_mul(a_sum, s))
    c_acc = backend.add(c_acc, backend.scalar_mul(b_g1, r))
    tick("msm", began)

    return Proof(a=proof_a, b=proof_b, c=c_acc)


def _in_range(public_inputs: Sequence[int], modulus: int) -> bool:
    """Every public input canonical, in ``[0, modulus)``.  (The MSM would
    reduce ``v + r`` to ``v`` and accept it; the batch transcript could not
    even encode a negative or 257-bit ``v``.)  A plain loop: on ten inputs
    it costs two thirds of ``min`` plus ``max``."""
    for value in public_inputs:
        if not 0 <= value < modulus:
            return False
    return True


def verify(
    vk: VerifyingKey,
    public_inputs: Sequence[int],
    proof: Proof,
    backend: Optional[GroupBackend] = None,
) -> bool:
    """Check ``e(A,B) == e(alpha,beta) * e(IC(pub),gamma) * e(C,delta)``;
    False for a public input outside ``[0, r)``."""
    backend = backend or SimulatedBackend()
    if len(public_inputs) != vk.num_public:
        raise ValueError(
            f"expected {vk.num_public} public inputs, got {len(public_inputs)}"
        )
    if not _in_range(public_inputs, backend.scalar_field.modulus):
        return False
    # The empty MSM (zero public inputs) is the identity, so this needs no
    # guard — a no-public-input circuit verifies like any other.
    acc = backend.add(
        vk.ic_g1[0], backend.msm(vk.ic_g1[1:], [v for v in public_inputs])
    )
    return backend.pairing_product_is_one(
        [
            (backend.neg(proof.a), proof.b),
            (acc, vk.gamma_g2),
            (proof.c, vk.delta_g2),
        ],
        fixed=((vk.alpha_g1, vk.beta_g2),),
    )


_FS_DOMAIN = b"zeno.groth16.batch-verify.v1"


def _fs_transcript(
    groups: Sequence[Tuple[VerifyingKey, Sequence[Tuple[Sequence[int], Proof]]]],
) -> bytes:
    """Canonical transcript bytes binding every key, claim, and proof.

    Built from the library's canonical serializations, so any byte that
    matters to verification (VK elements, public inputs, proof points)
    perturbs every derived coefficient.
    """
    from repro.snark.serialize import (
        serialize_proof,
        serialize_verifying_key,
    )

    h = hashlib.sha256(_FS_DOMAIN)
    h.update(len(groups).to_bytes(4, "big"))
    for vk, claims in groups:
        vk_bytes = serialize_verifying_key(vk)
        h.update(len(vk_bytes).to_bytes(4, "big"))
        h.update(vk_bytes)
        h.update(len(claims).to_bytes(4, "big"))
        for public_inputs, proof in claims:
            h.update(len(public_inputs).to_bytes(4, "big"))
            for value in public_inputs:
                h.update(int(value).to_bytes(32, "big"))
            h.update(serialize_proof(proof))
    return h.digest()


def _fs_coefficients(seed: bytes, count: int, modulus: int) -> List[int]:
    """``count`` Fiat–Shamir scalars in ``[1, modulus)`` from ``seed``."""
    out: List[int] = []
    counter = 0
    while len(out) < count:
        digest = hashlib.sha256(
            seed + counter.to_bytes(8, "big")
        ).digest()
        out.append(int.from_bytes(digest, "big") % (modulus - 1) + 1)
        counter += 1
    return out


def batch_verify_multi(
    groups: Sequence[Tuple[VerifyingKey, Sequence[Tuple[Sequence[int], Proof]]]],
    backend: Optional[GroupBackend] = None,
    rng: Optional[random.Random] = None,
) -> bool:
    """Verify proofs under several keys with one multi-pairing check.

    Each group is ``(vk, claims)``; per-proof cost is one pairing
    (``e(t_i A_i, B_i)``) and each *key* adds three shared pairings, so
    ``k`` proofs spread over ``v`` keys cost ``k + 3v`` pairings instead
    of ``4k`` — the aggregation primitive behind
    :mod:`repro.aggregate`'s single-artifact verification.

    Coefficients ``t_i`` are Fiat–Shamir-derived from the canonical bytes
    of every key, public-input vector, and proof in the batch (so the
    check is deterministic and replayable, and any flipped byte re-keys
    the whole combination); pass ``rng`` to sample them instead.  A public
    input outside ``[0, r)`` anywhere in the batch makes it False.
    """
    backend = backend or SimulatedBackend()
    total = sum(len(claims) for _, claims in groups)
    if total == 0:
        return True
    p = backend.scalar_field.modulus
    if not all(
        _in_range(public_inputs, p)
        for _, claims in groups
        for public_inputs, _ in claims
    ):
        return False
    if rng is not None:
        coefficients = [rng.randrange(1, p) for _ in range(total)]
    else:
        coefficients = _fs_coefficients(_fs_transcript(groups), total, p)
    pairs = []
    shared = []
    cursor = 0
    for vk, claims in groups:
        if not claims:
            continue
        t_sum = 0
        acc_sum = backend.g1_zero()
        c_sum = backend.g1_zero()
        for public_inputs, proof in claims:
            if len(public_inputs) != vk.num_public:
                raise ValueError(
                    f"expected {vk.num_public} public inputs, "
                    f"got {len(public_inputs)}"
                )
            t = coefficients[cursor]
            cursor += 1
            t_sum = (t_sum + t) % p
            # e(-t*A, B) term — per-proof pairing.
            pairs.append(
                (backend.scalar_mul(backend.neg(proof.a), t), proof.b)
            )
            # Accumulate the per-key shared right-hand sides, scaled by t.
            acc = backend.add(
                vk.ic_g1[0], backend.msm(vk.ic_g1[1:], list(public_inputs))
            )
            acc_sum = backend.add(acc_sum, backend.scalar_mul(acc, t))
            c_sum = backend.add(c_sum, backend.scalar_mul(proof.c, t))
        shared.append((backend.scalar_mul(vk.alpha_g1, t_sum), vk.beta_g2))
        shared.append((acc_sum, vk.gamma_g2))
        shared.append((c_sum, vk.delta_g2))
    return backend.pairing_product_is_one(pairs + shared)


def batch_verify(
    vk: VerifyingKey,
    claims: Sequence[Tuple[Sequence[int], Proof]],
    backend: Optional[GroupBackend] = None,
    rng: Optional[random.Random] = None,
) -> bool:
    """Verify many proofs under one key with a random linear combination.

    The standard Groth16 batching trick (an extension beyond the paper —
    natural for its n=100 batch workload, Fig. 14): scale each proof's
    pairing equation by a coefficient ``t_i`` and check the *sum* of
    equations.  Per proof this costs one pairing (``e(t_i A_i, B_i)``)
    plus scalar muls, and the three right-hand pairings are shared across
    the whole batch — ``k + 3`` pairings instead of ``4k``.

    The ``t_i`` default to Fiat–Shamir derivation from the canonical
    VK/public-input/proof bytes (deterministic: two runs over the same
    claims agree bit-for-bit, so batch decisions are replayable); pass an
    explicit ``rng`` to sample them instead.  Either way a batch
    containing any invalid proof passes only if the coefficients hit a
    cancellation — probability ``~k/r`` for sampled ``t_i``, and
    infeasible-to-target for hash-derived ones (the proof bytes are
    committed before the coefficients exist).
    """
    return batch_verify_multi([(vk, claims)], backend, rng=rng)

