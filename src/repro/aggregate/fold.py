"""Fold per-layer proof sets into one verifiable `AggregateProof` artifact.

The artifact is self-contained canonical JSON: per-layer verifying keys
(hex of :func:`repro.snark.serialize.serialize_verifying_key`), the
public-input layout (which slots are model-level publics and which form
the boundary tuples), and one or more *inferences* — each a full set of
per-layer proofs + claimed publics + chained boundary commitments.

Verification is three cheap structural passes plus ONE cryptographic
check:

1. **chain** — for every inference and boundary ``k``, the commitment
   recomputed from layer ``k``'s claimed output slots equals both the
   stored commitment and the one recomputed from layer ``k+1``'s claimed
   input slots (SHA-256 over the canonical tuple encoding, see
   :mod:`repro.aggregate.commit`);
2. **globals** — layers claiming the same model-level public agree;
3. **pairing** — a single :func:`repro.snark.groth16.batch_verify_multi`
   call over every (vk, claims) group: ``P + 3·L`` pairings for ``P``
   proofs across ``L`` layers, vs ``4·P`` for independent verification —
   the sub-linear growth the e2e metrics ``aggregate.pairings`` /
   ``aggregate.naive_pairings`` track.

Soundness of the chain: Groth16 binds each instance's public-input
vector, commitments are collision-resistant hashes of those vectors'
boundary slots, and the slot tuples on both sides of a cut are built in
the same canonical (ascending original variable) order — so accepted
chained instances imply one consistent witness for the unsplit system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.aggregate.commit import boundary_commitment
from repro.aggregate.split import SplitModel
from repro.ec.backend import GroupBackend, RealBN254Backend, SimulatedBackend
from repro.ec.curve import Point
from repro.snark import groth16
from repro.snark.keys import SetupResult, VerifyingKey
from repro.snark.proof import Proof
from repro.snark.serialize import (
    SerializationError,
    deserialize_proof,
    deserialize_verifying_key,
    serialize_proof,
    serialize_verifying_key,
)

AGGREGATE_VERSION = 1


class AggregateError(ValueError):
    """Raised for malformed aggregate artifacts."""


@dataclass
class AggregateVerdict:
    """Outcome of one aggregate verification."""

    ok: bool
    reason: str = ""
    num_layers: int = 0
    num_proofs: int = 0
    num_pairings: int = 0  # pairings the single batched check performed
    naive_pairings: int = 0  # what per-proof verification would have cost
    # Model-level public claims recovered per inference (slot-consistent
    # across layers by check 2); for a single inference this is the NN
    # prediction the artifact attests to.
    globals_per_inference: List[Dict[int, int]] = dataclass_field(
        default_factory=list
    )

    @property
    def globals_out(self) -> Dict[int, int]:
        return self.globals_per_inference[0] if self.globals_per_inference else {}

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class AggregateProof:
    """One artifact aggregating per-layer proofs for >= 1 inferences."""

    mode: str
    model: str
    crs_seed: Optional[int]
    layers: List[Dict[str, Any]]
    inferences: List[Dict[str, Any]]
    version: int = AGGREGATE_VERSION

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "mode": self.mode,
            "model": self.model,
            "crs_seed": self.crs_seed,
            "layers": self.layers,
            "inferences": self.inferences,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "AggregateProof":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AggregateError(f"invalid aggregate JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise AggregateError("aggregate artifact must be a JSON object")
        version = payload.get("version")
        if version != AGGREGATE_VERSION:
            raise AggregateError(f"unsupported aggregate version {version!r}")
        for key in ("mode", "model", "layers", "inferences"):
            if key not in payload:
                raise AggregateError(f"aggregate artifact missing {key!r}")
        return cls(
            mode=payload["mode"],
            model=payload["model"],
            crs_seed=payload.get("crs_seed"),
            layers=payload["layers"],
            inferences=payload["inferences"],
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "AggregateProof":
        with open(path) as fh:
            return cls.from_json(fh.read())


def _layer_meta(split: SplitModel, setups: Sequence[SetupResult]) -> List[dict]:
    layers = []
    for inst, setup in zip(split.instances, setups):
        layers.append(
            {
                "name": inst.name,
                "num_public": inst.cs.num_public,
                "vk": serialize_verifying_key(setup.verifying_key).hex(),
                "global_slots": [list(pair) for pair in inst.global_slots],
                "in_slots": list(inst.in_slots),
                "out_slots": list(inst.out_slots),
            }
        )
    return layers


def _inference_record(
    split: SplitModel, proofs: Sequence[Proof]
) -> Dict[str, Any]:
    """Package one inference's proofs + publics + boundary commitments.

    Reads the *current* witness values off the split instances, so call
    it while the split still holds the inference it was proved with.
    """
    publics = [inst.cs.public_values() for inst in split.instances]
    boundaries = []
    for k in range(split.num_instances - 1):
        out_vals = [publics[k][s] for s in split.instances[k].out_slots]
        boundaries.append(boundary_commitment(out_vals).hex())
    return {
        "proofs": [serialize_proof(proof).hex() for proof in proofs],
        "publics": [[str(v) for v in vals] for vals in publics],
        "boundaries": boundaries,
    }


def fold(
    split: SplitModel,
    setups: Sequence[SetupResult],
    proof_sets: Sequence[Sequence[Proof]],
    crs_seed: Optional[int] = None,
    publics_sets: Optional[Sequence[Sequence[Sequence[int]]]] = None,
) -> AggregateProof:
    """Fold per-layer proof sets into one aggregate artifact.

    ``proof_sets`` holds one proof list (len == num instances) per
    inference.  With a single inference the publics are read from the
    split's current witness; for multiple inferences pass
    ``publics_sets`` (per inference, per layer) captured at prove time.
    """
    if len(setups) != split.num_instances:
        raise AggregateError(
            f"expected {split.num_instances} setups, got {len(setups)}"
        )
    layers = _layer_meta(split, setups)
    inferences = []
    for i, proofs in enumerate(proof_sets):
        if len(proofs) != split.num_instances:
            raise AggregateError(
                f"inference {i}: expected {split.num_instances} proofs, "
                f"got {len(proofs)}"
            )
        if publics_sets is not None:
            record = _record_from_publics(split, proofs, publics_sets[i])
        else:
            record = _inference_record(split, proofs)
        inferences.append(record)
    return AggregateProof(
        mode=split.mode,
        model=split.source_name,
        crs_seed=crs_seed,
        layers=layers,
        inferences=inferences,
    )


def _record_from_publics(
    split: SplitModel,
    proofs: Sequence[Proof],
    publics: Sequence[Sequence[int]],
) -> Dict[str, Any]:
    if len(publics) != split.num_instances:
        raise AggregateError("publics/instances length mismatch")
    boundaries = []
    for k in range(split.num_instances - 1):
        out_vals = [publics[k][s] for s in split.instances[k].out_slots]
        boundaries.append(boundary_commitment(out_vals).hex())
    return {
        "proofs": [serialize_proof(proof).hex() for proof in proofs],
        "publics": [[str(v) for v in vals] for vals in publics],
        "boundaries": boundaries,
    }


# -- verification ----------------------------------------------------------


def _detect_backend(vk: VerifyingKey) -> GroupBackend:
    if isinstance(vk.alpha_g1, Point):
        return RealBN254Backend()
    return SimulatedBackend()


def _parse_layers(
    agg: AggregateProof,
) -> Tuple[List[VerifyingKey], List[dict]]:
    vks = []
    for i, layer in enumerate(agg.layers):
        try:
            vk = deserialize_verifying_key(bytes.fromhex(layer["vk"]))
        except (SerializationError, ValueError, KeyError, TypeError) as exc:
            raise AggregateError(f"layer {i}: bad verifying key: {exc}")
        if vk.num_public != layer.get("num_public"):
            raise AggregateError(
                f"layer {i}: vk has {vk.num_public} publics, "
                f"metadata says {layer.get('num_public')}"
            )
        vks.append(vk)
    return vks, agg.layers


def verify_aggregate(
    agg: AggregateProof,
    backend: Optional[GroupBackend] = None,
    rng=None,
) -> AggregateVerdict:
    """Check one aggregate artifact: chain, globals, one batched pairing.

    Never raises on malformed input — every defect (bad hex, wrong
    lengths, broken chain, inconsistent globals, failed pairing) comes
    back as a falsy :class:`AggregateVerdict` with a reason, so callers
    can treat tampered artifacts and invalid proofs uniformly.
    """
    try:
        return _verify(agg, backend, rng)
    except AggregateError as exc:
        return AggregateVerdict(ok=False, reason=str(exc))


def _verify(
    agg: AggregateProof, backend: Optional[GroupBackend], rng
) -> AggregateVerdict:
    if agg.mode not in ("public", "hashed"):
        raise AggregateError(f"unknown boundary mode {agg.mode!r}")
    if not agg.layers:
        raise AggregateError("aggregate has no layers")
    if not agg.inferences:
        raise AggregateError("aggregate has no inferences")
    vks, layers = _parse_layers(agg)
    # Chain termination: a truncated artifact (a prefix or suffix of the
    # real layer sequence) is internally consistent, but its endpoints
    # betray the cut — a genuine first layer consumes no boundary and a
    # genuine last layer feeds none.  (Substituted layer *metadata* is
    # out of scope here, exactly as a substituted verifying key is for
    # plain Groth16: the verifier must hold authentic layer metadata.)
    if layers[0].get("in_slots"):
        raise AggregateError("first layer claims boundary inputs (truncated?)")
    if layers[-1].get("out_slots"):
        raise AggregateError(
            "last layer has dangling boundary outputs (truncated?)"
        )
    backend = backend or _detect_backend(vks[0])
    p = backend.scalar_field.modulus
    num_layers = len(layers)

    claims_per_layer: List[List[Tuple[List[int], Proof]]] = [
        [] for _ in range(num_layers)
    ]
    globals_per_inference: List[Dict[int, int]] = []
    for i, inference in enumerate(agg.inferences):
        globals_out: Dict[int, int] = {}
        globals_per_inference.append(globals_out)
        proofs_hex = inference.get("proofs", [])
        publics_str = inference.get("publics", [])
        boundaries_hex = inference.get("boundaries", [])
        if len(proofs_hex) != num_layers or len(publics_str) != num_layers:
            raise AggregateError(
                f"inference {i}: expected {num_layers} proofs/publics"
            )
        if len(boundaries_hex) != num_layers - 1:
            raise AggregateError(
                f"inference {i}: expected {num_layers - 1} boundary "
                f"commitments, got {len(boundaries_hex)}"
            )
        publics: List[List[int]] = []
        for k, vals in enumerate(publics_str):
            if len(vals) != layers[k]["num_public"]:
                raise AggregateError(
                    f"inference {i} layer {k}: wrong public count"
                )
            try:
                parsed = [int(v) for v in vals]
            except (ValueError, TypeError) as exc:
                raise AggregateError(
                    f"inference {i} layer {k}: bad public value: {exc}"
                )
            for v in parsed:
                if not 0 <= v < p:
                    raise AggregateError(
                        f"inference {i} layer {k}: public input out of range"
                    )
            publics.append(parsed)
        # 1. chain: out-commitment(k) == stored == in-commitment(k+1).
        for k in range(num_layers - 1):
            out_vals = [publics[k][s] for s in layers[k]["out_slots"]]
            in_vals = [publics[k + 1][s] for s in layers[k + 1]["in_slots"]]
            stored = boundaries_hex[k]
            out_hex = boundary_commitment(out_vals).hex()
            in_hex = boundary_commitment(in_vals).hex()
            if out_hex != stored or in_hex != stored:
                raise AggregateError(
                    f"inference {i}: boundary {k} commitment chain broken"
                )
        # 2. model-level publics must agree wherever claimed.
        for k, layer in enumerate(layers):
            for slot, global_index in layer.get("global_slots", []):
                value = publics[k][slot]
                prior = globals_out.get(global_index)
                if prior is not None and prior != value:
                    raise AggregateError(
                        f"inference {i}: global public {global_index} "
                        f"claimed inconsistently across layers"
                    )
                globals_out[global_index] = value
        for k in range(num_layers):
            try:
                proof = deserialize_proof(bytes.fromhex(proofs_hex[k]))
            except (SerializationError, ValueError, TypeError) as exc:
                raise AggregateError(
                    f"inference {i} layer {k}: bad proof: {exc}"
                )
            claims_per_layer[k].append((publics[k], proof))

    # 3. the single cryptographic check: one grouped multi-pairing.  A
    # proof that deserialized but carries wrong-group/off-curve elements
    # makes the backend raise; that is a rejection, not an error.
    groups = list(zip(vks, claims_per_layer))
    num_proofs = num_layers * len(agg.inferences)
    try:
        ok = groth16.batch_verify_multi(groups, backend, rng=rng)
    except (ValueError, TypeError) as exc:
        raise AggregateError(f"malformed proof or key: {exc}")
    return AggregateVerdict(
        ok=ok,
        reason="" if ok else "batched pairing check failed",
        num_layers=num_layers,
        num_proofs=num_proofs,
        num_pairings=num_proofs + 3 * num_layers,
        naive_pairings=4 * num_proofs,
        globals_per_inference=globals_per_inference,
    )
