"""Regenerate ``golden_circuits.json``: whole constraint systems, frozen.

    PYTHONPATH=<checkout>/src python tests/fixtures/make_golden_circuits.py

``golden_circuits.json`` was written by running this file against the
commit *before* dot layers were lowered a whole layer at a time (e53ae93,
the per-term ``_dot_zeno`` / ``KnitPacker.push`` path).  For every circuit
in :data:`CIRCUITS` it records the sizes, a SHA-256 over the canonical
rows (per constraint: tag + sorted A/B/C terms), a SHA-256 over the dense
witness, the verifying-key and proof bytes on the simulated group under
fixed CRS / blinding / image seeds, and the compile's ``lc_terms``,
``knit_constraints`` and summed ``work_units``.
``tests/test_golden_circuits.py`` recomputes :func:`fingerprint` on the
current tree and compares; rerun this only after an *intended* change of
a constraint system, and say which in the commit.
"""

import hashlib
import json
import random
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from repro.core.compiler import (
    PrivacySetting,
    ZenoCompiler,
    arkworks_options,
)
from repro.core.spec import CircuitSpec
from repro.snark import groth16
from repro.snark.serialize import serialize_proof, serialize_verifying_key

IMAGE_SEED = 11
CRS_SEED = 4242
BLIND_SEED = 7

# One circuit per model family at micro, plus a both-private case — kept
# equal to tests/test_circuit_spec.py::FAMILIES (asserted by the test).
FAMILIES = [
    CircuitSpec("SHAL", scale="micro"),
    CircuitSpec("SHAL", scale="micro", privacy="both-private"),
    CircuitSpec("LCS", scale="micro"),
    CircuitSpec("VGG16", scale="micro"),
    CircuitSpec("RES18", scale="micro"),
    CircuitSpec("TINY", scale="micro", gadgets="strict", relu_mode="lookup"),
]

_PRUNED = CircuitSpec("RES18", scale="micro", prune="0.5,0.1")
_SHAL = CircuitSpec("SHAL", scale="micro")
_LCS = CircuitSpec("LCS", scale="micro")
_TINY = FAMILIES[-1]
REPLAY_SEED = 12

# name -> (spec, CompilerOptions overrides applied on top of spec.options())
CIRCUITS = {
    **{
        f"family/{s.model}-{s.privacy}": (s, {}) for s in FAMILIES
    },
    "LCS-full-lean": (CircuitSpec("LCS", scale="full"), {}),  # cnn_whole
    "LCS-mini-strict": (CircuitSpec("LCS", scale="mini", gadgets="strict"), {}),
    "RES18-pruned-dense": (_PRUNED, {}),
    "RES18-pruned-sparse-share": (replace(_PRUNED, sparse=True), {}),
    "RES18-pruned-sparse-noshare": (
        replace(_PRUNED, sparse=True), {"sparse_share": False}
    ),
    "SHAL-public-image-private-weights": (
        _SHAL, {"privacy": PrivacySetting.PUBLIC_IMAGE_PRIVATE_WEIGHTS}
    ),
    "LCS-knit-off": (_LCS, {"knit": False}),
    "LCS-knit-batch-2": (_LCS, {"knit_batch": 2}),
    "SHAL-arkworks": (_SHAL, "arkworks"),
    # Written at 857c91e, the commit before the LogUp sponge moved to
    # repro.r1cs.mimc.  A CNN through lookup ReLUs: hundreds of lookups
    # per table, so many full 7-pair chunk rounds and inputs repeated
    # inside a chunk (TINY's tables see 4-16 lookups).
    "LCS-micro-strict-lookup": (
        replace(_LCS, gadgets="strict", relu_mode="lookup"), {}
    ),
    # The same system as family/TINY-one-private, compiled for witness
    # replay and re-assigned to image REPLAY_SEED: pins
    # reassign_lookup_columns -> sponge replay -> VK / proof bytes.
    "TINY-micro-strict-lookup-replayed": (_TINY, "replayed"),
}


def compile_circuit(name: str):
    spec, overrides = CIRCUITS[name]
    if overrides == "replayed":
        prover = spec.batch_prover(spec.image(IMAGE_SEED))
        prover.assign_image(spec.image(REPLAY_SEED))
        return SimpleNamespace(cs=prover.cs, compute=prover.result)
    options = (
        arkworks_options() if overrides == "arkworks"
        else replace(spec.options(), **overrides)
    )
    return ZenoCompiler(options).compile_model(
        spec.build_model(), spec.image(IMAGE_SEED)
    )


def _lc(lc) -> str:
    # Coefficients are hashed as canonical residues: the parent's
    # private-weights path stored a negative bias as a raw negative int
    # (8 terms of "SHAL-public-image-private-weights"), equal mod p.
    p = lc.field.modulus
    return ",".join(f"{v}:{c % p}" for v, c in sorted(lc.terms.items()))


def canonical_rows_digest(cs) -> str:
    digest = hashlib.sha256()
    for con in cs.constraints:
        digest.update(
            f"{con.tag}|{_lc(con.a)}|{_lc(con.b)}|{_lc(con.c)}\n".encode()
        )
    return digest.hexdigest()


def fingerprint(name: str) -> dict:
    artifact = compile_circuit(name)
    cs, computed = artifact.cs, artifact.compute
    keys = groth16.setup(cs, rng=random.Random(CRS_SEED))
    proof = groth16.prove(
        keys.proving_key, cs, rng=random.Random(BLIND_SEED)
    )
    assert groth16.verify(keys.verifying_key, cs.public_values(), proof)
    witness = ",".join(map(str, cs.dense_assignment())).encode()
    return {
        "num_constraints": cs.num_constraints,
        "num_public": cs.num_public,
        "num_private": cs.num_private,
        "rows_sha256": canonical_rows_digest(cs),
        "witness_sha256": hashlib.sha256(witness).hexdigest(),
        "vk_sha256": hashlib.sha256(
            serialize_verifying_key(keys.verifying_key)
        ).hexdigest(),
        "proof_sha256": hashlib.sha256(serialize_proof(proof)).hexdigest(),
        "lc_terms": computed.lc_terms,
        "knit_constraints": computed.knit_constraints,
        "work_units": sum(w.work_units for w in computed.layer_work),
    }


if __name__ == "__main__":
    out = Path(__file__).with_name("golden_circuits.json")
    golden = {}
    for name in CIRCUITS:
        golden[name] = fingerprint(name)
        print(name, golden[name]["num_constraints"], file=sys.stderr)
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
