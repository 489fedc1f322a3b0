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
The element-wise builder circuits, and the entries compiled with
``record_recipe``, add :func:`recipe_digests`.
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

import numpy as np

from repro.core.compiler import (
    PrivacySetting,
    ZenoCompiler,
    arkworks_options,
    zeno_options,
)
from repro.core.lang.primitives import ProgramBuilder
from repro.core.spec import CircuitSpec
from repro.snark import groth16
from repro.snark.serialize import serialize_proof, serialize_verifying_key
from tests.replay_oracle import descriptors

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
# A ProgramBuilder program, not a model family: see elementwise_program.
ELEMENTWISE = "elementwise"

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
    # Written at 551e2f0, the commit before witness replay ran the
    # emitters' own value functions: the same re-assignment through the
    # lean commit + ReLU gadgets (the bn254_replay circuit), the strict
    # one-hot selectors, and strict both-private product wires.
    "SHAL-micro-replayed": (_SHAL, "replayed"),
    "TINY-micro-strict-bits-replayed": (
        replace(_TINY, relu_mode="bits"), "replayed"
    ),
    "SHAL-micro-both-private-strict-replayed": (
        CircuitSpec(
            "SHAL", scale="micro", privacy="both-private", gadgets="strict"
        ),
        "replayed",
    ),
    # Written at 6bb320a, the commit before element-wise layers were
    # lowered a layer at a time: no model family has a max-pool, and none
    # puts a private-weight affine or a shared max-pool chain through the
    # compiler.  Overrides here are zeno_options fields.  These also carry
    # recipe_digests, all four written at 6bb320a; the both-private
    # entry's positional digests (rows, witness, VK, proof) were rewritten
    # when its affine layer began allocating its multiplication wires in
    # one run ahead of the outputs — a renumbering, which recipe_digests
    # does not see.
    "elementwise-lean-knit": (ELEMENTWISE, {}),
    "elementwise-strict": (ELEMENTWISE, {"gadget_mode": "strict"}),
    "elementwise-both-private": (
        ELEMENTWISE, {"privacy": PrivacySetting.PRIVATE_IMAGE_PRIVATE_WEIGHTS}
    ),
    "elementwise-strict-sparse-share": (
        ELEMENTWISE, {"gadget_mode": "strict", "sparse": True}
    ),
    # The model families whose affine layers take that private path:
    # batch-norm under private weights when it is not fused into its conv,
    # and every affine layer — batch-norm and a transformer's positional
    # embedding — without privacy-adaptive folding (naive_options).  Their
    # recipe_digests were computed at 6bb320a; the positional digests were
    # written after the renumbering.
    "RES18-micro-both-private-unfused": (
        CircuitSpec("RES18", scale="micro", privacy="both-private"),
        {"fusion": False, "record_recipe": True},
    ),
    "TINY-micro-naive": (
        _TINY, {"privacy_adaptive": False, "record_recipe": True}
    ),
    # Written at b1ee5e3, the commit before every layer committed its
    # outputs through commit_outputs: layer-norm's one-hot rsqrt selector
    # between its var and out commits (the bits path), and strict commits
    # summing product wires (matmul, row-scale, layer-norm, both-private
    # dots), knit-packed or not.  Its two rows digests (rows_sha256,
    # recipe_rows_sha256), like those of TINY-micro-lean-bits, were
    # rewritten when the table selector stopped storing the zero
    # coefficient of its input recomposition (the …/sel_in term at x = 0):
    # every other field is unchanged.
    "TINY-micro-strict-bits": (
        replace(_TINY, relu_mode="bits"), {"record_recipe": True}
    ),
    "SHAL-micro-both-private-strict": (
        CircuitSpec(
            "SHAL", scale="micro", privacy="both-private", gadgets="strict"
        ),
        {"record_recipe": True},
    ),
    # Written at 185f711, the commit before the table lowerings went a
    # layer at a time: lean ReLU / LUT / embed / rsqrt lookups (one
    # LookupEngine call per activation, the fixed lean challenge) and the
    # lean one-hot selectors of the bits path.
    "TINY-micro-lean-lookup": (
        replace(_TINY, gadgets="lean"), {"record_recipe": True}
    ),
    "TINY-micro-lean-bits": (
        replace(_TINY, gadgets="lean", relu_mode="bits"),
        {"record_recipe": True},
    ),
}


def elementwise_program(privacy: PrivacySetting):
    """conv -> max-pool -> affine -> ReLU -> residual add -> fc.

    The second filter is all zero, so under ``sparse_share`` its outputs
    collapse to one wire: the max-pool chains over that channel compare a
    wire with itself and share their ReLUs across windows, and the ReLU
    layer meets one input wire four times.  ReLU inputs are negative,
    zero and positive.
    """
    gen = np.random.default_rng(5)
    weight = gen.integers(-3, 4, (3, 1, 3, 3))
    weight[1] = 0
    builder = ProgramBuilder(
        "elementwise", gen.integers(-8, 16, (1, 6, 6)),
        image_privacy=privacy.image_privacy,
        weights_privacy=privacy.weights_privacy,
    )
    builder.convolution(weight, requant=2)
    pooled = builder.max_pool(2)
    builder.mul_tensor(
        gen.integers(1, 4, (3, 1, 1)), gen.integers(-12, 4, (3, 1, 1)),
        requant=1,
    )
    relu = builder.relu()
    builder.add_tensor(relu, pooled, requant=1)
    builder.flatten()
    builder.fully_connected(gen.integers(-3, 4, (3, 12)))
    return builder.build(validate=True)


def compile_circuit(name: str):
    spec, overrides = CIRCUITS[name]
    if spec == ELEMENTWISE:
        options = zeno_options(fusion=False, record_recipe=True, **overrides)
        return ZenoCompiler(options).compile_program(
            elementwise_program(options.privacy)
        )
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


def recipe_digests(cs, recipe, program) -> dict:
    """Digests that survive a renumbering of variables and a reordering of
    rows: every variable is named by the per-variable descriptor its
    emitter used to log (:func:`tests.replay_oracle.descriptors`), and
    the rows (tag + named terms) and the witness (name = value) are
    hashed as sorted multisets."""
    names = {0: "1", **{
        var: repr(desc) for var, desc in
        descriptors(recipe, program, cs.lookup_blocks)
    }}
    p = cs.field.modulus

    def side(lc) -> str:
        return ",".join(sorted(f"{names[v]}:{c % p}" for v, c in lc.terms.items()))

    rows = sorted(
        f"{con.tag}|{side(con.a)}|{side(con.b)}|{side(con.c)}"
        for con in cs.constraints
    )
    witness = sorted(f"{names[v]}={cs.value_of(v)}" for v in names if v)
    return {
        "recipe_rows_sha256": hashlib.sha256("\n".join(rows).encode()).hexdigest(),
        "recipe_witness_sha256": hashlib.sha256(
            "\n".join(witness).encode()
        ).hexdigest(),
    }


def fingerprint(name: str) -> dict:
    artifact = compile_circuit(name)
    cs, computed = artifact.cs, artifact.compute
    keys = groth16.setup(cs, rng=random.Random(CRS_SEED))
    proof = groth16.prove(
        keys.proving_key, cs, rng=random.Random(BLIND_SEED)
    )
    assert groth16.verify(keys.verifying_key, cs.public_values(), proof)
    witness = ",".join(map(str, cs.dense_assignment())).encode()
    extra = {}
    spec, overrides = CIRCUITS[name]
    if spec == ELEMENTWISE or (
        isinstance(overrides, dict) and overrides.get("record_recipe")
    ):
        extra = recipe_digests(cs, computed.recipe, artifact.program)
    return {
        **extra,
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
