"""Regenerate ``golden_quotients.json``: quotients at array-path sizes.

    PYTHONPATH=<checkout>/src:<checkout> python tests/fixtures/make_golden_quotients.py

``golden_proofs.json`` is SHAL:micro (d = 32), below the array-path gate on
every field backend.  This file pins the sizes the array kernel serves:
LCS:micro (d = 1,024), LCS:full (d = 8,192) and the first TINY:micro
strict+lookup hashed per-layer instance of every domain size 256...4,096.
Per case it holds the SHA-256 of ``quotient_coefficients`` (32-byte
big-endian words) and the simulated-group proof bytes under fixed CRS /
blinding / image seeds.  It was written by running this against d42163d,
the commit *before* the int64 Montgomery kernel was replaced by the
float64 matmul kernel; ``tests/test_golden_quotients.py`` requires both
field backends to reproduce it.
"""

import hashlib
import json
import random
from pathlib import Path

from repro.core.compiler import CompilerOptions, ZenoCompiler
from repro.ec.backend import SimulatedBackend
from repro.nn.data import synthetic_images
from repro.nn.models import build_model
from repro.snark import groth16
from repro.snark.qap import Domain, quotient_coefficients
from repro.snark.serialize import serialize_proof

CRS_SEED = 0xC0FFEE
BLIND_SEED = 0xB11D
IMAGE_SEED = 5
TINY_DOMAINS = (256, 512, 1024, 2048, 4096)
PATH = Path(__file__).with_name("golden_quotients.json")


def circuits():
    """``(name, constraint system)`` for every pinned case, in file order."""
    for scale in ("micro", "full"):
        model = build_model("LCS", scale=scale)
        image = synthetic_images(model.input_shape, n=1, seed=IMAGE_SEED)[0]
        compiler = ZenoCompiler(CompilerOptions(gadget_mode="lean"))
        yield f"LCS:{scale}", compiler.compile_model(model, image).cs
    model = build_model("TINY", scale="micro", seed=3)
    image = synthetic_images(model.input_shape, n=1, seed=IMAGE_SEED)[0]
    compiler = ZenoCompiler(CompilerOptions(
        gadget_mode="strict", relu_mode="lookup", record_recipe=True
    ))
    split = compiler.compile_model(model, image).split(mode="hashed")
    wanted = list(TINY_DOMAINS)
    for inst in split.instances:
        size = Domain.for_size(max(inst.cs.num_constraints, 2)).size
        if size in wanted:
            wanted.remove(size)
            yield f"TINY:micro/{inst.index}", inst.cs
    if wanted:
        raise AssertionError(f"no TINY instance with domain size {wanted}")


def quotient_digest(cs) -> str:
    domain = Domain.for_size(max(cs.num_constraints, 2))
    h = quotient_coefficients(cs, domain)
    return hashlib.sha256(
        b"".join(v.to_bytes(32, "big") for v in h)
    ).hexdigest()


def proof_hex(cs, keys) -> str:
    proof = groth16.prove(
        keys.proving_key, cs, SimulatedBackend(), random.Random(BLIND_SEED)
    )
    return serialize_proof(proof).hex()


def setup(cs):
    return groth16.setup(cs, SimulatedBackend(), random.Random(CRS_SEED))


if __name__ == "__main__":
    cases = {}
    for name, cs in circuits():
        cases[name] = {
            "constraints": cs.num_constraints,
            "domain": Domain.for_size(max(cs.num_constraints, 2)).size,
            "quotient_sha256": quotient_digest(cs),
            "proof": proof_hex(cs, setup(cs)),
        }
        print(name, cases[name]["constraints"], cases[name]["domain"])
    PATH.write_text(json.dumps(cases, indent=1) + "\n")
