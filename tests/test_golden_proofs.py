"""Frozen proof bytes: the prover's output pinned across refactors.

``tests/fixtures/golden_proofs.json`` was generated at the commit *before*
the worker-process layer was unified (PR 12) — SHAL:micro, lean gadgets,
fixed CRS / blinding / image seeds, on the simulated group and on real
BN254.  Every way of driving the prover must still emit exactly those
bytes: sequential or through the worker pools, with or without fixed-base
tables on the key.  To regenerate after an *intended* change of the proof
encoding, rerun the recipe in :func:`_circuit` / :func:`test_golden_bytes`
and overwrite the hex strings.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.circuit.compute import CompilerOptions
from repro.core.reuse.batch import BatchProver
from repro.ec.backend import backend_by_name
from repro.nn.data import synthetic_images
from repro.nn.models import build_model
from repro.snark import groth16
from repro.snark.keys import precompute_proving_tables
from repro.snark.serialize import deserialize_proof, serialize_proof

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "golden_proofs.json").read_text()
)


@pytest.fixture(scope="module")
def _circuit():
    model = build_model("SHAL", scale="micro")
    image = synthetic_images(
        model.input_shape, n=1, seed=GOLDEN["image_seed"]
    )[0]
    cs = BatchProver(
        model, image, options=CompilerOptions(gadget_mode="lean")
    ).cs
    assert cs.num_constraints == GOLDEN["constraints"]
    return cs


@pytest.mark.parametrize("backend_name", sorted(GOLDEN["proofs"]))
def test_golden_bytes(_circuit, backend_name):
    cs = _circuit
    backend = backend_by_name(backend_name)
    keys = groth16.setup(cs, backend, random.Random(GOLDEN["crs_seed"]))
    pk = keys.proving_key
    expected = bytes.fromhex(GOLDEN["proofs"][backend_name])

    def prove():
        proof = groth16.prove(
            pk, cs, backend, random.Random(GOLDEN["blind_seed"])
        )
        return serialize_proof(proof)

    assert pk.tables is None
    assert prove() == expected
    tables = precompute_proving_tables(pk, backend)
    assert prove() == expected
    assert tables.uses() == 3  # h MSM, delta_1, delta_2 query; one proof
    assert groth16.verify(
        keys.verifying_key, cs.public_values(),
        deserialize_proof(expected), backend,
    )
