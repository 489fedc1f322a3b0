"""Regenerate ``parent_split.json``: per-layer instances, frozen.

    PYTHONPATH=<checkout>/src:<checkout> python tests/fixtures/make_parent_split.py

``parent_split.json`` was written by running this file against the commit
*before* ``split_model`` planned on the CSR snapshot (aadaad4, where every
instance was rebuilt one ``LinearCombination`` at a time by
``_build_instance`` / ``_remap_lc`` and its sponges were emitted as dict
LCs).  For every split in :data:`SPLITS` it records ``boundaries`` and
``parcels`` and, per instance: name, row range, sizes, a SHA-256 over the
canonical rows (tag + sorted A / B / C terms), over the dense witness,
over the provenance maps (``public_map`` / ``private_map`` /
``global_slots`` / ``in_slots`` / ``out_slots`` / sponge layout /
``carried``), and over the verifying-key and proof bytes under
:func:`~repro.aggregate.prove.crs_rng` / ``blinding_rng``.
``tests/test_aggregate.py::TestParentArtifacts`` recomputes
:func:`fingerprint` on the current tree and compares; rerun this only
after an *intended* change of the per-layer circuits, and say which in
the commit.
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.aggregate import prove_split, setup_split, split_model
from repro.core.compiler import PrivacySetting, ZenoCompiler, zeno_options
from repro.core.spec import CircuitSpec
from repro.r1cs.system import ConstraintSystem
from repro.snark.serialize import serialize_proof, serialize_verifying_key
from tests.conftest import tiny_conv_model, tiny_image
from tests.fixtures.make_golden_circuits import canonical_rows_digest

IMAGE_SEED = 11
CRS_SEED = 0xC0FFEE

_TINY = CircuitSpec("TINY", scale="micro", gadgets="strict", relu_mode="lookup")
_LCS = CircuitSpec("LCS", scale="micro")


def _tiny_conv():
    """The circuit of ``make_parent_aggregates.py``."""
    return ZenoCompiler(
        zeno_options(PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS)
    ).compile_model(tiny_conv_model(), tiny_image()).cs


def _spec(spec: CircuitSpec):
    return lambda: spec.compile(spec.image(IMAGE_SEED)).cs


# name -> (system factory, split_model keywords, split unassigned?)
SPLITS = {
    "tiny-conv/public": (_tiny_conv, {"mode": "public"}, False),
    "tiny-conv/hashed": (_tiny_conv, {"mode": "hashed"}, False),
    "tiny-conv/hashed-3": (
        _tiny_conv, {"mode": "hashed", "num_segments": 3}, False
    ),
    # three slices: only two segments make _merge_segments merge any
    "tiny-conv/hashed-2": (
        _tiny_conv, {"mode": "hashed", "num_segments": 2}, False
    ),
    # the tiny_perlayer circuit
    "TINY-micro-strict-lookup/hashed": (_spec(_TINY), {"mode": "hashed"}, False),
    # dot layers arrive as RowBlocks
    "LCS-micro-lean/public": (_spec(_LCS), {"mode": "public"}, False),
    # split before any value is known, filled by refresh_from
    "tiny-conv/hashed-unassigned": (_tiny_conv, {"mode": "hashed"}, True),
}


def unassigned_copy(cs: ConstraintSystem) -> ConstraintSystem:
    """``cs``'s variables, rows and layer ranges with no value assigned."""
    blank = ConstraintSystem(cs.field, name=cs.name)
    for _ in range(cs.num_public):
        blank.new_public()
    for _ in range(cs.num_private):
        blank.new_private()
    for con in cs.constraints:
        blank.enforce(con.a, con.b, con.c, tag=con.tag)
    blank.layer_ranges = dict(cs.layer_ranges)
    return blank


def _sha(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(payload).encode()
    return hashlib.sha256(payload).hexdigest()


def _maps(inst) -> dict:
    return {
        "public_map": list(inst.public_map),
        "private_map": list(inst.private_map),
        "global_slots": [list(pair) for pair in inst.global_slots],
        "in_slots": list(inst.in_slots),
        "out_slots": list(inst.out_slots),
        "sponges": [
            [list(s.absorbed), s.first_wire, s.digest_slot]
            for s in inst.sponges
        ],
        "carried": [[var, list(parcel)] for var, parcel in inst.carried],
        "extra_rounds": inst.extra_rounds,
    }


def fingerprint(name: str) -> dict:
    factory, keywords, unassigned = SPLITS[name]
    cs = factory()
    if unassigned:
        split = split_model(unassigned_copy(cs), **keywords)
        split.refresh_from(cs)
    else:
        split = split_model(cs, **keywords)
    # Keys and proofs first: the prover sees the instances as split_model
    # left them, before anything here reads their rows.
    setups = setup_split(split, crs_seed=CRS_SEED)
    proofs = prove_split(split, setups, crs_seed=CRS_SEED)
    instances = []
    for inst, setup, proof in zip(split.instances, setups, proofs):
        witness = ",".join(map(str, inst.cs.dense_assignment())).encode()
        instances.append({
            "name": inst.name,
            "rows": [inst.row_start, inst.row_stop],
            "num_constraints": inst.cs.num_constraints,
            "num_public": inst.cs.num_public,
            "num_private": inst.cs.num_private,
            "layer_ranges": {
                tag: [rng.start, rng.stop]
                for tag, rng in inst.cs.layer_ranges.items()
            },
            "rows_sha256": canonical_rows_digest(inst.cs),
            "witness_sha256": _sha(witness),
            "maps_sha256": _sha(_maps(inst)),
            "vk_sha256": _sha(serialize_verifying_key(setup.verifying_key)),
            "proof_sha256": _sha(serialize_proof(proof)),
        })
    return {
        "mode": split.mode,
        "source_name": split.source_name,
        "boundaries_sha256": _sha([list(map(list, b)) if split.mode == "hashed"
                                   else list(b) for b in split.boundaries]),
        "num_boundary_entries": sum(len(b) for b in split.boundaries),
        "parcels_sha256": _sha(
            [[list(key), list(vs)] for key, vs in split.parcels.items()]
        ),
        "num_parcels": len(split.parcels),
        "instances": instances,
    }


if __name__ == "__main__":
    out = Path(__file__).with_name("parent_split.json")
    golden = {}
    for name in SPLITS:
        golden[name] = fingerprint(name)
        print(name, len(golden[name]["instances"]), file=sys.stderr)
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
