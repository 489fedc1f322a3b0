"""R1CS interchange: export/import constraint systems for other provers.

The paper's Fig. 15 methodology is "we manually port compiled constraints
from ZENO into Bellman and Ginger" — which requires a constraint-system
interchange format.  This module provides one: a versioned JSON document
(human-auditable, diff-able) with the three sparse matrices, the witness,
and enough metadata to rebuild the system bit-for-bit.

Format (version 1)::

    {
      "format": "zeno-r1cs", "version": 1,
      "field_modulus": "<decimal>",
      "name": "...",
      "num_public": P, "num_private": N,
      "public_values": ["<decimal>", ...],
      "private_values": ["<decimal>", ...],        # omitted if unassigned
      "constraints": [
        {"a": [[idx, "<coeff>"], ...], "b": [...], "c": [...], "tag": "..."},
        ...
      ],
      "layers": {"conv1": [start, stop], ...}
    }

Variable indices use this repo's signed scheme (0 = ONE, negative =
public, positive = private); coefficients are decimal strings (254-bit
values exceed JSON number precision).
"""

from __future__ import annotations

import json
from typing import Optional

from repro.field.fp import BN254_FR, Field
from repro.r1cs.lc import LinearCombination
from repro.r1cs.system import ConstraintSystem

FORMAT_NAME = "zeno-r1cs"
FORMAT_VERSION = 1


class ImportError_(ValueError):
    """Raised on malformed interchange documents."""


def _lc_to_json(lc: LinearCombination) -> list:
    return [[int(i), str(c)] for i, c in sorted(lc.terms.items())]


def _lc_from_json(field: Field, data: list) -> LinearCombination:
    terms = {}
    for entry in data:
        if len(entry) != 2:
            raise ImportError_(f"malformed LC term {entry!r}")
        index, coeff = int(entry[0]), int(entry[1])
        terms[index] = coeff % field.modulus
    return LinearCombination(field, terms)


def export_system(cs: ConstraintSystem, include_witness: bool = True) -> str:
    """Serialize a constraint system to the interchange JSON."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "field_modulus": str(cs.field.modulus),
        "name": cs.name,
        "num_public": cs.num_public,
        "num_private": cs.num_private,
        "constraints": [
            {
                "a": _lc_to_json(c.a),
                "b": _lc_to_json(c.b),
                "c": _lc_to_json(c.c),
                "tag": c.tag,
            }
            for c in cs.constraints
        ],
        "layers": {
            tag: [r.start, r.stop] for tag, r in cs.layer_ranges.items()
        },
    }
    if include_witness:
        doc["public_values"] = [
            str(v) if v is not None else None for v in cs._public_values
        ]
        doc["private_values"] = [
            str(v) if v is not None else None for v in cs._private_values
        ]
    return json.dumps(doc)


def import_system(text: str, field: Optional[Field] = None) -> ConstraintSystem:
    """Rebuild a constraint system from interchange JSON."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ImportError_(f"not valid JSON: {exc}") from exc
    if doc.get("format") != FORMAT_NAME:
        raise ImportError_(f"unknown format {doc.get('format')!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise ImportError_(f"unsupported version {doc.get('version')!r}")
    field = field or BN254_FR
    if int(doc["field_modulus"]) != field.modulus:
        raise ImportError_(
            "field mismatch: document uses a different prime"
        )

    cs = ConstraintSystem(field=field, name=doc.get("name", "imported"))
    publics = doc.get("public_values")
    privates = doc.get("private_values")
    for i in range(int(doc["num_public"])):
        value = publics[i] if publics is not None else None
        cs.new_public(int(value) if value is not None else None)
    for i in range(int(doc["num_private"])):
        value = privates[i] if privates is not None else None
        cs.new_private(int(value) if value is not None else None)

    for entry in doc["constraints"]:
        cs.enforce(
            _lc_from_json(field, entry["a"]),
            _lc_from_json(field, entry["b"]),
            _lc_from_json(field, entry["c"]),
            tag=entry.get("tag", ""),
        )
    for tag, (start, stop) in doc.get("layers", {}).items():
        cs.layer_ranges[tag] = range(int(start), int(stop))

    # Reject dangling variable references early.
    for constraint in cs.constraints:
        for lc in (constraint.a, constraint.b, constraint.c):
            for index in lc.indices():
                if index > cs.num_private or -index > cs.num_public:
                    raise ImportError_(
                        f"constraint references unknown variable {index}"
                    )
    return cs


def export_to_file(cs: ConstraintSystem, path, include_witness: bool = True):
    with open(path, "w") as handle:
        handle.write(export_system(cs, include_witness=include_witness))


def import_from_file(path, field: Optional[Field] = None) -> ConstraintSystem:
    with open(path) as handle:
        return import_system(handle.read(), field=field)
