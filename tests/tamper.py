"""Tampered copies of a constraint system, for the tests that break a
circuit on purpose.

A system's rows cannot be edited in place (``cs.constraints`` is a
read-only view), so a test builds the broken circuit as a copy: the same
variables and values, ``layer_ranges`` and ``lookup_blocks``, with some
rows dropped or replaced.  A replacement is usually a row read from the
system and edited — every read hands out fresh LCs, free to change::

    row = cs.constraints[i]
    row.a.terms.clear()
    broken = tampered(cs, replace={i: row})
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.r1cs.constraint import Constraint
from repro.r1cs.system import ConstraintSystem


def tampered(
    cs: ConstraintSystem,
    drop: Iterable[int] = (),
    replace: Dict[int, Constraint] = None,
) -> ConstraintSystem:
    """A copy of ``cs`` with rows ``drop`` left out and row ``i`` taken
    from ``replace[i]``; the rest is copied as it is."""
    drop, replace = set(drop), replace or {}
    out = ConstraintSystem(cs.field, cs.name)
    out.allocate(
        [cs.value_of(-(i + 1)) for i in range(cs.num_public)], public=True
    )
    out.allocate([cs.value_of(i + 1) for i in range(cs.num_private)])
    for index, row in enumerate(cs.constraints):
        if index not in drop:
            row = replace.get(index, row)
            out.enforce(row.a, row.b, row.c, tag=row.tag)
    out.layer_ranges = dict(cs.layer_ranges)
    out.lookup_blocks = list(cs.lookup_blocks)
    return out
