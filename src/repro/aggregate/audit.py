"""Soundness-audit a split model, instance by instance.

Splitting changes what "under-constrained" means: a boundary variable is
*pinned by the chain*, not by the instance that consumes it, so auditing
each :class:`~repro.aggregate.split.LayerInstance` in isolation needs
the split's provenance maps to translate the whole-model assumptions
(``assume_from_recipe`` talks about *original* variable indices) into
each instance's local index space — and, in ``hashed`` mode, to seed the
determinism detector with exactly what the instance imports: the
variables of the parcels it reads and the digests it carries, whose
values the commitment chain fixes from the producing segment.  A lookup
argument's rows are spread over the instances — each membership row in
the layer that looks up, the table column in its ``lookup:<table>``
instance — so no instance can grant what the argument determines on its
own: the split records the source's :class:`~repro.lookup.LookupBlock` s,
each is structurally verified once against the rows the instances
inherited, and a verified block's wires are assumed wherever they occur
(its *inputs* are not: the instance computing them audits them).

:func:`audit_split` runs :func:`repro.analysis.audit_system` per
instance and merges the results into ONE :class:`AuditReport` whose
findings carry the instance name in their ``layer`` anchor, so ``zeno
audit --per-layer`` reads like the whole-model report with layer-level
blame.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.aggregate.split import LayerInstance, SplitModel
from repro.analysis import audit_system
from repro.analysis.determinism import lookup_block_finding
from repro.analysis.report import AuditReport
from repro.lookup import verify_lookup_block
from repro.r1cs.lc import ONE, RowBlock, RowSide
from repro.r1cs.system import ConstraintSystem


def _source_system(split: SplitModel) -> ConstraintSystem:
    """The source system's rows, read back out of the instances that
    inherited them and renumbered to the source's variables — what the
    row and variable indices a lookup block recorded refer to."""
    source = ConstraintSystem(split.instances[0].cs.field)
    for inst in split.instances:
        rows = inst.num_rows
        # dense position -> source variable (the inherited rows read no
        # synthesized variable, whose entry is None)
        origin = np.array([ONE, *inst.public_map, *inst.private_map])
        sides = []
        for matrix in inst.cs.to_csr(assignment=False).matrices():
            side = RowSide(
                matrix.indptr, matrix.indices, matrix.digits
            ).slice(0, rows)
            sides.append(
                RowSide(side.indptr, origin[side.variables], side.digits)
            )
        source.enforce_rows(
            RowBlock(*sides, tags=inst.cs.row_tags()[:rows])
        )
    return source


def _local_assume(
    inst: LayerInstance,
    assume: Iterable[int],
    imported: Iterable[int],
) -> List[int]:
    """Translate original-variable assumptions into instance-local ones.

    Boundary variables that became local *publics* (``public`` mode) are
    already in the determinism seed set and need no translation; only
    variables that stayed private are mapped.  What an instance imports
    is always assumed — the wires of verified lookup arguments and, in
    ``hashed`` mode, the variables of the parcels it reads (``imported``)
    and the digests it carries: their values are produced by an earlier
    segment and pinned by the commitment chain, which the per-instance
    detector cannot see.
    """
    orig_to_local: Dict[int, int] = {}
    for i, orig in enumerate(inst.private_map):
        if orig is not None:
            orig_to_local[orig] = i + 1
    wanted = set(assume) | set(imported)
    return sorted(
        [orig_to_local[orig] for orig in wanted if orig in orig_to_local]
        + [var for var, _ in inst.carried]
    )


def audit_split(
    split: SplitModel,
    assume: Iterable[int] = (),
    lint: bool = True,
    determinism: bool = True,
    fuzz: int = 0,
    rng: Optional[random.Random] = None,
) -> AuditReport:
    """Audit every instance of ``split``; return one merged report.

    ``assume`` uses *original* (pre-split) private variable indices —
    pass :func:`repro.analysis.assume_from_recipe` output directly.
    ``fuzz`` is the per-instance mutation budget; the shared ``rng``
    keeps the total work comparable to a whole-model fuzz run.
    """
    assume = list(assume)
    merged = AuditReport(
        system=f"{split.source_name}[split x{split.num_instances}]",
        num_constraints=split.total_constraints(),
        num_public=sum(i.cs.num_public for i in split.instances),
        num_private=sum(i.cs.num_private for i in split.instances),
    )
    granted: List[int] = []  # by the source's verified strict lookup blocks
    strict = [b for b in split.lookup_blocks if b.mode == "strict"]
    source = _source_system(split) if strict else None
    for block in strict:  # a lean challenge is unsound: never granted
        defect = verify_lookup_block(source, block)
        if defect is None:
            granted.extend(block.engine_vars())
        else:
            merged.extend([lookup_block_finding(block.table_name, defect)])
    for inst in split.instances:
        imported = granted + [
            var
            for (_, reader), parcel in split.parcels.items()
            if reader == inst.index
            for var in parcel
        ]
        report = audit_system(
            inst.cs,
            assume=_local_assume(inst, assume, imported),
            lint=lint,
            determinism=determinism,
            fuzz=fuzz,
            rng=rng,
        )
        merged.extend(
            f if f.layer else replace(f, layer=inst.name)
            for f in report.findings
        )
        for name, seconds in report.sections.items():
            merged.section(name, seconds)
    return merged
