"""Split a compiled constraint system at layer boundaries.

``split_model`` turns one monolithic :class:`ConstraintSystem` into an
ordered list of independent per-layer instances.  The cut points are
exactly the compiler's layer provenance (:func:`plan_layer_slices`) —
rows outside every tagged range (knit flushes, trailing gadgets) become
anonymous filler segments, so coverage is total and no constraint is
dropped.

A private variable whose uses span several segments *crosses* every cut
between its first and last use; how it is bound across them depends on
the mode.

``public`` — boundary ``k`` (between instance ``k`` and ``k+1``) is the
ordered tuple of variables alive across that cut (first use in segment
``<= k``, last use ``> k``), and each becomes a local public input of
every instance it touches or passes through, bound by Groth16's IC term.
A variable alive across both of an instance's cuts occupies exactly ONE
local slot shared by its input and output tuples, so agreement inside one
instance is structural rather than proved.

``hashed`` — crossing variables stay private and are committed by
*parcel*: parcel ``(f, j)`` is the ascending tuple of variables first
used in segment ``f`` and used in segment ``j``.  Instances ``f`` and
``j`` each absorb the parcel — variables their own rows use anyway —
into an in-circuit MiMC sponge (see :mod:`repro.r1cs.mimc`); an
instance strictly between them never allocates the parcel's variables
and carries its digest as ONE synthesized private.  Boundary ``k`` is the
tuple of parcels open across the cut (``f <= k < j``, in ``(f, j)``
order), and each side's single public input is the sponge over those
parcels' digests; a carried digest is the same local variable in the
instance's in- and out-sponge, so passing it on unchanged is again
structural.

Either way, satisfying every instance with chained boundary claims is
equivalent to satisfying the original system: the union of the
instances' rows IS the original row set, and the chain pins every reader
of a crossing variable to the value its first user committed to (the
argument is written out in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregate.commit import MIMC_DOMAIN, mimc_digest
from repro.r1cs import mimc
from repro.r1cs.lc import RowBlock, RowSide
from repro.r1cs.system import ConstraintSystem


class SplitError(ValueError):
    """Raised when a constraint system cannot be split as requested."""


ParcelKey = Tuple[int, int]  # (first-use segment f, reading segment j), f < j


@dataclass
class LayerInstance:
    """One independent Groth16 instance covering a contiguous row range."""

    name: str
    index: int
    row_start: int
    row_stop: int
    cs: ConstraintSystem
    # Local-slot provenance: original signed index per local public slot
    # (slot i <-> local variable -(i+1)) and per local private (entry i
    # <-> local variable i+1).  ``None`` marks synthesized variables —
    # sponge wires, carried and public digests — recomputed by
    # :meth:`refresh_from`.
    public_map: List[Optional[int]] = dataclass_field(default_factory=list)
    private_map: List[Optional[int]] = dataclass_field(default_factory=list)
    # (local slot, original public index >= 0) for model-level publics.
    global_slots: List[Tuple[int, int]] = dataclass_field(default_factory=list)
    # Local public slots forming the input/output boundary tuples: one
    # per crossing variable in ``public`` mode (ascending original
    # variable), the single cut digest in ``hashed`` mode.
    in_slots: List[int] = dataclass_field(default_factory=list)
    out_slots: List[int] = dataclass_field(default_factory=list)
    # hashed mode only, in replay order: one sponge per parcel this
    # instance makes or reads, then its in- and out-cut sponges over the
    # parcel digests.
    sponges: List[mimc.Sponge] = dataclass_field(default_factory=list)
    # hashed mode only: (local private, the parcel's original variables)
    # per parcel passing through — the instance holds the digest and
    # never the pre-image.
    carried: List[Tuple[int, Tuple[int, ...]]] = dataclass_field(
        default_factory=list
    )
    extra_rounds: int = mimc.FINAL_ROUNDS  # as recorded; not a setting

    @property
    def num_rows(self) -> int:
        return self.row_stop - self.row_start

    def public_values(self) -> List[int]:
        return self.cs.public_values()

    def boundary_values(self, slots: Sequence[int]) -> List[int]:
        publics = self.cs.public_values()
        return [publics[s] for s in slots]

    def refresh_from(self, orig: ConstraintSystem) -> None:
        """Re-pull witness values from the original system (§6.1 reuse).

        After :meth:`repro.core.reuse.batch.BatchProver.assign_image`
        re-assigns the shared system for a new image, this maps the fresh
        values into the instance, recomputes the digests it carries from
        ``orig`` and replays its sponges — nothing is read from the other
        instances, so one layer can be refreshed on its own.
        """
        self._refresh(orig, {})

    def _refresh(
        self, orig: ConstraintSystem, digests: Dict[Tuple[int, ...], int]
    ) -> None:
        """:meth:`refresh_from`, sharing the carried parcels' ``digests``
        (parcel -> digest under ``orig``'s current witness) with whoever
        refreshes the neighbours from the same ``orig``."""
        dense, offset = orig.dense_assignment(), orig.num_public
        # Inherited variables lead each namespace; the synthesized ones
        # (``None``) follow and are recomputed below.
        for first, provenance in ((-1, self.public_map), (1, self.private_map)):
            inherited = len(provenance) - provenance.count(None)
            self.cs.assign_run(first, [
                dense[v + offset if v > 0 else -v]
                for v in provenance[:inherited]
            ])
        self._commit(dense, offset, digests)

    def _commit(
        self, dense: Sequence[int], offset: int,
        digests: Dict[Tuple[int, ...], int],
    ) -> None:
        """Value what the instance synthesizes: the digests it carries,
        from the original system's ``dense`` witness, then its sponges."""
        p = self.cs.field.modulus
        for var, parcel in self.carried:
            digest = digests.get(parcel)
            if digest is None:
                digest = digests[parcel] = mimc_digest(
                    [dense[v + offset] for v in parcel], p
                )
            self.cs.assign(var, digest)
        self._replay_sponges()

    def _replay_sponges(self) -> None:
        for sponge in self.sponges:
            mimc.replay(self.cs, sponge, MIMC_DOMAIN)


@dataclass
class SplitModel:
    """The ordered per-layer instances plus the boundary variable tuples."""

    mode: str  # "public" | "hashed"
    source_name: str
    instances: List[LayerInstance]
    # boundaries[k] = what the cut between instance k and k+1 commits to,
    # in the pre-image order both sides use.  ``public``: the original
    # private variables alive across it, ascending.  ``hashed``: the
    # ``(f, j)`` keys of the parcels open across it, ascending.
    boundaries: List[tuple]
    # hashed mode only: parcels[(f, j)] = original private variables first
    # used in segment f and used in segment j, ascending.
    parcels: Dict[ParcelKey, Tuple[int, ...]] = dataclass_field(
        default_factory=dict
    )
    # The source's lookup arguments (repro.lookup.LookupBlock, in the
    # source's row and variable numbering), for audit_split: their rows
    # are spread over the instances.
    lookup_blocks: list = dataclass_field(default_factory=list)

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    def refresh_from(self, orig: ConstraintSystem) -> None:
        """Refresh every instance; a parcel carried by several of them is
        digested once."""
        digests: Dict[Tuple[int, ...], int] = {}
        for inst in self.instances:
            inst._refresh(orig, digests)

    def total_constraints(self) -> int:
        return sum(inst.cs.num_constraints for inst in self.instances)

    def commitment_rows(self) -> int:
        """Rows the split added on top of the inherited ones: the
        in-circuit sponges and digest pins of ``hashed`` mode (0 in
        ``public`` mode, whose commitments live outside the circuit)."""
        return self.total_constraints() - sum(
            inst.num_rows for inst in self.instances
        )


Segment = Tuple[str, int, int]  # (name, first row, one past the last row)


def plan_layer_slices(
    num_rows: int, layer_ranges: Optional[Dict[str, range]] = None
) -> List[Segment]:
    """Partition ``num_rows`` constraint rows into per-layer segments.

    Layer provenance comes from ``ConstraintSystem.layer_ranges``, taken
    in order of first row and clipped to ``num_rows``; rows outside every
    tagged range (e.g. a trailing knit flush) become anonymous filler
    segments ``rows[a:b]`` so coverage is total.  Where two ranges
    overlap, the one starting later keeps only the rows past the earlier
    one's end.
    """
    ordered = sorted(
        (rng.start, min(rng.stop, num_rows), name)
        for name, rng in (layer_ranges or {}).items()
        if rng.start < min(rng.stop, num_rows)
    )
    plan: List[Segment] = []
    cursor = 0
    for start, stop, name in ordered:
        if start > cursor:
            plan.append((f"rows[{cursor}:{start}]", cursor, start))
        if stop > max(start, cursor):
            plan.append((name, max(start, cursor), stop))
        cursor = max(cursor, stop)
    if cursor < num_rows:
        plan.append((f"rows[{cursor}:{num_rows}]", cursor, num_rows))
    return plan


def _merge_segments(
    slices: Sequence[Segment], num_segments: int
) -> List[Segment]:
    """Greedy proportional merge of ordered slices into ``num_segments``
    contiguous groups, balancing constraint-row counts."""
    segments: List[Segment] = []
    total = sum(stop - start for _, start, stop in slices)
    consumed = 0
    group: List[Segment] = []
    for pos, s in enumerate(slices):
        group.append(s)
        consumed += s[2] - s[1]
        remaining_groups = num_segments - len(segments)
        slices_left = len(slices) - pos - 1
        # Cut when the cumulative row count reaches this group's
        # proportional share — or when every remaining slice must become
        # its own group to still reach ``num_segments``.
        hit_share = consumed * num_segments >= total * (len(segments) + 1)
        must_cut = slices_left == remaining_groups - 1
        if (
            remaining_groups > 1
            and slices_left >= remaining_groups - 1
            and (hit_share or must_cut)
        ):
            segments.append(_group_to_segment(group))
            group = []
    if group:
        segments.append(_group_to_segment(group))
    return segments


def _group_to_segment(group: Sequence[Segment]) -> Segment:
    if len(group) == 1:
        return group[0]
    return (f"{group[0][0]}..{group[-1][0]}", group[0][1], group[-1][2])


def split_model(
    cs: ConstraintSystem,
    mode: str = "public",
    num_segments: Optional[int] = None,
) -> SplitModel:
    """Split ``cs`` into independent per-layer instances.

    ``num_segments`` caps the instance count by merging consecutive layer
    slices into balanced contiguous groups (useful to match a worker
    pool's parallelism); by default every layer slice — named or
    anonymous filler — becomes its own instance.

    The rows never leave arrays: the plan is made on ``cs``'s CSR
    snapshot, every instance's inherited rows are one renumbered slice of
    it, ``hashed`` mode's sponge rows are generated as arrays, and each
    instance's system is born holding the one :class:`RowBlock` of both.
    """
    if mode not in ("public", "hashed"):
        raise SplitError(f"unknown boundary mode {mode!r}")
    num_rows = cs.num_constraints
    if num_rows == 0:
        raise SplitError("cannot split an empty constraint system")
    segments = plan_layer_slices(num_rows, cs.layer_ranges)
    if num_segments is not None:
        if num_segments < 1:
            raise SplitError("num_segments must be >= 1")
        segments = _merge_segments(
            segments, min(num_segments, len(segments))
        )
    n = len(segments)

    snapshot = _Snapshot(cs)
    offset = snapshot.offset  # dense position of private v is offset + v
    # -- variable usage scan: what each segment's rows read, ascending,
    # with where in the segment's scan each variable first appears --------
    used = [snapshot.variables_of(start, stop) for _, start, stop in segments]
    by_segment = [positions[positions > offset] for positions, _ in used]
    # (private variable, using segment) pairs, by variable then segment
    var = np.concatenate(by_segment) - offset
    order = np.argsort(var, kind="stable")
    var = var[order]
    seg = np.repeat(np.arange(n), [len(found) for found in by_segment])[order]
    distinct, heads = np.unique(var, return_index=True)
    first = seg[heads]  # per distinct private variable, ascending
    last = np.maximum.reduceat(seg, heads)

    alive = [_NO_VARIABLES] * (n - 1)  # variables made public at each cut
    parcels: Dict[ParcelKey, Tuple[int, ...]] = {}
    if mode == "public":
        alive = [distinct[(first <= k) & (k < last)] for k in range(n - 1)]
        boundaries = [tuple(crossing.tolist()) for crossing in alive]
    else:
        # every use after the first reads the variable from parcel
        # (first user, reader)
        reads = np.ones(len(var), dtype=bool)
        reads[heads] = False
        maker = np.repeat(first, np.diff(np.r_[heads, len(var)]))[reads]
        key = maker * n + seg[reads]
        order = np.argsort(key, kind="stable")
        keys, lows = np.unique(key[order], return_index=True)
        members = var[reads][order].tolist()  # ascending within a parcel
        parcels = {
            divmod(key, n): tuple(members[lo:hi])
            for key, lo, hi in zip(
                keys.tolist(), lows.tolist(), lows[1:].tolist() + [len(members)]
            )
        }
        boundaries = [
            tuple(key for key in parcels if key[0] <= k < key[1])
            for k in range(n - 1)
        ]

    drafts: List[_Draft] = []
    # instance k sits between cuts k - 1 and k; the ends have none
    alive = [_NO_VARIABLES, *alive, _NO_VARIABLES]
    cuts = [(), *boundaries, ()]
    for k, (name, start, stop) in enumerate(segments):
        draft = snapshot.instance(
            k, name, start, stop, used[k],
            in_vars=alive[k], out_vars=alive[k + 1],
        )
        if mode == "hashed":
            _commit_parcels(draft, snapshot, parcels, cuts[k], cuts[k + 1])
        drafts.append(draft)

    sponge_rows = mimc.sponge_rows(
        [sponge for draft in drafts for sponge in draft.inst.sponges],
        [tag for draft in drafts for tag in draft.sponge_tags],
        MIMC_DOMAIN, cs.field.modulus,
    )
    at = 0  # the first of sponge_rows' sponges not yet in a block
    # hashed mode: each carried parcel's digest, under cs's witness
    digests: Dict[Tuple[int, ...], int] = {}
    for draft in drafts:
        inst = draft.inst
        inst.cs.allocate(draft.public, public=True)
        inst.cs.allocate(draft.private)
        inst.cs.enforce_rows(
            draft.block(sponge_rows, at, at + len(inst.sponges))
        )
        inst.cs.mark_layer(inst.name, 0)
        at += len(inst.sponges)
        # An unassigned system splits into unassigned commitments, filled
        # in by the first refresh_from.
        if snapshot.assigned:
            inst._commit(snapshot.dense, offset, digests)

    split = SplitModel(
        mode=mode,
        source_name=cs.name,
        instances=[draft.inst for draft in drafts],
        boundaries=boundaries,
        parcels=parcels,
        lookup_blocks=list(cs.lookup_blocks),
    )
    if split.total_constraints() < num_rows:
        raise SplitError(
            "split dropped constraints: "
            f"{split.total_constraints()} < {num_rows}"
        )
    return split


_NO_VARIABLES = np.zeros(0, dtype=np.int64)


@dataclass
class _Draft:
    """One instance while it is gathered: its inherited rows renumbered,
    its witness in allocation order (``None`` where the original system
    holds no value) and the tag of each of its sponges."""

    inst: LayerInstance
    sides: Tuple[RowSide, ...]
    tags: List[str]
    public: list
    private: list
    sponge_tags: List[str] = dataclass_field(default_factory=list)

    def block(self, extra: mimc.SpongeRows, first: int, last: int) -> RowBlock:
        """The inherited rows, then the rows of sponges ``[first, last)``
        of ``extra``."""
        lo, hi = extra.first_row[first], extra.first_row[last]
        return RowBlock(
            *(
                RowSide.concat([mine, more.slice(lo, hi)])
                for mine, more in zip(self.sides, extra.sides)
            ),
            tags=self.tags + extra.tags[lo:hi],
        )


class _Snapshot:
    """The original system as arrays: its CSR matrices, row tags and dense
    witness, and the slicing / renumbering of a row range out of them."""

    def __init__(self, cs: ConstraintSystem) -> None:
        csr = cs.to_csr(assignment=False)
        self.cs = cs
        self.offset = cs.num_public
        self.tags = cs.row_tags()
        self.assigned = True
        try:
            dense = cs.dense_assignment()
        except ValueError:  # an unassigned variable: carry the holes along
            self.assigned = False
            dense = [1] + [
                cs.value_of(sign * (i + 1))
                for sign, count in ((-1, cs.num_public), (1, cs.num_private))
                for i in range(count)
            ]
        self.dense = np.array(dense, dtype=object)
        # The matrices as sides over dense positions, digits included.
        self.sides = [
            RowSide(matrix.indptr, matrix.indices, matrix.digits)
            for matrix in csr.matrices()
        ]
        # Every term's dense position in scan order — row-major, A then B
        # then C within a row, in-row order as stored — which is the
        # order instances number their privates by first use.
        widths = [np.diff(side.indptr) for side in self.sides]
        self.row_ptr = np.r_[0, np.cumsum(sum(widths))]
        self.scan = np.empty(int(self.row_ptr[-1]), dtype=np.int64)
        at = self.row_ptr[:-1]
        for side, width in zip(self.sides, widths):
            self.scan[
                np.repeat(at - side.indptr[:-1], width)
                + np.arange(side.variables.size)
            ] = side.variables
            at = at + width
        # original dense position -> local signed variable, of the
        # instance being drafted (each one overwrites what it reads)
        self.local = np.zeros(csr.num_variables, dtype=np.int64)

    def variables_of(self, start: int, stop: int):
        """Dense positions rows ``[start, stop)`` read (ascending, without
        the constant one) and each one's first index in their scan."""
        scan = self.scan[self.row_ptr[start]:self.row_ptr[stop]]
        positions, first_seen = np.unique(scan, return_index=True)
        skip = int(len(positions) and positions[0] == 0)
        return positions[skip:], first_seen[skip:]

    def instance(
        self, index: int, name: str, start: int, stop: int, used,
        in_vars, out_vars,
    ) -> _Draft:
        """Rows ``[start, stop)`` renumbered for their own system, with
        ``in_vars`` / ``out_vars`` (original privates, ascending) exposed
        as public slots.  Leaves :attr:`local` mapping every variable the
        instance holds."""
        offset, local = self.offset, self.local
        positions, first_seen = used
        # Model-level publics (descending signed = ascending position)
        # keep their meaning via global_slots provenance; then one shared
        # slot per crossing variable: membership in both the input and
        # output tuples is structural, not an extra claim.
        model_publics = positions[positions <= offset]
        crossing = np.union1d(in_vars, out_vars)
        publics = np.r_[model_publics, crossing + offset]
        # Every other variable the rows use is a private of this
        # instance, numbered in order of first use — segment locals and,
        # in hashed mode, the parcel variables this segment makes or reads.
        mine = (positions > offset) & ~np.isin(positions, crossing + offset)
        privates = positions[mine][np.argsort(first_seen[mine], kind="stable")]
        local[publics] = -1 - np.arange(len(publics))
        local[privates] = 1 + np.arange(len(privates))

        g = len(model_publics)
        inst = LayerInstance(
            name=name,
            index=index,
            row_start=start,
            row_stop=stop,
            cs=ConstraintSystem(self.cs.field, name=f"{self.cs.name}/{name}"),
            public_map=(-model_publics).tolist() + crossing.tolist(),
            private_map=(privates - offset).tolist(),
            global_slots=list(zip(range(g), (model_publics - 1).tolist())),
            in_slots=(g + np.flatnonzero(np.isin(crossing, in_vars))).tolist(),
            out_slots=(g + np.flatnonzero(np.isin(crossing, out_vars))).tolist(),
        )
        rows = [side.slice(start, stop) for side in self.sides]
        return _Draft(
            inst,
            sides=tuple(
                RowSide(side.indptr, local[side.variables], side.digits)
                for side in rows
            ),
            tags=self.tags[start:stop],
            public=self.dense[publics].tolist(),
            private=self.dense[privates].tolist(),
        )


def _commit_parcels(
    draft: _Draft,
    snapshot: _Snapshot,
    parcels: Dict[ParcelKey, Tuple[int, ...]],
    in_cut: Tuple[ParcelKey, ...],
    out_cut: Tuple[ParcelKey, ...],
) -> None:
    """Lay out ``draft``'s hashed-mode commitments, all still unvalued:
    parcel and cut sponges (their rows follow from the layout, see
    :func:`repro.r1cs.mimc.sponge_rows`).

    A parcel this instance makes or reads is absorbed from the instance's
    own variables; any other parcel open across one of its cuts passes
    through as a carried digest.  Each cut's sponge then absorbs the
    digests of the parcels open across it, and its final state is pinned
    to the instance's public digest slot for that side.
    """
    inst, private = draft.inst, draft.private
    rows = inst.num_rows  # so far: the inherited ones

    def absorb(
        local_vars: List[int], tag: str, digest_slot: Optional[int] = None
    ) -> int:
        """A sponge over ``local_vars``, its wires allocated; returns the
        wire holding the final state."""
        nonlocal rows
        sponge = mimc.Sponge(
            local_vars, len(private) + 1, digest_slot, first_row=rows
        )
        inst.sponges.append(sponge)
        draft.sponge_tags.append(tag)
        rows += sponge.num_rows
        private.extend([None] * len(sponge.wires))
        inst.private_map.extend([None] * len(sponge.wires))
        return len(private)

    digest_var: Dict[ParcelKey, int] = {}
    for key in sorted(set(in_cut) | set(out_cut)):
        if inst.index in key:
            members = np.asarray(parcels[key]) + snapshot.offset
            digest_var[key] = absorb(
                snapshot.local[members].tolist(),
                tag=f"{inst.name}/parcel-{key[0]}-{key[1]}",
            )
        else:
            private.append(None)
            digest_var[key] = len(private)
            inst.private_map.append(None)
            inst.carried.append((digest_var[key], parcels[key]))
    for side, cut, slots in (
        ("in", in_cut, inst.in_slots),
        ("out", out_cut, inst.out_slots),
    ):
        if not cut:
            continue
        slot = len(inst.public_map)
        absorb(
            [digest_var[key] for key in cut],
            tag=f"{inst.name}/boundary-{side}",
            digest_slot=slot,
        )
        slots.append(slot)
        draft.public.append(None)
        inst.public_map.append(None)
