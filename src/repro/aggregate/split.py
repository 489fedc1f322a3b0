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
into an in-circuit MiMC sponge (see :mod:`repro.aggregate.commit`); an
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

from repro.aggregate.commit import (
    MIMC_EXTRA_ROUNDS,
    mimc_digest,
    mimc_round_constants,
    mimc_rounds,
)
from repro.r1cs.lc import ONE, LinearCombination
from repro.r1cs.system import ConstraintSystem


class SplitError(ValueError):
    """Raised when a constraint system cannot be split as requested."""


ParcelKey = Tuple[int, int]  # (first-use segment f, reading segment j), f < j


@dataclass
class Sponge:
    """One in-circuit MiMC sponge, kept so witness refresh can replay it.

    Round ``i`` owns the consecutive private wires ``first_wire + 3i +
    (0, 1, 2)`` holding t², t⁴ and t⁵; the last t⁵ is the digest.
    """

    absorbed: List[int]  # local signed indices, in absorb order
    first_wire: int
    # A cut's sponge pins its digest to this public slot; a parcel's
    # digest stays private (None) and is absorbed by the cut sponges.
    digest_slot: Optional[int] = None


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
    sponges: List[Sponge] = dataclass_field(default_factory=list)
    # hashed mode only: (local private, the parcel's original variables)
    # per parcel passing through — the instance holds the digest and
    # never the pre-image.
    carried: List[Tuple[int, Tuple[int, ...]]] = dataclass_field(
        default_factory=list
    )
    extra_rounds: int = MIMC_EXTRA_ROUNDS

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
        for slot, orig_var in enumerate(self.public_map):
            if orig_var is not None:
                self.cs.assign(-(slot + 1), orig.value_of(orig_var))
        for i, orig_var in enumerate(self.private_map):
            if orig_var is not None:
                self.cs.assign(i + 1, orig.value_of(orig_var))
        p = self.cs.field.modulus
        for var, parcel in self.carried:
            values = [orig.value_of(v) for v in parcel]
            self.cs.assign(var, mimc_digest(values, p, self.extra_rounds))
        self._replay_sponges()

    def _replay_sponges(self) -> None:
        cs, p = self.cs, self.cs.field.modulus
        for sponge in self.sponges:
            values = [cs.value_of(v) for v in sponge.absorbed]
            wire, state = sponge.first_wire, 0
            for t2, t4, state in mimc_rounds(values, p, self.extra_rounds):
                cs.assign(wire, t2)
                cs.assign(wire + 1, t4)
                cs.assign(wire + 2, state)
                wire += 3
            if sponge.digest_slot is not None:
                cs.assign(-(sponge.digest_slot + 1), state)


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

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    def refresh_from(self, orig: ConstraintSystem) -> None:
        for inst in self.instances:
            inst.refresh_from(orig)

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
    extra_rounds: int = MIMC_EXTRA_ROUNDS,
) -> SplitModel:
    """Split ``cs`` into independent per-layer instances.

    ``num_segments`` caps the instance count by merging consecutive layer
    slices into balanced contiguous groups (useful to match a worker
    pool's parallelism); by default every layer slice — named or
    anonymous filler — becomes its own instance.
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

    # -- variable usage scan: the segments using each private variable ----
    uses: Dict[int, List[int]] = {}  # ascending, distinct
    used_globals: List[List[int]] = []
    for k, (_, start, stop) in enumerate(segments):
        seen: set = set()
        for constraint in cs.constraints[start:stop]:
            seen.update(
                constraint.a.terms, constraint.b.terms, constraint.c.terms
            )
        seen.discard(ONE)
        used_globals.append(sorted((v for v in seen if v < 0), reverse=True))
        for var in seen:
            if var > 0:
                uses.setdefault(var, []).append(k)

    parcels: Dict[ParcelKey, Tuple[int, ...]] = {}
    if mode == "public":
        boundaries = [
            tuple(sorted(v for v, u in uses.items() if u[0] <= k < u[-1]))
            for k in range(n - 1)
        ]
    else:
        members: Dict[ParcelKey, List[int]] = {}
        for var in sorted(uses):
            first, *readers = uses[var]
            for reader in readers:
                members.setdefault((first, reader), []).append(var)
        parcels = {key: tuple(members[key]) for key in sorted(members)}
        boundaries = [
            tuple(key for key in parcels if key[0] <= k < key[1])
            for k in range(n - 1)
        ]

    instances: List[LayerInstance] = []
    # hashed mode: each parcel's digest, recorded by its first user f —
    # which is built before every instance that carries it.
    digests: Dict[ParcelKey, Optional[int]] = {}
    for k, (name, start, stop) in enumerate(segments):
        in_cut = boundaries[k - 1] if k > 0 else ()
        out_cut = boundaries[k] if k < n - 1 else ()
        inst, var_map = _build_instance(
            cs, k, name, start, stop,
            in_vars=in_cut if mode == "public" else (),
            out_vars=out_cut if mode == "public" else (),
            globals_used=used_globals[k],
        )
        if mode == "hashed":
            inst.extra_rounds = extra_rounds
            _commit_parcels(inst, var_map, parcels, in_cut, out_cut, digests)
        inst.cs.mark_layer(name, 0)
        instances.append(inst)

    split = SplitModel(
        mode=mode,
        source_name=cs.name,
        instances=instances,
        boundaries=boundaries,
        parcels=parcels,
    )
    if split.total_constraints() < num_rows:
        raise SplitError(
            "split dropped constraints: "
            f"{split.total_constraints()} < {num_rows}"
        )
    return split


def _build_instance(
    cs: ConstraintSystem,
    index: int,
    name: str,
    start: int,
    stop: int,
    in_vars: Tuple[int, ...],
    out_vars: Tuple[int, ...],
    globals_used: List[int],
) -> Tuple[LayerInstance, Dict[int, int]]:
    """Rows ``[start, stop)`` as their own system, ``in_vars``/``out_vars``
    exposed as public slots; returns it with the original -> local map."""
    inst_cs = ConstraintSystem(cs.field, name=f"{cs.name}/{name}")
    inst = LayerInstance(
        name=name,
        index=index,
        row_start=start,
        row_stop=stop,
        cs=inst_cs,
    )
    var_map: Dict[int, int] = {ONE: ONE}

    # Model-level publics keep their meaning via global_slots provenance.
    for orig in globals_used:
        slot = len(inst.public_map)
        var_map[orig] = inst_cs.new_public(cs.value_of(orig))
        inst.public_map.append(orig)
        inst.global_slots.append((slot, -orig - 1))

    # One shared slot per crossing variable: membership in both the
    # input and output tuples is structural, not an extra claim.
    for orig in sorted(set(in_vars) | set(out_vars)):
        slot = len(inst.public_map)
        var_map[orig] = inst_cs.new_public(cs.value_of(orig))
        inst.public_map.append(orig)
        if orig in in_vars:
            inst.in_slots.append(slot)
        if orig in out_vars:
            inst.out_slots.append(slot)

    # Every other variable the rows use is a private of this instance,
    # allocated in order of first use — segment locals and, in hashed
    # mode, the parcel variables this segment makes or reads.
    for row in range(start, stop):
        constraint = cs.constraints[row]
        for lc in (constraint.a, constraint.b, constraint.c):
            for var in lc.indices():
                if var <= 0 or var in var_map:
                    continue
                var_map[var] = inst_cs.new_private(cs.value_of(var))
                inst.private_map.append(var)

    # Remap the inherited rows verbatim.
    for row in range(start, stop):
        constraint = cs.constraints[row]
        inst_cs.enforce(
            _remap_lc(constraint.a, var_map, inst_cs),
            _remap_lc(constraint.b, var_map, inst_cs),
            _remap_lc(constraint.c, var_map, inst_cs),
            tag=constraint.tag,
        )
    return inst, var_map


def _remap_lc(
    lc: LinearCombination, var_map: Dict[int, int], inst_cs: ConstraintSystem
) -> LinearCombination:
    return LinearCombination(
        inst_cs.field, {var_map[i]: c for i, c in lc.terms.items()}
    )


def _commit_parcels(
    inst: LayerInstance,
    var_map: Dict[int, int],
    parcels: Dict[ParcelKey, Tuple[int, ...]],
    in_cut: Tuple[ParcelKey, ...],
    out_cut: Tuple[ParcelKey, ...],
    digests: Dict[ParcelKey, Optional[int]],
) -> None:
    """Append ``inst``'s hashed-mode commitments: parcel and cut sponges.

    A parcel this instance makes or reads is absorbed from the instance's
    own variables; any other parcel open across one of its cuts passes
    through as a carried digest.  Each cut's sponge then absorbs the
    digests of the parcels open across it, and its final state is pinned
    to the instance's public digest slot for that side.
    """
    inst_cs = inst.cs
    digest_var: Dict[ParcelKey, int] = {}
    for key in sorted(set(in_cut) | set(out_cut)):
        if inst.index in key:
            _, digest_var[key] = _absorb_sponge(
                inst,
                [var_map[v] for v in parcels[key]],
                tag=f"{inst.name}/parcel-{key[0]}-{key[1]}",
            )
            if inst.index == key[0]:
                digests[key] = inst_cs.value_of(digest_var[key])
        else:
            digest_var[key] = inst_cs.new_private(digests[key])
            inst.private_map.append(None)
            inst.carried.append((digest_var[key], parcels[key]))
    for side, cut, slots in (
        ("in", in_cut, inst.in_slots),
        ("out", out_cut, inst.out_slots),
    ):
        if not cut:
            continue
        tag = f"{inst.name}/boundary-{side}"
        sponge, state = _absorb_sponge(
            inst, [digest_var[key] for key in cut], tag
        )
        sponge.digest_slot = len(inst.public_map)
        slots.append(sponge.digest_slot)
        public = inst_cs.new_public(inst_cs.value_of(state))
        inst.public_map.append(None)
        inst_cs.enforce_equal(
            inst_cs.lc_variable(state),
            inst_cs.lc_variable(public),
            tag=f"{tag}/digest",
        )


def _absorb_sponge(
    inst: LayerInstance, local_vars: List[int], tag: str
) -> Tuple[Sponge, int]:
    """Append MiMC-x⁵ absorb constraints over ``local_vars`` to ``inst``.

    Per round (3 constraints): ``t = state + v + rc`` is a free LC, then
    ``t·t = t²``, ``t²·t² = t⁴``, ``t⁴·t = t⁵`` and the next state is
    ``t⁵``.  Records the :class:`Sponge` on the instance and returns it
    with the private wire holding the final state.
    """
    inst_cs = inst.cs
    p = inst_cs.field.modulus
    values = [inst_cs.value_of(v) for v in local_vars]
    # An unassigned system splits into unassigned sponges, filled in by
    # the first refresh_from.
    wires = None if None in values else mimc_rounds(values, p, inst.extra_rounds)
    constants = mimc_round_constants(len(local_vars) + inst.extra_rounds, p)
    sponge = Sponge(list(local_vars), first_wire=inst_cs.num_private + 1)
    inst.sponges.append(sponge)
    state = None  # the wire holding the previous round's t⁵; initially 0
    for i, rc in enumerate(constants):
        t_lc = inst_cs.lc_variable(state) if state else inst_cs.lc()
        if i < len(local_vars):
            t_lc.add_term(local_vars[i], 1)
        t_lc.add_term(ONE, rc)
        w2, w4, state = (
            inst_cs.new_private(value)
            for value in (next(wires) if wires else (None, None, None))
        )
        inst.private_map.extend((None, None, None))
        inst_cs.enforce(t_lc, t_lc, inst_cs.lc_variable(w2), tag=tag)
        inst_cs.enforce(
            inst_cs.lc_variable(w2),
            inst_cs.lc_variable(w2),
            inst_cs.lc_variable(w4),
            tag=tag,
        )
        inst_cs.enforce(
            inst_cs.lc_variable(w4), t_lc, inst_cs.lc_variable(state), tag=tag
        )
    return sponge, state
