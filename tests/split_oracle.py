"""The per-LC model split, kept as the differential-test oracle: what
``split_model`` did before it planned on the CSR snapshot — the usage scan
over ``constraint.{a,b,c}.terms``, one ``new_private`` per first use, one
``LinearCombination`` per remapped side, and MiMC sponges emitted as dict
LCs one ``enforce`` at a time (``tests/sponge_oracle.py``, the one per-LC
sponge under ``tests/``).  Shares the slice plan (``plan_layer_slices`` /
``_merge_segments``) and the result dataclasses with
``repro.aggregate.split``, and nothing else."""

from typing import Dict, List, Optional, Tuple

from repro.aggregate.commit import MIMC_DOMAIN
from repro.aggregate.split import (
    LayerInstance,
    ParcelKey,
    SplitModel,
    _merge_segments,
    plan_layer_slices,
)
from repro.r1cs.lc import ONE, LinearCombination
from repro.r1cs.mimc import Sponge
from repro.r1cs.system import ConstraintSystem
from tests.sponge_oracle import (
    EXTRA_ROUNDS,
    emit_rounds,
    fold_terms,
    seeded_constants,
)


def split_model_lc(
    cs: ConstraintSystem,
    mode: str = "public",
    num_segments: Optional[int] = None,
) -> SplitModel:
    segments = plan_layer_slices(cs.num_constraints, cs.layer_ranges)
    if num_segments is not None:
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
            _commit_parcels(inst, var_map, parcels, in_cut, out_cut, digests)
        inst.cs.mark_layer(name, 0)
        instances.append(inst)

    return SplitModel(
        mode=mode,
        source_name=cs.name,
        instances=instances,
        boundaries=boundaries,
        parcels=parcels,
    )


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
    """Append ``inst``'s hashed-mode commitments: parcel and cut sponges."""
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
    """Append MiMC-x⁵ absorb constraints over ``local_vars`` to ``inst``;
    returns the layout and the wire holding the digest."""
    inst_cs = inst.cs
    # An unassigned system splits into unassigned sponges, filled in by
    # the first refresh_from.
    absorbs = [
        (inst_cs.lc_variable(v), inst_cs.value_of(v)) for v in local_vars
    ] + [(inst_cs.lc(), 0)] * EXTRA_ROUNDS
    sponge = Sponge(
        list(local_vars),
        first_wire=inst_cs.num_private + 1,
        first_row=inst_cs.num_constraints,
    )
    inst.sponges.append(sponge)
    rounds, _ = emit_rounds(
        inst_cs, absorbs,
        seeded_constants(MIMC_DOMAIN, len(absorbs), inst_cs.field.modulus),
        tag, add=fold_terms,
    )
    inst.private_map.extend([None] * 3 * len(rounds))
    return sponge, rounds[-1][2]
