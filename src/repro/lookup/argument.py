"""LogUp-style lookup argument lowered to R1CS (the `repro.lookup` core).

For a table ``T`` with packed rows ``P_j`` (see :mod:`repro.lookup.table`)
and circuit lookups packing to ``p_i``, membership of every ``p_i`` in
``{P_j}`` is equivalent (over a random challenge ``alpha``) to the
logarithmic-derivative identity

    sum_i 1 / (alpha - p_i)  ==  sum_j m_j / (alpha - P_j)

where ``m_j`` counts how often row ``j`` is looked up.  The R1CS lowering
costs, per lookup, ONE constraint

    (alpha - x_i - 2^16 * y_i - const) * h_i = 1

(the pair combination uses the fixed public base 2^16, injective because
the input side is range-proven — no second challenge, and the whole A-side
stays linear), plus a *shared per-table column* amortized across all
lookups of that table in the circuit: one constraint per table row

    (alpha - P_j) * g_j = m_j

and one final linear sum check ``sum h_i - sum g_j = 0``.

Soundness of the challenge.  ``alpha`` must not be attacker-controllable
after the multiset is chosen; in particular the multiplicities ``m_j`` are
field elements, and for a challenge independent of them a prover could
satisfy the sum check for ANY lookups by solving one linear equation in
the ``m_j``.  In ``strict`` gadget mode the engine therefore derives
``alpha`` *in-circuit* with the MiMC-x^5 sponge of :mod:`repro.r1cs.mimc`
(per-table seed) absorbing (a) the packed pairs, seven per round, and
(b) every multiplicity, one per round — one per round because
multiplicities are unbounded field elements, so packing several per
round would re-open a collision lattice.  The argument *assumes* that
sponge is a random oracle to the prover, which it currently is not: it
has no capacity, so the last multiplicity absorbed can be solved for
any target ``alpha`` (the known issue stated in :mod:`repro.r1cs.mimc`,
pinned by ``tests/test_mimc.py::test_lookup_challenge_cannot_be_steered``;
ROADMAP "Soundness closure").  In ``lean`` mode ``alpha`` is a fixed
per-table constant: constraint counts match the paper-accounting budget
but the argument is NOT sound (documented; the soundness suite runs
strict).

The engine lowers a run of activations per call and records a
:class:`LookupBlock` per table on ``cs.lookup_blocks`` — consumed by the
`repro.analysis` determinism auditor (:func:`verify_lookup_block`) and by
§6.1 batch witness replay.  The witness is split at the challenge: per
call, :func:`lookup_values` writes the outputs and input range bits (at
compile time and, through the call's recipe step, on replay); per table,
:func:`assign_lookup_columns` writes ``m``, the sponge states, the
challenge, ``h`` and ``g`` — at finalize and after a replay's last step
alike.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.field import batch_inverse, signed
from repro.field.counters import global_counter
from repro.lookup.table import PACK_BASE, LookupTable, get_table
from repro.r1cs import mimc
from repro.r1cs.lc import ONE, LinearCombination, RowBlock, RowSide
from repro.r1cs.recipe import Step, wire_step
from repro.r1cs.system import ConstraintSystem

# Sponge absorption layout: packed pairs are < 2^32, so seven fit a BN254
# field element with headroom; multiplicities go one per round (see module
# docstring for why they must not share a round).
CHUNK_SIZE = 7
CHUNK_BASE = 1 << 32

_RC_DOMAIN = b"repro.lookup.logup.v1"
_LEAN_DOMAIN = b"repro.lookup.lean-alpha.v1"


class LookupError(ValueError):
    """Raised on malformed lookup usage or unassignable lookup columns."""


def sponge_seed(table_name: str) -> bytes:
    """The per-table seed binding :mod:`repro.r1cs.mimc` to one table's
    challenge (domain-separated from every other sponge)."""
    return hashlib.sha256(_RC_DOMAIN + table_name.encode("utf-8")).digest()


def round_constants(table_name: str, count: int, modulus: int) -> List[int]:
    """Per-table MiMC round constants (domain-separated, deterministic)."""
    return mimc.constants(sponge_seed(table_name), count, modulus)


def lean_alpha(table_name: str, modulus: int) -> int:
    """The fixed lean-mode challenge (documented unsound; see module doc)."""
    digest = hashlib.sha256(_LEAN_DOMAIN + table_name.encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % modulus


@dataclass
class LookupBlock:
    """Everything the auditors / witness replay need about one table's argument."""

    table_name: str
    registry_name: Optional[str]
    domain_lo: int
    y_bias: int
    mode: str  # "strict" | "lean"
    packed_entries: Tuple[int, ...]
    alpha_var: Optional[int]  # strict: the sponge output wire
    alpha_const: Optional[int]  # lean: the fixed challenge
    x_vars: List[int] = field(default_factory=list)
    y_vars: List[int] = field(default_factory=list)
    h_vars: List[int] = field(default_factory=list)
    h_constraints: List[int] = field(default_factory=list)
    m_vars: List[int] = field(default_factory=list)
    g_vars: List[int] = field(default_factory=list)
    g_constraints: List[int] = field(default_factory=list)
    sum_constraint: Optional[int] = None
    # Strict only: the challenge sponge's layout (its ``out`` is alpha_var).
    sponge: Optional[mimc.Sponge] = None
    # Per-lookup input range proofs: x_var -> (bit_vars, recompose_cidx).
    xbits: Dict[int, Tuple[Tuple[int, ...], int]] = field(default_factory=dict)

    @property
    def num_lookups(self) -> int:
        return len(self.x_vars)

    def engine_vars(self) -> List[int]:
        """All wires this argument introduced (for determinism grants)."""
        out = list(self.y_vars) + list(self.h_vars)
        out += list(self.m_vars) + list(self.g_vars)
        if self.sponge is not None:
            out += self.sponge.wires
        for bits, _ in self.xbits.values():
            out += list(bits)
        if self.alpha_var is not None:
            out.append(self.alpha_var)
        return out


@dataclass
class LookupReport:
    """What the lookup argument cost vs the bit-decomposition path.

    ``bits_equivalent_constraints`` is the *estimated* cost of lowering the
    same activations without tables (per-activation sign/bit gadgets for
    ReLU, one-hot selectors for arbitrary 8-bit functions) under the same
    gadget budget; the `zeno compile --compare-relu` flag measures the real
    thing by compiling both ways.
    """

    mode: str = "lean"
    tables: List[dict] = field(default_factory=list)
    total_lookups: int = 0
    total_lookup_constraints: int = 0
    bits_equivalent_constraints: int = 0

    @property
    def constraints_saved(self) -> int:
        return self.bits_equivalent_constraints - self.total_lookup_constraints

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "tables": list(self.tables),
            "total_lookups": self.total_lookups,
            "total_lookup_constraints": self.total_lookup_constraints,
            "bits_equivalent_constraints": self.bits_equivalent_constraints,
            "constraints_saved": self.constraints_saved,
        }


def lookup_values(
    x_values, table: LookupTable, proved, tag: str, first_index: int
):
    """What one lookup call writes: the bits of ``x - domain_lo`` for each
    input ``proved`` marks (its range proof), then every input's output
    ``table[x]``.  An input outside the table raises, naming ``tag[first_index
    + k]``."""
    lo = table.domain_lo
    row_of = x_values - lo
    outside = np.flatnonzero((row_of < 0) | (row_of >= table.size))
    if outside.size:
        k = outside[0]
        raise LookupError(
            f"{tag}[{first_index + k}]: input {x_values[k]} outside lookup "
            f"table {table.name!r} domain [{lo}, {table.domain_hi}] — "
            f"quantized activation out of range (rejected, not wrapped)"
        )
    bits = (row_of[proved][:, None] >> np.arange(table.domain_bits)) & 1
    return np.concatenate([
        bits.reshape(-1), np.asarray(table.entries, dtype=np.int64)[row_of],
    ])


class _TableState:
    """Per-table accumulation between first lookup and finalize: the block
    its lookups are recorded in, and what the report counts."""

    __slots__ = ("table", "block", "lookup_constraints", "bits_equiv")

    def __init__(self, table: LookupTable, block: LookupBlock) -> None:
        self.table = table
        self.block = block
        self.lookup_constraints = 0
        self.bits_equiv = 0


class LookupEngine:
    """Emits the LogUp argument into one constraint system.

    One engine per circuit compilation; tables are keyed by name, so every
    activation using e.g. the builtin ``gelu`` table shares a single table
    column (the amortization that makes transformers affordable).  Call
    :meth:`lookup` per layer of activations during layer lowering (the
    membership constraints land in the current layer's provenance range)
    and :meth:`finalize` once after the last layer (the shared columns land
    in ``lookup:<table>`` pseudo-layers).
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        mode: str = "lean",
        recipe: Optional[list] = None,
    ) -> None:
        if mode not in ("lean", "strict"):
            raise ValueError(f"lookup mode must be 'lean' or 'strict', not {mode!r}")
        self.cs = cs
        self.mode = mode
        self.recipe = recipe
        self._states: Dict[str, _TableState] = {}
        # Shared input range proofs keyed (x_var, domain_lo, domain_bits):
        # per-dimension embedding tables all look up the same id wire over
        # the same domain, so one bit decomposition serves them all.
        self._range_proofs: Dict[
            Tuple[int, int, int], Tuple[Tuple[int, ...], int]
        ] = {}
        self._finalized = False

    @property
    def active(self) -> bool:
        return bool(self._states)

    def _wires(self, count: int) -> List[int]:
        """``count`` wires of a table's columns, valued later."""
        first = self.cs.allocate([None] * count)
        return list(range(first, first + count))

    def _state(self, table: LookupTable) -> _TableState:
        st = self._states.get(table.name)
        if st is None:
            alpha_var = alpha_const = None
            if self.mode == "strict":
                # Pre-allocate the challenge wire so membership constraints
                # can reference it before the sponge that assigns it is
                # emitted at finalize.
                alpha_var = self.cs.allocate([0])
            else:
                alpha_const = lean_alpha(table.name, self.cs.field.modulus)
            st = self._states[table.name] = _TableState(table, LookupBlock(
                table_name=table.name,
                registry_name=table.registry_name,
                domain_lo=table.domain_lo,
                y_bias=table.y_bias,
                mode=self.mode,
                packed_entries=table.packed_entries(),
                alpha_var=alpha_var,
                alpha_const=alpha_const,
            ))
        elif st.table is not table and st.table.packed_entries() != table.packed_entries():
            raise LookupError(
                f"two different tables registered under name {table.name!r}"
            )
        return st

    # -- membership, a run of activations at a time ----------------------------------

    def lookup(
        self,
        table: LookupTable,
        x_vars,
        x_values,
        tag: str = "lut",
        first_index: int = 0,
        input_ranged: bool = True,
        bits_cost: Optional[int] = None,
    ) -> np.ndarray:
        """Prove every ``(x_k, y_k)`` is a row of ``table``; returns the
        output wires (ndarray).

        ``input_ranged`` declares the inputs already range-proven small
        (e.g. strict committed outputs); when False, strict mode
        bit-decomposes ``x - domain_lo`` to keep the pair packing injective,
        once per ``(x_var, domain)`` over this call and earlier ones.  Per
        input, in order, one ``allocate`` holds those bits, ``y`` and ``h``
        (valued at finalize), and one :class:`RowBlock` with per-row tags
        the bits' ``…/xbit`` rows, the ``…/xrange`` recomposition and the
        membership row ``{tag}/lookup:<table>``.  ``bits_cost`` is the
        caller's estimate of one activation on the bit-decomposition path
        (for the report).  An input outside the table raises, naming
        ``tag[first_index + k]``, before anything is allocated.  The bits'
        and outputs' values are :func:`lookup_values`; with a recipe the
        call appends its step.
        """
        if self._finalized:
            raise LookupError("lookup engine already finalized")
        cs = self.cs
        p = cs.field.modulus
        lo, width = table.domain_lo, table.domain_bits
        x_vars = np.asarray(x_vars, dtype=np.int64).reshape(-1)
        x_values = np.asarray(x_values, dtype=np.int64).reshape(-1)
        raw = np.zeros(0, dtype=np.int64)  # first input of each raw wire
        if self.mode == "strict" and not input_ranged:
            raw = np.sort(np.unique(x_vars, return_index=True)[1])
        proved = np.zeros(x_vars.size, dtype=bool)  # gets its range proof here
        proved[raw] = [
            (x, lo, width) not in self._range_proofs for x in x_vars[raw].tolist()
        ]
        values = lookup_values(x_values, table, proved, tag, first_index)
        if not x_vars.size:
            return x_vars
        st = self._state(table)
        block = st.block
        x_proved = x_vars[proved]

        # Wires per input: [width bits], y, h.
        wires = width * proved + 2
        y_at = np.cumsum(wires) - 2
        bit_at = (y_at[proved] - width)[:, None] + np.arange(width)
        written = np.concatenate([bit_at.reshape(-1), y_at])
        private = np.full(int(wires.sum()), None, dtype=object)
        private[written] = values
        first = cs.allocate(private.tolist())
        if self.recipe is not None:
            self.recipe.append(wire_step(
                first + written,
                partial(
                    lookup_values, table=table, proved=proved, tag=tag,
                    first_index=first_index,
                ),
                x_vars,
            ))
        y_vars, bit_vars = first + y_at, (first + bit_at).reshape(-1)

        # Rows per input: [width xbit rows, the xrange row], membership.
        rows = (width + 1) * proved + 1
        member = np.cumsum(rows) - 1
        recompose = member[proved] - 1
        bits = (recompose[:, None] - width + np.arange(width)).reshape(-1)
        # Membership: A = alpha - (x - lo) - 2^16 * (y + bias); A * h = 1.
        const = (lo - PACK_BASE * table.y_bias) % p
        if self.mode == "strict":
            alpha = [(member, block.alpha_var, 1)]
        else:
            alpha, const = [], (const + block.alpha_const) % p
        a = [
            (bits, bit_vars, 1),
            (np.repeat(recompose, width), bit_vars,
             np.tile(1 << np.arange(width), x_proved.size)),
            (recompose, x_proved, -1),
        ]
        if lo % p:
            a.append((recompose, ONE, lo))
        a += [*alpha, (member, x_vars, -1), (member, y_vars, -PACK_BASE)]
        if const:
            a.append((member, ONE, const))
        b = [
            (bits, bit_vars, 1), (bits, ONE, -1), (recompose, ONE, 1),
            (member, y_vars + 1, 1),
        ]
        num_rows = int(rows.sum())
        tags = np.full(num_rows, f"{tag}/lookup:{table.name}", dtype=object)
        tags[bits] = f"{tag}/lookup:{table.name}/xbit"
        tags[recompose] = f"{tag}/lookup:{table.name}/xrange"
        row0 = cs.num_constraints
        cs.enforce_rows(RowBlock(
            RowSide.gather(num_rows, a, p), RowSide.gather(num_rows, b, p),
            RowSide.gather(num_rows, [(member, ONE, 1)], p), tags.tolist(),
        ))

        self._range_proofs.update(
            ((x, lo, width), (tuple(proof), row)) for x, proof, row in zip(
                x_proved.tolist(), bit_vars.reshape(-1, width).tolist(),
                (row0 + recompose).tolist(),
            )
        )
        for x in x_vars[raw].tolist():
            block.xbits.setdefault(x, self._range_proofs[(x, lo, width)])
        block.x_vars += x_vars.tolist()
        block.y_vars += y_vars.tolist()
        block.h_vars += (y_vars + 1).tolist()
        block.h_constraints += (row0 + member).tolist()
        st.lookup_constraints += num_rows
        st.bits_equiv += x_vars.size * (
            bits_cost if bits_cost is not None else self._default_bits_cost(table)
        )
        # What building the rows as LCs tallies: per range proof each bit's
        # ``b - 1`` and recomposition term, ``x - lo`` and its subtraction
        # from the recomposition; per membership row its terms.
        proof_ops = x_proved.size * (width + 1 + 2 * (lo % p != 0))
        counter = global_counter()
        counter.lc_term += proof_ops + x_proved.size * width + x_vars.size * (
            len(alpha) + 2 + (const != 0)
        )
        counter.field_add += proof_ops
        counter.field_mul += proof_ops
        return y_vars

    def _default_bits_cost(self, table: LookupTable) -> int:
        """Per-activation bit-decomposition estimate for the report."""
        if table.registry_name == "relu":
            # Sign select + sign proof + (bits-1) booleans + sign boolean.
            return 18 if self.mode == "strict" else 1
        # One-hot selector: indicators + sum-to-one + recompose + output.
        return table.size + 3 if self.mode == "strict" else 3

    # -- the shared table columns ------------------------------------------------------

    def finalize(self, mark=None) -> List[LookupBlock]:
        """Emit every table's column (multiplicities, g, sponge, sum check).

        ``mark`` is ``cs.mark_layer`` (or None): each table's column gets a
        ``lookup:<table>`` pseudo-layer so per-layer splitting and the work
        schedulers see the shared columns as their own unit.
        """
        if self._finalized:
            raise LookupError("lookup engine already finalized")
        self._finalized = True
        blocks = []
        for name in self._states:
            block = self._finalize_table(self._states[name], mark)
            self.cs.lookup_blocks.append(block)
            blocks.append(block)
            if self.recipe is not None:  # valued after a replay's last step
                self.recipe.append(Step(np.array(
                    block.h_vars + block.m_vars + block.g_vars
                    + list(block.sponge.wires if block.sponge else [])
                    + ([] if block.alpha_var is None else [block.alpha_var]),
                    dtype=np.int64,
                ), None))
        return blocks

    def _finalize_table(self, st: _TableState, mark) -> LookupBlock:
        """The table's structure — ``m`` wires, the challenge sponge
        (strict), ``g`` wires, then the ``/row`` rows ``(alpha - P_j) * g_j
        = m_j`` and the ``/sum`` row ``sum h - sum g = 0`` as one
        :class:`RowBlock` — and then its witness, by
        :func:`assign_lookup_columns`."""
        cs = self.cs
        p = cs.field.modulus
        block = st.block
        name = block.table_name
        start = cs.num_constraints
        size = len(block.packed_entries)
        block.m_vars = self._wires(size)
        if self.mode == "strict":
            self._challenge(block)
        block.g_vars = self._wires(size)

        column = np.arange(size)
        g_vars = np.array(block.g_vars, dtype=np.int64)
        packed = np.array(block.packed_entries, dtype=object)
        if self.mode == "strict":
            shifted = np.flatnonzero(packed % p)  # packed row 0 adds no term
            a = [(column, block.alpha_var, 1), (shifted, ONE, -packed[shifted])]
            row_terms = size + shifted.size
        else:
            a = [(column, ONE, (block.alpha_const - packed) % p)]
            row_terms = size
        lookups = len(block.h_vars)
        a += [
            (np.full(lookups, size), np.array(block.h_vars, dtype=np.int64), 1),
            (np.full(size, size), g_vars, -1),
        ]
        b = [(column, g_vars, 1), (np.array([size]), ONE, 1)]
        c = [(column, np.array(block.m_vars, dtype=np.int64), 1)]
        row0 = cs.num_constraints
        cs.enforce_rows(RowBlock(
            *(RowSide.gather(size + 1, side, p) for side in (a, b, c)),
            [f"lookup:{name}/row"] * size + [f"lookup:{name}/sum"],
        ))
        block.g_constraints = list(range(row0, row0 + size))
        block.sum_constraint = row0 + size
        # The rows built as LCs: each row's alpha and packed constant (one
        # lean constant), and every h and g in the sum.
        global_counter().lc_term += row_terms + lookups + size
        st.lookup_constraints += cs.num_constraints - start
        assign_lookup_columns(cs, block)
        if mark is not None:
            mark(f"lookup:{name}", start)
        return block

    def _challenge(self, block: LookupBlock) -> None:
        """In-circuit Fiat–Shamir: absorb pairs (chunked) then multiplicities.

        Emits ``block``'s sponge — its last round's output wire IS the
        pre-allocated alpha; :func:`assign_lookup_columns` values it.
        """
        cs = self.cs
        name = block.table_name
        block.sponge = sponge = mimc.Sponge(
            _absorb_schedule(block, cs.field),
            first_wire=cs.num_private + 1,
            out=block.alpha_var,
            first_row=cs.num_constraints,
        )
        counter = global_counter()
        tallied = counter.lc_term
        rows = mimc.sponge_rows(
            [sponge], [f"lookup:{name}/sponge"], sponge_seed(name),
            cs.field.modulus,
        )
        # The per-LC build summed each round's t with ``+``, which counts
        # an addition next to every term sponge_rows tallies.
        counter.field_add += counter.lc_term - tallied
        self._wires(len(sponge.wires))
        cs.enforce_rows(rows.block())

    # -- reporting ---------------------------------------------------------------------

    def report(self) -> LookupReport:
        rep = LookupReport(mode=self.mode)
        for name, st in self._states.items():
            lookups = len(st.block.x_vars)
            rep.tables.append(
                {
                    "table": name,
                    "entries": st.table.size,
                    "lookups": lookups,
                    "lookup_constraints": st.lookup_constraints,
                    "bits_equivalent_constraints": st.bits_equiv,
                }
            )
            rep.total_lookups += lookups
            rep.total_lookup_constraints += st.lookup_constraints
            rep.bits_equivalent_constraints += st.bits_equiv
        return rep


# -- audit-side structural verification ------------------------------------------------


def _terms(lc) -> Dict[int, int]:
    return {v: c for v, c in lc.terms.items() if c}


def verify_lookup_block(cs: ConstraintSystem, block: LookupBlock) -> Optional[str]:
    """Check a block's constraints are the canonical LogUp lowering.

    Returns ``None`` when the block is structurally sound, else a message
    describing the first defect.  The determinism auditor only *grants*
    output-slot uniqueness for verified blocks, so a broken lowering
    (skipped sum check, permuted table column, edited membership shape)
    degrades to under-constrained findings instead of passing silently.
    """
    p = cs.field.modulus
    n_c = cs.num_constraints

    if block.registry_name is not None:
        canonical = get_table(block.registry_name)
        if (
            canonical.packed_entries() != tuple(block.packed_entries)
            or canonical.domain_lo != block.domain_lo
            or canonical.y_bias != block.y_bias
        ):
            return (
                f"lookup table {block.table_name!r} does not match the "
                f"canonical {block.registry_name!r} table"
            )
    if not (
        len(block.x_vars) == len(block.y_vars) == len(block.h_vars)
        == len(block.h_constraints)
    ):
        return f"lookup block {block.table_name!r}: inconsistent lookup lists"
    if not (
        len(block.m_vars) == len(block.g_vars) == len(block.g_constraints)
        == len(block.packed_entries)
    ):
        return f"lookup block {block.table_name!r}: inconsistent table column"
    if block.mode == "strict" and block.alpha_var is None:
        return f"lookup block {block.table_name!r}: strict block without alpha wire"
    if block.mode == "lean" and block.alpha_const is None:
        return f"lookup block {block.table_name!r}: lean block without challenge"

    base_const = (block.domain_lo - PACK_BASE * block.y_bias) % p
    for k, cidx in enumerate(block.h_constraints):
        if not 0 <= cidx < n_c:
            return f"lookup block {block.table_name!r}: h constraint {cidx} missing"
        con = cs.constraints[cidx]
        expected = {
            block.x_vars[k]: p - 1,
            block.y_vars[k]: (p - PACK_BASE) % p,
        }
        if block.mode == "strict":
            expected[block.alpha_var] = 1
            const = base_const
        else:
            const = (base_const + block.alpha_const) % p
        if const:
            expected[0] = const
        if _terms(con.a) != {v: c for v, c in expected.items() if c}:
            return (
                f"lookup block {block.table_name!r}: membership constraint "
                f"{k} has unexpected shape"
            )
        if _terms(con.b) != {block.h_vars[k]: 1} or _terms(con.c) != {0: 1}:
            return (
                f"lookup block {block.table_name!r}: membership constraint "
                f"{k} does not bind its inverse wire"
            )

    for j, cidx in enumerate(block.g_constraints):
        if not 0 <= cidx < n_c:
            return f"lookup block {block.table_name!r}: row constraint {cidx} missing"
        con = cs.constraints[cidx]
        row = block.packed_entries[j]
        if block.mode == "strict":
            expected = {block.alpha_var: 1}
            if row % p:
                expected[0] = (-row) % p
        else:
            denom = (block.alpha_const - row) % p
            expected = {0: denom} if denom else {}
        if _terms(con.a) != expected:
            return (
                f"lookup block {block.table_name!r}: table row {j} has "
                f"unexpected packed value (permuted or edited column)"
            )
        if (
            _terms(con.b) != {block.g_vars[j]: 1}
            or _terms(con.c) != {block.m_vars[j]: 1}
        ):
            return (
                f"lookup block {block.table_name!r}: table row {j} does not "
                f"bind its multiplicity"
            )

    if block.sum_constraint is None or not 0 <= block.sum_constraint < n_c:
        return f"lookup block {block.table_name!r}: sum check missing"
    con = cs.constraints[block.sum_constraint]
    expected_sum: Dict[int, int] = {}
    for h in block.h_vars:
        expected_sum[h] = (expected_sum.get(h, 0) + 1) % p
    for g in block.g_vars:
        expected_sum[g] = (expected_sum.get(g, 0) + p - 1) % p
    expected_sum = {v: c for v, c in expected_sum.items() if c}
    if (
        _terms(con.a) != expected_sum
        or _terms(con.b) != {0: 1}
        or _terms(con.c)
    ):
        return f"lookup block {block.table_name!r}: sum check has unexpected shape"

    for x_var, (bit_vars, recompose_cidx) in block.xbits.items():
        if not 0 <= recompose_cidx < n_c:
            return (
                f"lookup block {block.table_name!r}: input range proof for "
                f"var {x_var} missing"
            )
        con = cs.constraints[recompose_cidx]
        expected = {b: (1 << i) % p for i, b in enumerate(bit_vars)}
        expected[x_var] = p - 1
        if block.domain_lo % p:
            expected[0] = block.domain_lo % p
        if (
            _terms(con.a) != {v: c for v, c in expected.items() if c}
            or _terms(con.b) != {0: 1}
            or _terms(con.c)
        ):
            return (
                f"lookup block {block.table_name!r}: input range proof for "
                f"var {x_var} has unexpected shape"
            )

    if block.mode == "strict":
        err = _verify_sponge(cs, block)
        if err:
            return err
    return None


def _absorb_schedule(block: LookupBlock, field) -> List[mimc.Absorb]:
    """What each payload round of ``block``'s sponge absorbs: the packed
    pairs, ``CHUNK_SIZE`` per round, then every multiplicity on its own."""
    p = field.modulus
    table_consts = (block.y_bias * PACK_BASE - block.domain_lo) % p
    absorbs: List[mimc.Absorb] = []
    lookups = list(zip(block.x_vars, block.y_vars))
    for base in range(0, len(lookups), CHUNK_SIZE):
        # an LC, so a variable looked up twice in a chunk folds
        lc = LinearCombination(field)
        const = 0
        for k, (x_var, y_var) in enumerate(lookups[base : base + CHUNK_SIZE]):
            scale = pow(CHUNK_BASE, k, p)
            lc.add_term(x_var, scale)
            lc.add_term(y_var, (scale * PACK_BASE) % p)
            const = (const + scale * table_consts) % p
        if const:
            lc.add_term(ONE, const)
        absorbs.append(lc.terms)
    absorbs.extend(block.m_vars)
    return absorbs


def _verify_sponge(cs: ConstraintSystem, block: LookupBlock) -> Optional[str]:
    sponge = block.sponge
    if sponge is None or sponge.out != block.alpha_var:
        defect = "sponge output is not the challenge wire"
    else:
        defect = mimc.check_rows(
            cs, sponge, sponge_seed(block.table_name),
            _absorb_schedule(block, cs.field),
        )
    return defect and f"lookup block {block.table_name!r}: {defect}"


# -- the lookup columns' witness ---------------------------------------------------------


def assign_lookup_columns(cs: ConstraintSystem, block: LookupBlock) -> None:
    """Write one table's columns from the current values of its lookups —
    multiplicities, sponge states, the challenge and both inverse columns.
    Their only writer: finalize calls it once per table, the §6.1 batch
    replay once per image after its last step
    (:func:`reassign_lookup_columns`)."""
    p = cs.field.modulus
    size = len(block.packed_entries)
    rows = []  # each lookup's table row
    for x_var in block.x_vars:
        x_raw = cs.value_of(x_var)
        if x_raw is None:
            raise LookupError(f"lookup input var {x_var} unassigned during replay")
        x_val = signed(int(x_raw), p)
        if not 0 <= x_val - block.domain_lo < size:
            raise LookupError(
                f"lookup table {block.table_name!r}: input {x_val} outside "
                f"domain — quantized activation out of range (rejected, "
                f"not wrapped)"
            )
        rows.append(x_val - block.domain_lo)
    pairs = [block.packed_entries[j] for j in rows]
    counts = np.bincount(np.array(rows, dtype=np.int64), minlength=size).tolist()
    assign = cs.assign
    for m_var, c in zip(block.m_vars, counts):
        assign(m_var, c)
    if block.mode == "strict":
        alpha = mimc.replay(cs, block.sponge, sponge_seed(block.table_name))
    else:
        alpha = block.alpha_const

    # Both sides of the LogUp sum with one batch inversion: h_i = 1 /
    # (alpha - p_i) per lookup, g_j = m_j / (alpha - P_j) per table row.
    # A row nobody looked up has g_j = 0 whatever the inverse, so only
    # rows with a multiplicity are inverted; every denominator is still
    # checked for a challenge collision.
    h_dens = [(alpha - v) % p for v in pairs]
    g_dens = [(alpha - r) % p for r in block.packed_entries]
    if 0 in h_dens or 0 in g_dens:
        raise LookupError(
            f"lookup challenge collision on table {block.table_name!r}"
        )
    live = [j for j, c in enumerate(counts) if c]
    inverses = batch_inverse(cs.field, h_dens + [g_dens[j] for j in live])
    h_vals, g_vals = inverses[:len(pairs)], [0] * size
    for j, inv in zip(live, inverses[len(pairs):]):
        g_vals[j] = counts[j] * inv % p
    for var, val in zip(block.h_vars + block.g_vars, h_vals + g_vals):
        assign(var, val)


def reassign_lookup_columns(cs: ConstraintSystem) -> None:
    """Recompute every table's columns after its lookups were re-assigned."""
    for block in cs.lookup_blocks:
        assign_lookup_columns(cs, block)
