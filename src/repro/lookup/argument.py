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

The engine also implements witness generation for the lookup columns
(``h``, ``g``, ``m``, sponge states) and records a :class:`LookupBlock`
per table on ``cs.lookup_blocks`` — consumed by the `repro.analysis`
determinism auditor (:func:`verify_lookup_block`) and by §6.1 batch
witness replay (:func:`reassign_lookup_columns`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.field import batch_inverse, signed
from repro.field.counters import global_counter
from repro.lookup.table import PACK_BASE, LookupTable, get_table
from repro.r1cs import mimc
from repro.r1cs.lc import ONE, LinearCombination
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


def _logup_fractions(
    fld,
    alpha: int,
    pairs: Sequence[int],
    rows: Sequence[int],
    counts: Sequence[int],
    table_name: str,
) -> Tuple[List[int], List[int]]:
    """Both sides of the LogUp sum with one batch inversion.

    ``h_i = 1 / (alpha - p_i)`` per lookup and ``g_j = m_j / (alpha - P_j)``
    per table row.  A row nobody looked up has ``g_j = 0`` whatever the
    inverse, so only rows with a non-zero multiplicity are inverted; every
    denominator is still checked for a challenge collision.
    """
    p = fld.modulus
    h_dens = [(alpha - v) % p for v in pairs]
    g_dens = [(alpha - r) % p for r in rows]
    if 0 in h_dens or 0 in g_dens:
        raise LookupError(f"lookup challenge collision on table {table_name!r}")
    live = [j for j, c in enumerate(counts) if c]
    inverses = batch_inverse(fld, h_dens + [g_dens[j] for j in live])
    g = [0] * len(rows)
    for j, inv in zip(live, inverses[len(pairs):]):
        g[j] = counts[j] * inv % p
    return inverses[: len(pairs)], g


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


class _TableState:
    """Per-table accumulation between first lookup and finalize."""

    __slots__ = (
        "table", "alpha_var", "alpha_const", "lookups", "h_constraints",
        "xbits", "lookup_constraints", "bits_equiv",
    )

    def __init__(self, table: LookupTable) -> None:
        self.table = table
        self.alpha_var: Optional[int] = None
        self.alpha_const: Optional[int] = None
        # (x_var, x_value, y_var, y_value, h_var)
        self.lookups: List[Tuple[int, int, int, int, int]] = []
        self.h_constraints: List[int] = []
        self.xbits: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        self.lookup_constraints = 0
        self.bits_equiv = 0


class LookupEngine:
    """Emits the LogUp argument into one constraint system.

    One engine per circuit compilation; tables are keyed by name, so every
    activation using e.g. the builtin ``gelu`` table shares a single table
    column (the amortization that makes transformers affordable).  Call
    :meth:`lookup` per activation during layer lowering (the membership
    constraint lands in the current layer's provenance range) and
    :meth:`finalize` once after the last layer (the shared columns land in
    ``lookup:<table>`` pseudo-layers).
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

    def _log(self, var: int, table_name: str) -> None:
        if self.recipe is not None:
            self.recipe.append((var, ("lut", table_name)))

    def _state(self, table: LookupTable) -> _TableState:
        st = self._states.get(table.name)
        if st is None:
            st = _TableState(table)
            if self.mode == "strict":
                # Pre-allocate the challenge wire so per-lookup membership
                # constraints can reference it before the sponge that
                # assigns it is emitted at finalize.
                st.alpha_var = self.cs.new_private(0)
                self._log(st.alpha_var, table.name)
            else:
                st.alpha_const = lean_alpha(table.name, self.cs.field.modulus)
            self._states[table.name] = st
        elif st.table is not table and st.table.packed_entries() != table.packed_entries():
            raise LookupError(
                f"two different tables registered under name {table.name!r}"
            )
        return st

    # -- per-activation membership ---------------------------------------------------

    def lookup(
        self,
        table: LookupTable,
        x_var: int,
        x_value: int,
        tag: str = "lut",
        index: int = -1,
        input_ranged: bool = True,
        bits_cost: Optional[int] = None,
    ) -> int:
        """Prove ``(x, y)`` is a row of ``table``; returns the output wire.

        ``input_ranged`` declares that ``x`` is already range-proven small
        (e.g. a strict committed output); when False, in strict mode the
        engine emits a bit-decomposition range proof on ``x - domain_lo``
        (once per variable) to keep the pair packing injective.
        ``bits_cost`` is the caller's estimate of what this activation
        would cost on the bit-decomposition path (for the report).
        """
        if self._finalized:
            raise LookupError("lookup engine already finalized")
        cs = self.cs
        p = cs.field.modulus
        st = self._state(table)
        y_value = table.lookup(x_value)  # raises out-of-domain (no wrap)

        if self.mode == "strict" and not input_ranged and x_var not in st.xbits:
            key = (x_var, table.domain_lo, table.domain_bits)
            proof = self._range_proofs.get(key)
            if proof is None:
                proof = self._range_proof(st, table, x_var, x_value, tag)
                self._range_proofs[key] = proof
            st.xbits[x_var] = proof

        y_var = cs.new_private(y_value)
        self._log(y_var, table.name)
        h_var = cs.new_private(None)  # assigned at finalize (needs alpha)
        self._log(h_var, table.name)

        # A = alpha - (x - lo) - 2^16 * (y + bias); A * h = 1.
        const = (table.domain_lo - PACK_BASE * table.y_bias) % p
        a = cs.lc()
        if self.mode == "strict":
            a.add_term(st.alpha_var, 1)
        else:
            const = (const + st.alpha_const) % p
        a.add_term(x_var, p - 1)
        a.add_term(y_var, p - PACK_BASE)
        if const:
            a.add_term(0, const)
        cs.enforce(
            a, cs.lc_variable(h_var), cs.lc_constant(1),
            tag=f"{tag}/lookup:{table.name}",
        )
        st.h_constraints.append(cs.num_constraints - 1)
        st.lookup_constraints += 1
        if self.mode == "lean":
            packed = table.pack(x_value, y_value)
            cs.assign(h_var, pow((st.alpha_const - packed) % p, -1, p))
        st.lookups.append((x_var, int(x_value), y_var, y_value, h_var))
        st.bits_equiv += (
            bits_cost
            if bits_cost is not None
            else self._default_bits_cost(table)
        )
        return y_var

    def _default_bits_cost(self, table: LookupTable) -> int:
        """Per-activation bit-decomposition estimate for the report."""
        if table.registry_name == "relu":
            # Sign select + sign proof + (bits-1) booleans + sign boolean.
            return 18 if self.mode == "strict" else 1
        # One-hot selector: indicators + sum-to-one + recompose + output.
        return table.size + 3 if self.mode == "strict" else 3

    def _range_proof(
        self, st: _TableState, table: LookupTable, x_var: int, x_value: int,
        tag: str,
    ) -> Tuple[Tuple[int, ...], int]:
        """Bit-decompose ``x - domain_lo`` (packing injectivity for raw inputs)."""
        cs = self.cs
        bits = table.domain_bits
        shifted = int(x_value) - table.domain_lo
        if not 0 <= shifted < (1 << bits):
            raise LookupError(
                f"lookup input {x_value} outside {table.name!r} domain"
            )
        recompose = cs.lc()
        bit_vars = []
        for i in range(bits):
            b = cs.new_private((shifted >> i) & 1)
            self._log(b, table.name)
            lc = cs.lc_variable(b)
            cs.enforce(
                lc, lc - cs.lc_constant(1), cs.lc(),
                tag=f"{tag}/lookup:{table.name}/xbit",
            )
            recompose.add_term(b, 1 << i)
            bit_vars.append(b)
        shifted_lc = cs.lc_variable(x_var) - cs.lc_constant(table.domain_lo)
        cs.enforce_equal(
            recompose, shifted_lc, tag=f"{tag}/lookup:{table.name}/xrange"
        )
        st.lookup_constraints += bits + 1
        return tuple(bit_vars), cs.num_constraints - 1

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
        return blocks

    def _finalize_table(self, st: _TableState, mark) -> LookupBlock:
        cs = self.cs
        p = cs.field.modulus
        table = st.table
        start = cs.num_constraints
        packed_rows = table.packed_entries()
        size = len(packed_rows)

        counts = [0] * size
        pairs = []
        for x_var, x_val, y_var, y_val, h_var in st.lookups:
            j = x_val - table.domain_lo
            counts[j] += 1
            pairs.append(table.pack(x_val, y_val))

        m_vars = [cs.new_private(c) for c in counts]
        for v in m_vars:
            self._log(v, table.name)

        block = LookupBlock(
            table_name=table.name,
            registry_name=table.registry_name,
            domain_lo=table.domain_lo,
            y_bias=table.y_bias,
            mode=self.mode,
            packed_entries=packed_rows,
            alpha_var=st.alpha_var,
            alpha_const=st.alpha_const,
            x_vars=[l[0] for l in st.lookups],
            y_vars=[l[2] for l in st.lookups],
            h_vars=[l[4] for l in st.lookups],
            h_constraints=list(st.h_constraints),
            m_vars=m_vars,
            xbits=dict(st.xbits),
        )

        if self.mode == "strict":
            alpha = self._challenge(block)
        else:
            alpha = st.alpha_const

        # h witnesses: 1 / (alpha - p_i).  In lean mode these were assigned
        # at lookup time from the fixed challenge; recompute uniformly so a
        # strict alpha lands too.
        h_vals, g_vals = _logup_fractions(
            cs.field, alpha, pairs, packed_rows, counts, table.name
        )
        for h_var, h_val in zip(block.h_vars, h_vals):
            cs.assign(h_var, h_val)

        # Table column: (alpha - P_j) * g_j = m_j, one row each.
        for j, row in enumerate(packed_rows):
            denom = (alpha - row) % p
            g_var = cs.new_private(g_vals[j])
            self._log(g_var, table.name)
            a = cs.lc()
            if self.mode == "strict":
                a.add_term(block.alpha_var, 1)
                if row % p:  # packed row 0 would store a zero coefficient
                    a.add_term(0, (-row) % p)
            else:
                a.add_term(0, denom)
            cs.enforce(
                a, cs.lc_variable(g_var), cs.lc_variable(m_vars[j]),
                tag=f"lookup:{table.name}/row",
            )
            block.g_vars.append(g_var)
            block.g_constraints.append(cs.num_constraints - 1)

        # Sum check: sum h - sum g == 0.
        balance = cs.lc()
        for h_var in block.h_vars:
            balance.add_term(h_var, 1)
        for g_var in block.g_vars:
            balance.add_term(g_var, p - 1)
        cs.enforce_equal(balance, cs.lc(), tag=f"lookup:{table.name}/sum")
        block.sum_constraint = cs.num_constraints - 1

        st.lookup_constraints += cs.num_constraints - start
        if mark is not None:
            mark(f"lookup:{table.name}", start)
        return block

    def _challenge(self, block: LookupBlock) -> int:
        """In-circuit Fiat–Shamir: absorb pairs (chunked) then multiplicities.

        Emits ``block``'s sponge — its last round's output wire IS the
        pre-allocated alpha — and returns the challenge value.
        """
        cs = self.cs
        name = block.table_name
        seed = sponge_seed(name)
        block.sponge = sponge = mimc.Sponge(
            _absorb_schedule(block, cs.field),
            first_wire=cs.num_private + 1,
            out=block.alpha_var,
            first_row=cs.num_constraints,
        )
        counter = global_counter()
        tallied = counter.lc_term
        rows = mimc.sponge_rows(
            [sponge], [f"lookup:{name}/sponge"], seed, cs.field.modulus
        )
        # The per-LC build summed each round's t with ``+``, which counts
        # an addition next to every term sponge_rows tallies.
        counter.field_add += counter.lc_term - tallied
        cs.allocate([None] * len(sponge.wires))
        if self.recipe is not None:
            self.recipe.extend((var, ("lut", name)) for var in sponge.wires)
        cs.enforce_rows(rows.block())
        return mimc.replay(cs, sponge, seed)

    # -- reporting ---------------------------------------------------------------------

    def report(self) -> LookupReport:
        rep = LookupReport(mode=self.mode)
        for name, st in self._states.items():
            rep.tables.append(
                {
                    "table": name,
                    "entries": st.table.size,
                    "lookups": len(st.lookups),
                    "lookup_constraints": st.lookup_constraints,
                    "bits_equivalent_constraints": st.bits_equiv,
                }
            )
            rep.total_lookups += len(st.lookups)
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


# -- batch-sharing witness replay ------------------------------------------------------


def reassign_lookup_columns(cs: ConstraintSystem) -> None:
    """Recompute every lookup column after base wires were re-assigned.

    The §6.1 batch witness replay assigns image/trace-derived wires from
    the recipe, then calls this to rebuild the derived lookup witnesses:
    outputs, input range bits, multiplicities, sponge states, challenges,
    and both inverse columns — exactly the finalize-time computation,
    driven by the current values of the recorded input wires.
    """
    for block in cs.lookup_blocks:
        p = cs.field.modulus
        size = len(block.packed_entries)
        entry_y = [
            row // PACK_BASE - block.y_bias for row in block.packed_entries
        ]
        counts = [0] * size
        pairs = []
        for x_var, y_var in zip(block.x_vars, block.y_vars):
            x_raw = cs.value_of(x_var)
            if x_raw is None:
                raise LookupError(
                    f"lookup input var {x_var} unassigned during replay"
                )
            x_val = signed(int(x_raw), p)
            j = x_val - block.domain_lo
            if not 0 <= j < size:
                raise LookupError(
                    f"lookup table {block.table_name!r}: input {x_val} outside "
                    f"domain — quantized activation out of range (rejected, "
                    f"not wrapped)"
                )
            y_val = entry_y[j]
            cs.assign(y_var, y_val % p)
            counts[j] += 1
            pairs.append(j + PACK_BASE * (y_val + block.y_bias))
            xb = block.xbits.get(x_var)
            if xb is not None:
                for i, b in enumerate(xb[0]):
                    cs.assign(b, (j >> i) & 1)
        for m_var, c in zip(block.m_vars, counts):
            cs.assign(m_var, c)

        if block.mode == "strict":
            alpha = mimc.replay(cs, block.sponge, sponge_seed(block.table_name))
        else:
            alpha = block.alpha_const
        h_vals, g_vals = _logup_fractions(
            cs.field, alpha, pairs, block.packed_entries, counts,
            block.table_name,
        )
        for var, val in zip(block.h_vars + block.g_vars, h_vals + g_vals):
            cs.assign(var, val)
