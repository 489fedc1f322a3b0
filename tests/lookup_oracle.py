"""The per-element table lowerings, kept as the differential-test oracle:
what ``LookupEngine.lookup`` / ``_range_proof`` / ``_finalize_table`` and
``CircuitComputer``'s two one-hot selectors (``_lut_onehot`` and the one
inline in ``_compute_embed``) did before the table lowerings went a layer
at a time — one ``new_private`` / ``enforce`` per wire and row, dict LCs
throughout, the LogUp columns computed once at finalize and again by the
replay.  :class:`ScalarLookupEngine` takes the engine's array call and
runs it one element at a time through :meth:`~ScalarLookupEngine.\
lookup_one`, the scalar signature.  Shares with ``repro.lookup`` only the
block and report records and the challenge helpers; shares nothing with
``GadgetEmitter.select_rows``.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.field import batch_inverse
from repro.field.counters import global_counter
from repro.lookup.argument import (
    LookupBlock,
    LookupError,
    LookupReport,
    _absorb_schedule,
    lean_alpha,
    sponge_seed,
)
from repro.lookup.table import PACK_BASE, LookupTable
from repro.r1cs import mimc
from repro.r1cs.system import ConstraintSystem


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


class _TableState:
    """Per-table accumulation between first lookup and finalize."""

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


class ScalarLookupEngine:
    """The LogUp engine one lookup at a time (see the module docstring)."""

    def __init__(
        self, cs: ConstraintSystem, mode: str = "lean",
        recipe: Optional[list] = None,
    ) -> None:
        if mode not in ("lean", "strict"):
            raise ValueError(f"lookup mode must be 'lean' or 'strict', not {mode!r}")
        self.cs = cs
        self.mode = mode
        self.recipe = recipe
        self._states: Dict[str, _TableState] = {}
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

    def lookup(
        self, table, x_vars, x_values, tag="lut", first_index=0,
        input_ranged=True, bits_cost=None,
    ) -> list:
        """The array call, one :meth:`lookup_one` per element."""
        return [
            self.lookup_one(
                table, int(x_var), int(x_value), tag, first_index + k,
                input_ranged, bits_cost,
            )
            for k, (x_var, x_value) in enumerate(zip(x_vars, x_values))
        ]

    def lookup_one(
        self,
        table: LookupTable,
        x_var: int,
        x_value: int,
        tag: str = "lut",
        index: int = -1,
        input_ranged: bool = True,
        bits_cost: Optional[int] = None,
    ) -> int:
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
        if table.registry_name == "relu":
            return 18 if self.mode == "strict" else 1
        return table.size + 3 if self.mode == "strict" else 3

    def _range_proof(
        self, st: _TableState, table: LookupTable, x_var: int, x_value: int,
        tag: str,
    ) -> Tuple[Tuple[int, ...], int]:
        cs = self.cs
        bits = table.domain_bits
        shifted = int(x_value) - table.domain_lo
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

    def finalize(self, mark=None) -> List[LookupBlock]:
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
            counts[x_val - table.domain_lo] += 1
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

        h_vals, g_vals = _logup_fractions(
            cs.field, alpha, pairs, packed_rows, counts, table.name
        )
        for h_var, h_val in zip(block.h_vars, h_vals):
            cs.assign(h_var, h_val)

        for j, row in enumerate(packed_rows):
            denom = (alpha - row) % p
            g_var = cs.new_private(g_vals[j])
            self._log(g_var, table.name)
            a = cs.lc()
            if self.mode == "strict":
                a.add_term(block.alpha_var, 1)
                if row % p:
                    a.add_term(0, (-row) % p)
            else:
                a.add_term(0, denom)
            cs.enforce(
                a, cs.lc_variable(g_var), cs.lc_variable(m_vars[j]),
                tag=f"lookup:{table.name}/row",
            )
            block.g_vars.append(g_var)
            block.g_constraints.append(cs.num_constraints - 1)

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
        counter.field_add += counter.lc_term - tallied
        cs.allocate([None] * len(sponge.wires))
        if self.recipe is not None:
            self.recipe.extend((var, ("lut", name)) for var in sponge.wires)
        cs.enforce_rows(rows.block())
        return mimc.replay(cs, sponge, seed)

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


# -- the one-hot selectors of the bits path ------------------------------------


def lut_onehot(
    cs, table, x_var: int, x_val: int, out_val: int, tag: str, index: int,
    strict: bool, recipe: Optional[list],
) -> int:
    """``CircuitComputer._lut_onehot``: one indicator per table row
    (boolean in strict mode), a sum-to-one check, a recomposition binding
    the indicators to the input (its zero coefficient skipped, but
    tallied), and a linear output selection."""
    j = int(x_val) - table.domain_lo
    table.lookup(x_val)  # raises out-of-domain (reject, don't wrap)
    one = cs.lc_constant(1)
    sum_lc = cs.lc()
    reco_lc = cs.lc()
    out_lc = cs.lc()
    for v in range(table.size):
        b = cs.new_private(1 if v == j else 0)
        if recipe is not None:
            recipe.append((b, ("sel_bit", tag, index, v)))
        if strict:
            b_lc = cs.lc_variable(b)
            cs.enforce(b_lc, b_lc - one, cs.lc(), tag=f"{tag}/sel_bool")
        sum_lc.add_term(b, 1)
        if table.domain_lo + v:
            reco_lc.add_term(b, table.domain_lo + v)
        else:
            global_counter().lc_term += 1
        y = int(table.entries[v])
        if y:
            out_lc.add_term(b, y)
    cs.enforce_equal(sum_lc, one, tag=f"{tag}/sel_one")
    cs.enforce_equal(reco_lc, cs.lc_variable(x_var), tag=f"{tag}/sel_in")
    out_var = cs.new_private(out_val)
    if recipe is not None:
        recipe.append((out_var, ("sel_out", tag, index)))
    cs.enforce_equal(out_lc, cs.lc_variable(out_var), tag=f"{tag}/sel_out")
    return out_var


def embed_onehot(
    cs, table, id_var: int, id_val: int, tag: str, t: int, strict: bool,
    recipe: Optional[list],
) -> list:
    """``CircuitComputer._compute_embed``'s selector for token ``t``: one
    indicator per vocabulary row shared by all ``d`` output columns of
    ``table`` (a ``(vocab, d)`` array)."""
    vocab, d = table.shape
    one = cs.lc_constant(1)
    sum_lc = cs.lc()
    reco_lc = cs.lc()
    sel = []
    for v in range(vocab):
        b = cs.new_private(1 if v == id_val else 0)
        if recipe is not None:
            recipe.append((b, ("sel_bit", tag, t, v)))
        if strict:
            b_lc = cs.lc_variable(b)
            cs.enforce(b_lc, b_lc - one, cs.lc(), tag=f"{tag}/sel_bool")
        sum_lc.add_term(b, 1)
        if v:
            reco_lc.add_term(b, v)
        sel.append(b)
    cs.enforce_equal(sum_lc, one, tag=f"{tag}/sel_one")
    cs.enforce_equal(reco_lc, cs.lc_variable(int(id_var)), tag=f"{tag}/sel_in")
    out_vars = []
    for j in range(d):
        out_lc = cs.lc()
        for v in range(vocab):
            w = int(table[v, j])
            if w:
                out_lc.add_term(sel[v], w)
        out_var = cs.new_private(int(table[id_val, j]))
        if recipe is not None:
            recipe.append((out_var, ("sel_out", tag, t * d + j)))
        cs.enforce_equal(out_lc, cs.lc_variable(out_var), tag=f"{tag}/sel_out")
        out_vars.append(out_var)
    return out_vars
