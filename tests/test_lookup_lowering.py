"""Table lowerings a layer at a time.

The array ``LookupEngine.lookup`` + ``finalize`` and
``GadgetEmitter.select_rows`` against the per-element oracles in
``tests/lookup_oracle.py`` — rows in order with their tags, the witness,
the recipe, the ``LookupReport``, the blocks and the op tallies — over
lean and strict, ranged and raw inputs, a wire repeated within a call and
across calls, several tables, calls of 0, 1 and k elements, one and
several output columns, and out-of-domain inputs.
"""

import numpy as np
import pytest

from repro.core.circuit.gadgets import GadgetEmitter
from repro.field.counters import count_ops
from repro.lookup import get_table
from repro.lookup.argument import (
    LookupEngine,
    assign_lookup_columns,
    reassign_lookup_columns,
)
from repro.lookup.table import LookupTable
from repro.r1cs.recipe import mirror, replay
from repro.r1cs.system import ConstraintSystem
from tests import lookup_oracle
from tests.replay_oracle import named

# Input wire values: in every table's domain below (ids 0..3 included).
WIRES = [3, -7, 0, 1, 2, 200, -128, 3]


def embedding(j: int) -> LookupTable:
    """One output column of a 4-token embedding: signed entries, a zero."""
    return LookupTable(
        name=f"emb.d{j}", domain_lo=0,
        entries=(10 + j, 0, -20 - j, 30 * j), y_bias=128,
    )


# Calls as (table, wire positions, input_ranged, bits_cost).
CALLS = {
    "one": [(get_table("relu"), [1], True, None)],
    "empty-then-k": [
        (get_table("relu"), [], True, None),
        (get_table("gelu"), [], False, None),
        (get_table("relu"), [0, 1, 2, 5, 6], True, None),
    ],
    "repeated-within": [
        (get_table("relu"), [0, 1, 0, 2, 1, 0, 7, 3, 3], False, None),
    ],
    "repeated-across": [
        (get_table("relu"), [0, 1, 2], False, None),
        (get_table("relu"), [2, 0, 4], False, None),
        (get_table("relu"), [2, 5], True, None),
    ],
    "tables": [
        (get_table("relu"), [0, 1, 5], True, None),
        (embedding(0), [0, 2, 3, 4, 0], False, 3),
        (get_table("gelu"), [1, 6, 1], False, None),
        (embedding(1), [4, 3, 2, 0, 7], False, 3),
        (get_table("relu"), [6, 0], False, None),
        (get_table("rsqrt"), [4], True, None),
    ],
}


def _rows(cs):
    return [
        (con.tag, *(sorted(lc.terms.items()) for lc in (con.a, con.b, con.c)))
        for con in cs.constraints
    ]


def _witness(cs):
    return [cs.value_of(v) for v in range(-cs.num_public, cs.num_private + 1)]


def _block(block):
    return {
        name: getattr(block, name)
        for name in (
            "table_name", "alpha_var", "alpha_const", "x_vars", "y_vars",
            "h_vars", "h_constraints", "m_vars", "g_vars", "g_constraints",
            "sum_constraint", "xbits", "sponge",
        )
    }


def lookup_system(engine_class, mode, calls, values=WIRES):
    cs = ConstraintSystem(name="lookups")
    recipe = []
    with count_ops() as ops:
        engine = engine_class(cs, mode=mode, recipe=recipe)
        first = cs.allocate(values)
        outs = []
        for k, (table, at, ranged, cost) in enumerate(calls):
            outs += list(engine.lookup(
                table, [first + i for i in at], [values[i] for i in at],
                tag=f"c{k}", first_index=k, input_ranged=ranged,
                bits_cost=cost,
            ))
        blocks = engine.finalize(cs.mark_layer) if engine.active else []
    return cs, engine, recipe, ops.snapshot(), outs, blocks


class TestLookupParity:
    @pytest.mark.parametrize("mode", ["lean", "strict"])
    @pytest.mark.parametrize("calls", sorted(CALLS))
    def test_matches_the_per_element_engine(self, mode, calls):
        got = lookup_system(LookupEngine, mode, CALLS[calls])
        want = lookup_system(lookup_oracle.ScalarLookupEngine, mode, CALLS[calls])
        cs, engine, recipe, ops, outs, blocks = got
        theirs, oracle, their_recipe, their_ops, their_outs, their_blocks = want
        assert _rows(cs) == _rows(theirs)
        assert _witness(cs) == _witness(theirs)
        assert named(recipe, blocks=blocks) == named(their_recipe)
        assert ops == their_ops
        assert [int(v) for v in outs] == their_outs
        assert cs.layer_ranges == theirs.layer_ranges
        assert engine.report().to_json() == oracle.report().to_json()
        assert [_block(b) for b in blocks] == [_block(b) for b in their_blocks]
        assert cs.is_satisfied()

    @pytest.mark.parametrize("mode", ["lean", "strict"])
    def test_replay_is_a_fresh_build(self, mode):
        """The one witness function, driven by the batch replay on new
        inputs, writes what building on them writes."""
        calls = CALLS["tables"]
        cs, _, steps, *_ = lookup_system(LookupEngine, mode, calls)
        moved = [1, 3, 2, 0, 3, -90, 255, 1]
        z = mirror(cs)
        z[1:1 + len(moved)] = moved
        replay(cs, steps, z)
        reassign_lookup_columns(cs)
        fresh, *_ = lookup_system(
            lookup_oracle.ScalarLookupEngine, mode, calls, values=moved
        )
        assert _witness(cs) == _witness(fresh)
        assert cs.is_satisfied()

    def test_out_of_domain_raises_before_allocating(self):
        for engine_class in (LookupEngine, lookup_oracle.ScalarLookupEngine):
            cs = ConstraintSystem()
            engine = engine_class(cs, mode="strict")
            x = cs.allocate([5, 300])
            with pytest.raises(ValueError, match="rejected, not wrapped"):
                engine.lookup(get_table("relu"), [x, x + 1], [5, 300])
        # the oracle emitted the in-domain lookup first; the engine nothing
        assert cs.num_constraints > 0
        cs = ConstraintSystem()
        engine = LookupEngine(cs, mode="strict")
        x = cs.allocate([5, 300])
        with pytest.raises(ValueError, match=r"t\[8\].*300"):
            engine.lookup(get_table("relu"), [x, x + 1], [5, 300], "t", 7)
        assert (cs.num_private, cs.num_constraints) == (2, 0)
        assert not engine.active

    def test_assign_lookup_columns_is_the_only_witness_writer(self):
        """Blank every column a block derives from its challenge, re-run
        its witness function, and the system is whole again."""
        cs, engine, _, _, _, blocks = lookup_system(
            LookupEngine, "strict", CALLS["tables"]
        )
        before = _witness(cs)
        for block in blocks:
            for var in block.h_vars + block.m_vars + block.g_vars + [
                *block.sponge.wires, block.alpha_var,
            ]:
                cs.assign(var, 0)
        for block in blocks:
            assign_lookup_columns(cs, block)
        assert _witness(cs) == before


# -- the one-hot selector -----------------------------------------------------

TABLES = {
    "rsqrt": get_table("rsqrt"),  # domain from 0
    "small": LookupTable(
        name="small", domain_lo=-2, entries=(5, 0, -1, 7, 0), y_bias=1
    ),
    "positive": LookupTable(name="positive", domain_lo=1, entries=(4, 0, 9)),
}
INPUTS = {0: [], 1: [1], 3: [2, 1, 2]}


def select_system(mode, table, n, emit):
    """``n`` inputs in ``table``'s domain, one selection of each."""
    cs = ConstraintSystem()
    em = GadgetEmitter(cs, mode=mode, recipe=[])
    values = [table.domain_lo + i for i in INPUTS[n]]
    first = cs.allocate(values)
    with count_ops() as ops:
        outs = emit(em, list(range(first, first + n)), values)
    return cs, em, ops.snapshot(), [int(v) for v in np.ravel(outs)]


class TestSelectParity:
    @pytest.mark.parametrize("mode", ["lean", "strict"])
    @pytest.mark.parametrize("name", sorted(TABLES))
    @pytest.mark.parametrize("n", sorted(INPUTS))
    def test_one_column_matches_the_lut_selector(self, mode, name, n):
        table = TABLES[name]
        got = select_system(
            mode, table, n, lambda em, xs, vals: em.select_rows(
                xs, vals, table.domain_lo,
                np.asarray(table.entries)[:, None], "lut", 4,
            ),
        )
        want = select_system(
            mode, table, n, lambda em, xs, vals: [
                lookup_oracle.lut_onehot(
                    em.cs, table, x, v, table.lookup(v), "lut", 4 + k,
                    mode == "strict", em.recipe,
                )
                for k, (x, v) in enumerate(zip(xs, vals))
            ],
        )
        (cs, em, ops, outs), (theirs, oracle, their_ops, their_outs) = got, want
        assert _rows(cs) == _rows(theirs)
        assert _witness(cs) == _witness(theirs)
        assert named(em.recipe) == named(oracle.recipe)
        assert outs == their_outs
        # The oracle tallies its recomposition's zero coefficient, which
        # neither stores; CircuitComputer adds that tally back.
        zero = table.domain_lo <= 0 <= table.domain_hi
        assert their_ops["lc_term"] - ops["lc_term"] == n * zero
        ops["lc_term"] = their_ops["lc_term"]
        assert ops == their_ops
        assert cs.is_satisfied()

    @pytest.mark.parametrize("mode", ["lean", "strict"])
    @pytest.mark.parametrize("n", sorted(INPUTS))
    def test_columns_match_the_embedding_selector(self, mode, n):
        columns = np.array([[1, 0, -3], [0, 0, 2], [4, -5, 0], [7, 1, 1],
                            [0, 2, 0]])
        ids = {0: [], 1: [3], 3: [0, 4, 0]}[n]

        def emit(oracle):
            cs = ConstraintSystem()
            em = GadgetEmitter(cs, mode=mode, recipe=[])
            first = cs.allocate(ids)
            with count_ops() as ops:
                if oracle:
                    outs = [
                        lookup_oracle.embed_onehot(
                            cs, columns, first + t, v, "emb", t,
                            mode == "strict", em.recipe,
                        )
                        for t, v in enumerate(ids)
                    ]
                else:
                    outs = em.select_rows(
                        range(first, first + n), ids, 0, columns, "emb"
                    )
            return cs, em.recipe, ops.snapshot(), np.ravel(outs).tolist()

        (cs, recipe, ops, outs), want = emit(False), emit(True)
        theirs, their_recipe, their_ops, their_outs = want
        assert _rows(cs) == _rows(theirs)
        assert _witness(cs) == _witness(theirs)
        assert (named(recipe), ops, outs) == (
            named(their_recipe), their_ops, their_outs
        )
        assert cs.is_satisfied()

    def test_out_of_domain_raises_before_allocating(self):
        cs = ConstraintSystem()
        em = GadgetEmitter(cs, mode="strict", recipe=[])
        first = cs.allocate([0, 6])
        table = TABLES["small"]
        with pytest.raises(ValueError, match=r"lut\[3\] = 6"):
            em.select_rows(
                [first, first + 1], [0, 6], table.domain_lo,
                np.asarray(table.entries)[:, None], "lut", 2,
            )
        assert (cs.num_private, cs.num_constraints, em.recipe) == (2, 0, [])
