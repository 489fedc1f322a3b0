"""Tests for the LogUp lookup argument lowering (`repro.lookup.argument`)."""

import pytest

from repro.lookup import get_table
from repro.lookup.argument import (
    LookupEngine,
    LookupError,
    lean_alpha,
    reassign_lookup_columns,
    round_constants,
    verify_lookup_block,
)
from repro.lookup.table import LookupTable
from repro.r1cs.recipe import mirror, replay
from repro.r1cs.system import ConstraintSystem


def emit_lookups(
    xs, mode="strict", table_name="relu", input_ranged=True, steps=None
):
    """One engine, one table, one lookup call over xs (recording its
    witness recipe into ``steps``); returns (cs, block, y_vars)."""
    cs = ConstraintSystem(name=f"lookup-{mode}")
    engine = LookupEngine(cs, mode=mode, recipe=steps)
    first = cs.allocate([int(x) for x in xs])
    y_vars = engine.lookup(
        get_table(table_name), range(first, first + len(xs)), xs, tag="t",
        input_ranged=input_ranged,
    ).tolist()
    blocks = engine.finalize(cs.mark_layer)
    return cs, blocks[0], y_vars


class TestArgumentSatisfied:
    @pytest.mark.parametrize("mode", ["lean", "strict"])
    def test_honest_witness_satisfies(self, mode):
        cs, block, y_vars = emit_lookups([-3, 0, 5, 5, 200], mode=mode)
        assert cs.is_satisfied()
        relu = get_table("relu")
        for y_var, x in zip(y_vars, [-3, 0, 5, 5, 200]):
            assert cs.value_of(y_var) == relu.lookup(x)

    def test_verify_block_accepts_canonical_lowering(self):
        for mode in ("lean", "strict"):
            cs, block, _ = emit_lookups([1, 2, 3], mode=mode)
            assert verify_lookup_block(cs, block) is None

    def test_finalize_marks_pseudo_layer(self):
        cs, block, _ = emit_lookups([7])
        assert any(tag.startswith("lookup:relu8") for tag in cs.layer_ranges)

    def test_out_of_domain_input_rejected_at_build(self):
        cs = ConstraintSystem()
        engine = LookupEngine(cs, mode="lean")
        x = cs.new_private(400)
        with pytest.raises(ValueError, match="rejected, not wrapped"):
            engine.lookup(get_table("relu"), [x], [400])

    def test_double_finalize_rejected(self):
        cs, _, _ = emit_lookups([1])
        engine = LookupEngine(cs, mode="lean")
        engine.finalize()
        with pytest.raises(LookupError, match="finalized"):
            engine.finalize()


class TestAmortization:
    def test_marginal_lookup_costs_one_constraint(self):
        """The shared column amortizes: each extra lookup adds exactly one
        membership constraint (strict, inputs already ranged), plus one
        3-constraint sponge round per 7 lookups.  Compare with the
        513-constraint one-hot selector it replaces."""
        cs1, _, _ = emit_lookups([5], mode="strict")
        cs9, _, _ = emit_lookups([5, 1, 2, 3, 4, 6, 7, 8, 9], mode="strict")
        # 8 membership constraints + one extra absorb round (9 pairs -> 2
        # chunks of <=7 vs 1).
        assert cs9.num_constraints - cs1.num_constraints == 8 + 3

    def test_shared_input_range_proof(self):
        """Per-dimension embedding tables over one id wire share a single
        bit decomposition."""
        cs = ConstraintSystem()
        engine = LookupEngine(cs, mode="strict")
        x = cs.new_private(3)
        tables = [
            LookupTable(name=f"emb.d{j}", domain_lo=0,
                        entries=(10 + j, 20 + j, 30 + j, 40 + j))
            for j in range(4)
        ]
        for t in tables:
            engine.lookup(t, [x], [3], input_ranged=False)
        blocks = engine.finalize()
        assert cs.is_satisfied()
        proofs = {b.xbits[x][1] for b in blocks if x in b.xbits}
        assert len(proofs) == 1  # one recompose constraint serves all four

    def test_report_accounts_constraints(self):
        cs = ConstraintSystem()
        engine = LookupEngine(cs, mode="strict")
        relu = get_table("relu")
        first = cs.allocate(range(6))
        engine.lookup(relu, range(first, first + 6), range(6))
        engine.finalize()
        rep = engine.report()
        assert rep.total_lookups == 6
        assert rep.tables[0]["table"] == "relu8"
        # Column + sponge dominate at this size; the constraint count in
        # the report must match what actually landed in the system.
        assert rep.total_lookup_constraints == cs.num_constraints
        assert rep.to_json()["constraints_saved"] == rep.constraints_saved

    def test_conflicting_table_name_rejected(self):
        cs = ConstraintSystem()
        engine = LookupEngine(cs, mode="lean")
        a = LookupTable(name="dup", domain_lo=0, entries=(1, 2))
        b = LookupTable(name="dup", domain_lo=0, entries=(3, 4))
        engine.lookup(a, [cs.new_private(0)], [0])
        with pytest.raises(LookupError, match="two different tables"):
            engine.lookup(b, [cs.new_private(1)], [1])


class TestChallengeDerivation:
    def test_round_constants_domain_separated(self):
        p = ConstraintSystem().field.modulus
        assert round_constants("relu8", 3, p) != round_constants("gelu8", 3, p)
        assert lean_alpha("relu8", p) != lean_alpha("gelu8", p)

    def test_strict_alpha_is_sponge_output(self):
        cs, block, _ = emit_lookups([1, 2], mode="strict")
        assert block.alpha_var is not None
        assert block.sponge.out == block.alpha_var
        assert cs.value_of(block.alpha_var) is not None

    def test_alpha_changes_with_multiset(self):
        """The in-circuit challenge commits to the lookups: a different
        multiset yields a different alpha."""
        cs_a, block_a, _ = emit_lookups([1, 2], mode="strict")
        cs_b, block_b, _ = emit_lookups([1, 3], mode="strict")
        assert (
            cs_a.value_of(block_a.alpha_var)
            != cs_b.value_of(block_b.alpha_var)
        )


class TestReplay:
    def test_reassign_recomputes_columns(self):
        steps = []
        cs, block, y_vars = emit_lookups([4, 9], mode="strict", steps=steps)
        relu = get_table("relu")
        # Re-point the inputs at new in-domain values and replay.
        z = mirror(cs)
        z[block.x_vars] = [-7, 42]
        replay(cs, steps, z)
        reassign_lookup_columns(cs)
        assert cs.is_satisfied()
        assert cs.value_of(y_vars[0]) == relu.lookup(-7)
        assert cs.value_of(y_vars[1]) == relu.lookup(42)

    def test_reassign_rejects_out_of_domain(self):
        cs, block, _ = emit_lookups([4], mode="strict")
        cs.assign(block.x_vars[0], 300)
        with pytest.raises(LookupError, match="rejected"):
            reassign_lookup_columns(cs)
