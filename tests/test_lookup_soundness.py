"""Soundness suite for the LogUp lookup argument.

A cheating prover must not be able to (a) claim an (x, y) pair outside
the table, (b) tamper with the multiplicity column, or (c) prove against
a permuted/edited table column.  Strict mode defeats all three (the
in-circuit challenge commits to the multiset); lean mode is *documented*
unsound and one test demonstrates the actual attack as a negative
control.  Cross-backend proof byte-identity pins the whole lookup proving
path to a single canonical output.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lookup import get_table
from repro.lookup.argument import LookupEngine, verify_lookup_block
from repro.lookup.table import PACK_BASE, LookupTable
from repro.r1cs.system import ConstraintSystem

from tests.test_lookup_argument import emit_lookups
from tests.tamper import tampered


def _replay_cheat(cs, block, pairs):
    """Recompute sponge/h/g/m the way a consistent cheater would, given the
    (possibly tampered) packed pairs currently claimed by x/y wires."""
    from repro.lookup.argument import sponge_seed
    from repro.r1cs import mimc

    p = cs.field.modulus
    size = len(block.packed_entries)
    counts = [0] * size
    for packed in pairs:
        j = packed % PACK_BASE
        if 0 <= j < size:
            counts[j] += 1
    for m_var, c in zip(block.m_vars, counts):
        cs.assign(m_var, c)
    alpha = mimc.replay(cs, block.sponge, sponge_seed(block.table_name))
    for h_var, packed in zip(block.h_vars, pairs):
        cs.assign(h_var, pow((alpha - packed) % p, p - 2, p))
    for g_var, row, c in zip(block.g_vars, block.packed_entries, counts):
        cs.assign(g_var, (c * pow((alpha - row) % p, p - 2, p)) % p)


class TestOutOfTablePairs:
    @settings(max_examples=12, deadline=None)
    @given(
        delta=st.integers(min_value=1, max_value=200),
        which=st.integers(min_value=0, max_value=2),
    )
    def test_tampered_output_rejected_strict(self, delta, which):
        """Claiming y' = T[x] + delta is not satisfiable in strict mode,
        even when every derived column is recomputed consistently."""
        xs = [-5, 17, 130]
        cs, block, y_vars = emit_lookups(xs, mode="strict")
        relu = get_table("relu")
        pairs = [relu.pack(x, relu.lookup(x)) for x in xs]
        y_bad = relu.lookup(xs[which]) + delta
        cs.assign(y_vars[which], y_bad % cs.field.modulus)
        pairs[which] = relu.pack(xs[which], y_bad)
        _replay_cheat(cs, block, pairs)
        assert not cs.is_satisfied()

    def test_lean_mode_is_cheatable(self):
        """Negative control: with a fixed challenge the multiplicity column
        is a free linear system — the documented lean-mode attack works."""
        xs = [3, 8]
        cs, block, y_vars = emit_lookups(xs, mode="lean")
        p = cs.field.modulus
        relu = get_table("relu")
        alpha = block.alpha_const
        # Claim relu(3) = 99 (out of table) and rebalance m_0/g_0.
        bad_pair = relu.pack(3, 99)
        cs.assign(y_vars[0], 99)
        h_bad = pow((alpha - bad_pair) % p, p - 2, p)
        old_h = pow((alpha - relu.pack(3, relu.lookup(3))) % p, p - 2, p)
        cs.assign(block.h_vars[0], h_bad)
        # Fix the sum check by shifting multiplicity mass onto row 0.
        row0 = block.packed_entries[0]
        denom0 = (alpha - row0) % p
        delta_m = (h_bad - old_h) * denom0 % p
        m0 = (cs.value_of(block.m_vars[0]) + delta_m) % p
        cs.assign(block.m_vars[0], m0)
        cs.assign(block.g_vars[0], m0 * pow(denom0, p - 2, p) % p)
        # Also remove the honest count of row (3 -> 3) pair.
        assert cs.is_satisfied(), "lean-mode attack should succeed"


class TestTamperedMultiplicities:
    @settings(max_examples=10, deadline=None)
    @given(j=st.integers(min_value=0, max_value=511), delta=st.integers(1, 5))
    def test_bumped_multiplicity_rejected_strict(self, j, delta):
        """m_j += delta with the matching g_j fix-up still fails: either the
        sponge (alpha absorbs m) or the sum check breaks."""
        cs, block, _ = emit_lookups([1, 2, 250], mode="strict")
        p = cs.field.modulus
        alpha = cs.value_of(block.alpha_var)
        m_new = (cs.value_of(block.m_vars[j]) + delta) % p
        cs.assign(block.m_vars[j], m_new)
        denom = (alpha - block.packed_entries[j]) % p
        cs.assign(block.g_vars[j], m_new * pow(denom, p - 2, p) % p)
        assert not cs.is_satisfied()

    def test_bumped_multiplicity_without_g_fixup_rejected(self):
        cs, block, _ = emit_lookups([1, 2], mode="strict")
        cs.assign(block.m_vars[7], (cs.value_of(block.m_vars[7]) + 1))
        assert not cs.is_satisfied()


class TestPermutedTableColumn:
    def test_permuted_registry_table_caught_by_audit(self):
        """A builder proving against a permuted 'relu' column produces a
        satisfiable circuit — for the WRONG function.  The structural
        check rejects it against the canonical registry table."""
        canonical = get_table("relu")
        entries = list(canonical.entries)
        entries[300], entries[400] = entries[400], entries[300]
        permuted = LookupTable(
            name="relu8",
            domain_lo=canonical.domain_lo,
            entries=tuple(entries),
            registry_name="relu",
        )
        cs = ConstraintSystem()
        engine = LookupEngine(cs, mode="strict")
        x_val = canonical.domain_lo + 300
        engine.lookup(permuted, [cs.new_private(x_val)], [x_val])
        block = engine.finalize()[0]
        assert cs.is_satisfied()  # internally consistent ...
        defect = verify_lookup_block(cs, block)
        assert defect is not None  # ... but not the canonical table
        assert "canonical" in defect

    def test_edited_row_constraint_caught(self):
        """Tampering one emitted table-row constraint (post-build) breaks
        the structural check even with consistent block metadata."""
        cs, block, _ = emit_lookups([5], mode="strict")
        con = cs.constraints[block.g_constraints[3]]
        con.a.add_term(0, 1)  # shift the packed row constant
        cs = tampered(cs, replace={block.g_constraints[3]: con})
        defect = verify_lookup_block(cs, block)
        assert defect is not None
        assert "row" in defect or "permuted" in defect


class TestCrossBackendIdentity:
    def test_lookup_proof_bytes_identical_across_backends(self, monkeypatch):
        from repro.snark import qap

        numpy_proof = self._prove_bytes()
        monkeypatch.setattr(qap, "_VECTOR_NTT_MIN", 1 << 30)  # scalar only
        scalar_proof = self._prove_bytes()
        assert scalar_proof == numpy_proof

    @staticmethod
    def _prove_bytes() -> bytes:
        from repro.snark import groth16
        from repro.snark.serialize import serialize_proof

        cs, _, _ = emit_lookups([-9, 0, 77, 128], mode="strict")
        setup = groth16.setup(cs, rng=random.Random(5))
        proof = groth16.prove(setup.proving_key, cs, rng=random.Random(6))
        assert groth16.verify(setup.verifying_key, cs.public_values(), proof)
        return serialize_proof(proof)
