"""Tests for privacy-aware knit encoding (§4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.circuit.gadgets import lc_entries
from repro.core.privacy.knit import KnitPacker, expression_bits, knit_batch_size
from repro.core.reuse.cache import CacheService
from repro.r1cs.system import ConstraintSystem
from tests.conftest import no_derivation


class TestBatchSizeSelection:
    def test_paper_example(self):
        """§4.2: b_in=8, b_out=254, n=1024 -> s=9."""
        assert knit_batch_size(1024) == 9

    def test_small_vectors_pack_more(self):
        assert knit_batch_size(4) > knit_batch_size(4096)

    def test_never_below_one(self):
        assert knit_batch_size(10**9, b_in=100, b_out=64) == 1

    def test_expression_bits_formula(self):
        assert expression_bits(1024) == 2 * 8 + 11
        assert expression_bits(1) == 2 * 8 + 1

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=30)
    def test_property_no_overflow(self, n):
        """s expressions of (2b+log n) bits always fit in the field."""
        s = knit_batch_size(n)
        assert s * expression_bits(n) <= 254


def push_all(packer, exprs, slot_bits):
    """The LCs ``exprs`` through one ``push_many``; the rows they
    complete are enforced."""
    entries = [lc_entries(expr) for expr in exprs]
    block, _ = packer.push_many(
        np.concatenate([e + k for k, (e, _, _) in enumerate(entries)]),
        np.concatenate([cols for _, cols, _ in entries]),
        np.concatenate([coeffs for _, _, coeffs in entries]),
        len(exprs), slot_bits,
    )
    packer.cs.enforce_rows(block, packer.row_tag)


def push(packer, expr, slot_bits):
    push_all(packer, [expr], slot_bits)


def zero_expr(cs, magnitude):
    """An LC that evaluates to zero: v - v with v committed."""
    var = cs.new_private(magnitude)
    lc = cs.lc_variable(var)
    lc.add_term(0, -magnitude % cs.field.modulus)
    return lc


class TestKnitPacker:
    def test_packs_up_to_capacity(self):
        cs = ConstraintSystem()
        packer = KnitPacker(cs)
        for i in range(10):
            push(packer, zero_expr(cs, i + 1), slot_bits=24)
        packer.flush()
        # capacity = 254 // 26 = 9 -> 10 expressions need 2 constraints
        assert packer.constraints_emitted == 2
        assert packer.expressions_packed == 10
        assert cs.is_satisfied()

    def test_forced_batch_size(self):
        cs = ConstraintSystem()
        packer = KnitPacker(cs, batch_size=3)
        for i in range(7):
            push(packer, zero_expr(cs, i), slot_bits=24)
        packer.flush()
        assert packer.constraints_emitted == 3  # ceil(7/3)

    def test_bound_change_flushes(self):
        """Expressions with different bounds never share a constraint."""
        cs = ConstraintSystem()
        packer = KnitPacker(cs)
        push(packer, zero_expr(cs, 1), slot_bits=20)
        push(packer, zero_expr(cs, 2), slot_bits=30)  # different bound
        packer.flush()
        assert packer.constraints_emitted == 2

    def test_flush_idempotent(self):
        cs = ConstraintSystem()
        packer = KnitPacker(cs)
        packer.flush()
        assert packer.constraints_emitted == 0
        push(packer, zero_expr(cs, 5), slot_bits=24)
        packer.flush()
        packer.flush()
        assert packer.constraints_emitted == 1

    def test_saving_ratio(self):
        cs = ConstraintSystem()
        packer = KnitPacker(cs, batch_size=4)
        for i in range(8):
            push(packer, zero_expr(cs, i), slot_bits=24)
        packer.flush()
        assert packer.saving_ratio() == 4.0

    def test_soundness_nonzero_expression_caught(self):
        """A packed constraint still rejects any nonzero expression."""
        cs = ConstraintSystem()
        packer = KnitPacker(cs)
        v1 = cs.new_private(10)
        bad = cs.lc_variable(v1)
        bad.add_term(0, (-9) % cs.field.modulus)  # v1 - 9 != 0
        push(packer, bad, slot_bits=24)
        good = zero_expr(cs, 3)
        push(packer, good, slot_bits=24)
        packer.flush()
        assert not cs.is_satisfied()

    def test_cancellation_across_slots_requires_huge_values(self):
        """Offsetting slot j by +delta and slot j+1 by -1 'cancels' — but
        only with values beyond the declared bit bound, which strict range
        gadgets exclude.  Within bounds, packing is binding."""
        cs = ConstraintSystem()
        packer = KnitPacker(cs, batch_size=2)
        delta = 1 << (24 + 2)  # slot_bits + safety
        v = cs.new_private(delta)
        e1 = cs.lc_variable(v)  # evaluates to +delta (out of bound)
        e2 = cs.lc_constant((-1) % cs.field.modulus)  # evaluates to -1
        push(packer, e1, slot_bits=24)
        push(packer, e2, slot_bits=24)
        packer.flush()
        # The packed sum is delta * 1 + (-1) * delta = 0: satisfied, i.e.
        # the attack needs a value of magnitude >= delta — 2^26 > any honest
        # 24-bit-bounded witness.
        assert cs.is_satisfied()
        assert delta > (1 << 24)

    def test_cache_attached(self):
        """With the cache attached, packing builds no coefficient, and the
        rows are those packed without it."""
        systems = []
        with no_derivation():
            for cache in (CacheService(), None):
                cs = ConstraintSystem()
                packer = KnitPacker(cs, cache=cache)
                # several batches in one push, and an open row flushed
                push_all(
                    packer, [zero_expr(cs, 7) for _ in range(30)],
                    slot_bits=24,
                )
                packer.flush()
                systems.append(cs)
        cached, plain = systems
        assert cached.num_constraints == plain.num_constraints > 1
        assert [
            (c.tag, c.a.terms, c.b.terms, c.c.terms)
            for c in cached.constraints
        ] == [
            (c.tag, c.a.terms, c.b.terms, c.c.terms)
            for c in plain.constraints
        ]
        assert cached.is_satisfied()

    def test_counts_free_operations(self):
        """Knit arithmetic is coefficient work, never new constraints
        beyond the one equality per batch."""
        cs = ConstraintSystem()
        packer = KnitPacker(cs, batch_size=9)
        for i in range(9):
            push(packer, zero_expr(cs, i), slot_bits=24)
        packer.flush()
        assert cs.num_constraints == 1
