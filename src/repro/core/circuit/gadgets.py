"""Shared constraint gadgets: output commitment with requantization, ReLU.

These gadgets are identical under both IRs ("on the ReLU layer, ZENO shares
the same circuit as scalar-level zkSNARK frameworks", §5.1) and under every
optimization toggle, so speedup measurements isolate the paper's
contributions.

Two gadget budgets are provided (see DESIGN.md):

* ``"lean"``   — the paper's accounting: each layer output costs one
  equality check (Eq. 2/3), with the power-of-two requantization folded
  into that same linear identity; ReLU costs one multiplication
  constraint with a committed sign bit.  This matches the constraint
  counts the paper's figures are built on.
* ``"strict"`` — additionally emits booleanity and bit-decomposition
  range checks (remainder bits, output range, ReLU sign proof), the way a
  fully sound deployment (ZEN's scheme) would.  Used by soundness tests
  and available to every example via one flag.

Each gadget's witness arithmetic is one value function —
:func:`commit_values`, :func:`relu_values`, :func:`select_values` — run by
its emitter at compile time and, when a ``recipe`` list is supplied,
recorded with the call's inputs as one :class:`repro.r1cs.recipe.Step`, so
batch-specialized constraint-system sharing (§6.1) re-assigns the witness
for a new image by the same function, without regenerating a single
constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.core.privacy.knit import KnitPacker, pack_slots
from repro.field.counters import global_counter
from repro.r1cs.lc import (
    ONE,
    LinearCombination,
    RowBlock,
    RowSide,
    distinct_rows,
)
from repro.r1cs.recipe import Step, product_step, wire_step
from repro.r1cs.system import ConstraintSystem

# Signed activations after requantization stay in [-255, 255] (calibrated);
# the strict range proof shifts by this offset to decompose non-negatively.
RANGE_OFFSET = 256
RANGE_BITS = 10


@dataclass
class GadgetStats:
    """Constraint bookkeeping per gadget class (feeds the figures)."""

    equality_constraints: int = 0
    relu_constraints: int = 0
    range_constraints: int = 0
    committed_wires: int = 0
    shared_outputs: int = 0
    shared_relus: int = 0


# Sharing keys are computed only for LCs at most this many terms wide: the
# shareable shapes (zero-row constants, BN affines, residual adds, ReLU
# inputs) are all 1-3 terms, while full conv dots — which sort-key in
# O(n log n) and essentially never collide — are skipped.
_SHARE_MAX_TERMS = 4


def identity_bits(slot_bits: int, shift: int) -> int:
    """Honest-value bound of ``acc - out * 2^shift - rem``: the accumulator
    LC (``slot_bits``), the shifted output (8 + ``shift`` bits), and the
    remainder — the slot width its knit row needs."""
    return max(slot_bits, 8 + shift) + 1


def _widths(shift: int, strict: bool, public: bool) -> Tuple[int, int]:
    """Remainder wires and range bits of one output commitment."""
    rem_width = (shift if strict else 1) if shift else 0
    return rem_width, RANGE_BITS if strict and not public else 0


def commit_values(
    acc, shift: int, strict: bool, public: bool, tag: str, indices
):
    """What one output commitment writes per accumulator, one row each: the
    output ``acc >> shift``, its remainder wires — one ``rem`` (lean) or
    ``shift`` bits (strict) — and, for a strict private output, the ten
    bits of ``out + 256``.  An output outside that range proof's ``[-256,
    768)`` raises, naming ``tag[indices[k]]``."""
    out = acc >> shift
    rem = acc - (out << shift)
    rem_width, range_width = _widths(shift, strict, public)
    if range_width:
        bad = np.flatnonzero((out + RANGE_OFFSET) >> RANGE_BITS != 0)
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"output {tag}[{indices[k]}] = {out[k]} is outside the strict "
                f"range proof's [{-RANGE_OFFSET}, "
                f"{(1 << RANGE_BITS) - RANGE_OFFSET})"
            )
    bits = np.arange(max(shift, RANGE_BITS))
    return np.concatenate([
        out[:, None],
        (rem[:, None] >> bits[:shift]) & 1 if strict
        else rem[:, None][:, :rem_width],
        ((out[:, None] + RANGE_OFFSET) >> bits[:range_width]) & 1,
    ], axis=1)


def relu_values(in_values, bits: int, strict: bool, tag: str, indices):
    """What one ReLU writes per input, one row each: its sign, in strict
    mode the low ``bits - 1`` bits of ``in + 2^(bits-1)`` (the sign proof;
    the sign is its top bit), then ``max(0, in)``.  A strict input outside
    the sign gadget's range raises, naming ``tag[indices[k]]``."""
    shifted = in_values + (1 << (bits - 1))
    if strict:
        bad = np.flatnonzero((shifted < 0) | (shifted >= 1 << bits))
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"relu input {tag}[{indices[k]}] = {in_values[k]} exceeds "
                f"{bits}-bit sign gadget range"
            )
    return np.concatenate([
        (in_values >= 0)[:, None].astype(np.int64),
        (shifted[:, None] >> np.arange(bits - 1 if strict else 0)) & 1,
        np.maximum(in_values, 0)[:, None],
    ], axis=1)


def select_values(
    x_values, domain_lo: int, columns, tag: str, first_index: int
):
    """What one one-hot selection writes per input, one row each: an
    indicator per table row, set at ``x - domain_lo``, then the ``d``
    outputs ``columns[x - domain_lo]``.  An input outside the table
    raises, naming ``tag[first_index + k]``."""
    size = columns.shape[0]
    row_of = x_values - domain_lo
    outside = np.flatnonzero((row_of < 0) | (row_of >= size))
    if outside.size:
        k = outside[0]
        raise ValueError(
            f"selector input {tag}[{first_index + k}] = {x_values[k]} "
            f"is outside the table's [{domain_lo}, {domain_lo + size - 1}]"
        )
    onehot = (np.arange(size) == row_of[:, None]).astype(np.int64)
    return np.concatenate([onehot, columns[row_of]], axis=1)


class Products(NamedTuple):
    """Product wires for :meth:`GadgetEmitter.commit_outputs` to allocate.

    Wire ``j`` holds ``<a_j, z> * <b_j, z>``, enforced by one ``tag`` row
    ``a_j * b_j = wire_j``, and joins accumulator ``of[j]`` (ascending)
    with coefficient 1.  A side is ``(variables, coeffs)``: a ``(P, w)``
    array of variables — one wire (``w = 1``) or a short LC such as
    ``x - mean`` — and ``w`` small signed coefficients every product
    shares.  ``values`` are the products' values; a recorded recipe
    re-derives them from the sides (:func:`repro.r1cs.recipe.pair_products`).
    """

    of: np.ndarray
    a: Tuple[np.ndarray, tuple]
    b: Tuple[np.ndarray, tuple]
    values: np.ndarray
    tag: str


class GadgetEmitter:
    """Emits output-commitment and ReLU gadgets into a constraint system.

    With ``share=True`` (sparsity-aware compilation), structurally
    identical emissions are value-numbered: an output commitment whose
    input LC, requant shift, and slot width match an earlier one — or a
    ReLU whose input LC and sign width do — returns the earlier output
    variable instead of emitting a new sub-circuit.  Identical LCs compute
    identical witness values for *every* assignment, so deduplication
    preserves soundness; it is what
    collapses the per-position gadget fan-out of a pruned-to-zero filter
    row (and of everything downstream of it) to one wire per channel.
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        mode: str = "lean",
        knit: Optional[KnitPacker] = None,
        recipe: Optional[list] = None,
        share: bool = False,
    ) -> None:
        if mode not in ("lean", "strict"):
            raise ValueError(f"gadget mode must be 'lean' or 'strict', not {mode!r}")
        self.cs = cs
        self.mode = mode
        self.knit = knit
        self.recipe = recipe
        self.share = share
        self.stats = GadgetStats()
        self._commit_cache: dict = {}
        self._relu_cache: dict = {}

    # -- output commitment with folded requantization ----------------------------------

    def commit_outputs(
        self,
        exprs,
        cols,
        coeffs,
        acc_values,
        shift: int,
        slot_bits: int,
        public: bool = False,
        tag: str = "out",
        first_index: int = 0,
        products: Optional[Products] = None,
    ):
        """Bind a run of accumulators to their requantized output wires.

        Each accumulator ``acc`` is bound by the single linear identity

            acc - out * 2^shift - rem == 0

        (Eq. 2/3's equality check with the power-of-two requantization
        folded in), emitted as its own ``{tag}/eq`` row or knit-packed —
        ``s`` per row — by :func:`pack_slots`.  With ``public`` the outputs
        are instance variables (the network's final logits) and never
        knit-packed.  In strict mode the remainder is bit-decomposed (a
        booleanity row ``{tag}/rem`` per bit) and a private output gets the
        offset range proof ``sum 2^i bit_i == out + 256`` over ten
        ``{tag}/range`` bits (``{tag}/range_eq``); an output outside its
        range ``[-256, 768)`` raises.

        The accumulators arrive as entry arrays: entry ``k`` is the term
        ``coeffs[k] * var(cols[k])`` of accumulator ``exprs[k]``
        (``len(acc_values)`` accumulators; entries sorted by accumulator, a
        column at most once per accumulator, no zero coefficients, small
        signed integers rather than field residues) — plus, with
        ``products``, the product wires this call allocates, each added
        with coefficient 1.  ``acc_values`` are the whole accumulators'
        values.

        Per accumulator, in order: its product wires, then its output (if
        private), remainder wires — one ``rem`` (lean) or ``shift`` bits
        (strict) — and range bits are allocated by one ``allocate``; its
        product rows, strict-mode rows and the identity (or the knit rows
        it completes) form one three-sided :class:`RowBlock` with per-row
        tags.  That is the order one accumulator at a time, each after its
        own multiplications, would produce; the fixed wires' values are
        :func:`commit_values`, whose errors name accumulator ``k`` as
        ``tag[first_index + k]``.  With a recipe the call appends its step
        (after the step of its product wires).  With ``share`` (value
        numbering) a private accumulator of at most ``_SHARE_MAX_TERMS`` terms and no
        products reuses the output of an earlier identical one.  The
        caller tallies building its accumulators and products; this call
        tallies what binding them costs.  Returns the output variable
        indices (ndarray).
        """
        cs = self.cs
        strict = self.mode == "strict"
        acc_values = np.asarray(acc_values)
        out_vars = np.zeros(acc_values.size, dtype=np.int64)
        leader = np.arange(acc_values.size)  # whose sub-circuit each one uses
        fresh_keys = []  # (share key, accumulator that will emit it)
        if self.share and not public:
            multiplied = np.zeros(acc_values.size, dtype=bool)
            if products is not None:
                multiplied[products.of] = True
            fresh_keys, shared = self._value_number(
                self._commit_cache, "output", cols, coeffs,
                np.bincount(exprs, minlength=acc_values.size), acc_values,
                (shift, slot_bits), out_vars, leader, tag, first_index,
                skip=multiplied,
            )
            self.stats.shared_outputs += shared
        keep = (leader == np.arange(acc_values.size)) & (out_vars == 0)
        rank = np.cumsum(keep) - 1
        if not keep.all():
            kept = keep[exprs]
            exprs = rank[exprs[kept]]
            cols, coeffs = cols[kept], coeffs[kept]
        emit = np.flatnonzero(keep)  # accumulators that get a sub-circuit
        count = emit.size
        if not count:
            return out_vars[leader]
        indices = first_index + emit
        values = commit_values(
            acc_values[emit], shift, strict, public, tag, indices
        )
        rem_width, range_width = _widths(shift, strict, public)

        # Variables.  Per accumulator: its product wires, then [out]
        # (unless public) + its remainder wires + range bits (strict,
        # private outputs only) — ``stride`` fixed wires.
        of = (
            np.zeros(0, dtype=np.int64) if products is None
            else rank[products.of]
        )
        made = np.bincount(of, minlength=count)  # product wires of each
        fixed = values[:, int(public):]
        stride = fixed.shape[1]
        made_before = np.cumsum(made) - made
        wires = np.arange(of.size) + stride * of  # positions in the run
        base = made_before + made + stride * np.arange(count)
        private = np.empty(of.size + fixed.size, dtype=(
            fixed.dtype if products is None
            else np.result_type(fixed, products.values)
        ))
        if products is not None:
            private[wires] = products.values
        private[base[:, None] + np.arange(stride)] = fixed
        first = cs.allocate(private)
        wires += first
        base += first
        if public:
            emitted = cs.allocate(
                values[:, 0].tolist(), public=True
            ) - np.arange(count)
            rem_base = base
        else:
            emitted = base
            rem_base = base + 1
        out_vars[emit] = emitted
        out_vars = out_vars[leader]
        for key, k in fresh_keys:
            self._commit_cache[key] = (int(out_vars[k]), int(acc_values[k]))
        if self.recipe is not None:
            inputs = exprs, cols, coeffs
            if products is not None:  # the product wires join as inputs
                self.recipe.append(product_step(wires, products.a, products.b))
                order = np.argsort(np.concatenate([exprs, of]), kind="stable")
                inputs = (
                    np.concatenate([exprs, of])[order],
                    np.concatenate([cols, wires])[order],
                    np.concatenate([coeffs, np.ones_like(of)])[order],
                )
            self.recipe.append(Step(
                np.concatenate([
                    emitted[:, None],
                    rem_base[:, None] + np.arange(values.shape[1] - 1),
                ], axis=1),
                partial(
                    commit_values, shift=shift, strict=strict, public=public,
                    tag=tag, indices=indices,
                ),
                *inputs, count,
            ))
        if not public:
            self.stats.committed_wires += count
        if not strict:
            self.stats.committed_wires += count * rem_width

        # The identities' own terms: -2^shift * out, and -2^i * wire_i over
        # the remainder wires (the lone lean ``rem`` is i = 0); then the
        # product wires at 1.
        ranks = np.arange(count)
        rem_wires = np.arange(rem_width)
        exprs = np.concatenate([exprs, ranks, np.repeat(ranks, rem_width), of])
        cols = np.concatenate([
            cols, emitted, (rem_base[:, None] + rem_wires).reshape(-1), wires,
        ])
        coeffs = np.concatenate([
            coeffs, np.full(count, -(1 << shift)),
            np.tile(-(1 << rem_wires), count), np.ones(of.size, dtype=np.int64),
        ])
        global_counter().lc_term += count * (1 + rem_width)

        if self.knit is not None and not public:
            block, ends = self.knit.push_many(
                exprs, cols, coeffs, count, identity_bits(slot_bits, shift)
            )
            row_tag = self.knit.row_tag
        else:
            block = RowBlock(pack_slots(
                exprs, cols, np.zeros_like(exprs), coeffs, count, 63,
                cs.field.modulus,
            ))
            ends = ranks
            row_tag = f"{tag}/eq"
            self.stats.equality_constraints += count
        if not strict and products is None:
            cs.enforce_rows(block, row_tag)
            return out_vars

        # Rows, per accumulator: its product rows; in strict mode a
        # booleanity row ``b * (b - 1) = 0`` per remainder and range bit and
        # the range proof; then the rows it completes.  Each side is
        # gathered from its pieces in within-row order.
        booleans = shift + range_width if strict else 0
        checks = booleans + (range_width > 0)  # strict rows per accumulator
        done = np.bincount(ends, minlength=count)  # rows each one completes
        size = made + checks + done
        row0 = np.cumsum(size) - size
        total = int(size.sum())
        tags = np.empty(total, dtype=object)
        a, b, c = [], [], []
        if products is not None:
            product_rows = row0[of] + np.arange(of.size) - made_before[of]
            for (variables, side_coeffs), pieces in (
                (products.a, a), (products.b, b)
            ):
                pieces.append((
                    np.repeat(product_rows, variables.shape[1]),
                    variables.reshape(-1),
                    np.broadcast_to(side_coeffs, variables.shape).reshape(-1),
                ))
            c.append((product_rows, wires, 1))
            tags[product_rows] = products.tag
        check_rows = (row0 + made)[:, None] + np.arange(checks)
        if booleans:
            rows = check_rows[:, :booleans].reshape(-1)
            bit_wires = (rem_base[:, None] + np.arange(booleans)).reshape(-1)
            a.append((rows, bit_wires, 1))
            b += [(rows, bit_wires, 1), (rows, ONE, -1)]
            tags[check_rows[:, :shift]] = f"{tag}/rem"
            tags[check_rows[:, shift:booleans]] = f"{tag}/range"
        if range_width:
            rows = check_rows[:, booleans]
            range_bits = rem_base[:, None] + shift + np.arange(RANGE_BITS)
            a += [
                (np.repeat(rows, RANGE_BITS), range_bits.reshape(-1),
                 np.tile(1 << np.arange(RANGE_BITS), count)),
                (rows, emitted, -1),
                (rows, ONE, -RANGE_OFFSET),
            ]
            b.append((rows, ONE, 1))
            tags[rows] = f"{tag}/range_eq"
        completed_before = np.cumsum(done) - done
        rows = (row0 + made + checks)[ends] + (
            np.arange(ends.size) - completed_before[ends]
        )
        a.append((np.repeat(rows, np.diff(block.a.indptr)), block.a))
        b.append((rows, ONE, 1))
        tags[rows] = row_tag
        if strict:
            checked = count * booleans
            ranged = count if range_width else 0
            self.stats.committed_wires += checked
            self.stats.range_constraints += checked + ranged
            # b * (b - 1): one subtraction; the range proof: its recomposition,
            # out + 256 and the difference.
            counter = global_counter()
            counter.lc_term += checked + (RANGE_BITS + 3) * ranged
            counter.field_add += checked + 3 * ranged
            counter.field_mul += checked + 2 * ranged
        p = cs.field.modulus
        cs.enforce_rows(RowBlock(
            RowSide.gather(total, a, p), RowSide.gather(total, b, p),
            RowSide.gather(total, c, p) if c else None, tags.tolist(),
        ), row_tag)
        return out_vars

    def _value_number(
        self, cache, kind, cols, coeffs, per_row, values, bounds, out_vars,
        leader, tag, first_index, skip=None,
    ):
        """Value-number a run of rows (``share=True``) through ``cache``.

        Rows of at most ``_SHARE_MAX_TERMS`` terms, bar those ``skip``
        marks, are grouped by content
        with array operations; only one representative per distinct LC
        builds the key a per-row emission would have used — its sorted
        canonical terms, then ``bounds``.  A group whose key is cached gets
        the cached variable (written to ``out_vars``); otherwise its first
        member emits and the rest follow it (``leader``).  Returns the
        ``(key, row)`` pairs to register once the emitting variables are
        allocated, and how many rows were shared.
        """
        small = per_row <= _SHARE_MAX_TERMS
        if skip is not None:
            small &= ~skip
        small = np.flatnonzero(small)
        if not small.size:
            return [], 0
        starts = (np.cumsum(per_row) - per_row)[small]
        sizes = per_row[small]
        content = np.zeros(
            (small.size, 2 * _SHARE_MAX_TERMS),
            dtype=object if coeffs.dtype == object else np.int64,
        )
        for t in range(_SHARE_MAX_TERMS):
            has = sizes > t
            content[has, 2 * t] = cols[starts[has] + t]
            content[has, 2 * t + 1] = coeffs[starts[has] + t]
        if content.dtype == object:  # out-of-lane coefficients: no grouping
            pick = inverse = np.arange(small.size)
        else:
            pick, inverse = distinct_rows(content)
        p = self.cs.field.modulus
        cached_var = np.zeros(pick.size, dtype=np.int64)
        expected = values[small[pick]]  # per group: the value to match
        fresh_keys = []
        for g, first in enumerate(pick.tolist()):
            row = content[first, : 2 * int(sizes[first])].tolist()
            key = (
                tuple(sorted(zip(row[::2], [c % p for c in row[1::2]]))),
                *bounds,
            )
            cached = cache.get(key)
            if cached is None:
                fresh_keys.append((key, int(small[first])))
            else:
                cached_var[g], expected[g] = cached
        differs = np.flatnonzero(expected[inverse] != values[small])
        if differs.size:
            k = differs[0]
            raise ValueError(
                f"shared {kind} {tag}[{_row_index(first_index, small[k])}]: "
                f"identical LC with diverging witness values "
                f"{expected[inverse[k]]} != {values[small[k]]}"
            )
        out_vars[small] = cached_var[inverse]
        leader[small] = small[pick][inverse]
        return fresh_keys, small.size - len(fresh_keys)

    # -- ReLU -----------------------------------------------------------------------------

    def relu_rows(
        self,
        exprs,
        cols,
        coeffs,
        in_values,
        bits: int,
        tag: str,
        first_index: int,
        public: bool = False,
    ):
        """``out = max(0, in)`` for a whole run of inputs, each through a
        committed sign bit: ``sign * in = out``.

        The input LCs arrive as :meth:`commit_outputs`' entry arrays: entry
        ``k`` is the term ``coeffs[k] * var(cols[k])`` of input ``exprs[k]``
        (``len(in_values)`` inputs; entries sorted by input, a column at
        most once per input and never the constant ONE, no zero
        coefficients, small signed integers).  Lean: one select row per
        input.  Strict: adds booleanity of the sign bit and the shifted
        bit-decomposition sign proof (``bits - 1`` booleanity rows + one
        recomposition) — the paper's "expensive comparison operator"
        (§6.2).

        Every wire is allocated by one ``allocate`` in the per-input
        interleaved order — sign, the ``bits - 1`` proof bits (strict),
        out.  With ``public`` the outputs are instance variables instead
        (and take no part in sharing).  The rows are one
        three-sided :class:`RowBlock` tagged ``{tag}/sign``, ``/bits``,
        ``/signproof``, ``/select`` per row.  The wires' values are
        :func:`relu_values`, whose errors name input ``k`` as
        ``tag[first_index + k]`` (every input as ``-1`` for a negative
        ``first_index``); with a recipe the call appends its step.
        Constraints, variables, stats and op tallies equal those of the
        per-element gadget, one input at a time.
        Returns the output variable indices (ndarray).
        """
        cs = self.cs
        strict = self.mode == "strict"
        in_values = np.asarray(in_values, dtype=np.int64)
        count = in_values.size
        # private wires per input: sign (+ ``bits - 1`` proof bits) + out
        stride = (bits + 1 if strict else 2) - public
        out_vars = np.zeros(count, dtype=np.int64)
        leader = np.arange(count)  # whose sub-circuit each one uses
        fresh_keys = []
        if self.share and not public:
            fresh_keys, shared = self._value_number(
                self._relu_cache, "relu", cols, coeffs,
                np.bincount(exprs, minlength=count), in_values, (bits,),
                out_vars, leader, tag, first_index,
            )
            self.stats.shared_relus += shared
        keep = (leader == np.arange(count)) & (out_vars == 0)
        if not keep.all():
            kept = keep[exprs]
            exprs = (np.cumsum(keep) - 1)[exprs[kept]]
            cols, coeffs = cols[kept], coeffs[kept]
        emit = np.flatnonzero(keep)  # inputs that get a sub-circuit
        n = emit.size
        indices = np.where(first_index >= 0, first_index + emit, -1)
        values = relu_values(in_values[emit], bits, strict, tag, indices)
        signs = cs.allocate(
            values[:, :stride].reshape(-1)
        ) + stride * np.arange(n)
        if public:
            emitted = cs.allocate(
                values[:, -1].tolist(), public=True
            ) - np.arange(n)
        else:
            emitted = signs + (stride - 1)
        out_vars[emit] = emitted
        out_vars = out_vars[leader]
        for key, k in fresh_keys:
            self._relu_cache[key] = (int(out_vars[k]), int(in_values[k]))
        proof_bits = bits - 1 if strict else 0
        if self.recipe is not None:
            self.recipe.append(Step(
                np.concatenate([
                    signs[:, None] + np.arange(values.shape[1] - 1),
                    emitted[:, None],
                ], axis=1),
                partial(
                    relu_values, bits=bits, strict=strict, tag=tag,
                    indices=indices,
                ),
                exprs, cols, coeffs, n,
            ))
        self.stats.committed_wires += n * (1 + proof_bits) + (not public) * n
        self.stats.relu_constraints += n
        # Per input, the select ``sign * in = out`` — in strict mode after
        # the sign's and each proof bit's booleanity ``b * (b - 1) = 0`` and
        # the sign proof ``sum 2^i bit_i + 2^(bits-1) sign - in - 2^(bits-1)
        # = 0``.  Each side is gathered from its pieces in within-row
        # order, then stably sorted by row.
        per = bits + 2 if strict else 1
        base = per * np.arange(n)
        select = base + per - 1
        a = [(select, signs, 1)]
        b = [(select[exprs], cols, coeffs)]
        tags = None
        if strict:
            self.stats.range_constraints += n * (bits + 1)
            counter = global_counter()
            counter.lc_term += n * (2 * bits + 2) + cols.size
            counter.field_add += n * (bits + 2) + cols.size
            counter.field_mul += n * (bits + 1) + cols.size
            booleans = (base[:, None] + np.arange(bits)).reshape(-1)
            wires = (signs[:, None] + np.arange(bits)).reshape(-1)  # sign, bits
            proof = base + bits
            # The sign proof's own terms: bit i at 2^i, the sign at 2^(bits-1).
            proof_wires = np.roll(signs[:, None] + np.arange(bits), -1, axis=1)
            a[:0] = [
                (booleans, wires, 1),
                (np.repeat(proof, bits), proof_wires.reshape(-1),
                 np.tile(1 << np.arange(bits, dtype=np.int64), n)),
                (proof[exprs], cols, -coeffs),
                (proof, ONE, -(1 << (bits - 1))),
            ]
            b[:0] = [
                (np.repeat(booleans, 2),
                 np.stack([wires, np.full_like(wires, ONE)], axis=1).reshape(-1),
                 np.tile(np.array([1, -1]), wires.size)),
                (proof, ONE, 1),
            ]
            tags = [f"{tag}/sign"] + [f"{tag}/bits"] * (bits - 1) + [
                f"{tag}/signproof", f"{tag}/select",
            ]
        p = cs.field.modulus
        block = RowBlock(
            RowSide.gather(n * per, a, p), RowSide.gather(n * per, b, p),
            RowSide.gather(n * per, [(select, emitted, 1)], p),
            tags if tags is None else tags * n,
        )
        cs.enforce_rows(block, f"{tag}/select")
        return out_vars

    # -- one-hot table selection --------------------------------------------------------

    def select_rows(
        self, x_vars, x_values, domain_lo: int, columns, tag: str,
        first_index: int = 0,
    ):
        """``out_j = columns[x - domain_lo, j]`` for a run of inputs, each
        through a one-hot selector over the table's rows — the
        per-activation cost the shared lookup argument amortizes away.

        Per input, one ``allocate`` holds an indicator per table row, then
        the ``d`` outputs; one :class:`RowBlock` holds the indicators'
        booleanity ``{tag}/sel_bool`` (strict), their sum to one
        ``/sel_one``, the recomposition ``sum (domain_lo + v) b_v = x``
        ``/sel_in`` and a ``sum columns[v, j] b_v = out_j`` ``/sel_out`` per
        column, no zero coefficient stored.  The wires' values are
        :func:`select_values`: an input outside the table raises, naming
        ``tag[first_index + k]``, before anything is allocated.  With a
        recipe the call appends its step.  Returns the output variables,
        shape ``(inputs, d)``.
        """
        cs = self.cs
        strict = self.mode == "strict"
        x_vars = np.asarray(x_vars, dtype=np.int64).reshape(-1)
        x_values = np.asarray(x_values, dtype=np.int64).reshape(-1)
        columns = np.asarray(columns, dtype=np.int64)
        size, d = columns.shape
        n = x_vars.size
        values = select_values(x_values, domain_lo, columns, tag, first_index)
        base = cs.allocate(values.reshape(-1)) + (size + d) * np.arange(n)
        indicators = base[:, None] + np.arange(size)
        out_vars = base[:, None] + size + np.arange(d)
        if self.recipe is not None:
            self.recipe.append(wire_step(
                base[:, None] + np.arange(size + d),
                partial(
                    select_values, domain_lo=domain_lo, columns=columns,
                    tag=tag, first_index=first_index,
                ),
                x_vars,
            ))

        # Rows per input: [size booleanity rows], sum, recomposition, and
        # one output row per column; zero coefficients are left out.
        booleans = size if strict else 0
        per = booleans + 2 + d
        one_row = per * np.arange(n) + booleans
        in_row = one_row + 1
        out_rows = in_row[:, None] + 1 + np.arange(d)
        reco = domain_lo + np.arange(size)
        live = np.flatnonzero(reco)
        column, entry = np.nonzero(columns.T)  # per column, its nonzero rows
        a = [
            (np.repeat(one_row, size), indicators.reshape(-1), 1),
            (one_row, ONE, -1),
            (np.repeat(in_row, live.size), indicators[:, live].reshape(-1),
             np.tile(reco[live], n)),
            (in_row, x_vars, -1),
            (out_rows[:, column].reshape(-1),
             indicators[:, entry].reshape(-1), np.tile(columns[entry, column], n)),
            (out_rows.reshape(-1), out_vars.reshape(-1), -1),
        ]
        b = [(one_row, ONE, 1), (in_row, ONE, 1), (out_rows.reshape(-1), ONE, 1)]
        if strict:
            rows = (one_row[:, None] - size + np.arange(size)).reshape(-1)
            a.insert(0, (rows, indicators.reshape(-1), 1))
            b[:0] = [(rows, indicators.reshape(-1), 1), (rows, ONE, -1)]
        # Each ``lhs - rhs`` (and strict ``b - 1``): a term, an addition and
        # a multiplication; then every stored indicator term.
        checks = n * (2 + d) + booleans * n
        counter = global_counter()
        counter.lc_term += n * (size + live.size + entry.size) + checks
        counter.field_add += checks
        counter.field_mul += checks
        tags = [f"{tag}/sel_bool"] * booleans + [
            f"{tag}/sel_one", f"{tag}/sel_in",
        ] + [f"{tag}/sel_out"] * d
        p = cs.field.modulus
        cs.enforce_rows(RowBlock(
            RowSide.gather(n * per, a, p), RowSide.gather(n * per, b, p), None,
            tags * n,
        ))
        return out_vars


def lc_entries(lc: LinearCombination):
    """One LC as a single input's entry arrays ``(exprs, cols, coeffs)``,
    coefficients as small signed integers, terms in the LC's order."""
    p = lc.field.modulus
    count = len(lc.terms)
    return (
        np.zeros(count, dtype=np.int64),
        np.fromiter(lc.terms, dtype=np.int64, count=count),
        np.array(
            [c - p if c > p >> 1 else c for c in lc.terms.values()],
            dtype=np.int64,
        ),
    )


def _row_index(first_index: int, k: int) -> int:
    """The logged index of row ``k`` of a run from ``first_index``; a
    negative start leaves every row unindexed (``-1``)."""
    return first_index + k if first_index >= 0 else -1
