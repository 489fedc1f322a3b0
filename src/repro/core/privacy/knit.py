"""Privacy-aware knit encoding (§4.2).

One equality check per dot product costs one constraint (Eq. 3), yet the
checked quantity occupies only ``2*b_in + ceil(log2 n)`` bits of a 254-bit
field element.  Knit encoding packs ``s`` such checks into a single
constraint:

    sum_j delta^j * expr_j == 0,      delta = 2^(bits per expression)

Because ``delta`` is a public scalar, building the packed linear
combination multiplies public coefficients only — zero extra constraints
(Table 2: encoding overhead 0, decoding overhead 0, max saving
``254 / (2*8 + log n)`` ~ 8x for uint8 data).

Batch-size selection follows the paper's formula: the largest ``s`` with
``s <= b_out / (2*b_in + ceil(log2 n))``.  We additionally reserve
``_SAFETY_BITS`` slack per slot so signed expression bounds (our
expressions may include requantization remainders, see
:mod:`repro.core.circuit.gadgets`) can never alias across slots.

Applicability: only when exactly one of weights/features is private
(Table 2) — with both private the per-term products are already wires and
the packing argument gives no constraint saving.

The arithmetic lives in one place, :func:`pack_slots`, which packs any
number of rows at once.  Whole layers arrive as integer arrays of small
signed coefficients and are packed with NumPy (the *digit lane*); the
row a layer leaves open and coefficients outside that lane are packed
with Python integers (the *exact lane*).  Neither lane builds a 254-bit
coefficient: both keep each coefficient as its slot digits on the
:class:`~repro.r1cs.lc.RowSide` they return — the one form it is stored
in — so the prover sums a packed row slot by slot in int64, and only a
reader that needs field elements (set-up, export, the dict-LC reads)
derives them, by :meth:`~repro.r1cs.lc.Digits.coefficients`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.field.counters import global_counter
from repro.r1cs.lc import Digits, RowBlock, RowSide
from repro.r1cs.system import ConstraintSystem

_SAFETY_BITS = 2
# Exact-lane digits are cut at most this wide, so a digit times a small
# witness value stays far inside int64 (repro.r1cs.csr).
_DIGIT_WIDTH = 32


def expression_bits(dot_length: int, b_in: int = 8) -> int:
    """Bits one dot-product expression can occupy: ``2*b_in + ceil(log2 n)``."""
    n = max(int(dot_length), 1)
    return 2 * b_in + max(1, math.ceil(math.log2(n + 1)))


def knit_batch_size(
    dot_length: int, b_in: int = 8, b_out: int = 254
) -> int:
    """The paper's auto-selected batch size ``s`` (§4.2, Security Analysis).

    >>> knit_batch_size(1024)
    9
    """
    per_slot = expression_bits(dot_length, b_in)
    return max(1, b_out // per_slot)


def pack_slots(
    rows, cols, slots, coeffs, num_rows: int, slot_bits: int, modulus: int,
    cache=None,
) -> RowSide:
    """Knit-pack expressions into rows: ``sum_j 2^(slot_bits*j) * expr_j``.

    Entry ``k`` is the term ``coeffs[k] * var(cols[k])`` of the expression
    sitting in slot ``slots[k]`` of packed row ``rows[k]``; an expression
    lists a column at most once.  Returns the rows as a
    :class:`~repro.r1cs.lc.RowSide`: entries merged per (row, column),
    entries whose coefficient is zero mod ``modulus`` dropped, and each
    merged entry kept as its slot digits — the one form a coefficient is
    stored in, which the prover sums rows over (:mod:`repro.r1cs.csr`)
    and from which :meth:`~repro.r1cs.lc.Digits.coefficients` derives the
    field elements for whoever reads them.

    *Digit lane* — integer ndarrays whose coefficients fit half a slot
    and whose slots fit the field: entries are grouped with one stable
    argsort and each surviving entry's per-slot coefficients *are* its
    digits, ``slot_bits`` apart — no field element is built.  *Exact
    lane* — everything else (Python lists, coefficients of any size): the
    same sum in Python integers, products served by the §6.1 ``cache``'s
    per-slot tables, its digits cut afresh, balanced, at most 32 bits
    apart.  Nothing wraps in either lane.
    """
    if not len(coeffs):
        return RowSide([0] * (num_rows + 1), cols, Digits.of([], modulus))
    if isinstance(coeffs, np.ndarray) and coeffs.dtype.kind == "i":
        n_slots = int(slots.max()) + 1
        half = 1 << (slot_bits - 1)
        lo = int(cols.min())
        span = int(cols.max()) - lo + 1
        least, most = int(coeffs.min()), int(coeffs.max())
        if (
            n_slots * slot_bits <= modulus.bit_length()
            and slot_bits < 64
            and -half < least and most < half
            and num_rows * span < 1 << 62
        ):
            key = rows * span + (cols - lo)
            order = np.argsort(key, kind="stable")
            key = key[order]
            head = np.concatenate(([True], key[1:] != key[:-1]))
            first = np.flatnonzero(head)
            digits = np.zeros(n_slots * first.size, dtype=np.int64)
            digits[
                slots[order] * first.size + np.cumsum(head) - 1
            ] = coeffs[order]
            digits = digits.reshape(n_slots, first.size)
            out_rows, out_cols = np.divmod(key[first], span)
            out_cols += lo
            indptr = np.searchsorted(out_rows, np.arange(num_rows + 1))
            return RowSide(indptr, out_cols, Digits.slots(
                digits, indptr, slot_bits, modulus, max(-least, most)
            ))
    merged: dict = {}
    packed: dict = {}  # the cache's merged entries, unreduced
    hits = misses = 0
    table, table_slot = None, 0
    for row, col, slot, coeff in zip(
        _as_list(rows), _as_list(cols), _as_list(slots), _as_list(coeffs)
    ):
        if not slot:
            value = coeff
        elif cache is None:
            value = coeff << (slot_bits * slot)
        else:
            # One product table per (slot, slot width): the right operand
            # 2^(slot_bits*slot) is fixed, so the pair key collapses to the
            # coefficient — "at most 256 values for uint8" (§6.1).
            if slot != table_slot:
                table, table_slot = cache.table_for((slot, slot_bits)), slot
            value = table.get(coeff)
            if value is None:
                value = table[coeff] = (coeff << (slot_bits * slot)) % modulus
                misses += 1
            else:
                hits += 1
        where = (row, col)
        merged[where] = merged.get(where, 0) + value
        if cache is not None:
            packed[where] = packed.get(where, 0) + (coeff << slot_bits * slot)
    if cache is not None:
        cache.record(hits=hits, misses=misses)
    indptr = [0] * (num_rows + 1)
    out_cols: List[int] = []
    exact = []
    # Stable by row: within a row, columns keep first-occurrence order.
    for (row, col), value in sorted(merged.items(), key=lambda kv: kv[0][0]):
        if value % modulus:
            indptr[row + 1] += 1
            out_cols.append(col)
            exact.append(packed.get((row, col), value))
    for row in range(num_rows):
        indptr[row + 1] += indptr[row]
    width = min(slot_bits, _DIGIT_WIDTH)
    return RowSide(indptr, out_cols, Digits.slots(
        _digit_matrix(exact, width), indptr, width, modulus
    ))


def _digit_matrix(packed: List[int], width: int):
    """Packed entries (integers, unreduced) as a slot-major int64 matrix of
    balanced digits at ``width`` bits, ``-2^(width-1) <= d < 2^(width-1)``:
    an exact-lane coefficient may be wider than its slot, so the digits
    are cut afresh from the packed value.  Biased by ``2^(width-1)`` in
    every slot, a value's plain base-``2^width`` digits are the balanced
    digits plus the bias — read off its little-endian bytes."""
    top = max(map(abs, packed), default=0)
    slots = -(-(top.bit_length() + 2) // width)
    half = 1 << (width - 1)
    bias = sum(half << (width * k) for k in range(slots))
    words = (width * slots) // 64 + 1
    blob = b"".join(
        (value + bias).to_bytes(8 * words, "little") for value in packed
    )
    limbs = np.frombuffer(blob, dtype="<u8").reshape(len(packed), words)
    word, bit = np.divmod(width * np.arange(slots), 64)
    fields = limbs[:, word] >> bit.astype(np.uint64)
    spill = bit + width > 64  # a slot's high bits in the next word
    fields[:, spill] |= limbs[:, word[spill] + 1] << (
        64 - bit[spill]
    ).astype(np.uint64)
    fields &= np.uint64((1 << width) - 1)
    return np.ascontiguousarray(fields.T).astype(np.int64) - half


def _as_list(values) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else values


class KnitPacker:
    """Accumulates zero-expressions and emits packed equality constraints.

    Usage: hand a layer's zero-expressions ``acc - ref_terms`` (which an
    honest prover makes exactly zero) to :meth:`push_many` as entry
    arrays, with the bit bound of their honest-value range.  Expression
    ``j`` of a row is scaled by ``delta^j`` (public scalars — free) and one
    constraint is emitted per ``s`` expressions.  Expressions with
    different bounds are never mixed (a push at a new bound closes the open
    row), so the non-overlap argument stays per-constraint.
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        batch_size: Optional[int] = None,
        cache=None,
        tag: str = "",
    ) -> None:
        self.cs = cs
        self.forced_batch = batch_size
        self.field_bits = cs.field.modulus.bit_length()
        self.cache = cache  # optional frequency CacheService for coeff muls
        self.tag = tag
        self._slot_bits = 0
        self._count = 0  # expressions in the open row ...
        self._cols: list = []  # ... and their entries
        self._slots: list = []
        self._coeffs: list = []
        self.constraints_emitted = 0
        self.expressions_packed = 0

    # -- internals -----------------------------------------------------------

    def _capacity(self, slot_bits: int) -> int:
        if self.forced_batch is not None:
            return max(1, self.forced_batch)
        return max(1, self.field_bits // slot_bits)

    def capacity(self, slot_bits: int) -> int:
        """Expressions per packed row at this (pre-margin) slot width."""
        return self._capacity(slot_bits + _SAFETY_BITS)

    def _close(self) -> RowSide:
        """Pack the open row — its one row of a :class:`RowSide` — and
        start an empty one."""
        side = pack_slots(
            [0] * len(self._cols), self._cols, self._slots, self._coeffs,
            1, self._slot_bits, self.cs.field.modulus, self.cache,
        )
        self.constraints_emitted += 1
        self._count = 0
        self._cols, self._slots, self._coeffs = [], [], []
        return side

    @staticmethod
    def _tally(terms: int) -> None:
        """Folding ``delta^j * expr`` into an open row is the encoding's
        only arithmetic: one public-coefficient multiplication and one
        "free" addition per term."""
        counter = global_counter()
        counter.lc_term += terms
        counter.field_add += terms
        counter.field_mul += terms

    # -- public API ------------------------------------------------------------

    @property
    def row_tag(self) -> str:
        return f"{self.tag}/knit"

    def push_many(
        self, exprs, cols, coeffs, count: int, slot_bits: int
    ) -> Tuple[RowBlock, object]:
        """Push ``count >= 1`` expressions at once, as entry arrays.

        Entry ``k`` is the term ``coeffs[k] * var(cols[k])`` of expression
        ``exprs[k]`` (``0 <= exprs[k] < count``).  Row membership, slot
        order and tallies are exactly those of pushing the expressions one
        at a time.  Returns ``(block, ends)``: the rows these expressions
        completed and, per row, the index of the expression that completed
        it — the caller enforces them under :attr:`row_tag` (it may have
        per-expression constraints to interleave).  A row an earlier push
        left open at another slot width is completed by expression 0, ahead
        of the rows it fills itself.  An incomplete last row stays open for
        the next push or :meth:`flush`.
        """
        slot_bits += _SAFETY_BITS
        stale = None  # a row left open at another width
        if self._count and slot_bits != self._slot_bits:
            stale = self._close()
        self._slot_bits = slot_bits
        capacity = self._capacity(slot_bits)
        opened = self._count
        rows, slots = np.divmod(exprs + opened, capacity)
        per_expr = np.bincount(exprs, minlength=count)
        self._tally(
            int(per_expr[(np.arange(count) + opened) % capacity != 0].sum())
        )
        full, self._count = divmod(opened + count, capacity)
        parts = [rows, cols, slots, coeffs]
        if self._count:  # the trailing expressions stay open
            closed = rows < full
            parts = [part[closed] for part in parts]
        if full and self._cols:  # entries already held belong to row 0
            held = [0] * len(self._cols), self._cols, self._slots, self._coeffs
            parts = [
                np.concatenate([np.array(h), part])
                for h, part in zip(held, parts)
            ]
            self._cols, self._slots, self._coeffs = [], [], []
        side = pack_slots(
            *parts, full, slot_bits, self.cs.field.modulus, self.cache
        )
        if self._count:
            self._cols.extend(cols[~closed].tolist())
            self._slots.extend(slots[~closed].tolist())
            self._coeffs.extend(coeffs[~closed].tolist())
        self.expressions_packed += count
        self.constraints_emitted += full
        ends = np.arange(1, full + 1) * capacity - 1 - opened
        if stale is not None:
            side = RowSide.concat([stale, side])
            ends = np.concatenate(([0], ends))
        return RowBlock(side), ends

    def flush(self) -> None:
        """Emit the open packed constraint, if any."""
        if self._count:
            self.cs.enforce_rows(RowBlock(self._close()), self.row_tag)

    # -- reporting ----------------------------------------------------------------

    def saving_ratio(self) -> float:
        """Expressions per emitted constraint (the measured knit saving)."""
        if not self.constraints_emitted:
            return 1.0
        return self.expressions_packed / self.constraints_emitted
