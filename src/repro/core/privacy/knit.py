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
with Python integers (the *exact lane*).  Both give the same canonical
field coefficients.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.field.counters import global_counter
from repro.r1cs.lc import RowBlock, RowSide
from repro.r1cs.system import ConstraintSystem

_SAFETY_BITS = 2
_WORDS = 4  # 64-bit limbs of one packed coefficient in the digit lane
_WORD_MASK = (1 << 64) - 1

# Multipliers of the row hash in :func:`distinct_rows`: one pseudo-random
# odd 64-bit value per column (a packed row never has more slots than
# field bits / _SAFETY_BITS).  Any fixed values do: groups are checked.
_HASH_WEIGHTS = np.random.default_rng(0).integers(
    1 << 63, size=128, dtype=np.uint64
) * np.uint64(2) + np.uint64(1)


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
) -> Tuple[List[int], object, List[int]]:
    """Knit-pack expressions into rows: ``sum_j 2^(slot_bits*j) * expr_j``.

    Entry ``k`` is the term ``coeffs[k] * var(cols[k])`` of the expression
    sitting in slot ``slots[k]`` of packed row ``rows[k]``; an expression
    lists a column at most once.  Returns the rows in CSR form
    ``(indptr, cols, coeffs)``: entries merged per (row, column) with
    canonical coefficients mod ``modulus``, zero coefficients dropped.

    *Digit lane* — integer ndarrays whose coefficients fit half a slot
    and whose slots fit the field: entries are grouped with one stable
    argsort, each surviving entry's per-slot coefficients form a row of
    small signed *slot digits*, the digits are packed into four ``uint64``
    limbs with shifts, and one ``int.from_bytes`` per entry — with the
    §6.1 ``cache`` attached, per *distinct* digit vector (``cache.hits`` /
    ``misses`` count entries served from / added to that table) — builds
    the field element.  *Exact lane* — everything else (Python lists,
    coefficients of any size): the same sum in Python integers, products
    served by the cache's per-slot tables.  Nothing wraps in either lane.
    """
    if not len(coeffs):
        return [0] * (num_rows + 1), cols, []
    if isinstance(coeffs, np.ndarray) and coeffs.dtype.kind == "i":
        n_slots = int(slots.max()) + 1
        half = 1 << (slot_bits - 1)
        lo = int(cols.min())
        span = int(cols.max()) - lo + 1
        if (
            n_slots * slot_bits <= modulus.bit_length() <= 64 * _WORDS
            and slot_bits < 64
            and -half < int(coeffs.min()) and int(coeffs.max()) < half
            and num_rows * span < 1 << 62
        ):
            key = rows * span + (cols - lo)
            order = np.argsort(key, kind="stable")
            key = key[order]
            head = np.concatenate(([True], key[1:] != key[:-1]))
            first = np.flatnonzero(head)
            digits = np.zeros(first.size * n_slots, dtype=np.int64)
            digits[
                (np.cumsum(head) - 1) * n_slots + slots[order]
            ] = coeffs[order]
            digits = digits.reshape(first.size, n_slots)
            out_rows, out_cols = np.divmod(key[first], span)
            out_cols += lo
            indptr = np.searchsorted(out_rows, np.arange(num_rows + 1))
            if cache is None and n_slots > 1:
                values = _digit_values(digits, slot_bits, modulus)
            else:
                # Build each distinct digit vector's field element once.
                # A lone slot carries the coefficient itself (no product,
                # nothing for the cache to count): each distinct value is
                # made canonical once, cache or no cache.
                pick, inverse = distinct_rows(digits)
                if n_slots > 1:
                    cache.record(
                        hits=inverse.size - pick.size, misses=pick.size
                    )
                values = np.array(
                    _digit_values(digits[pick], slot_bits, modulus),
                    dtype=object,
                )[inverse].tolist()
            return indptr.tolist(), out_cols, values
    merged: dict = {}
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
        cache.record(hits=hits, misses=misses)
    indptr = [0] * (num_rows + 1)
    out_cols: List[int] = []
    values = []
    # Stable by row: within a row, columns keep first-occurrence order.
    for (row, col), value in sorted(merged.items(), key=lambda kv: kv[0][0]):
        value %= modulus
        if value:
            indptr[row + 1] += 1
            out_cols.append(col)
            values.append(value)
    for row in range(num_rows):
        indptr[row + 1] += indptr[row]
    return indptr, out_cols, values


def _as_list(values) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else values


def distinct_rows(rows) -> Tuple[object, object]:
    """``(pick, inverse)`` with ``rows[pick][inverse] == rows`` for a
    non-empty C-contiguous int64 matrix; ``pick`` holds first occurrences.

    A single column whose value range is no larger than the column itself
    addresses a table directly.  Otherwise rows are grouped by a 64-bit
    multiply-add hash (one argsort of a 1-D array instead of a
    lexicographic sort of the matrix) and the grouping is then *checked*
    against the rows themselves; on a hash collision every row is simply
    kept as its own group.
    """
    count, width = rows.shape
    if width == 1 and int(rows.max()) - int(rows.min()) < count:
        index = rows[:, 0] - rows.min()
        seen = np.zeros(count, dtype=bool)
        seen[index] = True
        inverse = (np.cumsum(seen) - 1)[index]
        groups = int(np.count_nonzero(seen))
    else:
        hashed = rows.view(np.uint64) @ _HASH_WEIGHTS[:width]  # mod 2^64
        order = np.argsort(hashed)
        hashed = hashed[order]
        head = np.concatenate(([True], hashed[1:] != hashed[:-1]))
        inverse = np.empty(count, dtype=np.intp)
        inverse[order] = np.cumsum(head) - 1
        groups = int(np.count_nonzero(head))
    pick = np.empty(groups, dtype=np.intp)
    pick[inverse[::-1]] = np.arange(count)[::-1]  # first occurrence wins
    if not np.array_equal(rows[pick][inverse], rows):
        pick = inverse = np.arange(count)
    return pick, inverse


def _digit_values(digits, slot_bits: int, modulus: int) -> List[int]:
    """``sum_j digits[:, j] * 2^(slot_bits*j) mod p`` as canonical ints.

    Each signed digit is biased by ``2^(slot_bits-1)`` into its own
    non-overlapping bit field, so the limbs form by shift-and-or with no
    carries; the bias total is then subtracted and ``p`` added back where
    the result went negative (``|sum| < 2^(bits-1) <= p``, so once is
    enough) — both with explicit borrow/carry across the four limbs.
    """
    count, n_slots = digits.shape
    half = 1 << (slot_bits - 1)
    fields = (digits + half).astype(np.uint64)
    limbs = np.zeros((_WORDS, count), dtype="<u8")
    for slot in range(n_slots):
        word, bit = divmod(slot_bits * slot, 64)
        limbs[word] |= fields[:, slot] << np.uint64(bit)
        if bit + slot_bits > 64:
            limbs[word + 1] |= fields[:, slot] >> np.uint64(64 - bit)
    offset = sum(half << (slot_bits * slot) for slot in range(n_slots))
    borrow = np.zeros(count, dtype=np.uint64)
    for word in range(_WORDS):
        sub = np.uint64((offset >> (64 * word)) & _WORD_MASK)
        under = limbs[word] < sub
        partial = limbs[word] - sub
        under |= partial < borrow
        limbs[word] = partial - borrow
        borrow = under.astype(np.uint64)
    negative, carry = borrow, np.zeros(count, dtype=np.uint64)
    for word in range(_WORDS):
        add = negative * np.uint64((modulus >> (64 * word)) & _WORD_MASK)
        partial = limbs[word] + add
        over = partial < add
        limbs[word] = partial + carry
        over |= limbs[word] < carry
        carry = over.astype(np.uint64)
    blob = limbs.T.tobytes()
    stride = 8 * _WORDS
    from_bytes = int.from_bytes
    return [
        from_bytes(blob[at:at + stride], "little")
        for at in range(0, count * stride, stride)
    ]


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
        side = RowSide(*pack_slots(
            [0] * len(self._cols), self._cols, self._slots, self._coeffs,
            1, self._slot_bits, self.cs.field.modulus, self.cache,
        ))
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
        side = RowSide(*pack_slots(
            *parts, full, slot_bits, self.cs.field.modulus, self.cache
        ))
        if self._count:
            self._cols.extend(cols[~closed].tolist())
            self._slots.extend(slots[~closed].tolist())
            self._coeffs.extend(coeffs[~closed].tolist())
        self.expressions_packed += count
        self.constraints_emitted += full
        ends = np.arange(1, full + 1) * capacity - 1 - opened
        if stale is not None:
            terms = len(stale.coeffs)  # of its one row
            side = RowSide(
                [0] + [terms + at for at in side.indptr],
                np.concatenate([stale.variables, side.variables]),
                stale.coeffs + side.coeffs,
            )
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
