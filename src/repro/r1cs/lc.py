"""Sparse linear combinations over constraint-system variables.

Variables are identified by signed integer indices:

* ``0``          — the constant-ONE variable,
* negative       — public (instance) variables, allocated as -1, -2, ...
* positive       — private (witness) variables, allocated as 1, 2, ...

This two-namespace scheme lets the compiler allocate public reference
outputs and private wires in any interleaving while the QAP layer still
produces the contiguous ``[1 | public | private]`` ordering Groth16 needs.

An LC is a sparse ``{variable index: coefficient}`` map.  Building LCs is
the paper's "free addition": combining ``k`` terms costs ``O(k)`` coefficient
arithmetic but zero constraints (§2.1).
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.field.counters import global_counter
from repro.field.fp import Field

ONE = 0  # index of the constant-one variable


class LinearCombination:
    """A sparse linear combination ``sum coeff_i * var_i`` over a field."""

    __slots__ = ("field", "terms")

    def __init__(
        self,
        field: Field,
        terms: Dict[int, int] = None,
    ) -> None:
        self.field = field
        self.terms: Dict[int, int] = terms if terms is not None else {}

    # -- constructors -----------------------------------------------------------

    @classmethod
    def constant(cls, field: Field, value: int) -> "LinearCombination":
        value %= field.modulus
        return cls(field, {ONE: value} if value else {})

    @classmethod
    def variable(
        cls, field: Field, index: int, coeff: int = 1
    ) -> "LinearCombination":
        coeff %= field.modulus
        return cls(field, {index: coeff} if coeff else {})

    def copy(self) -> "LinearCombination":
        return LinearCombination(self.field, dict(self.terms))

    # -- mutation (used by hot circuit-computation loops) -------------------------

    def add_term(self, index: int, coeff: int) -> None:
        """Fold ``coeff * var`` into this LC in place ("free addition")."""
        counter = global_counter()
        counter.lc_term += 1
        current = self.terms.get(index)
        if current is None:
            self.terms[index] = coeff % self.field.modulus
        else:
            counter.field_add += 1
            new = (current + coeff) % self.field.modulus
            if new:
                self.terms[index] = new
            else:
                del self.terms[index]

    def add_lc(self, other: "LinearCombination", scale: int = 1) -> None:
        """Fold ``scale * other`` into this LC in place.

        This is exactly the operation whose repetition makes the baseline
        arithmetic circuit's recursive expansion O(n^2) (§5.1): each call
        touches every term of ``other``.
        """
        terms = self.terms
        p = self.field.modulus
        n = len(other.terms)
        counter = global_counter()
        counter.lc_term += n
        counter.field_add += n
        if scale == 1:
            for index, coeff in other.terms.items():
                merged = (terms.get(index, 0) + coeff) % p
                if merged:
                    terms[index] = merged
                else:
                    terms.pop(index, None)
        else:
            counter.field_mul += n
            for index, coeff in other.terms.items():
                merged = (terms.get(index, 0) + coeff * scale) % p
                if merged:
                    terms[index] = merged
                else:
                    terms.pop(index, None)

    # -- functional operators (for readable non-hot code) --------------------------

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        out = self.copy()
        out.add_lc(other)
        return out

    def __sub__(self, other: "LinearCombination") -> "LinearCombination":
        out = self.copy()
        out.add_lc(other, scale=self.field.modulus - 1)
        return out

    def __mul__(self, scalar: int) -> "LinearCombination":
        scalar %= self.field.modulus
        if scalar == 0:
            return LinearCombination(self.field)
        global_counter().field_mul += len(self.terms)
        return LinearCombination(
            self.field,
            {i: (c * scalar) % self.field.modulus for i, c in self.terms.items()},
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinearCombination":
        return self * (self.field.modulus - 1)

    # -- evaluation -----------------------------------------------------------------

    def evaluate(self, assignment: "Assignment") -> int:
        """Value of this LC under a variable assignment (raw int mod p)."""
        acc = 0
        for index, coeff in self.terms.items():
            acc += coeff * assignment[index]
        global_counter().field_mul += len(self.terms)
        return acc % self.field.modulus

    # -- introspection -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def indices(self) -> Iterable[int]:
        return self.terms.keys()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCombination):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "LC(0)"
        parts = []
        for index, coeff in sorted(self.terms.items()):
            name = "1" if index == ONE else (
                f"pub{-index}" if index < 0 else f"w{index}"
            )
            parts.append(f"{coeff}*{name}")
        return "LC(" + " + ".join(parts) + ")"


# A centred coefficient below this in magnitude is its own slot-0 digit;
# one at or above it is field-wide and has no digits.
_DIGIT_BOUND = 1 << 62
# The dtypes knit digits are kept in, narrowest first, with their largest
# value.
_DTYPES = [
    (dtype, np.iinfo(dtype).max)
    for dtype in (np.int8, np.int16, np.int32, np.int64)
]
_NO_TERMS = np.zeros(0, dtype=np.int64)
_WORDS = 4  # 64-bit limbs a coefficient is joined in from its digits
_WORD_MASK = (1 << 64) - 1

# Multipliers of the row hash in :func:`distinct_rows`: one pseudo-random
# odd 64-bit value per column (a packed row never has more slots than
# field bits / 2).  Any fixed values do: groups are checked.
_HASH_WEIGHTS = np.random.default_rng(0).integers(
    1 << 63, size=128, dtype=np.uint64
) * np.uint64(2) + np.uint64(1)


class KnitRun(NamedTuple):
    """Slots ``1..`` of the knit terms of some rows, ``width`` bits apart.

    Segment ``k`` is the ``ptr[k + 1] - ptr[k]`` consecutive terms from
    term ``starts[k]``, all in row ``rows[k]``; segments are non-empty and
    in term order.  ``digits`` holds their slots ``1..``, slot-major, one
    column per term, segment after segment — in the narrowest integer
    dtype that holds ``scale``, a bound on every digit's magnitude.
    """

    rows: np.ndarray
    starts: np.ndarray
    ptr: np.ndarray
    width: int
    digits: np.ndarray
    scale: int

    def terms(self):
        """The run's term positions, in column order: a ``slice`` when the
        segments lie back to back (a packed side and its slices), else an
        index array."""
        first, count = int(self.starts[0]), int(self.ptr[-1])
        if int(self.starts[-1] + self.ptr[-1] - self.ptr[-2]) == first + count:
            return slice(first, first + count)
        counts = np.diff(self.ptr)
        return np.repeat(self.starts - self.ptr[:-1], counts) + np.arange(
            count
        )


_NO_SPAN = np.zeros((2, 0), dtype=np.int64)


def _span_of(knit: Sequence[KnitRun]) -> np.ndarray:
    """Each run's first and last row, ``(2, runs)``."""
    if not knit:
        return _NO_SPAN
    return np.array(
        [[run.rows[0] for run in knit], [run.rows[-1] for run in knit]],
        dtype=np.int64,
    )


class Digits(NamedTuple):
    """Coefficients as small signed *slot digits*: ``c_t = sum_k d_k(t)
    2^(width k) (mod p)`` — one digit for an ordinary coefficient, ``s``
    for a knit one (§4.2).  The one stored form of a row coefficient,
    from the compiler to the prover (:mod:`repro.r1cs.csr`); the
    canonical coefficients are derived from it by :meth:`coefficients`.

    ``low`` is every term's slot 0 (0 for a term without digits), ``wide``
    the ascending positions of the terms without digits (field-wide
    coefficients) and ``wide_values`` their canonical coefficients,
    ``knit`` the further slots of the terms that have them, ``modulus``
    the field's.  ``span``, when given, is each knit run's first and last
    row, a ``(2, runs)`` array — what :meth:`slice` picks the runs it cuts
    by, so a side of many runs is not walked run by run for every slice
    of it.
    """

    low: np.ndarray
    wide: np.ndarray
    wide_values: Tuple[int, ...]
    knit: Tuple[KnitRun, ...]
    modulus: int
    span: Optional[np.ndarray] = None

    @classmethod
    def of(cls, coeffs, modulus: int) -> "Digits":
        """Coefficients as one slot.  An integer ndarray is its own
        digits; other coefficients — canonical, or small signed — are each
        centred into ``(-p/2, p/2)``, and those past ``2^62`` in magnitude
        have no digits."""
        if isinstance(coeffs, np.ndarray):
            if coeffs.dtype.kind == "i":
                return cls(np.array(coeffs, dtype=np.int64), _NO_TERMS, (),
                           (), modulus)
            coeffs = coeffs.tolist()
        top = modulus - _DIGIT_BOUND
        low = np.array(
            [c if c < _DIGIT_BOUND else c - modulus if c > top
             else _DIGIT_BOUND for c in coeffs],
            dtype=np.int64,
        )
        wide = np.flatnonzero(low == _DIGIT_BOUND)
        low[wide] = 0
        return cls(
            low, wide, tuple(int(coeffs[t]) % modulus for t in wide.tolist()),
            (), modulus,
        )

    @classmethod
    def slots(cls, digits, indptr, width: int, modulus: int,
              scale=None) -> "Digits":
        """A slot-major ``(slots, terms)`` integer matrix of digits
        ``width`` bits apart, over the rows of ``indptr``; ``scale`` bounds
        their magnitude (measured when not given)."""
        if len(digits) == 1 or not digits.size:
            return cls(digits[0], _NO_TERMS, (), (), modulus)
        if scale is None:
            scale = max(-int(digits.min()), int(digits.max()))
        dtype = next(d for d, top in _DTYPES if scale <= top)
        digits = digits.astype(dtype, order="C", copy=False)
        indptr = np.asarray(indptr, dtype=np.int64)
        counts = np.diff(indptr)
        rows = np.flatnonzero(counts)
        run = KnitRun(
            rows, indptr[rows], np.r_[0, np.cumsum(counts[rows])], width,
            digits[1:], scale,
        )
        return cls(digits[0], _NO_TERMS, (), (run,), modulus, _span_of((run,)))

    @classmethod
    def concat(cls, parts: Sequence[Tuple["Digits", int, int]]) -> "Digits":
        """``(digits, rows, terms)`` parts one after another."""
        low, wide, values, knit, span = [], [], [], [], []
        rows = terms = 0
        for digits, num_rows, num_terms in parts:
            low.append(digits.low)
            if digits.wide.size:
                wide.append(digits.wide + terms)
                values += digits.wide_values
            if digits.knit:
                knit += [
                    run._replace(
                        rows=run.rows + rows, starts=run.starts + terms
                    )
                    for run in digits.knit
                ]
                span.append(digits.runs_span() + rows)
            rows += num_rows
            terms += num_terms
        return cls(
            np.concatenate(low),
            np.concatenate(wide) if wide else _NO_TERMS,
            tuple(values),
            tuple(knit),
            parts[0][0].modulus,
            np.concatenate(span, axis=1) if span else _NO_SPAN,
        )

    def runs_span(self) -> np.ndarray:
        """:attr:`span`, read off the runs when it was not given."""
        return _span_of(self.knit) if self.span is None else self.span

    def slice(self, indptr: np.ndarray, start: int, stop: int) -> "Digits":
        """The digits of rows ``[start, stop)`` of a side with ``indptr``."""
        lo, hi = int(indptr[start]), int(indptr[stop])
        wide, values = self.wide, self.wide_values
        if wide.size:
            first, last = wide.searchsorted((lo, hi)).tolist()
            wide, values = wide[first:last] - lo, values[first:last]
        knit = []
        if self.knit:
            first_row, last_row = self.runs_span()
            meets = (last_row >= start) & (first_row < stop)
            for i in np.flatnonzero(meets).tolist():
                run = self.knit[i]
                first, last = run.rows.searchsorted((start, stop)).tolist()
                if first == last:
                    continue
                left, right = run.ptr[first], run.ptr[last]
                knit.append(KnitRun(
                    run.rows[first:last] - start, run.starts[first:last] - lo,
                    run.ptr[first:last + 1] - left, run.width,
                    run.digits[:, left:right], run.scale,
                ))
        return Digits(self.low[lo:hi], wide, values, tuple(knit),
                      self.modulus, _span_of(knit))

    def coefficients(self) -> Tuple[int, ...]:
        """Every term's canonical coefficient, ``sum_k d_k 2^(width k) mod
        p`` — the one place a coefficient is built from its digits, for
        the readers that need field elements (set-up, export, dict-LC
        reads).  A knit run's terms are joined once per distinct digit
        vector."""
        p, low = self.modulus, self.low
        out = np.empty(low.size, dtype=object)
        rest = np.ones(low.size, dtype=bool)  # the terms of slot 0 alone
        if self.wide.size:
            out[self.wide] = self.wide_values
            rest[self.wide] = False
        for run in self.knit:
            terms = run.terms()
            rest[terms] = False
            digits = np.vstack((low[terms], run.digits)).astype(
                np.int64, copy=False
            )
            pick, inverse = distinct_rows(digits.T)
            out[terms] = np.array(
                _joined(digits[:, pick], run.width, p), dtype=object
            )[inverse]
        small = low[rest]
        values = small.astype(object)
        values[small < 0] += p
        out[rest] = values
        return tuple(out.tolist())


def distinct_rows(rows) -> Tuple[np.ndarray, np.ndarray]:
    """``(pick, inverse)`` with ``rows[pick][inverse] == rows`` for a
    non-empty int64 matrix; ``pick`` holds first occurrences.

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


def _joined(digits: np.ndarray, width: int, modulus: int) -> List[int]:
    """``sum_k digits[k] * 2^(width k) mod p`` per column of a slot-major
    matrix, as canonical ints.

    Where every digit lies in ``[-2^(width-1), 2^(width-1))`` and the
    sum's magnitude stays below ``p`` and four limbs, each digit is
    biased by ``2^(width-1)`` into its own non-overlapping bit field, so
    the limbs form by shift-and-or with no carries; the bias total is
    then subtracted and ``p`` added back where the result went negative
    — both with explicit borrow/carry across the four limbs — and one
    ``int.from_bytes`` a column reads the value.  Wider sums are joined in
    Python integers.
    """
    n_slots, count = digits.shape
    half = 1 << (width - 1)
    bound = half * (((1 << (width * n_slots)) - 1) // ((1 << width) - 1))
    if (
        width >= 64 or width * n_slots > 64 * _WORDS or bound >= modulus
        or int(digits.min()) < -half or int(digits.max()) >= half
    ):
        return [
            sum(d << (width * k) for k, d in enumerate(column)) % modulus
            for column in digits.T.tolist()
        ]
    fields = (digits + half).astype(np.uint64)
    limbs = np.zeros((_WORDS, count), dtype="<u8")
    for slot in range(n_slots):
        word, bit = divmod(width * slot, 64)
        limbs[word] |= fields[slot] << np.uint64(bit)
        if bit + width > 64:
            limbs[word + 1] |= fields[slot] >> np.uint64(64 - bit)
    offset = sum(half << (width * slot) for slot in range(n_slots))
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
    blobs = np.ascontiguousarray(limbs.T).view(f"V{8 * _WORDS}")
    return list(map(
        int.from_bytes, blobs.ravel().tolist(), repeat("little", count)
    ))


class RowSide:
    """CSR storage for one side (A, B or C) of a run of constraint rows.

    ``variables[indptr[i]:indptr[i + 1]]`` are row ``i``'s signed variable
    indices and ``digits`` the aligned coefficients as :class:`Digits` —
    the one form they are stored in, written once by whoever lowers a
    whole layer at a time (:func:`repro.core.privacy.knit.pack_slots`,
    :func:`repro.aggregate.split.split_model`) and cut and joined, never
    re-valued, by :meth:`slice`, :meth:`concat`, :meth:`gather` and the
    CSR builder (:func:`repro.r1cs.csr.build_csr_structure`).
    ``indptr`` and ``variables`` are int64 ndarrays.

    :attr:`coeffs`, the canonical coefficients, is derived from the
    digits on its first read and kept: a tuple, which the cyclic
    collector drops from its books after its first pass, where a list of
    a million coefficients would be walked by every full collection.
    """

    __slots__ = ("indptr", "variables", "digits", "_coeffs")

    def __init__(self, indptr, variables, digits: Digits) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.variables = np.asarray(variables, dtype=np.int64)
        self.digits = digits
        self._coeffs: Optional[Tuple[int, ...]] = None

    @classmethod
    def of(cls, indptr, variables, coeffs, modulus: int) -> "RowSide":
        """A side from its coefficients (:meth:`Digits.of`)."""
        return cls(indptr, variables, Digits.of(coeffs, modulus))

    @property
    def coeffs(self) -> Tuple[int, ...]:
        """The canonical coefficients (:meth:`Digits.coefficients`)."""
        if self._coeffs is None:
            self._coeffs = self.digits.coefficients()
        return self._coeffs

    def __len__(self) -> int:
        """The number of rows."""
        return len(self.indptr) - 1

    def slice(self, start: int, stop: int) -> "RowSide":
        """Rows ``[start, stop)``."""
        if start == 0 and stop == len(self):
            return self
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        return RowSide(
            self.indptr[start:stop + 1] - lo,
            self.variables[lo:hi],
            self.digits.slice(self.indptr, start, stop),
        )

    @classmethod
    def concat(cls, sides: Sequence["RowSide"]) -> "RowSide":
        """The rows of ``sides``, one side after another."""
        sides = [side for side in sides if len(side)] or sides[:1]
        if len(sides) == 1:
            return sides[0]
        ptrs, total = [sides[0].indptr[:1]], 0
        for side in sides:
            ptrs.append(side.indptr[1:] + total)
            total += int(side.indptr[-1])
        return cls(
            np.concatenate(ptrs),
            np.concatenate([side.variables for side in sides]),
            Digits.concat([
                (side.digits, len(side), side.variables.size)
                for side in sides
            ]),
        )

    @classmethod
    def gather(cls, num_rows: int, pieces, modulus: int) -> "RowSide":
        """``num_rows`` rows from pieces; within a row, terms keep piece
        order.  A piece is ``(rows, variables, coeffs)`` — a scalar stands
        for every entry; coefficients are small signed integers or field
        residues, kept as one slot of digits — or ``(rows, side)``: the
        terms of a :class:`RowSide`, in order, each of its rows moved
        whole to one row, with their digits."""
        rows = np.concatenate([piece[0] for piece in pieces])
        variables, found = [], []
        for piece in pieces:
            if len(piece) == 2:
                side = piece[1]
                variables.append(side.variables)
                digits = side.digits
            else:
                at, piece_vars, coeffs = piece
                variables.append(np.broadcast_to(piece_vars, at.shape))
                digits = Digits.of(np.broadcast_to(coeffs, at.shape), modulus)
            found.append((digits, 0, digits.low.size))
        order = np.argsort(rows, kind="stable")
        return cls(
            np.concatenate(
                ([0], np.cumsum(np.bincount(rows, minlength=num_rows)))
            ),
            np.concatenate(variables)[order],
            _sorted_digits(rows, order, Digits.concat(found)),
        )


def _sorted_digits(rows, order, flat: Digits) -> Digits:
    """:meth:`RowSide.gather`'s digits ``flat``, the pieces' terms end to
    end, with ``order`` putting the terms in row order — each knit
    segment moved whole to its row."""
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    knit = []
    for run in flat.knit:
        starts = inverse[run.starts]
        run = run._replace(rows=rows[run.starts], starts=starts)
        if (np.diff(starts) < 0).any():  # segments back in term order
            pick = np.argsort(starts)
            counts = np.diff(run.ptr)[pick]
            ptr = np.r_[0, np.cumsum(counts)]
            run = run._replace(
                rows=run.rows[pick], starts=starts[pick], ptr=ptr,
                digits=run.digits[:, np.repeat(
                    run.ptr[:-1][pick] - ptr[:-1], counts
                ) + np.arange(ptr[-1])],
            )
        knit.append(run)
    wide = inverse[flat.wide]
    pick = np.argsort(wide).tolist()
    return Digits(
        flat.low[order], wide[pick],
        tuple(flat.wide_values[k] for k in pick), tuple(knit),
        flat.modulus, _span_of(knit),
    )


class RowBlock:
    """A run of constraint rows ``<A_i, z> * <B_i, z> = <C_i, z>`` held as
    three row-aligned :class:`RowSide` s.

    ``b`` / ``c`` absent means ``row * 1 = 0`` — the shape of every packed
    zero-expression the dot lowering emits.  ``tags`` is an optional
    per-row provenance list; without it the rows take the tag
    :meth:`~repro.r1cs.system.ConstraintSystem.enforce_rows` is given.
    """

    __slots__ = ("a", "b", "c", "tags")

    def __init__(
        self,
        a: RowSide,
        b: Optional[RowSide] = None,
        c: Optional[RowSide] = None,
        tags: Optional[Sequence[str]] = None,
    ) -> None:
        rows = len(a)
        for side in (b, c, tags):
            if side is not None and len(side) != rows:
                raise ValueError(
                    f"row block sides disagree: {len(side)} != {rows} rows"
                )
        self.a = a
        self.b = b
        self.c = c
        self.tags = tags

    @property
    def num_rows(self) -> int:
        return len(self.a)


class RowRun(NamedTuple):
    """Rows ``[start, stop)`` of ``block`` — the one form a constraint
    system stores its rows in."""

    block: RowBlock
    start: int
    stop: int
    tag: str

    def tags(self) -> Sequence[str]:
        """One provenance tag per row of the run."""
        tags = self.block.tags
        if tags is None:
            return [self.tag] * (self.stop - self.start)
        return tags[self.start:self.stop]


class Assignment:
    """Values for all variables, indexed by the signed-index scheme."""

    __slots__ = ("public", "private")

    def __init__(self, public: list, private: list) -> None:
        self.public = public  # public[i] is the value of variable -(i+1)
        self.private = private  # private[i] is the value of variable i+1

    def __getitem__(self, index: int) -> int:
        if index == ONE:
            return 1
        if index < 0:
            return self.public[-index - 1]
        return self.private[index - 1]
