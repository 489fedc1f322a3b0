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

from typing import (
    Dict,
    Iterable,
    Iterator,
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


class Digits(NamedTuple):
    """Coefficients as small signed *slot digits*: ``c_t = sum_k d_k(t)
    2^(width k) (mod p)`` — one digit for an ordinary coefficient, ``s``
    for a knit one (§4.2).  The one form the compiler writes digits in and
    the prover sums rows over (:mod:`repro.r1cs.csr`).

    ``low`` is every term's slot 0 (0 for a term without digits), ``wide``
    the ascending positions of the terms without digits (field-wide
    coefficients), ``knit`` the further slots of the terms that have them.
    """

    low: np.ndarray
    wide: np.ndarray
    knit: Tuple[KnitRun, ...]

    @classmethod
    def of(cls, coeffs: Sequence[int], modulus: int) -> "Digits":
        """Canonical coefficients as one slot: each centred into ``(-p/2,
        p/2)``, and without digits past ``2^62`` in magnitude."""
        top = modulus - _DIGIT_BOUND
        low = np.array(
            [c if c < _DIGIT_BOUND else c - modulus if c > top
             else _DIGIT_BOUND for c in coeffs],
            dtype=np.int64,
        )
        wide = np.flatnonzero(low == _DIGIT_BOUND)
        low[wide] = 0
        return cls(low, wide, ())

    @classmethod
    def slots(cls, digits, indptr, width: int, scale=None) -> "Digits":
        """A slot-major ``(slots, terms)`` integer matrix of digits
        ``width`` bits apart, over the rows of ``indptr``; ``scale`` bounds
        their magnitude (measured when not given)."""
        if len(digits) == 1 or not digits.size:
            return cls(digits[0], _NO_TERMS, ())
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
        return cls(digits[0], _NO_TERMS, (run,))

    @classmethod
    def concat(cls, parts: Sequence[Tuple["Digits", int, int]]) -> "Digits":
        """``(digits, rows, terms)`` parts one after another."""
        low, wide, knit = [], [], []
        rows = terms = 0
        for digits, num_rows, num_terms in parts:
            low.append(digits.low)
            wide.append(digits.wide + terms)
            knit += [
                run._replace(rows=run.rows + rows, starts=run.starts + terms)
                for run in digits.knit
            ]
            rows += num_rows
            terms += num_terms
        return cls(np.concatenate(low), np.concatenate(wide), tuple(knit))

    def slice(self, indptr: np.ndarray, start: int, stop: int) -> "Digits":
        """The digits of rows ``[start, stop)`` of a side with ``indptr``."""
        lo, hi = int(indptr[start]), int(indptr[stop])
        knit = []
        for run in self.knit:
            if run.rows[-1] < start or run.rows[0] >= stop:
                continue
            first, last = np.searchsorted(run.rows, (start, stop))
            if first == last:
                continue
            left, right = run.ptr[first], run.ptr[last]
            knit.append(KnitRun(
                run.rows[first:last] - start, run.starts[first:last] - lo,
                run.ptr[first:last + 1] - left, run.width,
                run.digits[:, left:right], run.scale,
            ))
        return Digits(
            self.low[lo:hi],
            self.wide[np.searchsorted(self.wide, lo):
                      np.searchsorted(self.wide, hi)] - lo,
            tuple(knit),
        )


class RowSide:
    """CSR storage for one side (A, B or C) of a run of constraint rows.

    ``variables[indptr[i]:indptr[i + 1]]`` are row ``i``'s signed variable
    indices and ``coeffs`` the aligned canonical field coefficients (ints)
    — the arrays the prover wants, written once by whoever lowers a whole
    layer at a time (:func:`repro.core.privacy.knit.pack_slots`,
    :func:`repro.aggregate.split.split_model`) and copied slice-wise into
    the CSR snapshot by :func:`repro.r1cs.csr.build_csr_structure`.
    ``indptr`` and ``variables`` are int64 ndarrays.  The coefficients are
    kept in a tuple: a tuple of ints is dropped from the cyclic
    collector's books after its first pass (as the ``{int: int}`` dicts of
    ordinary LCs never enter them), where a list of a million
    coefficients would be walked by every full collection.

    ``digits``, when known, is the same coefficients as :class:`Digits` —
    the knit digits :func:`~repro.core.privacy.knit.pack_slots` packs a
    coefficient from, or one slot of small signed coefficients; whoever
    needs them derives one centred slot for a side without them.
    """

    __slots__ = ("indptr", "variables", "coeffs", "digits")

    def __init__(
        self, indptr, variables, coeffs, digits: Optional[Digits] = None
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.variables = np.asarray(variables, dtype=np.int64)
        self.coeffs = tuple(coeffs)
        self.digits = digits

    def __len__(self) -> int:
        """The number of rows."""
        return len(self.indptr) - 1

    def slice(self, start: int, stop: int) -> "RowSide":
        """Rows ``[start, stop)``."""
        if start == 0 and stop == len(self):
            return self
        lo, hi = self.indptr[start], self.indptr[stop]
        digits = self.digits
        return RowSide(
            self.indptr[start:stop + 1] - lo,
            self.variables[lo:hi],
            self.coeffs[lo:hi],
            None if digits is None else digits.slice(self.indptr, start, stop),
        )

    @classmethod
    def concat(cls, sides: Sequence["RowSide"]) -> "RowSide":
        """The rows of ``sides``, one side after another."""
        sides = [side for side in sides if len(side)] or sides[:1]
        if len(sides) == 1:
            return sides[0]
        ends = np.cumsum([side.indptr[-1] for side in sides])
        indptr = np.concatenate([sides[0].indptr[:1]] + [
            side.indptr[1:] + end - side.indptr[-1]
            for side, end in zip(sides, ends)
        ])
        digits = None
        if all(side.digits is not None for side in sides):
            digits = Digits.concat([
                (side.digits, len(side), side.variables.size)
                for side in sides
            ])
        coeffs = []
        for side in sides:
            coeffs.extend(side.coeffs)
        return cls(
            indptr, np.concatenate([side.variables for side in sides]),
            coeffs, digits,
        )

    @classmethod
    def gather(cls, num_rows: int, pieces, modulus: int) -> "RowSide":
        """``num_rows`` rows from pieces; within a row, terms keep piece
        order.  A piece is ``(rows, variables, coeffs)`` — a scalar stands
        for every entry; coefficients are small signed integers or field
        residues, stored canonical, and kept as one slot of digits — or
        ``(rows, side)``: the terms of a :class:`RowSide`, in order, each
        of its rows moved whole to one row, with their digits."""
        rows = np.concatenate([piece[0] for piece in pieces])
        parts = [
            (piece[1].variables, np.array(piece[1].coeffs, dtype=object))
            if len(piece) == 2 else
            (np.broadcast_to(piece[1], piece[0].shape),
             np.broadcast_to(piece[2], piece[0].shape))
            for piece in pieces
        ]
        variables, coeffs = (
            np.concatenate([part[i] for part in parts]) for i in (0, 1)
        )
        order = np.argsort(rows, kind="stable")
        coeffs = coeffs[order]
        if coeffs.dtype.kind == "i":  # integer coefficients: their digits
            digits = Digits(coeffs, _NO_TERMS, ())
        else:
            digits = _sorted_digits(rows, order, pieces, parts, modulus)
        return cls(
            np.concatenate(
                ([0], np.cumsum(np.bincount(rows, minlength=num_rows)))
            ),
            variables[order],
            [c % modulus for c in coeffs.tolist()]
            if coeffs.size and coeffs.min() < 0 else coeffs.tolist(),
            digits,
        )


def _sorted_digits(rows, order, pieces, parts, modulus: int) -> Digits:
    """The :class:`Digits` of :meth:`RowSide.gather`'s terms, ``order``
    putting the pieces' terms, end to end, in row order: integers their
    own digit, residues centred, side pieces with their own digits — each
    knit segment moved whole to its row."""
    found = []
    for piece, (_, coeffs) in zip(pieces, parts):
        if len(piece) == 2:
            side = piece[1]
            digits = side.digits
            if digits is None:
                digits = Digits.of(side.coeffs, modulus)
        elif coeffs.dtype.kind == "i":
            digits = Digits(coeffs, _NO_TERMS, ())
        else:
            digits = Digits.of(coeffs.tolist(), modulus)
        found.append((digits, 0, coeffs.size))
    flat = Digits.concat(found)
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
    return Digits(flat.low[order], np.sort(inverse[flat.wide]), tuple(knit))


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
