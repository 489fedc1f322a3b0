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


class RowSide:
    """CSR storage for one side (A, B or C) of a run of constraint rows.

    ``variables[indptr[i]:indptr[i + 1]]`` are row ``i``'s signed variable
    indices (an integer ndarray) and ``coeffs`` the aligned canonical
    field coefficients (ints) — the arrays the prover wants, written once
    by whoever lowers a whole layer at a time
    (:func:`repro.core.privacy.knit.pack_slots`,
    :func:`repro.aggregate.split.split_model`) and copied slice-wise into
    the CSR snapshot by :func:`repro.r1cs.csr.build_csr_structure`.
    The coefficients are kept in a tuple: a tuple of ints is dropped from
    the cyclic collector's books after its first pass (as the ``{int:
    int}`` dicts of ordinary LCs never enter them), where a list of a
    million coefficients would be walked by every full collection.
    """

    __slots__ = ("indptr", "variables", "coeffs")

    def __init__(self, indptr: list, variables, coeffs) -> None:
        self.indptr = indptr
        self.variables = np.asarray(variables, dtype=np.int64)
        self.coeffs = tuple(coeffs)

    def __len__(self) -> int:
        """The number of rows."""
        return len(self.indptr) - 1

    @classmethod
    def gather(cls, num_rows: int, pieces, modulus: int) -> "RowSide":
        """``num_rows`` rows from ``(rows, variables, coeffs)`` pieces (a
        scalar stands for every entry of its piece); within a row, terms
        keep piece order.  Coefficients are small signed integers or
        field residues, stored canonical."""
        rows = np.concatenate([r for r, _, _ in pieces])
        variables, coeffs = (
            np.concatenate([np.broadcast_to(piece[i], piece[0].shape)
                            for piece in pieces])
            for i in (1, 2)
        )
        order = np.argsort(rows, kind="stable")
        coeffs = coeffs[order]
        return cls(
            np.concatenate(
                ([0], np.cumsum(np.bincount(rows, minlength=num_rows)))
            ).tolist(),
            variables[order],
            [c % modulus for c in coeffs.tolist()]
            if coeffs.size and coeffs.min() < 0 else coeffs.tolist(),
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
    """Rows ``[start, stop)`` of ``block``, as a constraint system holds
    them until something reads ``cs.constraints``."""

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


class RowView(LinearCombination):
    """One :class:`RowSide` row, read through the LC interface.

    The ``terms`` dict is built on first read (the slot is simply unset
    until then, so :meth:`__getattr__` runs exactly once); from that point
    on the view *is* a plain dict LC — ``block`` is dropped, mutations go
    to the dict, and the CSR builder walks it like any other LC.  The
    proving path checks ``block`` first and never triggers the read.
    """

    __slots__ = ("block", "row")

    def __init__(self, field: Field, block: RowSide, row: int) -> None:
        self.field = field
        self.block = block
        self.row = row

    def __getattr__(self, name: str):
        if name != "terms":
            raise AttributeError(name)
        block, row = self.block, self.row
        lo, hi = block.indptr[row], block.indptr[row + 1]
        terms = dict(zip(block.variables[lo:hi].tolist(), block.coeffs[lo:hi]))
        self.terms = terms
        self.block = None
        return terms

    def __len__(self) -> int:
        block = self.block
        if block is None:
            return len(self.terms)
        return block.indptr[self.row + 1] - block.indptr[self.row]


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
