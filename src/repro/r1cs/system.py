"""The constraint system: variables, constraints, and witness assignment."""

from __future__ import annotations

import bisect
import operator
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.field.fp import BN254_FR, Field
from repro.r1cs.constraint import Constraint
from repro.r1cs.csr import SignedWitness, build_csr_structure, centre, centred
from repro.r1cs.lc import (
    ONE,
    Assignment,
    LinearCombination,
    RowBlock,
    RowRun,
    RowSide,
)

# Rows a read turns into Constraints at a time.
_READ_ROWS = 4096
_ONE = np.ones(1, dtype=np.int64)  # the constant one's centred value


@dataclass(frozen=True)
class Violation:
    """One unsatisfied constraint, with its provenance."""

    index: int
    constraint: Constraint
    layer: Optional[str]  # enclosing mark_layer tag, if any

    def __repr__(self) -> str:
        where = f" in layer {self.layer!r}" if self.layer else ""
        return f"Violation(#{self.index}{where}: {self.constraint!r})"


class ConstraintSystem:
    """Accumulates variables and constraints during circuit computation.

    Two variable namespaces (see :mod:`repro.r1cs.lc`):

    * *public* (instance) variables — the reference outputs ``ref`` the
      verifier learns (e.g. the NN prediction);
    * *private* (witness) variables — the paper's ``X_i`` and ``Wire_j``.

    Values may be assigned eagerly at allocation (the common path — the
    prover knows everything) or later via :meth:`assign`; the latter is what
    batch-specialized constraint-system sharing (§6.1) uses to re-prove the
    same system on a new image without regenerating constraints.
    """

    def __init__(self, field: Field = BN254_FR, name: str = "cs") -> None:
        self.field = field
        self.name = name
        # Rows in order, as runs (RowRun) — the one stored form.  The
        # rows of consecutive ``enforce`` calls make one run, their terms
        # collected in ``_open`` until it is filed: at the next
        # ``enforce_rows`` or read of the rows.
        self._runs: List[RowRun] = []
        self._ends = [0]  # _ends[k + 1]: the system row after run k
        self._open = _OpenRun()
        self._public_values: List[Optional[int]] = []
        self._private_values: List[Optional[int]] = []
        # The same values centred into int64 (repro.r1cs.csr.centred), 0
        # where unassigned: the public ones, the private ones.
        self._centred = (array("q"), array("q"))
        self._witness: Optional[SignedWitness] = None
        # Layer provenance: constraint index ranges per compiler-layer tag.
        self.layer_ranges: Dict[str, range] = {}
        # Prover fast-path caches: the dense [1, publics..., privates...]
        # vector (invalidated on allocate/assign) and the CSR structure
        # (invalidated on enforce).  See repro.r1cs.csr.
        self._dense_cache: Optional[List[int]] = None
        self._csr_cache = None
        # layer_of() fast path: sorted disjoint (start, stop, tag) intervals,
        # invalidated on mark_layer and on constraint append.
        self._layer_index: Optional[List[Tuple[int, int, str]]] = None
        # repro.lookup: one LookupBlock per table argument emitted into this
        # system — consumed by the determinism auditor and batch replay.
        self.lookup_blocks: List = []

    # -- allocation ----------------------------------------------------------

    def new_public(self, value: Optional[int] = None) -> int:
        """Allocate a public (instance) variable; returns its signed index."""
        self._append(value, public=True)
        self._csr_cache = None  # public count shifts every private position
        return -len(self._public_values)

    def new_private(self, value: Optional[int] = None) -> int:
        """Allocate a private (witness) variable; returns its signed index."""
        self._append(value, public=False)
        return len(self._private_values)

    def _append(self, value: Optional[int], public: bool) -> None:
        """One more variable of a namespace, ``value`` as allocated."""
        p = self.field.modulus
        if value is not None:
            value %= p
        store = self._public_values if public else self._private_values
        store.append(value)
        self._centred[not public].append(
            0 if value is None else centre(value, p)
        )
        self._dense_cache = None

    def allocate(self, values: Iterable[int], public: bool = False) -> int:
        """Allocate one variable per value in bulk; returns the first index.

        The variables are consecutive in their namespace: private indices
        ``first, first + 1, ...``, public ones ``first, first - 1, ...`` —
        exactly what the same sequence of :meth:`new_private` /
        :meth:`new_public` calls would have returned (``None`` leaves a
        variable unassigned, as it does there).  ``values`` handed as an
        integer array are kept as the centred witness as they are: small
        signed values are their own centred form.
        """
        p = self.field.modulus
        store = self._public_values if public else self._private_values
        before = len(store)
        handed, values = _listed(values)
        values = [v if v is None else v % p for v in values]
        store.extend(values)
        self._centred[not public].extend(
            centred(values if handed is None else handed, p)
        )
        self._dense_cache = None
        if public:
            self._csr_cache = None  # public count shifts every private position
            return -(before + 1)
        return before + 1

    def assign(self, index: int, value: int) -> None:
        """(Re)assign a variable — used when sharing a system across images."""
        p = self.field.modulus
        value %= p
        if index == ONE:
            raise ValueError("cannot assign the constant-one variable")
        if index < 0:
            self._public_values[-index - 1] = value
        else:
            self._private_values[index - 1] = value
        self._centred[index > 0][abs(index) - 1] = centre(value, p)
        self._dense_cache = None

    def assign_run(self, first: int, values: Sequence[int]) -> None:
        """(Re)assign consecutive variables in bulk, from ``first`` on.

        The counterpart of :meth:`allocate`: private ``first, first + 1,
        ...`` or public ``first, first - 1, ...`` take ``values`` in order.
        """
        p = self.field.modulus
        if first == ONE:
            raise ValueError("cannot assign the constant-one variable")
        store = self._public_values if first < 0 else self._private_values
        start = abs(first) - 1
        handed, values = _listed(values)
        stop = start + len(values)
        if stop > len(store):
            raise IndexError("assign_run past the last allocated variable")
        values = [v % p for v in values]
        store[start:stop] = values
        self._centred[first > 0][start:stop] = centred(
            values if handed is None else handed, p
        )
        self._dense_cache = None

    # -- LC helpers -----------------------------------------------------------

    def lc(self) -> LinearCombination:
        return LinearCombination(self.field)

    def lc_constant(self, value: int) -> LinearCombination:
        return LinearCombination.constant(self.field, value)

    def lc_variable(self, index: int, coeff: int = 1) -> LinearCombination:
        return LinearCombination.variable(self.field, index, coeff)

    # -- constraints -------------------------------------------------------------

    def enforce(
        self,
        a: LinearCombination,
        b: LinearCombination,
        c: LinearCombination,
        tag: str = "",
    ) -> None:
        """Add the constraint ``a * b = c``; the LCs' terms are copied,
        so a later edit of ``a``, ``b`` or ``c`` changes no row."""
        self._open.add((a, b, c), tag)
        self._csr_cache = None
        self._layer_index = None

    def enforce_rows(
        self,
        block: RowBlock,
        tag: str = "",
        start: int = 0,
        stop: Optional[int] = None,
    ) -> None:
        """Add rows ``[start, stop)`` of ``block``, ``tag``ged unless the
        block carries its own per-row tags.

        No per-row object is built: the run is held as arrays, which
        :meth:`to_csr` copies wholesale.
        """
        stop = block.num_rows if stop is None else stop
        if stop > start:
            self._file(RowRun(block, start, stop, tag))
        self._csr_cache = None
        self._layer_index = None

    def enforce_equal(
        self, lc: LinearCombination, ref: LinearCombination, tag: str = ""
    ) -> None:
        """Add the equality check ``(lc - ref) * 1 = 0`` (Eq. 2/3 pattern)."""
        diff = lc - ref
        one = self.lc_constant(1)
        zero = self.lc()
        self.enforce(diff, one, zero, tag=tag)

    def mul_private(
        self, x_index: int, w_index: int, tag: str = ""
    ) -> int:
        """Multiply two private variables; costs exactly one constraint.

        Returns the wire holding the product (the paper's
        ``(1*w_i) * (1*x_i) = Wire_i`` from Eq. 2).  Values propagate if both
        operands are assigned.
        """
        x_val = self.value_of(x_index)
        w_val = self.value_of(w_index)
        product = (
            self.field.mul(x_val, w_val)
            if x_val is not None and w_val is not None
            else None
        )
        wire = self.new_private(product)
        self.enforce(
            self.lc_variable(w_index),
            self.lc_variable(x_index),
            self.lc_variable(wire),
            tag=tag,
        )
        return wire

    # -- layer provenance ----------------------------------------------------------

    def mark_layer(self, tag: str, start: int) -> None:
        """Record that constraints ``[start, len)`` belong to layer ``tag``."""
        self.layer_ranges[tag] = range(start, self.num_constraints)
        self._layer_index = None

    # -- inspection ------------------------------------------------------------------

    @property
    def constraints(self) -> Sequence[Constraint]:
        """Every row as a :class:`Constraint`, in order — a read-only
        view: each read builds fresh dict-LC Constraints from the stored
        runs (the LC ``1`` for an absent B, the zero LC for an absent C),
        so editing one changes no row."""
        return _Rows(self)

    def _file(self, run: RowRun) -> None:
        """Append ``run`` after the open rows, filed first."""
        self._runs_filed()
        self._runs.append(run)
        self._ends.append(self._ends[-1] + run.stop - run.start)

    def _runs_filed(self) -> List[RowRun]:
        """Every run, the open rows of ``enforce`` filed as one first."""
        open_run = self._open
        if open_run.tags:
            self._open = _OpenRun()
            self._file(open_run.run(self.field.modulus))
        return self._runs

    def _read(self, start: int, stop: int) -> Iterator[Constraint]:
        """Rows ``[start, stop)`` as fresh Constraints."""
        runs, ends = self._runs_filed(), self._ends
        k = bisect.bisect_right(ends, start) - 1
        while start < stop:
            run, end = runs[k], ends[k + 1]
            first = run.stop - end  # block row of system row 0
            last = min(stop, end)
            yield from _run_constraints(
                self.field, run, start + first, last + first
            )
            start, k = last, k + 1

    def row_tags(self) -> List[str]:
        """The provenance tag of every row, in order."""
        tags: List[str] = []
        for run in self._runs_filed():
            tags.extend(run.tags())
        return tags

    @property
    def num_constraints(self) -> int:
        return self._ends[-1] + len(self._open.tags)

    @property
    def num_public(self) -> int:
        return len(self._public_values)

    @property
    def num_private(self) -> int:
        return len(self._private_values)

    @property
    def num_variables(self) -> int:
        """Total variables including the constant one."""
        return 1 + self.num_public + self.num_private

    def value_of(self, index: int) -> Optional[int]:
        if index == ONE:
            return 1
        if index < 0:
            return self._public_values[-index - 1]
        return self._private_values[index - 1]

    def assignment(self) -> Assignment:
        """Full assignment; raises if any variable is unassigned.

        Returns fresh lists (callers — e.g. the witness fuzzer — mutate
        them in place); the prover hot path uses :meth:`dense_assignment`
        instead, which is cached.
        """
        dense = self.dense_assignment()
        split = 1 + self.num_public
        return Assignment(dense[1:split], dense[split:])

    def dense_assignment(self) -> List[int]:
        """The dense ``[1, publics..., privates...]`` vector, cached.

        This is the Groth16 assignment order (see
        :func:`repro.snark.qap.variable_order`); the cache is invalidated
        by every allocation and :meth:`assign`, so batch re-assignment
        (§6.1) pays one rebuild per image instead of one per evaluation.
        Callers must not mutate the returned list.
        """
        dense = self._dense_cache
        if dense is not None:
            return dense
        for i, v in enumerate(self._public_values):
            if v is None:
                raise ValueError(f"public variable -{i + 1} unassigned")
        for i, v in enumerate(self._private_values):
            if v is None:
                raise ValueError(f"private variable {i + 1} unassigned")
        dense = [1]
        dense.extend(self._public_values)
        dense.extend(self._private_values)
        self._dense_cache = dense
        return dense

    def signed_assignment(self) -> SignedWitness:
        """:meth:`dense_assignment` with its centred int64 values — those
        the variables were handed, kept since — cached with it."""
        dense = self.dense_assignment()
        witness = self._witness
        if witness is None or witness.z is not dense:
            public, private = self._centred
            witness = self._witness = SignedWitness(dense, np.concatenate((
                _ONE, np.frombuffer(public, dtype=np.int64),
                np.frombuffer(private, dtype=np.int64),
            )))
        return witness

    def to_csr(self, assignment: bool = True):
        """CSR snapshot of the three constraint matrices (see
        :mod:`repro.r1cs.csr`).

        The structure (``indptr``/``indices``/``digits``) is cached until
        the next :meth:`enforce` or public allocation; with ``assignment``
        (the default) the snapshot's dense ``z`` vector is refreshed from
        :meth:`signed_assignment` on every call, so §6.1 batch sharing
        reuses one structure across images.
        """
        csr = self._csr_cache
        if csr is None or csr.num_rows != self.num_constraints:
            csr = build_csr_structure(
                self._runs_filed(), self.num_public, self.num_private,
                self.field.modulus,
            )
            self._csr_cache = csr
        csr.num_private = self.num_private  # privates may grow post-snapshot
        csr.bind(self.signed_assignment() if assignment else None)
        return csr

    def public_values(self) -> List[int]:
        return [v if v is not None else 0 for v in self._public_values]

    def is_satisfied(self) -> bool:
        return not self.violations(limit=1)

    def first_unsatisfied(self) -> Optional[Constraint]:
        """The first violated constraint, for debugging compiler passes."""
        found = self.violations(limit=1)
        return found[0].constraint if found else None

    def _build_layer_index(self) -> List[Tuple[int, int, str]]:
        """Sorted disjoint ``(start, stop, tag)`` intervals for layer_of.

        Tags are processed in ``layer_ranges`` insertion order, each
        claiming only the index space no earlier tag already covers — the
        same first-match-wins answer the old per-call linear scan gave,
        now answerable with one bisect.  Rebuilt lazily after any
        :meth:`mark_layer` or constraint append.
        """
        claimed: List[Tuple[int, int, str]] = []  # sorted, disjoint
        for tag, rng in self.layer_ranges.items():
            if rng.stop <= rng.start:
                continue
            # Carve [rng.start, rng.stop) around already-claimed intervals.
            gaps = [(rng.start, rng.stop)]
            for start, stop, _ in claimed:
                next_gaps = []
                for lo, hi in gaps:
                    if stop <= lo or start >= hi:
                        next_gaps.append((lo, hi))
                        continue
                    if lo < start:
                        next_gaps.append((lo, start))
                    if stop < hi:
                        next_gaps.append((stop, hi))
                gaps = next_gaps
            for lo, hi in gaps:
                bisect.insort(claimed, (lo, hi, tag))
        self._layer_index = claimed
        return claimed

    def layer_of(self, index: int) -> Optional[str]:
        """The mark_layer tag whose range covers constraint ``index``.

        Audit lints and :meth:`violations` call this once per finding;
        the cached interval index makes each call ``O(log L)`` instead of
        a linear scan over every tagged range.
        """
        intervals = self._layer_index
        if intervals is None:
            intervals = self._build_layer_index()
        pos = bisect.bisect_right(intervals, (index, float("inf"))) - 1
        if pos >= 0:
            start, stop, tag = intervals[pos]
            if start <= index < stop:
                return tag
        return None

    def violations(
        self, limit: Optional[int] = None, assignment: Optional[Assignment] = None
    ) -> List[Violation]:
        """All unsatisfied constraints (up to ``limit``) with layer tags.

        Audit and fuzz reporting want the *full* violation picture — a
        mutated witness that breaks one constraint but silently satisfies a
        rewritten neighbour is exactly the signal the soundness tooling
        looks for.  Pass ``assignment`` to evaluate a candidate witness
        without touching the stored values.

        With the stored witness (no explicit ``assignment``) the scan runs
        over the cached CSR snapshot + dense vector instead of per-LC dict
        walks — the row evaluator the prover uses
        (:func:`repro.r1cs.csr.unsatisfied_rows`).
        """
        if assignment is None:
            from repro.r1cs.csr import unsatisfied_rows

            found: List[Violation] = []
            for index in unsatisfied_rows(self.to_csr()):
                found.append(
                    Violation(
                        index, self.constraints[index], self.layer_of(index)
                    )
                )
                if limit is not None and len(found) >= limit:
                    break
            return found
        found = []
        for index, constraint in enumerate(self.constraints):
            if constraint.is_satisfied(assignment):
                continue
            found.append(Violation(index, constraint, self.layer_of(index)))
            if limit is not None and len(found) >= limit:
                break
        return found

    def total_lc_terms(self) -> int:
        """Total materialized LC terms — proxy for circuit-computation cost."""
        return sum(c.num_terms() for c in self.constraints)

    def __repr__(self) -> str:
        return (
            f"ConstraintSystem({self.name}: m={self.num_constraints}, "
            f"pub={self.num_public}, priv={self.num_private})"
        )


def _listed(values) -> Tuple[Optional[np.ndarray], list]:
    """``(handed, values)``: an integer array as handed (None for other
    values, centred from their canonical form) and the values as a
    list."""
    if isinstance(values, np.ndarray):
        return (values if values.dtype.kind == "i" else None), values.tolist()
    return None, list(values)


class _Rows(SequenceABC):
    """:attr:`ConstraintSystem.constraints`: the rows as Constraints,
    built on each read; it has no way to add, remove or replace one."""

    __slots__ = ("_cs",)

    def __init__(self, cs: ConstraintSystem) -> None:
        self._cs = cs

    def __len__(self) -> int:
        return self._cs.num_constraints

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            return list(self._cs._read(start, stop))
        index = operator.index(index)
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("constraint index out of range")
        return next(self._cs._read(index, index + 1))

    def __iter__(self) -> Iterator[Constraint]:
        return self._cs._read(0, len(self))


class _OpenRun:
    """The rows of consecutive ``enforce`` calls, as term lists per side
    until they are filed as one run."""

    __slots__ = ("sides", "tags")

    def __init__(self) -> None:
        self.sides = tuple(([0], [], []) for _ in range(3))
        self.tags: List[str] = []

    def add(self, lcs, tag: str) -> None:
        for (indptr, variables, coeffs), lc in zip(self.sides, lcs):
            terms = lc.terms
            variables.extend(terms)
            coeffs.extend(terms.values())
            indptr.append(len(variables))
        self.tags.append(tag)

    def run(self, modulus: int) -> RowRun:
        block = RowBlock(
            *(
                RowSide.of(indptr, variables, coeffs, modulus)
                for indptr, variables, coeffs in self.sides
            ),
            tags=self.tags,
        )
        return RowRun(block, 0, block.num_rows, "")


def _side_lcs(field: Field, side: Optional[RowSide], absent: Dict[int, int],
              start: int, stop: int) -> List[LinearCombination]:
    """Rows ``[start, stop)`` of ``side`` as dict LCs (``absent`` for
    each row when there is no side)."""
    if side is None:
        return [LinearCombination(field, dict(absent))
                for _ in range(start, stop)]
    ptr = side.indptr[start:stop + 1]
    lo, hi = int(ptr[0]), int(ptr[-1])
    ptr = (ptr - lo).tolist()
    variables, coeffs = side.variables[lo:hi].tolist(), side.coeffs[lo:hi]
    return [
        LinearCombination(
            field, dict(zip(variables[head:tail], coeffs[head:tail]))
        )
        for head, tail in zip(ptr, ptr[1:])
    ]


def _run_constraints(field: Field, run: RowRun, start: int,
                     stop: int) -> Iterator[Constraint]:
    """Rows ``[start, stop)`` of ``run.block`` as Constraints, a few
    thousand built at a time."""
    block = run.block
    for head in range(start, stop, _READ_ROWS):
        tail = min(head + _READ_ROWS, stop)
        tags = (
            [run.tag] * (tail - head) if block.tags is None
            else block.tags[head:tail]
        )
        yield from map(
            Constraint,
            _side_lcs(field, block.a, {}, head, tail),
            _side_lcs(field, block.b, {ONE: 1}, head, tail),
            _side_lcs(field, block.c, {}, head, tail),
            tags,
        )
