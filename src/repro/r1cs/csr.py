"""Compressed-sparse-row snapshot of the R1CS matrices, and the one
evaluator of their rows.

The prover evaluates ``<A_j, z>``, ``<B_j, z>``, ``<C_j, z>`` for every
constraint row ``j``, and so does the satisfaction check.  Walking the
per-constraint :class:`~repro.r1cs.lc.LinearCombination` dicts pays a
Python method call per term; a CSR snapshot holds each matrix as flat
arrays instead —

* ``indptr``  — row offsets, ``len == num_rows + 1`` (int64);
* ``indices`` — *dense* column positions into the Groth16-ordered
  assignment vector ``z = [1, publics..., privates...]`` (int64);
* ``digits``  — the coefficients, aligned with ``indices``, as slot
  digits (:class:`~repro.r1cs.lc.Digits`), the one form they are stored
  in; ``coeffs``, the canonical field coefficients (ints), is derived
  from them on its first read — by set-up, not by the prover;

— and one dense assignment vector.  The structure depends only on the
constraints (not the witness), so batch-specialized sharing (§6.1)
builds it once and only refreshes ``z`` per image.

Signed variable indices (see :mod:`repro.r1cs.lc`) map to dense positions
as ``ONE -> 0``, public ``-k -> k``, private ``+k -> num_public + k`` —
exactly :func:`repro.snark.qap.variable_order`.

Rows in int64.  ZENO's dot outputs are low-bit (§4): a coefficient the
compiler writes is a sum of small signed slot digits, ``c = sum_k d_k
2^(w k) (mod p)`` — one digit for an ordinary coefficient, ``s`` for a
knit coefficient (§4.2) — and a witness value, centred into
``(-p/2, p/2)``, is small as well.  So :func:`row_values` sums each slot
of a row in int64 (``np.add.reduceat``) and pays big-integer operations
only to join the slot sums of a knit row, ``sum_k 2^(w k) S_k`` — at most
``s`` a row.  A term whose sum it cannot bound into int64 goes to the
*bigint lane*, one ``coeff * z`` product: a coefficient without digits (a
field-wide constant — a sponge round constant, a LogUp challenge term),
whose canonical value :class:`~repro.r1cs.lc.Digits` keeps, or a witness
value past what its row's digits allow, ``sum |d| |z| < 2^63`` over the
row (the sponge, LogUp and hashed-boundary wires) — a knit term's
coefficient then joined from its own digits.  The lane of each term is
decided from the data, at every evaluation.  The witness arrives centred
already: :class:`~repro.r1cs.system.ConstraintSystem` keeps the int64
values it is handed next to the canonical ones.
"""

from __future__ import annotations

from array import array
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.r1cs.lc import Digits, KnitRun, RowRun, RowSide

# A row's slot sums stay within this magnitude, just inside int64: the
# margin covers the float64 rounding of row weights (see _row_limits).
_ROW_BOUND = 2.0**63 * (1 - 2.0**-20)
# Witness values centre into int64 up to this magnitude; one past it is
# held as _WIDE, which exceeds every row's limit, so its terms always take
# the bigint lane.
_Z_BOUND = (1 << 63) - 2
_WIDE = np.iinfo(np.int64).max
# |a|, |b| below this make a*b - c exact in int64 (satisfaction check).
_HALF_WORD = 1 << 31


def _row_limits(digits: Digits, indptr: np.ndarray) -> np.ndarray:
    """Per row, the largest ``|z|`` that keeps every slot sum of the row
    inside int64: ``B / W`` for the row's digit weight ``W``, which bounds
    ``sum_t |d_t|`` in every slot — the sum itself for slot 0, and a knit
    segment's terms x its run's largest digit for the slots of a knit run.
    ``W`` is summed in float64 (relative error below ``2^-22`` for a row of
    fewer than ``2^30`` terms), which the margin of ``B = 2^63 (1 -
    2^-20)`` absorbs: ``W_true x limit < 2^63``."""
    starts = indptr[:-1]
    full = indptr[1:] > starts
    weight = np.zeros(starts.size)
    if digits.low.size:
        low = digits.low.astype(np.float64)
        weight[full] = np.add.reduceat(np.abs(low, out=low), starts[full])
    for run in digits.knit:
        np.maximum.at(weight, run.rows, np.diff(run.ptr) * float(run.scale))
    return np.floor(_ROW_BOUND / np.maximum(weight, 1.0)).astype(np.int64)


class CSRMatrix:
    """One constraint matrix (A, B, or C) in compressed-sparse-row form:
    its coefficients held as ``digits`` only, :attr:`coeffs` derived from
    them on its first read and kept."""

    __slots__ = ("indptr", "indices", "digits", "_coeffs", "_limit")

    def __init__(self, indptr, indices, digits: Digits):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.digits = digits
        self._coeffs: Optional[Tuple[int, ...]] = None
        self._limit = None

    @property
    def coeffs(self) -> Tuple[int, ...]:
        """The canonical coefficients (:meth:`Digits.coefficients`)."""
        if self._coeffs is None:
            self._coeffs = self.digits.coefficients()
        return self._coeffs

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    def limit(self) -> np.ndarray:
        """Per row, the largest ``|z|`` its digits allow (int64)."""
        if self._limit is None:
            self._limit = _row_limits(self.digits, self.indptr)
        return self._limit


class CSRSystem:
    """CSR snapshot of a constraint system plus its dense assignment."""

    __slots__ = ("a", "b", "c", "num_rows", "num_public", "num_private",
                 "modulus", "z", "_signed")

    def __init__(
        self,
        a: CSRMatrix,
        b: CSRMatrix,
        c: CSRMatrix,
        num_public: int,
        num_private: int,
        modulus: int,
        z: Optional[List[int]] = None,
    ) -> None:
        self.a = a
        self.b = b
        self.c = c
        self.num_rows = a.num_rows
        self.num_public = num_public
        self.num_private = num_private
        self.modulus = modulus
        self.z = z  # [1, publics..., privates...] — Groth16 variable order
        self._signed: Optional[SignedWitness] = None

    @property
    def num_variables(self) -> int:
        return 1 + self.num_public + self.num_private

    def matrices(self) -> Tuple[CSRMatrix, CSRMatrix, CSRMatrix]:
        return self.a, self.b, self.c

    def total_terms(self) -> int:
        return self.a.nnz + self.b.nnz + self.c.nnz

    def bind(self, witness: Optional["SignedWitness"]) -> None:
        """Take ``witness`` as the assignment (None: no assignment)."""
        self._signed = witness
        self.z = None if witness is None else witness.z

    def witness(self) -> "SignedWitness":
        """The signed form of ``z``: the one :meth:`bind` gave, else
        centred from ``z`` once per assignment vector."""
        if self.z is None:
            raise ValueError("CSR snapshot has no assignment vector")
        signed = self._signed
        if signed is None or signed.z is not self.z:
            signed = self._signed = SignedWitness.of(self.z, self.modulus)
        return signed


def _constant_side(count: int, value: int, modulus: int) -> RowSide:
    """``count`` rows of the constant ``value`` (0: empty rows)."""
    terms = count if value else 0
    return RowSide.of(
        np.arange(count + 1) if value else np.zeros(count + 1),
        np.zeros(terms), np.full(terms, value, dtype=np.int64), modulus,
    )


def build_csr_structure(runs: Sequence[RowRun], num_public: int,
                        num_private: int, modulus: int) -> CSRSystem:
    """Build the (assignment-free) CSR structure of a system's rows.

    ``runs`` are the :class:`~repro.r1cs.lc.RowRun` s a system stores its
    rows as, in order.  Terms are copied exactly as stored — no filtering
    or re-canonicalization — so CSR evaluation covers precisely the terms
    a per-LC walk of ``cs.constraints`` would, keeping the op-count parity
    the regression tests pin down.  Each matrix is one
    :meth:`~repro.r1cs.lc.RowSide.concat` of the runs' sides, sliced —
    digits only, no coefficient is built or copied — or the constant
    columns an absent B, ``1``, and C, ``0``, stand for.
    """

    def matrix(name: str) -> CSRMatrix:
        parts = []
        for run in runs:
            side = getattr(run.block, name)
            if side is None:  # B the constant 1, C the constant 0
                side = _constant_side(
                    run.stop - run.start, int(name == "b"), modulus
                )
            else:
                side = side.slice(run.start, run.stop)
            parts.append(side)
        side = RowSide.concat(parts or [_constant_side(0, 0, modulus)])
        # A private counts up from the front, a public — a negative
        # index — down from the back; ONE is 0.
        variables = side.variables
        return CSRMatrix(
            side.indptr,
            np.where(variables > 0, variables + num_public, -variables),
            side.digits,
        )

    return CSRSystem(matrix("a"), matrix("b"), matrix("c"), num_public,
                     num_private, modulus)


# -- evaluation -------------------------------------------------------------


def centre(value: int, modulus: int) -> int:
    """One canonical value centred, as :func:`centred` centres many."""
    if value <= _Z_BOUND:
        return value
    return value - modulus if value >= modulus - _Z_BOUND else _WIDE


def centred(values, modulus: int) -> array:
    """Canonical ``values`` as an int64 ``array``, each centred into
    ``(-p/2, p/2)`` (``_WIDE`` past ``_Z_BOUND`` in magnitude), 0 for an
    unassigned (``None``) one.  An integer ndarray is taken as it is —
    small signed values are their own centred form.  The few int64 values
    past ``_Z_BOUND`` are made ``_WIDE`` by :class:`SignedWitness`."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return array("q", values.astype(np.int64, copy=False).tobytes())
    try:
        return array("q", values)
    except (OverflowError, TypeError):  # field-wide or unassigned values
        bottom = modulus - _Z_BOUND
        return array("q", [
            0 if v is None else v if v <= _Z_BOUND
            else v - modulus if v >= bottom else _WIDE
            for v in values
        ])


class SignedWitness:
    """An assignment vector ``z`` (canonical values) and its centred int64
    form ``signed`` (:func:`centred`)."""

    __slots__ = ("z", "signed", "top", "_objects")

    def __init__(self, z: List[int], signed: np.ndarray) -> None:
        self.z = z
        if signed.size and (
            signed.min() < -_Z_BOUND or signed.max() > _Z_BOUND
        ):
            signed = np.where(
                (signed < -_Z_BOUND) | (signed > _Z_BOUND), _WIDE, signed
            )
        self.signed = signed
        self.top = int(np.abs(signed).max()) if signed.size else 0
        self._objects = None

    @classmethod
    def of(cls, z: List[int], modulus: int) -> "SignedWitness":
        """``z`` with its values centred here, for a vector that did not
        come with them."""
        return cls(z, np.frombuffer(centred(z, modulus), dtype=np.int64))

    @property
    def objects(self) -> np.ndarray:
        """``z`` as an object ndarray, for bigint-lane products."""
        if self._objects is None:
            self._objects = np.array(self.z, dtype=object)
        return self._objects


class RowValues(NamedTuple):
    """Row values of one matrix: ``low[j]`` is row ``j``'s int64 sum of
    slot 0 (``|low[j]| < 2^63``) and ``extra`` (object ndarray) the rest of
    the value of row ``rows[k]`` — a knit row's further slots, a row's
    bigint-lane products; a row may have more than one such part."""

    low: np.ndarray
    rows: np.ndarray
    extra: np.ndarray

    def exact(self) -> np.ndarray:
        """Every row's value, unreduced, as an object ndarray."""
        out = self.low.astype(object)
        np.add.at(out, self.rows, self.extra)
        return out

    def canonical(self, modulus: int) -> List[int]:
        """Every row value reduced into ``[0, modulus)``."""
        low = self.low
        out = low.astype(object)
        out[low < 0] += modulus
        if self.rows.size:
            np.add.at(out, self.rows, self.extra)
            out[self.rows] %= modulus
        return out.tolist()


def _row_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums of ``values`` (terms in row order), 0 for an empty
    row.  ``np.add.reduceat`` repeats the term at an empty row's offset
    rather than summing nothing, so it runs over the non-empty rows
    only."""
    starts = indptr[:-1]
    full = indptr[1:] > starts
    sums = np.zeros(starts.size, dtype=np.int64)
    if values.size:
        sums[full] = np.add.reduceat(values, starts[full])
    return sums


def _lane_split(matrix: CSRMatrix, witness: SignedWitness):
    """``(zt, bigint)``: each term's signed witness value, 0 where the
    term takes the bigint lane, and those terms' positions."""
    zt = witness.signed[matrix.indices]
    wide = matrix.digits.wide
    limit = matrix.limit()
    if not limit.size or witness.top <= int(limit.min()):
        bigint = wide
    else:
        over = np.abs(zt) > np.repeat(limit, np.diff(matrix.indptr))
        over[wide] = True
        bigint = np.flatnonzero(over)
    zt[bigint] = 0
    return zt, bigint


def _knit_values(run: KnitRun, zt: np.ndarray):
    """Slots ``1..`` of each segment of ``run``, joined: ``sum_k S_k <<
    (w k)`` over its int64 slot sums — at most one shift and one addition
    a slot."""
    highs = np.add.reduceat(
        run.digits * zt[run.terms()], run.ptr[:-1], axis=1
    ).T.tolist()
    width = run.width
    values = np.empty(len(highs), dtype=object)
    for segment, slots in enumerate(highs):
        value = 0
        for part in reversed(slots):
            value = (value + part) << width
        values[segment] = value
    return values


def _bigint_coeffs(digits: Digits, bigint: np.ndarray) -> np.ndarray:
    """The coefficients of the terms at positions ``bigint`` (ascending),
    as an object ndarray: a term's slot-0 digit, the kept value of a term
    without digits, a knit term's digits joined — term by term, so no
    coefficient of any other term is built."""
    coeffs = digits.low[bigint].astype(object)
    wide = digits.wide
    if wide.size:
        at = wide.searchsorted(bigint)
        hit = at < wide.size
        hit[hit] = wide[at[hit]] == bigint[hit]
        if hit.any():
            coeffs[hit] = [digits.wide_values[k] for k in at[hit].tolist()]
    for run in digits.knit:
        terms = np.arange(digits.low.size)[run.terms()]
        at = terms.searchsorted(bigint)
        hit = at < terms.size
        hit[hit] = terms[at[hit]] == bigint[hit]
        if not hit.any():
            continue
        width, p = run.width, digits.modulus
        coeffs[hit] = [
            sum(d << (width * k) for k, d in enumerate(slots)) % p
            for slots in np.vstack(
                (digits.low[bigint[hit]], run.digits[:, at[hit]])
            ).T.tolist()
        ]
    return coeffs


def _bigint_values(matrix: CSRMatrix, witness, bigint):
    """``(rows, sums)``: the bigint-lane products summed per row."""
    products = _bigint_coeffs(matrix.digits, bigint) * witness.objects[
        matrix.indices[bigint]
    ]
    row_of = np.searchsorted(matrix.indptr, bigint, side="right") - 1
    heads = np.flatnonzero(np.diff(row_of, prepend=-1))
    return row_of[heads], np.add.reduceat(products, heads)


def row_values(matrix: CSRMatrix, witness: SignedWitness) -> RowValues:
    """``<M_j, z>`` for every row ``j`` — the one row evaluator.

    Slot 0 of every row is one int64 product-and-``reduceat`` sweep; each
    further slot of a knit run another, over that run's terms, joined per
    segment with at most ``s`` big-integer shifts and additions.
    Bigint-lane terms are exact products, summed per row.
    """
    digits = matrix.digits
    zt, bigint = _lane_split(matrix, witness)
    low = _row_sums(digits.low * zt, matrix.indptr)
    rows, extra = [], []
    for run in digits.knit:
        rows.append(run.rows)
        extra.append(_knit_values(run, zt))
    if bigint.size:
        for part, values in zip(
            (rows, extra), _bigint_values(matrix, witness, bigint)
        ):
            part.append(values)
    if not rows:
        return RowValues(low, bigint[:0], np.zeros(0, dtype=object))
    return RowValues(low, np.concatenate(rows), np.concatenate(extra))


def sweep(csr: CSRSystem) -> Tuple[RowValues, RowValues, RowValues]:
    """``(A, B, C)`` row values of the snapshot's assignment.

    Tallies one ``field_mul`` per materialized term, matching what the
    per-LC oracle (``tests/lc_oracle.py``) records.
    """
    from repro.field.counters import global_counter

    witness = csr.witness()
    a, b, c = (row_values(matrix, witness) for matrix in csr.matrices())
    global_counter().field_mul += csr.total_terms()
    return a, b, c


def bigint_lane(csr: CSRSystem) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The term positions of A, B and C that take the bigint lane under
    the snapshot's assignment."""
    witness = csr.witness()
    return tuple(
        _lane_split(matrix, witness)[1]
        for matrix in csr.matrices()
    )


def matrix_row_evals(
    matrix: CSRMatrix, z: List[int], modulus: int
) -> List[int]:
    """``<M_j, z> mod p`` for every row ``j`` (canonical ints)."""
    return row_values(
        matrix, SignedWitness.of(z, modulus)
    ).canonical(modulus)


def evaluate_rows(csr: CSRSystem) -> Tuple[List[int], List[int], List[int]]:
    """``(A_w, B_w, C_w)`` row evaluations, canonical, in the calling
    process."""
    p = csr.modulus
    a, b, c = sweep(csr)
    return a.canonical(p), b.canonical(p), c.canonical(p)


def unsatisfied_rows(csr: CSRSystem) -> List[int]:
    """The rows ``j`` with ``<A_j,z> <B_j,z> != <C_j,z> (mod p)``, in order.

    Where no side has an extra part and ``|a|, |b| < 2^31``, the check is
    one int64 comparison ``a * b == c`` over all such rows at once: the
    values are exact integer representatives below ``2^63 < p`` in
    magnitude, so equality mod ``p`` is equality.  The other rows are
    checked as exact integers in object arrays.
    """
    a, b, c = sweep(csr)
    short = (np.abs(a.low) < _HALF_WORD) & (np.abs(b.low) < _HALF_WORD)
    for values in (a, b, c):
        short[values.rows] = False
    bad = short & (a.low * b.low != c.low)
    rest = np.flatnonzero(~short)
    if rest.size:
        left = a.exact()[rest] * b.exact()[rest] - c.exact()[rest]
        bad[rest] = left % csr.modulus != 0
    return np.flatnonzero(bad).tolist()
