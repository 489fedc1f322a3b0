"""Compressed-sparse-row snapshot of the R1CS matrices.

The prover's hot loop evaluates ``<A_j, z>``, ``<B_j, z>``, ``<C_j, z>``
for every constraint row ``j``.  Walking the per-constraint
:class:`~repro.r1cs.lc.LinearCombination` dicts pays a Python method call
per term (``Assignment.__getitem__``) plus a counter bump per LC; a CSR
snapshot replaces all of that with three flat arrays per matrix —

* ``indptr``  — row offsets, ``len == num_rows + 1``;
* ``indices`` — *dense* column positions into the Groth16-ordered
  assignment vector ``z = [1, publics..., privates...]``;
* ``coeffs``  — canonical field coefficients, aligned with ``indices``

— and one dense assignment vector, so a row evaluates as a contiguous
slice accumulation with no dict lookups.  The structure depends only on
the constraints (not the witness), so batch-specialized sharing (§6.1)
builds it once and only refreshes ``z`` per image.

Signed variable indices (see :mod:`repro.r1cs.lc`) map to dense positions
as ``ONE -> 0``, public ``-k -> k``, private ``+k -> num_public + k`` —
exactly :func:`repro.snark.qap.variable_order`.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.r1cs.lc import RowRun, RowView


@dataclass
class CSRMatrix:
    """One constraint matrix (A, B, or C) in compressed-sparse-row form."""

    indptr: List[int]
    indices: List[int]
    coeffs: List[int]

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1


class CSRSystem:
    """CSR snapshot of a constraint system plus its dense assignment."""

    __slots__ = ("a", "b", "c", "num_rows", "num_public", "num_private",
                 "modulus", "z")

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

    @property
    def num_variables(self) -> int:
        return 1 + self.num_public + self.num_private

    def matrices(self) -> Tuple[CSRMatrix, CSRMatrix, CSRMatrix]:
        return self.a, self.b, self.c

    def total_terms(self) -> int:
        return self.a.nnz + self.b.nnz + self.c.nnz


def build_csr_structure(rows, num_public: int, num_private: int,
                        modulus: int) -> CSRSystem:
    """Build the (assignment-free) CSR structure of a system's rows.

    ``rows`` holds, in order, the runs a system keeps until something reads
    its ``constraints`` (:class:`~repro.r1cs.lc.RowRun`) and
    :class:`~repro.r1cs.constraint.Constraint` s.  Terms are copied
    exactly as stored — no filtering or re-canonicalization — so CSR
    evaluation performs precisely the same coefficient products a per-LC
    walk would, keeping the op-count parity the regression tests pin
    down.  A RowRun is copied a side at a time with no per-term bytecode:
    three slices of its :class:`~repro.r1cs.lc.RowSide` (or the constant
    columns an absent B, ``1``, and C, ``0``, stand for).  A Constraint
    side that is still an unread :class:`~repro.r1cs.lc.RowView` is copied
    as the slices of its one row, and only a Constraint's dict LCs are
    walked.
    """
    # The dense position of an (allocated) signed variable, as one list
    # lookup: a private counts up from the front, a public — a negative
    # index — down from the back.
    position_of = [
        0, *range(num_public + 1, num_public + num_private + 1),
        *range(num_public, 0, -1),
    ].__getitem__

    def slice_positions(side, lo: int, hi: int) -> List[int]:
        v = side.variables[lo:hi]
        return np.where(v > 0, v + num_public, -v).tolist()

    mats = []
    for name in ("a", "b", "c"):
        get = operator.attrgetter(name)
        indptr = [0]
        indices: List[int] = []
        coeffs: List[int] = []
        for piece in rows:
            if piece.__class__ is RowRun:
                side = get(piece.block)
                start, stop = piece.start, piece.stop
                if side is not None:
                    lo, hi = side.indptr[start], side.indptr[stop]
                    shift = len(indices) - lo
                    ends = side.indptr[start + 1:stop + 1]
                    indptr.extend([end + shift for end in ends] if shift else ends)
                    indices.extend(slice_positions(side, lo, hi))
                    coeffs.extend(side.coeffs[lo:hi])
                elif name == "b":  # the constant 1: one term a row
                    indptr.extend(range(indptr[-1] + 1, indptr[-1] + 1 + stop - start))
                    indices.extend([0] * (stop - start))
                    coeffs.extend([1] * (stop - start))
                else:  # the constant 0: empty rows
                    indptr.extend([indptr[-1]] * (stop - start))
            else:
                lc = get(piece)
                side = lc.block if lc.__class__ is RowView else None
                if side is not None:
                    lo, hi = side.indptr[lc.row], side.indptr[lc.row + 1]
                    indices.extend(slice_positions(side, lo, hi))
                    coeffs.extend(side.coeffs[lo:hi])
                else:
                    indices.extend(map(position_of, lc.terms))
                    coeffs.extend(lc.terms.values())
                indptr.append(len(indices))
        mats.append(CSRMatrix(indptr, indices, coeffs))
    return CSRSystem(mats[0], mats[1], mats[2], num_public, num_private,
                     modulus)


# Terms per evaluation block: a 32 MiB product list at 96 bytes a term (the
# ~508-bit product int plus its list slot).  Every benchmarked matrix fits
# one block (LCS:full's A side is 224,922 terms) and keeps the single
# sweep; LCL:full (2.5M) streams in blocks.
_BLOCK_NNZ = (32 << 20) // 96


def _eval_block(
    matrix: CSRMatrix,
    z: List[int],
    modulus: int,
    out: List[int],
    start_row: int,
    stop_row: int,
) -> None:
    indptr = matrix.indptr
    lo, hi = indptr[start_row], indptr[stop_row]
    full = lo == 0 and hi == matrix.nnz
    coeffs = matrix.coeffs if full else matrix.coeffs[lo:hi]
    indices = matrix.indices if full else matrix.indices[lo:hi]
    prods = list(map(operator.mul, coeffs, map(z.__getitem__, indices)))
    begin = 0
    for row in range(start_row, stop_row):
        end = indptr[row + 1] - lo
        out[row] = sum(prods[begin:end]) % modulus
        begin = end


def matrix_row_evals(
    matrix: CSRMatrix, z: List[int], modulus: int
) -> List[int]:
    """Evaluate ``<M_j, z>`` for every row ``j``.

    Single pass: all coefficient products are formed in one C-level
    ``map(mul, ...)`` sweep, then each row reduces to a slice sum and one
    modular reduction — no per-term Python bytecode.  A matrix above
    :data:`_BLOCK_NNZ` terms is swept in row blocks of at most that many
    terms (a longer row is a block of its own), so the transient product
    list stays bounded instead of growing with nnz.
    """
    indptr = matrix.indptr
    num_rows = matrix.num_rows
    out = [0] * num_rows
    row = 0
    while row < num_rows:
        # The last row end within budget, but at least one row.
        end = bisect_right(indptr, indptr[row] + _BLOCK_NNZ, row + 2) - 1
        _eval_block(matrix, z, modulus, out, row, end)
        row = end
    return out


def evaluate_rows(csr: CSRSystem) -> Tuple[List[int], List[int], List[int]]:
    """``(A_w, B_w, C_w)`` row evaluations, in the calling process.

    Tallies one ``field_mul`` per materialized term, matching what the
    per-LC oracle (``tests/lc_oracle.py``) records.
    """
    from repro.field.counters import global_counter

    if csr.z is None:
        raise ValueError("CSR snapshot has no assignment vector")
    z, p = csr.z, csr.modulus
    a, b, c = (matrix_row_evals(matrix, z, p) for matrix in csr.matrices())
    global_counter().field_mul += csr.total_terms()
    return a, b, c
