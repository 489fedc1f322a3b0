"""Batch field utilities shared by the curve, QAP, and compiler layers.

These entry points dispatch to the active field backend
(:mod:`repro.field.backend`): the scalar reference or the numpy array
kernel, selected via ``ZENO_FIELD_BACKEND``.  Both are bit-identical on
canonical inputs and charge identical op-counter totals, so callers (and
the cost model) never observe which one ran.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.field.fp import Field

# Reduce the dot-product accumulator every CHUNK terms.  A fully unreduced
# sum over a long CSR row balloons to thousands of bits (each product is
# ~508 bits; CPython addition over such bignums goes quadratic-ish in the
# limb count and the final ``%`` pays for the whole width).  64 terms keeps
# the accumulator under ~514 bits — one extra limb — while still amortizing
# the reduction cost to 1/64 of a mulmod per term.
DOT_CHUNK = 64


def batch_inverse(
    field: Field, values: Sequence[int], zero_ok: bool = False
) -> List[int]:
    """Invert many field elements with one modular inversion.

    Montgomery's trick: prefix products, a single inversion of the total
    product, then a backwards sweep.  Cost is ``3(n-1)`` multiplications plus
    one inversion instead of ``n`` inversions — the standard optimization in
    MSM affine-coordinate batching and QAP Lagrange evaluation.

    With ``zero_ok`` zero inputs map to zero outputs (the convention the
    vectorized batch-affine fold relies on: cancelled point pairs become
    masked zero-denominator lanes instead of a fragile caller-side
    pre-filter).  Without it any zero raises ``ZeroDivisionError``.

    This sits on the batch-affine MSM hot path (one call per reduction
    round, thousands of elements), so the work runs through the active
    field backend and the multiplication counters are charged in bulk.
    """
    from repro.field.backend import get_backend

    return get_backend().inv_list(field, list(values), zero_ok=zero_ok)


def field_dot(field: Field, xs: Sequence[int], ys: Sequence[int]) -> int:
    """Dot product of two raw-int vectors over ``field``.

    The accumulator is reduced every :data:`DOT_CHUNK` terms so its width
    stays bounded regardless of row length (an unreduced sum over a
    thousand-term CSR row used to balloon to ~500k bits of intermediate).
    Counter totals are identical to the single-reduction version: the cost
    model records one ``field_mul`` per term and ``n - 1`` adds.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    p = field.modulus
    acc = 0
    pending = 0
    for x, y in zip(xs, ys):
        acc += x * y
        pending += 1
        if pending == DOT_CHUNK:
            acc %= p
            pending = 0
    from repro.field.counters import global_counter

    counter = global_counter()
    counter.field_mul += len(xs)
    counter.field_add += max(len(xs) - 1, 0)
    return acc % p


def powers(field: Field, base: int, count: int) -> List[int]:
    """``[1, base, base^2, ..., base^(count-1)]`` as raw ints.

    Sequential by nature (each term feeds the next); the limb-array
    variant used for twiddle/scale table construction lives in
    :func:`repro.field.backend.powers_limbs`.
    """
    out = [1] * count if count > 0 else []
    for i in range(1, count):
        out[i] = field.mul(out[i - 1], base)
    return out
