"""Batch inversion, shared by the curve and QAP layers."""

from __future__ import annotations

from typing import List, Sequence

from repro.field.counters import global_counter
from repro.field.fp import Field


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
    round, thousands of elements), so the multiplication counters are
    charged in bulk.  It stays on Python ints: converting to and from the
    array kernel's limbs costs more than the loop saves (0.65x at 16k
    elements measured).
    """
    xs = list(values)
    p = field.modulus
    n = len(xs)
    if n == 0:
        return []
    prefix = [0] * n
    running = 1
    any_nonzero = False
    for i, v in enumerate(xs):
        if v == 0:
            if not zero_ok:
                raise ZeroDivisionError("batch_inverse received a zero element")
            prefix[i] = 0
            continue
        running = running * v % p
        prefix[i] = running
        any_nonzero = True
    counter = global_counter()
    out = [0] * n
    if not any_nonzero:
        counter.field_inv += 1
        counter.field_mul += 3 * max(n - 1, 0)
        return out
    inv_running = field.inv(running)  # the single inversion (counted)
    for i in range(n - 1, -1, -1):
        if xs[i] == 0:
            continue
        prev = 1
        for j in range(i - 1, -1, -1):
            if prefix[j]:
                prev = prefix[j]
                break
        out[i] = inv_running * prev % p
        inv_running = inv_running * xs[i] % p
    counter.field_mul += 3 * max(n - 1, 0)
    return out
