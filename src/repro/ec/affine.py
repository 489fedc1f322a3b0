"""Batched affine additions on BN254 G1 and G2.

An affine addition is only 2M + 1S + 1I, and the inversion is what makes
it ruinous one at a time.  Independent additions share it: Montgomery's
trick (:func:`repro.field.vector.batch_inverse`) inverts a whole vector
of denominators with one inversion and three multiplications each, so an
amortized G1 addition costs ~5M + 1S against the Jacobian mixed
addition's 7M + 4S (:mod:`repro.ec.jacobian`).

:func:`batch_reduce` sums many lists of points at once: each round pairs
up the points left in every list and adds all the pairs with one batched
inversion.  The round itself — denominators, the inversion, the
chord/tangent formulas — is each group's *sums* function, picked like the
Jacobian formulas are (:data:`repro.ec.jacobian._FORMULAS`):
:func:`g1_sums` over Fq ints and :func:`g2_sums` over the Fq2 pairs of
:mod:`repro.ec.tower`.  An Fq2 element's inverse is ``conj(a) / norm(a)``
with ``norm(a)`` in Fq, so both groups invert through the same Fq batch.

A pair ``P, -P`` cancels: its denominator is zero, its lane comes back
zero from ``batch_inverse(..., zero_ok=True)`` and its sum is ``None``.
Nothing else gives a zero denominator: both groups have prime order r, so
no point of order two (``y == 0``) exists.

Points are raw affine pairs (ints mod q for G1, Fq2 pairs for G2) in
canonical form; identities never enter a list.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.ec.tower import f2_mul, f2_sqr
from repro.field.counters import global_counter
from repro.field.fp import BN254_FQ, BN254_FQ_MODULUS
from repro.field.vector import batch_inverse

_Q = BN254_FQ_MODULUS

Raw = Any  # (x, y): ints for G1, Fq2 pairs for G2
Sums = Callable[[Sequence[Raw], Sequence[Raw]], List[Optional[Raw]]]


def g1_sums(left: Sequence[Raw], right: Sequence[Raw]) -> List[Optional[Raw]]:
    """``left[i] + right[i]`` for raw G1 points with one field inversion;
    ``None`` where the pair cancels."""
    nums = []
    dens = []
    for (x1, y1), (x2, y2) in zip(left, right):
        if x1 != x2:
            nums.append(y2 - y1)
            dens.append(x2 - x1)  # canonical x: non-zero mod q
        else:  # P + P: the tangent 3x^2 / 2y; P + (-P): y1 + y2 == 0
            nums.append(3 * x1 * x1)
            dens.append((y1 + y2) % _Q)
    invs = batch_inverse(BN254_FQ, dens, zero_ok=True)
    out: List[Optional[Raw]] = []
    append = out.append
    cancelled = 0
    for (x1, y1), (x2, _), num, inv in zip(left, right, nums, invs):
        if not inv:
            append(None)
            cancelled += 1
            continue
        s = num * inv % _Q
        x3 = (s * s - x1 - x2) % _Q
        append((x3, (s * (x1 - x3) - y1) % _Q))
    global_counter().group_add += len(out) - cancelled
    return out


def g2_sums(left: Sequence[Raw], right: Sequence[Raw]) -> List[Optional[Raw]]:
    """:func:`g1_sums` over Fq2: each denominator ``a`` is inverted as
    ``conj(a) / norm(a)``, the norms in one Fq batch."""
    nums = []
    dens = []
    norms = []
    for (x1, y1), (x2, y2) in zip(left, right):
        if x1 != x2:
            nums.append((y2[0] - y1[0], y2[1] - y1[1]))
            d0, d1 = x2[0] - x1[0], x2[1] - x1[1]
        else:
            t0, t1 = f2_sqr(x1)
            nums.append((3 * t0, 3 * t1))
            d0, d1 = y1[0] + y2[0], y1[1] + y2[1]
        dens.append((d0, d1))
        # u^2 = -1 and -1 is a non-square mod q: the norm is 0 iff a is.
        norms.append((d0 * d0 + d1 * d1) % _Q)
    invs = batch_inverse(BN254_FQ, norms, zero_ok=True)
    out: List[Optional[Raw]] = []
    append = out.append
    cancelled = 0
    for (x1, y1), (x2, _), num, (d0, d1), inv in zip(
        left, right, nums, dens, invs
    ):
        if not inv:
            append(None)
            cancelled += 1
            continue
        s = f2_mul(num, (d0 * inv % _Q, -d1 * inv % _Q))
        t0, t1 = f2_sqr(s)
        x3 = ((t0 - x1[0] - x2[0]) % _Q, (t1 - x1[1] - x2[1]) % _Q)
        t0, t1 = f2_mul(s, (x1[0] - x3[0], x1[1] - x3[1]))
        append((x3, ((t0 - y1[0]) % _Q, (t1 - y1[1]) % _Q)))
    global_counter().group_add += len(out) - cancelled
    return out


def batch_reduce(lists: List[List[Raw]], sums: Sums) -> List[Optional[Raw]]:
    """Every list of raw points summed to one point (``None`` for the
    identity), in rounds of pairwise sums with one inversion per round.

    A round adds points ``2i`` and ``2i + 1`` of every list holding two or
    more; an odd last point rides to the next round.  The lists are
    consumed.
    """
    while True:
        left: List[Raw] = []
        right: List[Raw] = []
        for points in lists:
            m = len(points)
            if m > 1:
                left += points[0 : m - 1 : 2]
                right += points[1:m:2]
        if not left:
            return [points[0] if points else None for points in lists]
        summed = sums(left, right)
        pos = 0
        for i, points in enumerate(lists):
            m = len(points)
            if m > 1:
                half = m >> 1
                nxt = summed[pos : pos + half]
                pos += half
                if m & 1:
                    nxt.append(points[-1])
                lists[i] = nxt
        if None in summed:  # cancelled pairs leave the lists
            lists = [[p for p in points if p is not None] for points in lists]
