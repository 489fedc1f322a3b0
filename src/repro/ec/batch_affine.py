"""Batch-affine G1 MSM engine: bucket additions with amortized inversions.

The Jacobian fast path (:mod:`repro.ec.jacobian`) avoids inversions by
carrying a Z coordinate, paying 7M + 4S per mixed addition.  An *affine*
addition is only 2M + 1S + 1I — ruinous when the inversion is paid per
addition, but bucket accumulation in Pippenger is embarrassingly
batchable: additions into distinct buckets are independent, so each round
performs one addition per bucket and amortizes all their inversions into a
single one via Montgomery's trick — the rounds of
:func:`repro.ec.affine.batch_reduce`, which set-up's table multiples
(:class:`repro.ec.jacobian.BaseTable`) run too.  With the 3
multiplications the trick charges per element, an amortized affine
addition costs ~5M+1S — roughly half the Jacobian formula.

**Signed digits** (:func:`repro.ec.msm.signed_digits`) cut the bucket
count per window from ``2^c - 1`` to ``2^(c-1)`` — point negation is free
(``(x, -y)``) so digit ``-d`` adds the negated point to bucket ``d``.

**Routing by observed width.**  ZENO's premise (§4) is that an NN witness
is low-bit, and a bucket pass sized for 254-bit scalars spends nearly all
of its time folding empty buckets when every scalar has one digit.  The
one entry (:func:`msm_streamed`; :func:`msm_batch_affine` is its one-chunk
case) therefore looks before it sizes: scalars are sign-folded
(``k > r/2`` becomes ``(r - k)·(-P)``), split at :data:`SHORT_BITS` into a
short class and a full-width remainder, and each class runs the same
bucket pass with the window and window count its own live size and widest
scalar call for.

Everything operates on raw ``(x, y)`` int pairs mod the base prime, like
the Jacobian module; infinity inputs and zero scalars are filtered first.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.ec.affine import batch_reduce, g1_sums
from repro.ec.bn254 import BN254_G1
from repro.ec.curve import Point
from repro.ec.jacobian import (
    J_INFINITY,
    JPoint,
    j_add,
    j_add_mixed,
    j_double,
    to_affine,
)
from repro.ec.msm import pick_window, signed_digits, signed_windows
from repro.field.fp import BN254_FQ_MODULUS

_Q = BN254_FQ_MODULUS

Affine = Tuple[int, int]


def fold_buckets(folded: Sequence[Optional[Affine]]) -> JPoint:
    """``sum (d + 1) * folded[d]`` by the running-sum trick (Jacobian)."""
    running = J_INFINITY
    total = J_INFINITY
    for b in reversed(folded):
        if b is not None:
            running = j_add_mixed(running, b)
        if running[2] != 0:  # nothing to add below the top live bucket
            total = j_add(total, running)
    return total


def _msm_raw(
    affine: Sequence[Affine],
    reduced: Sequence[int],
    c: int,
    bits: int,
) -> JPoint:
    """Signed-window batch-affine MSM over raw affine pairs -> Jacobian.

    ``bits`` bounds the scalars' width: it sets the window *count*, so a
    class of short scalars pays for the windows it has digits in.
    """
    n = len(affine)
    half = 1 << (c - 1)
    num_windows = signed_windows(bits, c)
    digits = [signed_digits(s, c, num_windows) for s in reduced]

    total = J_INFINITY
    for w in range(num_windows - 1, -1, -1):
        if total[2] != 0:  # skip the doubling chain while still at identity
            for _ in range(c):
                total = j_double(total)
        buckets: List[List[Affine]] = [[] for _ in range(half)]
        for i in range(n):
            d = digits[i][w]
            if d > 0:
                buckets[d - 1].append(affine[i])
            elif d < 0:
                x, y = affine[i]
                buckets[-d - 1].append((x, _Q - y))
        total = j_add(total, fold_buckets(batch_reduce(buckets, g1_sums)))
    return total


# The width router's class boundary: a sign-folded scalar of at most this
# many bits is "short".  Measured over the six paper models and TINY (lean
# / strict / hashed per-layer instances; EXPERIMENTS.md "The real-curve
# prover follows its scalars") every live witness scalar is <= 17 bits or
# >= 201 bits wide, so any boundary in between splits real traffic the
# same way; a machine word keeps stray mid-width values (an unshifted
# int8 x int8 accumulator is ~24 bits) with the witness they sit in.
SHORT_BITS = 32


def _msm_routed(
    points: Sequence[Point], scalars: Sequence[int], window: Optional[int]
) -> JPoint:
    """One chunk of the routed G1 MSM, as a Jacobian point.

    Scalars reduce mod r; zero scalars and identity points drop out; a
    scalar above r/2 becomes the shorter ``(r - k) * (-P)`` (a witness's
    small negatives arrive as ``r - k``).  What is left splits at
    :data:`SHORT_BITS` into a short class and a full-width remainder,
    and each runs the bucket pass with the window and the window count
    its own live size and widest scalar call for.
    """
    order = BN254_G1.order
    half_order = order >> 1
    classes: Tuple[Tuple[List[Affine], List[int]], ...] = (([], []), ([], []))
    for p, k in zip(points, scalars):
        k %= order
        if k == 0 or p.inf:
            continue
        x, y = p.x.value, p.y.value
        if k > half_order:
            k = order - k
            y = _Q - y
        affine, reduced = classes[k.bit_length() > SHORT_BITS]
        affine.append((x, y))
        reduced.append(k)
    total = J_INFINITY
    for affine, reduced in classes:
        if affine:
            bits = max(reduced).bit_length()
            c = window or pick_window(len(affine), bits, signed=True)
            total = j_add(total, _msm_raw(affine, reduced, c, bits))
    return total


def msm_batch_affine(
    points: Sequence[Point],
    scalars: Sequence[int],
    window: Optional[int] = None,
) -> Point:
    """Width-routed batch-affine MSM over BN254 G1: the one-chunk case of
    :func:`msm_streamed`.  ``window`` overrides the cost model for every
    class (the cross-variant tests sweep it)."""
    if len(points) != len(scalars):
        raise ValueError(
            f"points/scalars length mismatch: {len(points)} vs {len(scalars)}"
        )
    return msm_streamed([(0, points)], scalars, window)


def msm_streamed(
    chunks,
    scalars: Sequence[int],
    window: Optional[int] = None,
) -> Point:
    """Width-routed batch-affine MSM over an ``(offset, points)`` stream.

    The streamed-CRS path: each chunk is classified, reduced, and released
    before the next is decoded, so the peak working set is one chunk plus
    a Jacobian accumulator — bounded by the CRS chunk size instead of the
    full query.  MSM is linear in the point vector, so per-chunk
    (and per-class) partial sums combine to the *exact* group element a
    single pass computes (proof bytes are unchanged).
    """
    total = J_INFINITY
    for offset, chunk in chunks:
        part = _msm_routed(
            chunk, scalars[offset : offset + len(chunk)], window
        )
        total = j_add(total, part)
    return to_affine(total)
