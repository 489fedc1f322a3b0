"""Pippenger multi-scalar multiplication.

Security computation in Groth16 is dominated by MSMs: the prover computes
``sum_i w_i * G_i`` over the witness (size ``n``) and over the QAP quotient
coefficients (size ``m``).  The paper's observation that proof latency is
proportional to ``n`` and ``m`` (§2.1) is precisely the MSM size.

This module holds the generic (any :class:`~repro.ec.curve.CurveGroup`,
affine-coordinate) Pippenger implementation — the reference the engines
are cross-checked against, no longer reachable from the real backend —
plus the shared helpers every MSM variant uses:

* :func:`pick_window` — window size chosen by the ``windows·(n + B_c)``
  cost model over the *live* point count and the *observed* scalar width,
  where ``B_c`` is the bucket count of the variant;
* :func:`signed_digits` — wNAF-style signed ``c``-bit digit decomposition,
  which halves the bucket count (digits in ``[-2^(c-1), 2^(c-1)]``), and
  :func:`signed_windows`, how many of them a width needs.

The fast engines live next door: :mod:`repro.ec.jacobian`
(inversion-free buckets, G1 and G2, and the single-point
:class:`~repro.ec.jacobian.BaseTable`), :mod:`repro.ec.batch_affine` (the
G1 pass with batched affine buckets, routed by observed scalar width into
a short class and a full-width remainder; one-shot and streamed over a
chunked CRS are the same routine), and :mod:`repro.ec.fixed_base`
(precomputed G1 tables for a fixed vector that meets uniform scalars —
the h query).

An MSM over the empty vector is the group identity; the implementations
return it when they know the group (``msm_jacobian`` always does; the
generic entry points take an optional ``group=``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.ec.curve import CurveGroup, Point

# Hard cap on the window size.  The old heuristic clamped at 16, which
# allocates 65,535 bucket slots per window for large MSMs; past ~13 the
# cost model's marginal gain is tiny while the per-window bucket sweep and
# allocation dominate, so we bound the search here (8,191 slots max).
MAX_WINDOW = 13


def pick_window(n: int, bits: int = 254, signed: bool = False) -> int:
    """Window size minimizing the ``windows * (n + buckets)`` cost model.

    ``n`` is the number of live points and ``bits`` the width of the widest
    scalar — callers that have looked at their input pass what they saw,
    so a vector of 10-bit witness values is not windowed like 254-bit
    field elements.  Unsigned bucketing runs ``ceil(bits/c)`` windows of
    ``2^c - 1`` buckets; signed digits halve the buckets to ``2^(c-1)``
    and run ``bits // c + 1`` windows (:func:`signed_windows`).  The
    argmin stays near 13 for any practical ``n`` (the old
    ``min(16, log2 n - 2)`` clamp kept growing and allocated 65,535 slots
    per window for n >= 2^18).
    """
    if n < 4:
        return 2
    best_c = 2
    best_cost = None
    for c in range(2, MAX_WINDOW + 1):
        if signed:
            cost = signed_windows(bits, c) * (n + (1 << (c - 1)))
        else:
            cost = -(-bits // c) * (n + (1 << c) - 1)
        if best_cost is None or cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def signed_windows(bits: int, c: int) -> int:
    """Signed ``c``-bit digits a ``bits``-bit scalar needs: ``ceil((bits +
    1) / c)``.  The extra bit absorbs the carry — a top digit below
    ``2^(c-1)`` stays at or under ``half`` even with a carry in."""
    return bits // c + 1


def signed_digits(scalar: int, c: int, num_windows: int) -> List[int]:
    """Signed ``c``-bit digit decomposition of a non-negative scalar.

    Returns ``num_windows`` digits ``d_j`` in ``[-(2^(c-1) - 1), 2^(c-1)]``
    with ``scalar == sum_j d_j * 2^(c*j)``.  Callers must size
    ``num_windows`` to absorb the final carry (:func:`signed_windows`).
    """
    mask = (1 << c) - 1
    half = 1 << (c - 1)
    digits = [0] * num_windows
    carry = 0
    for j in range(num_windows):
        d = ((scalar >> (j * c)) & mask) + carry
        if d > half:
            d -= 1 << c
            carry = 1
        else:
            carry = 0
        digits[j] = d
    if carry:
        raise ValueError(f"scalar too large for {num_windows} {c}-bit digits")
    return digits


def _empty_result(group: Optional[CurveGroup], caller: str) -> Point:
    if group is None:
        raise ValueError(
            f"{caller} over an empty vector needs group= to return identity"
        )
    return group.infinity()


def msm(
    points: Sequence[Point],
    scalars: Sequence[int],
    window: Optional[int] = None,
    group: Optional[CurveGroup] = None,
) -> Point:
    """Compute ``sum_i scalars[i] * points[i]`` with bucketed windows.

    Works over any :class:`CurveGroup`, one inversion per addition (the
    reference; the backends use the Jacobian engines).  Empty input
    returns ``group.infinity()`` when ``group`` is given, else raises —
    the sum over an empty set is the identity, but we cannot conjure the
    group from nothing.
    """
    if len(points) != len(scalars):
        raise ValueError(
            f"points/scalars length mismatch: {len(points)} vs {len(scalars)}"
        )
    if not points:
        return _empty_result(group, "msm")
    group = points[0].group
    order = group.order
    reduced = [s % order if order else s for s in scalars]
    c = window or pick_window(len(points))
    max_bits = max((s.bit_length() for s in reduced), default=1) or 1
    num_windows = (max_bits + c - 1) // c

    total = group.infinity()
    for w in range(num_windows - 1, -1, -1):
        if w != num_windows - 1:
            for _ in range(c):
                total = group.double(total)
        shift = w * c
        mask = (1 << c) - 1
        buckets = [group.infinity() for _ in range(mask)]
        for point, scalar in zip(points, reduced):
            idx = (scalar >> shift) & mask
            if idx:
                buckets[idx - 1] = group.add(buckets[idx - 1], point)
        running = group.infinity()
        window_sum = group.infinity()
        for bucket in reversed(buckets):
            running = group.add(running, bucket)
            window_sum = group.add(window_sum, running)
        total = group.add(total, window_sum)
    return total


def msm_naive(
    points: Sequence[Point],
    scalars: Sequence[int],
    group: Optional[CurveGroup] = None,
) -> Point:
    """Reference double-and-add MSM used to cross-check the engines."""
    if len(points) != len(scalars):
        raise ValueError(
            f"points/scalars length mismatch: {len(points)} vs {len(scalars)}"
        )
    if not points:
        return _empty_result(group, "msm_naive")
    group = points[0].group
    acc = group.infinity()
    for point, scalar in zip(points, scalars):
        acc = group.add(acc, group.scalar_mul(point, scalar))
    return acc
