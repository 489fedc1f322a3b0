"""Fixed-base MSM precomputation for a CRS point vector.

Every Groth16 proof in a serving session multiplies *the same* CRS query
vectors by fresh scalars.  Where those scalars are uniform field elements
— the quotient coefficients against ``h_query_g1`` — precomputing the
window-shifted bases ``2^(c·j) · P_i`` once turns each subsequent MSM
into a single bucket pass:

* no doubling chain between windows (the shifts are baked into the
  table), and
* **one** bucket fold for the whole MSM instead of one per window —
  every digit of every scalar lands in the same bucket array, because
  bucket ``d`` accumulates ``sum 2^(c·j) P_i`` over all ``(i, j)`` with
  digit ``d``.

Build cost is ``bits`` doublings per point (amortized across a serving
session); query cost drops from ``(bits/c)·(n + 2·2^(c-1))`` to
``(bits/c)·n + 2·2^(c-1)`` additions, all batch-affine.  The witness
queries (a / b / l) have no table: their scalars are short, a table sized
for 254 bits folds a thousand empty buckets per query, and the
width-routed pass (:mod:`repro.ec.batch_affine`) beats it with nothing to
build.

``uses`` counts completed queries so the serving layer can assert tables
are actually reused across jobs (telemetry, not security).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.ec.affine import batch_reduce, g1_sums
from repro.ec.batch_affine import Affine, fold_buckets
from repro.ec.bn254 import BN254_G1
from repro.ec.curve import Point
from repro.ec.jacobian import (
    J_INFINITY,
    SCALAR_BITS,
    JPoint,
    batch_normalize,
    j_double,
    to_affine,
)
from repro.ec.msm import MAX_WINDOW, signed_digits, signed_windows
from repro.field.fp import BN254_FQ_MODULUS

_Q = BN254_FQ_MODULUS


def _pick_fixed_base_window(n: int, bits: int = SCALAR_BITS) -> int:
    """Argmin of ``ceil(bits/c)·n + 2^(c-1)`` (single fold, no doublings)."""
    best_c, best_cost = 2, None
    for c in range(2, MAX_WINDOW + 1):
        cost = -(-bits // c) * max(n, 1) + (1 << (c - 1))
        if best_cost is None or cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


class FixedBaseTableG1:
    """Window-shifted multiples of a fixed BN254 G1 point vector."""

    def __init__(
        self,
        points: Sequence[Point],
        window: Optional[int] = None,
        bits: int = SCALAR_BITS,
    ) -> None:
        self.n = len(points)
        self.window = window or _pick_fixed_base_window(self.n, bits)
        self.num_windows = signed_windows(bits, self.window)
        self.uses = 0
        base: List[Optional[Affine]] = [
            None if p.inf else (p.x.value, p.y.value) for p in points
        ]
        # shifted[j][i] == 2^(window*j) * points[i], affine or None.
        self.shifted: List[List[Optional[Affine]]] = [base]
        current = base
        for _ in range(self.num_windows - 1):
            jacs: List[JPoint] = []
            for pt in current:
                j = J_INFINITY if pt is None else (pt[0], pt[1], 1)
                for _ in range(self.window):
                    j = j_double(j)
                jacs.append(j)
            current = batch_normalize(jacs)
            self.shifted.append(current)

    def msm(self, scalars: Sequence[int]) -> Point:
        """MSM against the fixed bases; ``len(scalars)`` may be < n.

        Missing trailing scalars are treated as zero (the prover's
        quotient vector is often shorter than ``h_query``).
        """
        self.uses += 1
        if len(scalars) > self.n:
            raise ValueError(
                f"{len(scalars)} scalars for a table of {self.n} points"
            )
        order = BN254_G1.order
        c = self.window
        half = 1 << (c - 1)
        buckets: List[List[Affine]] = [[] for _ in range(half)]
        for i, s in enumerate(scalars):
            s %= order
            if s == 0:
                continue
            for j, d in enumerate(signed_digits(s, c, self.num_windows)):
                if d == 0:
                    continue
                pt = self.shifted[j][i]
                if pt is None:
                    continue
                if d > 0:
                    buckets[d - 1].append(pt)
                else:
                    buckets[-d - 1].append((pt[0], _Q - pt[1]))
        return to_affine(fold_buckets(batch_reduce(buckets, g1_sums)))
