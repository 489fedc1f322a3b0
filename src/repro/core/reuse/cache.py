"""Frequency-based cache service (§6.1).

During circuit computation the compiler repeatedly multiplies *public*
operand pairs on the λ-bit field — weight coefficients times knit
``delta^j`` powers, pooling/averaging scale factors, fused batch-norm
gammas.  Two NN facts make a tiny cache effective:

* activations/weights are uint8, so at most 256 distinct values exist;
* weights follow a Normal distribution, so values near zero dominate.

The paper's two-phase design is reproduced:

* **offline profiling** — run the plaintext NN on a small image set,
  count multiplication operand-pair frequencies, keep the top-k pairs;
* **online** — during circuit computation, look pairs up before computing.

Only public data is ever cached (no timing side channel on secrets).

Whole dot layers are knit-packed as arrays
(:func:`repro.core.privacy.knit.pack_slots`), where the cached unit is a
packed coefficient's whole *slot-digit vector*: each distinct vector's
λ-bit value is built once per run of rows and :meth:`CacheService.record`
receives the tallies (``hits`` = entries served from that table).  The
one-at-a-time path still probes :meth:`CacheService.table_for` per product.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Tuple

from repro.field.counters import global_counter
from repro.field.fp import Field


def profile_operand_pairs(
    model, images: Iterable, top_k: int = 5
) -> Counter:
    """Offline phase: frequency of (weight, activation-scale) operand pairs.

    Walks the plaintext model's dot layers over the given images and counts
    the public multiplication operands the circuit-computation phase will
    encounter.  Mirrors the paper's "evaluate the plaintext NN on a small
    set (=100) of images and profile the frequency of addition and
    multiplication operand pairs".
    """
    from repro.core.lang.program import program_from_model  # local: avoid cycle

    counts: Counter = Counter()
    for image in images:
        program = program_from_model(model, image)
        for op in program.dot_ops():
            unique, freq = _row_histogram(op.weight_rows)
            for value, count in zip(unique, freq):
                counts[int(value)] += int(count)
    return Counter(dict(counts.most_common(top_k))) if top_k else counts


def _row_histogram(rows) -> Tuple:
    import numpy as np

    unique, freq = np.unique(rows, return_counts=True)
    return unique, freq


class CacheService:
    """Top-k operand-pair product cache used during circuit computation.

    ``admit`` marks pairs as cacheable (the offline top-k set); by default
    every pair is admissible up to ``capacity`` (pure LRU-free table — the
    public-coefficient domain is tiny: 256 weight values x a handful of
    delta powers).  Counters record hits/misses so benchmarks can report
    the measured reuse rate.
    """

    def __init__(self, capacity: int = 4096, top_k_values=None) -> None:
        self.capacity = capacity
        self._table: Dict[Tuple[int, int], int] = {}
        self._contexts: Dict[tuple, Dict[int, int]] = {}
        self._admitted = (
            {int(v) for v in top_k_values} if top_k_values is not None else None
        )
        self.hits = 0
        self.misses = 0

    def _admissible(self, a: int) -> bool:
        return self._admitted is None or a in self._admitted

    def mul(self, field: Field, a: int, b: int) -> int:
        """``a * b mod p``, served from cache when possible.

        Hot path: hit/miss tallies live on the service itself (synced into
        the global counter by callers at phase boundaries) so a hit costs
        one dict probe and one integer increment.
        """
        cached = self._table.get((a, b))
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        product = (a * b) % field.modulus
        if len(self._table) < self.capacity and self._admissible(a):
            self._table[(a, b)] = product
        return product

    def mul_keyed(self, field: Field, a: int, b: int, key) -> int:
        """Like :meth:`mul` but indexed by a caller-supplied small key.

        The λ-bit operand (e.g. a knit ``delta^j`` power) would be expensive
        to hash; callers that know a compact identity for the pair — such as
        ``(weight value, power index)`` — pass it here.  Same semantics as
        the paper's operand-pair table, cheaper probes.
        """
        cached = self._table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        product = (a * b) % field.modulus
        if len(self._table) < self.capacity and self._admissible(a):
            self._table[key] = product
        return product

    def table_for(self, context: tuple) -> Dict[int, int]:
        """A product table for one fixed right-hand operand.

        Hot loops (knit packing) fix one operand per batch slot — e.g. the
        ``delta^j`` power — so the pair key collapses to the left operand
        alone, making probes a single dict lookup.  The caller inlines
        ``table.get`` / ``table[coeff] = product`` and reports tallies via
        :meth:`record`.  Each context's table is naturally bounded by the
        ~256 distinct uint8 weight values (the paper's §6.1 observation).
        """
        return self._contexts.setdefault(context, {})

    def record(self, hits: int, misses: int) -> None:
        """Report tallies from an inlined hot loop."""
        self.hits += hits
        self.misses += misses

    def num_entries(self) -> int:
        return len(self._table) + sum(len(t) for t in self._contexts.values())

    def sync_counters(self) -> None:
        """Publish hit/miss tallies into the active OpCounter."""
        counter = global_counter()
        counter.cache_hit += self.hits
        counter.cache_miss += self.misses

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
