"""Frequency-based cache service (§6.1).

During circuit computation the compiler repeatedly multiplies *public*
operand pairs on the λ-bit field — weight coefficients times knit
``delta^j`` powers, pooling/averaging scale factors, fused batch-norm
gammas.  Two NN facts make a tiny cache effective:

* activations/weights are uint8, so at most 256 distinct values exist;
* weights follow a Normal distribution, so values near zero dominate.

The paper's online phase is reproduced — during circuit computation,
look pairs up before computing; its offline top-k profiling is not: every
public pair is admitted, the domain being that small.

Only public data is ever cached (no timing side channel on secrets).

The cache follows the products.  Whole dot layers are knit-packed as
arrays (:func:`repro.core.privacy.knit.pack_slots`' digit lane), which
keeps each packed coefficient as its slot digits and so multiplies no
public pair at all: the cache takes no part there.  The exact lane — the
row a layer leaves open, coefficients outside the digit lane — still
multiplies each coefficient by its ``delta^j`` and probes
:meth:`CacheService.table_for` per product, reporting its tallies through
:meth:`CacheService.record`.
"""

from __future__ import annotations

from typing import Dict


class CacheService:
    """Product tables for public operands, used during circuit computation.

    The public-coefficient domain is tiny — 256 weight values x a handful
    of ``delta`` powers — so the tables, one per fixed right-hand operand,
    need no bound.  ``hits`` / ``misses`` count the entries served from a
    table and built into one, so benchmarks can report the measured reuse
    rate.
    """

    def __init__(self) -> None:
        self._contexts: Dict[tuple, Dict[int, int]] = {}
        self.hits = 0
        self.misses = 0

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
