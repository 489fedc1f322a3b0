"""Operation counters for cost attribution.

The paper's figures report latency per proof-generation phase (Fig. 4) and
speedups of individual optimizations (Fig. 9/10).  In a pure-Python
reproduction wall-clock numbers carry interpreter noise, so the benchmark
harness *also* attributes cost by counting the dominant operations: field
multiplications/inversions, field exponentiations, and group operations.
These counts are deterministic and map directly onto the paper's cost model
(latency proportional to constraint count ``m`` and witness size ``n``,
§2.1).

A single process-global :class:`OpCounter` is active at any time; scopes are
managed with :func:`count_ops` so concurrent phases do not double count.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator


@dataclass
class OpCounter:
    """Mutable tally of expensive primitive operations."""

    field_add: int = 0
    field_mul: int = 0
    field_inv: int = 0
    field_exp: int = 0
    group_add: int = 0
    group_scalar_mul: int = 0
    pairing: int = 0
    lc_term: int = 0  # linear-combination terms materialized (circuit comp.)
    extra: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters (including ``extra`` keys)."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "extra"
        }
        out.update(self.extra)
        return out

    def reset(self) -> None:
        for f in fields(self):
            if f.name == "extra":
                self.extra = {}
            else:
                setattr(self, f.name, 0)

    def bump(self, key: str, amount: int = 1) -> None:
        """Increment a named ad-hoc counter."""
        self.extra[key] = self.extra.get(key, 0) + amount

    def merge(self, other: "OpCounter") -> None:
        for f in fields(self):
            if f.name == "extra":
                for key, val in other.extra.items():
                    self.extra[key] = self.extra.get(key, 0) + val
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def total_field_ops(self) -> int:
        """Weighted total used by the latency cost model.

        Inversions and exponentiations cost ~``bits`` multiplications each;
        we use a fixed weight of 256 reflecting the 254-bit fields in play.
        """
        return (
            self.field_mul
            + self.field_add // 4
            + 256 * (self.field_inv + self.field_exp)
        )


_local = threading.local()


def global_counter() -> OpCounter:
    """The counter currently active on this thread."""
    counter = getattr(_local, "counter", None)
    if counter is None:
        counter = OpCounter()
        _local.counter = counter
    return counter


@contextmanager
def count_ops() -> Iterator[OpCounter]:
    """Scope with a fresh counter; restores the previous one on exit.

    >>> with count_ops() as ops:
    ...     _ = BN254_FR.mul(3, 4)   # doctest: +SKIP
    >>> ops.field_mul                # doctest: +SKIP
    1
    """
    previous = getattr(_local, "counter", None)
    fresh = OpCounter()
    _local.counter = fresh
    try:
        yield fresh
    finally:
        _local.counter = previous
