"""NN-inspired computation reuse (§6.1)."""

from repro.core.reuse.cache import CacheService
from repro.core.reuse.batch import BatchProver

__all__ = ["CacheService", "BatchProver"]
