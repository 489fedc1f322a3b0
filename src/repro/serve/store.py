"""On-disk artifact store: proofs and keys, content-addressed, LRU-bounded.

Serving generates a stream of artifacts — serialized proofs per job, one
verifying key per (model, profile), optionally proving keys, and chunked
CRS blobs for streamed proving.  The store names each blob by its content
hash (``<kind>-<sha256[:16]>.bin``) so identical artifacts dedupe for free
(e.g. the verifying key every batch of the same key reports), and evicts
least-recently-used entries beyond configurable bounds so a long-running
service cannot fill the disk.

Eviction charges the *actual on-disk size* of each blob, not just the
entry count: a megabyte-scale CRS chunk and a 100-byte proof used to cost
the same toward the bound, which let key chunks blow well past any
intended disk budget.  ``max_bytes`` bounds the total; ``max_entries``
still caps the count.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional


class ArtifactStore:
    """Content-addressed blob store with entry- and byte-bounded LRU."""

    def __init__(
        self,
        root,
        max_entries: int = 256,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # key -> path, ordered oldest-use first.  Rebuilt from disk mtimes
        # so a restarted service keeps its hot artifacts.
        self._entries: "OrderedDict[str, Path]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        self.total_bytes = 0
        for path in sorted(
            self.root.glob("*.bin"), key=lambda p: p.stat().st_mtime
        ):
            size = path.stat().st_size
            self._entries[path.stem] = path
            self._sizes[path.stem] = size
            self.total_bytes += size
        self.evictions = 0

    @staticmethod
    def key_for(kind: str, data: bytes) -> str:
        return f"{kind}-{hashlib.sha256(data).hexdigest()[:16]}"

    def _over_budget(self) -> bool:
        if len(self._entries) > self.max_entries:
            return True
        return self.max_bytes is not None and self.total_bytes > self.max_bytes

    def _evict_locked(self) -> None:
        # Always keep the most recent entry, even if it alone exceeds
        # max_bytes — evicting the blob just written would break callers.
        while len(self._entries) > 1 and self._over_budget():
            key, victim = self._entries.popitem(last=False)
            self.total_bytes -= self._sizes.pop(key, 0)
            victim.unlink(missing_ok=True)
            self.evictions += 1

    def put(self, kind: str, data: bytes) -> str:
        """Store ``data``; returns its content-addressed key (idempotent)."""
        key = self.key_for(kind, data)
        with self._lock:
            path = self._entries.get(key)
            if path is None:
                path = self.root / f"{key}.bin"
                path.write_bytes(data)
                self._sizes[key] = len(data)
                self.total_bytes += len(data)
            self._entries[key] = path
            self._entries.move_to_end(key)
            self._evict_locked()
        return key

    def get(self, key: str) -> bytes:
        """Fetch a blob, refreshing its LRU position; KeyError if absent."""
        with self._lock:
            path = self._entries.get(key)
            if path is None:
                raise KeyError(key)
            self._entries.move_to_end(key)
        return path.read_bytes()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.total_bytes,
                "evictions": self.evictions,
            }
