"""Content-addressed chunked proving keys with lazy, streaming views.

A full-scale CRS no longer fits comfortably in one process image: the five
Groth16 query vectors grow with the witness/domain size, and the dense
``ProvingKey`` materializes all of them.  This module stores each query as
a sequence of fixed-size *chunks* pushed through the serve
:class:`~repro.serve.store.ArtifactStore` (content-addressed, so identical
chunks — e.g. runs of identity points — dedupe for free), plus one small
JSON *manifest* binding the chunk keys together.

:class:`ChunkedQuery` is the lazy read view: a ``Sequence`` of group
points that decodes at most one chunk at a time.  The MSM engines iterate
it via :meth:`ChunkedQuery.iter_chunks`, so the prover's peak working set
is one chunk (:data:`DEFAULT_CHUNK_BYTES`) instead of the whole query —
and since MSM is linear in the points, per-chunk partial sums combine to
the exact same group element the one-shot engines produce: proofs from a
chunked key are byte-identical to proofs from a dense key.

Chunk blob layout: ``kind_byte || u32(count) || count fixed-size point
encodings`` (the canonical encodings of :mod:`repro.snark.serialize`).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.snark.serialize import (
    SerializationError,
    deserialize_g1,
    deserialize_g2_on_curve,
    deserialize_sim,
    serialize_g1,
    serialize_g2,
    serialize_sim,
)

#: Bytes of one CRS chunk — the points one streamed MSM step holds — for
#: every ``setup(store=)``; ``zeno prove --max-rss`` has always run at this
#: size (RES50:full in 6.3 GB).  Tests that want multi-chunk keys
#: monkeypatch it: :func:`repro.snark.groth16.setup` imports it per call.
DEFAULT_CHUNK_BYTES = 8 << 20

#: Artifact-store kind tag for proving-key chunks.
CHUNK_KIND = "pkc"
MANIFEST_KIND = "pkm"

_KIND_SIM = 0x01
_KIND_G1 = 0x02
_KIND_G2 = 0x03

# kind name -> (tag byte, encoded point size, encoder, decoder)
_KINDS = {
    "sim": (_KIND_SIM, 33, serialize_sim, deserialize_sim),
    "g1": (_KIND_G1, 33, serialize_g1, deserialize_g1),
    "g2": (_KIND_G2, 65, serialize_g2, deserialize_g2_on_curve),
}


def _chunk_blob(kind: str, encodings: List[bytes]) -> bytes:
    """``kind byte || u32 count || encodings``: the one chunk layout."""
    tag = _KINDS[kind][0]
    return b"".join(
        [bytes([tag]), len(encodings).to_bytes(4, "big"), *encodings]
    )


def encode_chunk(kind: str, points: Sequence) -> bytes:
    enc = _KINDS[kind][2]
    return _chunk_blob(kind, [enc(p) for p in points])


def decode_chunk(data: bytes) -> Tuple[str, List]:
    if len(data) < 5:
        raise SerializationError("proving-key chunk too short")
    tag = data[0]
    for kind, (t, size, _, dec) in _KINDS.items():
        if t == tag:
            count = int.from_bytes(data[1:5], "big")
            if len(data) != 5 + count * size:
                raise SerializationError(
                    f"proving-key chunk length mismatch: "
                    f"{len(data)} != {5 + count * size}"
                )
            return kind, [
                dec(data[5 + i * size : 5 + (i + 1) * size])
                for i in range(count)
            ]
    raise SerializationError(f"unknown proving-key chunk kind {tag:#x}")


class ChunkedQuery(Sequence):
    """Lazy Sequence of group points backed by store chunks.

    Random access (``query[i]``) decodes the owning chunk through a tiny
    LRU (two chunks), so scans stay O(1) in memory; ``iter_chunks()`` is
    the bulk path the MSM engines use.  Prefix slices (``query[:n]``)
    return a trimmed view without decoding anything — the shape
    ``prove()`` needs for ``h_query_g1[: len(h_coeffs)]``.
    """

    _CACHE_CHUNKS = 2

    def __init__(
        self,
        store,
        kind: str,
        keys: List[str],
        counts: List[int],
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown chunk kind {kind!r}")
        if len(keys) != len(counts):
            raise ValueError("chunk keys/counts length mismatch")
        self.store = store
        self.kind = kind
        self.keys = list(keys)
        self.counts = list(counts)
        self.offsets: List[int] = []
        total = 0
        for c in self.counts:
            self.offsets.append(total)
            total += c
        self.total = total
        self._cache: "OrderedDict[int, List]" = OrderedDict()

    def __len__(self) -> int:
        return self.total

    def _chunk(self, index: int) -> List:
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        kind, points = decode_chunk(self.store.get(self.keys[index]))
        if kind != self.kind or len(points) != self.counts[index]:
            raise SerializationError(
                f"chunk {self.keys[index]} does not match its manifest entry"
            )
        self._cache[index] = points
        while len(self._cache) > self._CACHE_CHUNKS:
            self._cache.popitem(last=False)
        return points

    def iter_chunks(self) -> Iterator[Tuple[int, List]]:
        """Yield ``(offset, points)`` one decoded chunk at a time."""
        for index in range(len(self.keys)):
            yield self.offsets[index], self._chunk(index)

    def __iter__(self):
        for _, points in self.iter_chunks():
            yield from points

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.total)
            if start == 0 and step == 1:
                return _PrefixView(self, stop)
            raise TypeError(
                "ChunkedQuery supports only prefix slices ([:n]); "
                f"got [{index.start}:{index.stop}:{index.step}]"
            )
        if index < 0:
            index += self.total
        if not 0 <= index < self.total:
            raise IndexError(index)
        ci = bisect_right(self.offsets, index) - 1
        return self._chunk(ci)[index - self.offsets[ci]]


class _PrefixView(Sequence):
    """``query[:stop]`` without decoding: trims the last covered chunk."""

    def __init__(self, base: ChunkedQuery, stop: int) -> None:
        self.base = base
        self.stop = stop
        self.kind = base.kind

    def __len__(self) -> int:
        return self.stop

    def iter_chunks(self) -> Iterator[Tuple[int, List]]:
        for offset, points in self.base.iter_chunks():
            if offset >= self.stop:
                return
            if offset + len(points) > self.stop:
                yield offset, points[: self.stop - offset]
                return
            yield offset, points

    def __iter__(self):
        for _, points in self.iter_chunks():
            yield from points

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.stop)
            if start == 0 and step == 1:
                return _PrefixView(self.base, stop)
            raise TypeError("ChunkedQuery supports only prefix slices ([:n])")
        if index < 0:
            index += self.stop
        if not 0 <= index < self.stop:
            raise IndexError(index)
        return self.base[index]


class ChunkWriter:
    """Accumulates point encodings, flushing ~``chunk_bytes`` blobs."""

    def __init__(self, store, kind: str, chunk_bytes: int) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown chunk kind {kind!r}")
        self.store = store
        self.kind = kind
        _, self.point_size, self.encode, _ = _KINDS[kind]
        self.points_per_chunk = max(1, chunk_bytes // self.point_size)
        self.keys: List[str] = []
        self.counts: List[int] = []
        self._buffer: List[bytes] = []

    def append(self, point) -> None:
        self._buffer.append(self.encode(point))
        if len(self._buffer) >= self.points_per_chunk:
            self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        blob = _chunk_blob(self.kind, self._buffer)
        self.keys.append(self.store.put(CHUNK_KIND, blob))
        self.counts.append(len(self._buffer))
        self._buffer = []

    def finish(self) -> ChunkedQuery:
        self._flush()
        return ChunkedQuery(self.store, self.kind, self.keys, self.counts)


# -- manifest ---------------------------------------------------------------------


def put_manifest(store, pk, stats: Optional[dict] = None) -> str:
    """Store the manifest binding a chunked proving key's chunks; returns its key.

    Every query field of ``pk`` must be a :class:`ChunkedQuery` (the shape
    :func:`repro.snark.groth16.setup` produces when given a store).
    """
    sim = pk.a_query_g1.kind == "sim" if isinstance(
        pk.a_query_g1, ChunkedQuery
    ) else None
    if sim is None:
        raise TypeError("put_manifest needs a chunked proving key")
    enc1 = serialize_sim if sim else serialize_g1
    enc2 = serialize_sim if sim else serialize_g2
    queries: Dict[str, dict] = {}
    for name in (
        "a_query_g1", "b_query_g1", "b_query_g2", "l_query_g1", "h_query_g1"
    ):
        query = getattr(pk, name)
        if not isinstance(query, ChunkedQuery):
            raise TypeError(f"proving-key query {name} is not chunked")
        queries[name] = {
            "kind": query.kind,
            "total": query.total,
            "counts": query.counts,
            "keys": query.keys,
        }
    manifest = {
        "format": "chunked-pk-v1",
        "domain_size": pk.domain_size,
        "num_public": pk.num_public,
        "alpha_g1": enc1(pk.alpha_g1).hex(),
        "beta_g1": enc1(pk.beta_g1).hex(),
        "beta_g2": enc2(pk.beta_g2).hex(),
        "delta_g1": enc1(pk.delta_g1).hex(),
        "delta_g2": enc2(pk.delta_g2).hex(),
        "sim": sim,
        "queries": queries,
        "stats": stats or {},
    }
    return store.put(MANIFEST_KIND, json.dumps(manifest).encode("utf-8"))


def load_chunked_proving_key(store, manifest_key: str):
    """Rebuild a lazy ProvingKey from its manifest; chunks stay on disk."""
    from repro.snark.keys import ProvingKey

    manifest = json.loads(store.get(manifest_key).decode("utf-8"))
    if manifest.get("format") != "chunked-pk-v1":
        raise SerializationError(
            f"unknown chunked proving-key format {manifest.get('format')!r}"
        )
    sim = manifest["sim"]
    dec1 = deserialize_sim if sim else deserialize_g1
    dec2 = deserialize_sim if sim else deserialize_g2_on_curve

    def query(name: str) -> ChunkedQuery:
        q = manifest["queries"][name]
        return ChunkedQuery(store, q["kind"], q["keys"], q["counts"])

    return ProvingKey(
        alpha_g1=dec1(bytes.fromhex(manifest["alpha_g1"])),
        beta_g1=dec1(bytes.fromhex(manifest["beta_g1"])),
        beta_g2=dec2(bytes.fromhex(manifest["beta_g2"])),
        delta_g1=dec1(bytes.fromhex(manifest["delta_g1"])),
        delta_g2=dec2(bytes.fromhex(manifest["delta_g2"])),
        a_query_g1=query("a_query_g1"),
        b_query_g1=query("b_query_g1"),
        b_query_g2=query("b_query_g2"),
        l_query_g1=query("l_query_g1"),
        h_query_g1=query("h_query_g1"),
        domain_size=manifest["domain_size"],
        num_public=manifest["num_public"],
    )
