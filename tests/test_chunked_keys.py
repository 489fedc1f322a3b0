"""Chunked CRS storage, streamed MSM/CSR, byte-budget store eviction.

The streamed full-scale proving path decomposes into independently
checkable pieces, each tested here against its dense counterpart:

* chunk blob encode/decode round-trips (and rejects corruption), and a
  ``ChunkWriter`` blob is ``encode_chunk`` of the same points;
* ``ChunkedQuery`` sequence semantics, including the prefix-slice view
  ``prove()`` takes of ``h_query_g1``;
* ``msm_streamed`` equals the one-shot batch-affine engine;
* ``groth16.setup(store=...)`` + ``prove`` produce proofs byte-identical
  to the dense path on both group backends, including after a cold
  reload via :func:`load_chunked_proving_key`;
* CSR witness evaluation with every term on the bigint lane matches the
  int64 lane's;
* ``ArtifactStore`` LRU eviction charges actual on-disk chunk bytes;
* ``PhaseTimer`` reports a nonzero ``peak_rss_bytes``.
"""

from __future__ import annotations

import random

import pytest

from repro.ec.backend import RealBN254Backend, SimulatedBackend
from repro.serve.store import ArtifactStore
from repro.snark import groth16
from repro.snark.chunked import (
    ChunkedQuery,
    ChunkWriter,
    decode_chunk,
    encode_chunk,
    load_chunked_proving_key,
)
from repro.snark.serialize import SerializationError, serialize_proof
from tests.conftest import tiny_conv_model, tiny_image


def tiny_cs():
    from repro.core.compiler import PrivacySetting, ZenoCompiler, zeno_options

    compiler = ZenoCompiler(
        zeno_options(PrivacySetting.PRIVATE_IMAGE_PUBLIC_WEIGHTS)
    )
    return compiler.compile_model(tiny_conv_model(), tiny_image()).cs


class TestChunkCodec:
    def test_round_trip_g1(self):
        from repro.ec.bn254 import BN254_G1

        g = BN254_G1.generator
        pts = [BN254_G1.scalar_mul(g, k) for k in range(1, 6)]
        pts.append(BN254_G1.infinity())
        kind, out = decode_chunk(encode_chunk("g1", pts))
        assert kind == "g1" and out == pts

    def test_round_trip_sim(self):
        from repro.ec.simulated import G1_TAG, SimPoint

        pts = [SimPoint(G1_TAG, k) for k in (0, 1, 12345)]
        kind, out = decode_chunk(encode_chunk("sim", pts))
        assert kind == "sim" and out == pts

    def test_corruption_rejected(self):
        from repro.ec.simulated import G1_TAG, SimPoint

        blob = encode_chunk("sim", [SimPoint(G1_TAG, 7)])
        with pytest.raises(SerializationError):
            decode_chunk(blob[:-1])  # truncated
        with pytest.raises(SerializationError):
            decode_chunk(bytes([0x7F]) + blob[1:])  # unknown kind tag
        with pytest.raises(SerializationError):
            decode_chunk(b"\x01\x00")  # shorter than header

    @pytest.mark.parametrize("kind", ["sim", "g1", "g2"])
    def test_writer_blob_is_encode_chunk(self, tmp_path, kind):
        from repro.ec.bn254 import BN254_G1, BN254_G2
        from repro.ec.simulated import G1_TAG, SimPoint

        pts = {
            "sim": [SimPoint(G1_TAG, k) for k in (0, 1, 12345)],
            "g1": [BN254_G1.scalar_mul(BN254_G1.generator, k)
                   for k in (1, 2, 3)],
            "g2": [BN254_G2.scalar_mul(BN254_G2.generator, k)
                   for k in (1, 2, 3)],
        }[kind]
        store = ArtifactStore(str(tmp_path / "store"))
        writer = ChunkWriter(store, kind, chunk_bytes=1 << 20)
        for p in pts:
            writer.append(p)
        (key,) = writer.finish().keys
        assert store.get(key) == encode_chunk(kind, pts)


class TestChunkedQuery:
    def _query(self, tmp_path, n=10, chunk_bytes=3 * 33):
        from repro.ec.simulated import G1_TAG, SimPoint

        store = ArtifactStore(str(tmp_path / "store"))
        writer = ChunkWriter(store, "sim", chunk_bytes)
        pts = [SimPoint(G1_TAG, k) for k in range(n)]
        for p in pts:
            writer.append(p)
        return writer.finish(), pts

    def test_sequence_semantics(self, tmp_path):
        query, pts = self._query(tmp_path)
        assert len(query) == len(pts)
        assert list(query) == pts
        assert [query[i] for i in range(len(pts))] == pts
        assert query[-1] == pts[-1]
        assert len(query.keys) > 1  # actually chunked
        with pytest.raises(IndexError):
            query[len(pts)]

    def test_prefix_view(self, tmp_path):
        query, pts = self._query(tmp_path)
        view = query[:7]
        assert len(view) == 7
        assert list(view) == pts[:7]
        assert view[6] == pts[6]
        # iter_chunks trims the final covered chunk to the view boundary.
        streamed = [p for _, chunk in view.iter_chunks() for p in chunk]
        assert streamed == pts[:7]
        assert list(view[:3]) == pts[:3]  # prefix of a prefix
        with pytest.raises(TypeError):
            query[2:5]
        with pytest.raises(TypeError):
            query[::2]

    def test_manifest_mismatch_detected(self, tmp_path):
        query, _ = self._query(tmp_path)
        lying = ChunkedQuery(
            query.store, "sim", query.keys,
            [c + 1 for c in query.counts],
        )
        with pytest.raises(SerializationError):
            lying[0]


class TestStreamedMSM:
    def test_matches_one_shot_engine(self):
        from repro.ec.batch_affine import msm_batch_affine, msm_streamed
        from repro.ec.bn254 import BN254_G1

        rng = random.Random(3)
        g = BN254_G1.generator
        pts = [BN254_G1.scalar_mul(g, rng.randrange(1, 2**30))
               for _ in range(50)]
        scalars = [rng.randrange(0, BN254_G1.order) for _ in pts]
        expected = msm_batch_affine(pts, scalars)
        chunks = [(i, pts[i : i + 7]) for i in range(0, len(pts), 7)]
        assert msm_streamed(iter(chunks), scalars) == expected

    def test_empty_stream_is_identity(self):
        from repro.ec.batch_affine import msm_streamed
        from repro.ec.bn254 import BN254_G1

        assert msm_streamed(iter([]), []) == BN254_G1.infinity()


@pytest.mark.parametrize("backend_cls", [SimulatedBackend, RealBN254Backend])
class TestChunkedProvingKey:
    def test_chunked_proofs_byte_identical(
        self, tmp_path, monkeypatch, backend_cls
    ):
        backend = backend_cls()
        cs = tiny_cs()
        dense = groth16.setup(cs, backend, rng=random.Random(5))
        dense_proof = groth16.prove(
            dense.proving_key, cs, backend, rng=random.Random(6)
        )

        store = ArtifactStore(str(tmp_path / "crs"), max_entries=10_000)
        monkeypatch.setattr("repro.snark.chunked.DEFAULT_CHUNK_BYTES", 2048)
        chunked = groth16.setup(cs, backend, rng=random.Random(5), store=store)
        assert chunked.stats["pk_chunks"] > 1
        lazy_proof = groth16.prove(
            chunked.proving_key, cs, backend, rng=random.Random(6)
        )
        assert serialize_proof(lazy_proof) == serialize_proof(dense_proof)

        # Cold reload: rebuild the lazy key purely from the manifest.
        reloaded = load_chunked_proving_key(
            store, chunked.stats["pk_manifest_key"]
        )
        reload_proof = groth16.prove(
            reloaded, cs, backend, rng=random.Random(6)
        )
        assert serialize_proof(reload_proof) == serialize_proof(dense_proof)
        assert groth16.verify(
            chunked.verifying_key, cs.public_values(), reload_proof, backend
        )


class TestStreamedCSR:
    def test_blocked_evaluation_matches(self):
        """The lane split does not change a row: the snapshot as built
        (every term of this circuit on the int64 lane) against the same
        matrices with every term moved to the bigint lane."""
        import numpy as np

        from repro.r1cs.csr import CSRMatrix, bigint_lane, matrix_row_evals
        from repro.r1cs.lc import Digits

        cs = tiny_cs()
        csr = cs.to_csr()
        assert all(terms.size == 0 for terms in bigint_lane(csr))
        for matrix in csr.matrices():
            wide = CSRMatrix(matrix.indptr, matrix.indices, Digits(
                np.zeros(matrix.nnz, dtype=np.int64), np.arange(matrix.nnz),
                matrix.coeffs, (), csr.modulus,
            ))
            assert matrix_row_evals(wide, csr.z, csr.modulus) == (
                matrix_row_evals(matrix, csr.z, csr.modulus)
            )


class TestStoreByteBudget:
    def test_eviction_charges_actual_bytes(self, tmp_path):
        store = ArtifactStore(
            str(tmp_path / "s"), max_entries=1000, max_bytes=10_000
        )
        # Four 4 KiB blobs exceed the 10 KB budget: the store must evict
        # by *byte* size (entry count alone would keep all four).
        keys = [
            store.put("pkc", bytes([i]) * 4096) for i in range(4)
        ]
        stats = store.stats()
        assert stats["bytes"] <= 10_000
        assert stats["entries"] < 4
        assert keys[-1] in store  # newest entry always survives
        assert keys[0] not in store

    def test_small_entries_not_over_charged(self, tmp_path):
        store = ArtifactStore(
            str(tmp_path / "s"), max_entries=1000, max_bytes=10_000
        )
        for i in range(50):
            store.put("pkc", i.to_bytes(4, "big"))
        assert store.stats()["entries"] == 50  # 200 bytes total: no eviction

    def test_bytes_rebuilt_from_disk(self, tmp_path):
        root = str(tmp_path / "s")
        store = ArtifactStore(root)
        store.put("pkc", b"x" * 1234)
        reopened = ArtifactStore(root)
        assert reopened.stats()["bytes"] == store.stats()["bytes"]


class TestPeakRSS:
    def test_phase_timer_reports_rss(self):
        from repro.core.metrics import PhaseTimer, peak_rss_bytes

        assert peak_rss_bytes() > 0
        sink: dict = {}
        with PhaseTimer("x", sink) as timer:
            sum(range(1000))
        assert timer.peak_rss_bytes > 0
