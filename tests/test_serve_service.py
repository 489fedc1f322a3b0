"""End-to-end tests for the batched multi-worker proving service.

The main test is the acceptance scenario: N jobs for a mini model all
return verifying Groth16 proofs, across >= 2 worker processes, with
strictly fewer batch-prover runs than jobs, and live telemetry populated.
Fault injection kills a worker mid-job and asserts the job is retried to
completion rather than hanging the queue.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.spec import CircuitSpec
from repro.serve import ArtifactStore, ProvingService
from repro.serve.jobs import JobState
from repro.serve.service import JobFailedError
from repro.snark import groth16
from repro.snark.keys import TABLE_QUERIES_PER_PROOF
from repro.snark.serialize import deserialize_proof, deserialize_verifying_key

N_JOBS = 8
MINI = CircuitSpec("SHAL")
MICRO = CircuitSpec("SHAL", scale="micro")


@pytest.fixture(scope="module")
def served():
    """Run the acceptance workload once; individual tests assert on it."""
    service = ProvingService(max_workers=2, max_batch=4, max_wait=0.05)
    job_ids = [
        service.submit(MINI, image_seed=200 + i)
        for i in range(N_JOBS)
    ]
    results = [service.result(j, timeout=300) for j in job_ids]
    service.shutdown(drain=True)
    return service, job_ids, results


class TestEndToEnd:
    def test_all_proofs_verify(self, served):
        _, _, results = served
        assert len(results) == N_JOBS
        assert all(r.verified for r in results)

    def test_proofs_verify_from_store_artifacts(self, served):
        service, _, results = served
        for res in results[:2]:
            vk = deserialize_verifying_key(
                service.store.get(res.store_keys["vk"])
            )
            proof = deserialize_proof(service.store.get(res.store_keys["proof"]))
            assert groth16.verify(vk, res.public_inputs, proof)

    def test_at_least_two_worker_processes(self, served):
        _, _, results = served
        assert len({r.worker_pid for r in results}) >= 2

    def test_strictly_fewer_batch_runs_than_jobs(self, served):
        service, _, results = served
        runs = service.stats()["batches"]["runs"]
        assert 0 < runs < N_JOBS
        assert len({r.batch_id for r in results}) == runs

    def test_telemetry_nonzero(self, served):
        service, _, _ = served
        stats = service.stats()
        assert stats["jobs"]["submitted"] == N_JOBS
        assert stats["jobs"]["completed"] == N_JOBS
        assert stats["queue"]["peak"] > 0
        assert stats["batches"]["sizes"]["observations"] > 0
        assert stats["batches"]["sizes"]["mean"] > 1  # batching really happened
        phases = stats["phase_latency_seconds"]
        for phase in ("generate", "circuit", "setup", "assign", "security"):
            assert phases[phase]["count"] > 0, phase
            assert phases[phase]["mean"] > 0, phase
        assert stats["throughput_jobs_per_second"] > 0

    def test_stats_json_serializable(self, served):
        import json

        service, _, _ = served
        json.dumps(service.stats())

    def test_fixed_base_tables_built_once_then_reused(self, served):
        """Telemetry proof of CRS-table reuse: tables are built on cold
        batches only, but every proof queries them — so across the
        workload, uses must dwarf builds (``TABLE_QUERIES_PER_PROOF``)."""
        service, _, _ = served
        stats = service.stats()["msm_tables"]
        cold_batches = service.stats()["key_cache"]["misses"]
        assert stats["builds"] == cold_batches
        assert stats["uses"] >= TABLE_QUERIES_PER_PROOF * N_JOBS

    def test_jobs_reach_done_state(self, served):
        service, job_ids, _ = served
        assert all(
            service.status(j) is JobState.DONE for j in job_ids
        )

    def test_logits_match_plaintext_model(self, served):
        from repro.nn.data import synthetic_images
        from repro.nn.models import build_model

        service, job_ids, results = served
        model = build_model("SHAL", scale="mini", seed=0)
        image = synthetic_images(model.input_shape, n=1, seed=200)[0]
        assert results[0].logits == [int(v) for v in model.forward(image)]


class TestFaultTolerance:
    def test_worker_death_retries_job(self, tmp_path):
        """A worker killed mid-job must not hang the queue: the service
        rebuilds the pool and retries the job to completion."""
        token = tmp_path / "crash-once"
        token.write_text("x")
        service = ProvingService(max_workers=2, max_batch=2, max_wait=0.01)
        doomed = service.submit(
            MINI, image_seed=1, extra={"crash_token": str(token)}
        )
        bystander = service.submit(MINI, image_seed=2)
        res = service.result(doomed, timeout=300)
        assert res.verified
        assert service.result(bystander, timeout=300).verified
        assert not token.exists()  # the crash really happened
        assert service.job(doomed).attempts >= 2
        stats = service.stats()
        assert stats["jobs"]["retries"] >= 1
        assert stats["workers"]["pool_generation"] >= 1
        service.shutdown(drain=True)

    def test_retries_exhausted_fails_cleanly(self, tmp_path):
        """A job that crashes its worker on every attempt ends FAILED."""
        import threading
        import time

        token = tmp_path / "crash-always"
        token.write_text("x")
        service = ProvingService(max_workers=1, max_batch=1, max_wait=0.0)
        job_id = service.submit(
            MINI, image_seed=3, max_retries=1,
            extra={"crash_token": str(token)},
        )

        def rearm():  # each attempt consumes the token; keep it armed
            while not service.status(job_id).terminal:
                if not token.exists():
                    token.write_text("x")
                time.sleep(0.005)

        threading.Thread(target=rearm, daemon=True).start()
        with pytest.raises(JobFailedError):
            service.result(job_id, timeout=300)
        assert service.status(job_id) is JobState.FAILED
        service.shutdown(drain=True)

    def test_queue_timeout_marks_timed_out(self):
        service = ProvingService(max_workers=1)
        job_id = service.submit(MINI, image_seed=4, timeout=-1.0)
        with pytest.raises(JobFailedError):
            service.result(job_id, timeout=30)
        assert service.status(job_id) is JobState.TIMED_OUT
        service.shutdown(drain=True)


class TestServiceApi:
    def test_submit_requires_image_or_seed(self):
        service = ProvingService(max_workers=1)
        with pytest.raises(ValueError):
            service.submit(MINI)
        service.shutdown(drain=True)

    def test_submit_takes_a_circuit_spec(self):
        """A loose model name is refused before anything is queued (it
        would otherwise fail in the dispatcher, at ``batch_spec``)."""
        service = ProvingService(max_workers=1)
        with pytest.raises(TypeError, match="CircuitSpec"):
            service.submit("SHAL", np.zeros((1, 14, 14)))
        assert service.stats()["jobs"]["submitted"] == 0
        service.shutdown(drain=True)

    def test_submit_after_shutdown_rejected(self):
        service = ProvingService(max_workers=1)
        service.shutdown(drain=True)
        with pytest.raises(RuntimeError):
            service.submit(MINI, image_seed=1)

    def test_context_manager_drains(self):
        with ProvingService(max_workers=1, max_wait=0.0) as service:
            job_id = service.submit(MINI, image_seed=5)
        assert service.status(job_id) is JobState.DONE

    def test_wait_all(self):
        service = ProvingService(max_workers=1, max_wait=0.0)
        for i in range(3):
            service.submit(MINI, image_seed=10 + i)
        assert service.wait_all(timeout=300)
        service.shutdown(drain=True)


class TestFixedBaseTableReuse:
    def test_prove_batch_reuses_tables_across_batches(self):
        """Drive the worker entry point in-process: the first batch for a
        key builds the fixed-base CRS tables, the second reuses them —
        op-for-op visible via the per-batch ``uses`` delta."""
        from repro.nn.data import synthetic_images
        from repro.nn.models import build_model
        from repro.serve import workers

        spec = {
            "model": "SHAL", "scale": "mini", "seed": 0,
            "privacy": "one-private", "backend": "simulated",
        }
        key = (
            CircuitSpec.from_mapping(spec), "simulated", workers.SERVE_CRS_SEED
        )
        workers._WARM.pop(key, None)  # force a cold first batch
        shape = build_model("SHAL", scale="mini", seed=0).input_shape
        imgs = synthetic_images(shape, n=2, seed=77)
        try:
            out1 = workers.prove_batch(
                spec, [{"job_id": "a", "image": imgs[0]}]
            )
            # An older coordinator's spec still carries "parallelism":
            # ignored — same warm entry, same proof path.
            out2 = workers.prove_batch(
                dict(spec, parallelism=2), [{"job_id": "b", "image": imgs[1]}]
            )
        finally:
            workers._WARM.pop(key, None)

        assert out1["cold"] and not out2["cold"]
        assert out1["msm_tables"]["built"] is True
        assert out2["msm_tables"]["built"] is False  # reused, not rebuilt
        # Each proof queries the h table, the delta_1 table and the
        # delta_2 table once; the witness MSMs (a, b, l) have no table.
        assert TABLE_QUERIES_PER_PROOF == 3
        assert out1["msm_tables"]["uses"] == TABLE_QUERIES_PER_PROOF
        assert out2["msm_tables"]["uses"] == TABLE_QUERIES_PER_PROOF
        assert all(
            r["verified"] for r in out1["results"] + out2["results"]
        )


class TestUnknownGroupBackend:
    @pytest.mark.parametrize("aggregate", [None, {"layer": 0}])
    def test_typoed_backend_name_fails_the_batch(self, aggregate):
        """A misspelt ``"backend"`` must not fall back to the simulated
        group and come back "verified" with no cryptographic hardness —
        the batch fails before any circuit is built."""
        from repro.serve import workers

        spec = {
            "model": "SHAL", "scale": "mini", "seed": 0,
            "privacy": "one-private", "backend": "bn25",
        }
        if aggregate:
            spec["aggregate"] = aggregate
        warm = len(workers._WARM)
        with pytest.raises(ValueError, match="unknown group backend 'bn25'"):
            workers.prove_batch(spec, [{"job_id": "typo", "image": None}])
        assert len(workers._WARM) == warm


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.put("proof", b"hello")
        assert key.startswith("proof-")
        assert store.get(key) == b"hello"
        assert key in store

    def test_put_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.put("vk", b"abc") == store.put("vk", b"abc")
        assert len(store) == 1

    def test_lru_eviction(self, tmp_path):
        store = ArtifactStore(tmp_path, max_entries=2)
        k1 = store.put("a", b"1")
        k2 = store.put("b", b"2")
        store.get(k1)  # refresh k1: k2 becomes the LRU victim
        k3 = store.put("c", b"3")
        assert k1 in store and k3 in store
        assert k2 not in store
        assert store.stats()["evictions"] == 1

    def test_missing_key_raises(self, tmp_path):
        with pytest.raises(KeyError):
            ArtifactStore(tmp_path).get("proof-ffffffffffffffff")

    def test_reload_from_disk(self, tmp_path):
        key = ArtifactStore(tmp_path).put("vk", b"persisted")
        again = ArtifactStore(tmp_path)
        assert again.get(key) == b"persisted"


class TestAuditGate:
    """Pre-prove soundness audit: clean circuits prove, tainted ones fail."""

    def test_strict_circuit_passes_gate(self):
        strict = replace(MICRO, gadgets="strict")
        with ProvingService(max_workers=1, max_batch=2, audit=True) as service:
            job_ids = [
                service.submit(strict, image_seed=300 + i) for i in range(2)
            ]
            results = [service.result(j, timeout=300) for j in job_ids]
            assert all(r.verified for r in results)
            snap = service.stats()
        assert snap["audit"] == {"rejected_batches": 0, "rejected_jobs": 0}
        assert "audit" in snap["phase_latency_seconds"]

    def test_lean_circuit_rejected_without_retry(self):
        with ProvingService(max_workers=1, max_batch=2, audit=True) as service:
            job_ids = [
                service.submit(MICRO, image_seed=400 + i)
                for i in range(2)
            ]
            for job_id in job_ids:
                with pytest.raises(JobFailedError) as excinfo:
                    service.result(job_id, timeout=300)
                assert "circuit audit rejected" in str(excinfo.value)
                assert excinfo.value.job.state is JobState.FAILED
            snap = service.stats()
        assert snap["audit"]["rejected_jobs"] == 2
        assert snap["audit"]["rejected_batches"] >= 1
        assert snap["jobs"]["retries"] == 0

    def test_audit_off_by_default(self, served):
        service, _, _ = served
        snap = service.stats()
        assert snap["audit"] == {"rejected_batches": 0, "rejected_jobs": 0}


class TestTelemetryGauges:
    """Queue-depth / in-flight gauges and per-tenant counters (gateway
    observability satellite)."""

    def test_gauges_section_shape(self, served):
        service, _, _ = served
        gauges = service.stats()["gauges"]
        assert set(gauges) >= {
            "queue_depth", "batcher_pending", "inflight_jobs", "tenants",
        }
        # Drained service: nothing queued, nothing in flight.
        assert gauges["queue_depth"] == 0
        assert gauges["inflight_jobs"] == 0

    def test_default_tenant_counters(self, served):
        service, _, _ = served
        tenants = service.stats()["gauges"]["tenants"]
        assert tenants["default"]["submitted"] == N_JOBS
        assert tenants["default"]["completed"] == N_JOBS
        assert tenants["default"]["in_flight"] == 0

    def test_per_tenant_attribution(self):
        with ProvingService(max_workers=1, max_batch=2) as service:
            a = service.submit(MICRO, image_seed=500, tenant="acme")
            b = service.submit(MICRO, image_seed=501, tenant="acme")
            c = service.submit(MICRO, image_seed=502, tenant="globex")
            for job_id in (a, b, c):
                service.result(job_id, timeout=300)
            tenants = service.stats()["gauges"]["tenants"]
        assert tenants["acme"]["submitted"] == 2
        assert tenants["acme"]["completed"] == 2
        assert tenants["globex"]["submitted"] == 1
        assert tenants["globex"]["in_flight"] == 0

    def test_terminal_callback_fires_per_job(self):
        """The engine listener sees queued → dispatched → terminal, once
        each, for every job."""
        seen = []
        with ProvingService(max_workers=1, max_batch=2) as service:
            service.add_listener(
                lambda event, job, info: seen.append((event, job, info))
            )
            job_ids = [
                service.submit(MICRO, image_seed=510 + i)
                for i in range(3)
            ]
            for job_id in job_ids:
                service.result(job_id, timeout=300)
        for job_id in job_ids:
            mine = [(e, i) for e, j, i in seen if j.job_id == job_id]
            assert [e for e, _ in mine] == ["queued", "dispatched", "terminal"]
            assert mine[0][1] == {"delay": 0.0}
            assert set(mine[1][1]) == {"batch_id"}
        done = [j for e, j, _ in seen if e == "terminal"]
        assert all(j.state is JobState.DONE for j in done)
