"""Integration tests for the distributed proving cluster.

Everything runs in-process: the coordinator binds a real localhost TCP
port and :class:`WorkerNode` daemons in ``inline`` mode connect to it, so
the full wire protocol, scheduling, verification, and failover paths are
exercised without spawning subprocesses.  All tests share one micro-model
profile, so the module-level warm cache in :mod:`repro.serve.workers`
amortizes circuit compilation across tests.

A job enters through :meth:`ClusterCoordinator.submit` in-process, or
through the gateway's HTTP door in front of it: the coordinator's port
serves nodes only.

Failover uses :meth:`WorkerNode.kill` — an abrupt socket drop that the
coordinator cannot distinguish from the node process dying.
"""

import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator, WorkerNode
from repro.core.spec import CircuitSpec
from repro.serve.service import ServiceConfig
from tests.test_gateway import gateway_over, http_get, http_post

MODEL, SCALE = "SHAL", "micro"
CIRCUIT = CircuitSpec(MODEL, scale=SCALE)


def make_coordinator(**service_kw):
    service = ServiceConfig(
        max_batch=2,
        max_wait=0.02,
        deterministic=True,
        **service_kw,
    )
    cfg = ClusterConfig(
        heartbeat_timeout=1.5,
        node_window=1,
        service=service,
    )
    coord = ClusterCoordinator(cfg)
    coord.start()
    return coord


def add_node(coord, node_id, window=1):
    return WorkerNode(
        coord.address, node_id=node_id, mode="inline", window=window
    ).start()


def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def submit_jobs(coord, n, seed0=500, **kw):
    return [
        coord.submit(CIRCUIT, image_seed=seed0 + i, **kw)
        for i in range(n)
    ]


class TestEndToEnd:
    def test_jobs_shard_across_nodes_and_verify(self):
        coord = make_coordinator()
        try:
            nodes = [add_node(coord, f"n{i}") for i in range(2)]
            assert wait_for(lambda: len(coord.live_nodes()) == 2)
            job_ids = submit_jobs(coord, 4)
            results = [coord.result(j, timeout=240) for j in job_ids]
            assert all(r.verified for r in results)
            used = {r.store_keys["node"] for r in results}
            # window=1 and 2 ready batches: both nodes must participate
            assert used == {"n0", "n1"}
            for node in nodes:
                node.stop()
        finally:
            coord.shutdown(drain=False)

    def test_proofs_byte_identical_to_local_pool(self):
        """The acceptance criterion: same job => same proof bytes, whether
        proved through the cluster or the in-process serve pool."""
        from repro.nn.data import synthetic_images
        from repro.nn.models import build_model
        from repro.serve.workers import prove_batch

        coord = make_coordinator()
        try:
            node = add_node(coord, "solo")
            job_ids = submit_jobs(coord, 3, seed0=800)
            remote = [coord.result(j, timeout=240) for j in job_ids]

            shape = build_model(MODEL, scale=SCALE, seed=0).input_shape
            spec = {
                "model": MODEL, "scale": SCALE, "seed": 0,
                "privacy": "one-private", "backend": "simulated",
                "deterministic": True,
            }
            local = prove_batch(spec, [
                {"job_id": f"local{i}",
                 "image": synthetic_images(shape, n=1, seed=800 + i)[0]}
                for i in range(3)
            ])
            for res, ref in zip(remote, local["results"]):
                assert res.proof == ref["proof"]
                assert res.public_inputs == ref["public_inputs"]
            node.stop()
        finally:
            coord.shutdown(drain=False)

    def test_client_over_tcp(self, tmp_path):
        """A client over HTTP gets the proof an in-process submit of the
        same job gets, byte for byte, with its verifying key."""
        coord = make_coordinator()
        try:
            node = add_node(coord, "n0")
            with gateway_over(coord, tmp_path / "j.wal") as (durable, base):
                status, body = http_post(base + "/submit", {
                    **CIRCUIT.to_json(), "image_seed": 901,
                })
                assert status == 200
                gid = body["job_id"]
                assert durable.wait_terminal(gid, timeout=240).state == "done"
                status, view = http_get(base + "/result/" + gid)
                assert status == 200 and view["vk"]
                assert view["attempts"] == 1
                status, stats = http_get(base + "/metrics")
                assert "cluster" in stats and "queue" in stats
            local = coord.result(
                coord.submit(CIRCUIT, image_seed=901), timeout=240
            )
            assert bytes.fromhex(view["proof"]) == local.proof
            node.stop()
        finally:
            coord.shutdown(drain=False)

    def test_client_submit_array_image(self, tmp_path):
        """The gateway's library door takes an array image; it reaches
        the node in the JOB frame."""
        from repro.nn.data import synthetic_images
        from repro.nn.models import build_model

        coord = make_coordinator()
        try:
            node = add_node(coord, "n0")
            shape = build_model(MODEL, scale=SCALE, seed=0).input_shape
            image = synthetic_images(shape, n=1, seed=902)[0]
            with gateway_over(coord, tmp_path / "j.wal") as (durable, _):
                gid = durable.submit(CIRCUIT, image=image)
                assert durable.wait_terminal(gid, timeout=240).state == "done"
            node.stop()
        finally:
            coord.shutdown(drain=False)

    def test_jobs_queued_before_any_node_joins(self):
        coord = make_coordinator()
        try:
            job_ids = submit_jobs(coord, 2, seed0=910)
            time.sleep(0.1)  # dispatcher has nothing to hand them to yet
            node = add_node(coord, "late")
            results = [coord.result(j, timeout=240) for j in job_ids]
            assert all(r.verified for r in results)
            node.stop()
        finally:
            coord.shutdown(drain=False)

    def test_graceful_drain(self):
        coord = make_coordinator()
        node = add_node(coord, "n0")
        job_ids = submit_jobs(coord, 2, seed0=920)
        coord.shutdown(drain=True, timeout=240)
        for job_id in job_ids:
            assert coord.result(job_id, timeout=1).verified
        node.stop()


class TestFailover:
    @staticmethod
    def _node_busy(coord, node_id):
        def check():
            nodes = coord.stats()["cluster"]["nodes"]
            return nodes.get(node_id, {}).get("inflight_batches", 0) >= 1

        return check

    def test_killed_node_loses_no_jobs(self):
        from repro.cluster import node as node_mod

        coord = make_coordinator()
        try:
            victim = add_node(coord, "victim")
            assert wait_for(lambda: len(coord.live_nodes()) == 1)
            # Hold the inline proving lock so dispatched batches stall on
            # the victim instead of completing between stats polls —
            # guarantees work is genuinely in flight when we kill it.
            with node_mod._INLINE_LOCK:
                job_ids = submit_jobs(coord, 4, seed0=930)
                assert wait_for(self._node_busy(coord, "victim"), timeout=60)
                rescuer = add_node(coord, "rescuer")
                victim.kill()
                assert wait_for(
                    lambda: "victim" not in coord.live_nodes(), timeout=10
                )

            results = [coord.result(j, timeout=240) for j in job_ids]
            assert all(r.verified for r in results)
            cluster = coord.stats()["cluster"]
            assert cluster["node_deaths"] >= 1
            assert cluster["reroutes"] >= 1
            assert "victim" in cluster["dead_nodes"]
            # at least the stranded jobs consumed a retry attempt
            assert any(coord.job(j).attempts > 1 for j in job_ids)
            rescuer.stop()
        finally:
            coord.shutdown(drain=False)

    def test_node_death_detected(self):
        coord = make_coordinator()
        try:
            node = add_node(coord, "n0")
            assert wait_for(lambda: len(coord.live_nodes()) == 1)
            node.kill()
            assert wait_for(lambda: len(coord.live_nodes()) == 0, timeout=10)
        finally:
            coord.shutdown(drain=False)

    def test_jobs_fail_after_retry_budget_without_nodes(self):
        from repro.cluster import node as node_mod

        coord = make_coordinator()
        try:
            node = add_node(coord, "flaky")
            with node_mod._INLINE_LOCK:
                job_id = coord.submit(CIRCUIT, image_seed=940, timeout=8.0)
                assert wait_for(self._node_busy(coord, "flaky"), timeout=60)
                node.kill()  # no rescuer: retries burn down, then deadline
            with pytest.raises(Exception) as excinfo:
                coord.result(job_id, timeout=240)
            assert coord.status(job_id).terminal
            assert "JobFailedError" in type(excinfo.value).__name__
        finally:
            coord.shutdown(drain=False)


class TestValidation:
    def test_submit_requires_image_or_seed(self):
        coord = make_coordinator()
        try:
            with pytest.raises(ValueError):
                coord.submit(CIRCUIT)
        finally:
            coord.shutdown(drain=False)

    def test_client_submit_bad_model_rejected(self, tmp_path):
        """The spec refuses a bad model where it is built; a submit body
        naming one anyway is a 400 naming the field, and nothing is
        queued."""
        with pytest.raises(ValueError, match="^model='NOPE'"):
            CircuitSpec("NOPE")
        coord = make_coordinator()
        try:
            with gateway_over(coord, tmp_path / "j.wal") as (_, base):
                for field, body in (
                    ("model", {"model": "NOPE"}),
                    ("scale", {"model": MODEL, "scale": "huge"}),
                ):
                    status, reply = http_post(
                        base + "/submit", dict(body, image_seed=1)
                    )
                    assert status == 400
                    assert reply["error"].startswith(f"{field}=")
            assert coord.stats()["jobs"]["submitted"] == 0
        finally:
            coord.shutdown(drain=False)

    def test_submit_after_shutdown_rejected(self):
        coord = make_coordinator()
        coord.shutdown(drain=False)
        with pytest.raises(RuntimeError):
            coord.submit(CIRCUIT, image_seed=1)

    def test_remote_failure_surfaces_as_typed_error(self, tmp_path):
        coord = make_coordinator()
        try:
            with gateway_over(coord, tmp_path / "j.wal") as (durable, base):
                # no nodes + short deadline: the job times out remotely
                _, body = http_post(base + "/submit", {
                    **CIRCUIT.to_json(), "image_seed": 950, "timeout": 0.2,
                })
                gid = body["job_id"]
                assert durable.wait_terminal(gid, timeout=60) is not None
                status, view = http_get(base + "/result/" + gid)
                assert status == 200 and view["job_id"] == gid
                assert view["state"] == "timed_out" and view["error"]
        finally:
            coord.shutdown(drain=False)


class TestStatsShape:
    def test_cluster_section_keys(self):
        coord = make_coordinator()
        try:
            stats = coord.stats()
            cluster = stats["cluster"]
            for key in (
                "nodes", "dead_nodes", "node_deaths", "reroutes",
                "late_results", "bad_proof_batches", "pending_batches",
            ):
                assert key in cluster
        finally:
            coord.shutdown(drain=False)
