"""A client of the gateway outlives its connection and a coordinator restart.

A job's id names a journal record, not a socket: a client that loses its
connection, or finds a new coordinator epoch behind the same address,
asks ``/result`` again and gets the job.  Jobs the old epoch had not
finished are re-proved from the journal
(``tests/test_gateway.py::TestCrashRecovery``), so none is lost.
"""

import http.client
import json
import socket

from repro.cluster import ClusterConfig, ClusterCoordinator, WorkerNode
from repro.core.spec import CircuitSpec
from repro.serve.service import ServiceConfig
from tests.test_gateway import gateway_over, http_get, http_post

CIRCUIT = CircuitSpec("SHAL", scale="micro")


def make_coordinator():
    cfg = ClusterConfig(
        heartbeat_timeout=2.0,
        node_window=1,
        service=ServiceConfig(max_batch=2, max_wait=0.02, deterministic=True),
    )
    coord = ClusterCoordinator(cfg)
    coord.start()
    return coord


class TestReconnect:
    def test_client_survives_coordinator_restart(self, tmp_path):
        wal = tmp_path / "journal.wal"
        coord_a = make_coordinator()
        node = WorkerNode(coord_a.address, node_id="n1",
                          mode="inline").start()
        try:
            with gateway_over(coord_a, wal) as (durable, base):
                _, body = http_post(
                    base + "/submit", {**CIRCUIT.to_json(), "image_seed": 1}
                )
                first = body["job_id"]
                assert durable.wait_terminal(first, timeout=60).state == "done"
                proof = http_get(base + "/result/" + first)[1]["proof"]
        finally:
            node.stop()
            coord_a.shutdown(drain=False)

        # A new epoch behind the same address: the client's job id still
        # answers, from the journal, and new work flows through.
        port = int(base.rsplit(":", 1)[1])
        coord_b = make_coordinator()
        node_b = WorkerNode(coord_b.address, node_id="n2",
                            mode="inline").start()
        try:
            with gateway_over(coord_b, wal, port=port) as (durable, base_b):
                assert base_b == base
                status, view = http_get(base + "/result/" + first)
                assert status == 200 and view["recovered"]
                assert view["proof"] == proof
                _, body = http_post(
                    base + "/submit", {**CIRCUIT.to_json(), "image_seed": 2}
                )
                assert durable.wait_terminal(
                    body["job_id"], timeout=60
                ).state == "done"
        finally:
            node_b.stop()
            coord_b.shutdown(drain=False)

    def test_watch_on_live_coordinator_finds_done_job(self, tmp_path):
        """The connection a job was submitted on is severed before the job
        finishes; a new connection to the live gateway finds it done."""
        coord = make_coordinator()
        node = WorkerNode(coord.address, node_id="n1", mode="inline").start()
        try:
            with gateway_over(coord, tmp_path / "j.wal") as (durable, base):
                host, port = base[len("http://"):].rsplit(":", 1)
                conn = http.client.HTTPConnection(host, int(port), timeout=30)
                conn.request("POST", "/submit", json.dumps(
                    {**CIRCUIT.to_json(), "image_seed": 4}
                ))
                gid = json.loads(conn.getresponse().read())["job_id"]
                conn.sock.shutdown(socket.SHUT_RDWR)
                conn.close()
                assert durable.wait_terminal(gid, timeout=60).state == "done"
                status, view = http_get(base + "/result/" + gid)
                assert status == 200 and view["state"] == "done"
                assert view["proof"] and view["vk"]
        finally:
            node.stop()
            coord.shutdown(drain=False)
