"""Integration tests for the durable gateway: journal + HTTP + autoscaler.

The in-process tests wire a real ClusterCoordinator, a WAL journal, the
asyncio HTTP server, and inline worker nodes together on localhost.  The
crash tests simulate SIGKILL by abandoning the journal without closing
it (epoch tests), and — for the real thing — SIGKILL an actual
``zeno gateway`` subprocess and assert exactly-once, byte-identical
results across the restart.
"""

import contextlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator, WorkerNode
from repro.cluster import protocol
from repro.gateway import (
    Autoscaler,
    AutoscalerConfig,
    DurableCoordinator,
    GatewayConfig,
    GatewayServer,
    InProcessNodeLauncher,
    JobJournal,
    JournalError,
    autoscale,
)
from repro.gateway.http import StrideScheduler, TokenBucket
from repro.gateway.journal import recover_state
from repro.core.spec import CircuitSpec
from repro.serve.service import ServiceConfig

MODEL, SCALE = "SHAL", "micro"
CIRCUIT = CircuitSpec(MODEL, scale=SCALE)
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def make_coordinator():
    cfg = ClusterConfig(
        heartbeat_timeout=2.0,
        node_window=1,
        service=ServiceConfig(max_batch=2, max_wait=0.02, deterministic=True),
    )
    coord = ClusterCoordinator(cfg)
    coord.start()
    return coord


def idle_coordinator(tmp_path):
    """A coordinator never started: no threads, no nodes, jobs stay queued."""
    return ClusterCoordinator(ClusterConfig(
        service=ServiceConfig(store_dir=str(tmp_path / "store"))
    ))


def http_get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def http_post(url, payload, headers=None):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers=headers or {}
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


@contextlib.contextmanager
def gateway_over(coord, wal_path, **config):
    """A journal, a :class:`DurableCoordinator` and the HTTP server over
    ``coord``: the one door a job takes into the cluster."""
    journal = JobJournal(wal_path, batch_window=0.001)
    durable = DurableCoordinator(coord, journal)
    server = GatewayServer(durable, GatewayConfig(**config)).start()
    try:
        yield durable, f"http://{server.host}:{server.port}"
    finally:
        server.stop()
        journal.close()


@pytest.fixture
def stack(tmp_path):
    """coordinator + node + journal + durable + HTTP server."""
    coord = make_coordinator()
    node = WorkerNode(coord.address, node_id="n1", mode="inline").start()
    journal = JobJournal(tmp_path / "journal.wal", batch_window=0.001)
    durable = DurableCoordinator(coord, journal)
    server = GatewayServer(durable, GatewayConfig()).start()
    yield coord, durable, server, f"http://{server.host}:{server.port}"
    server.stop()
    node.stop()
    coord.shutdown(drain=False)
    journal.close()


class TestDurableCoordinator:
    def test_submit_prove_result(self, stack):
        _, durable, _, _ = stack
        gid = durable.submit(CIRCUIT, image_seed=1)
        job = durable.wait_terminal(gid, timeout=60)
        assert job.state == "done"
        view = durable.result_view(gid)
        assert view["job_id"] == gid
        assert len(bytes.fromhex(view["proof"])) > 0
        assert view["vk"]  # verifying key served from the artifact store

    def test_request_id_idempotent(self, stack):
        _, durable, _, _ = stack
        a = durable.submit(CIRCUIT, image_seed=2, request_id="req-1")
        b = durable.submit(CIRCUIT, image_seed=3, request_id="req-1")
        assert a == b
        assert durable.journal.state.submits == 1

    def test_terminal_journaled_exactly_once(self, stack):
        _, durable, _, _ = stack
        gids = [
            durable.submit(CIRCUIT, image_seed=10 + i)
            for i in range(6)
        ]
        for gid in gids:
            assert durable.wait_terminal(gid, timeout=60).state == "done"
        assert durable.journal.state.done_records == 6
        assert durable.journal.state.duplicate_done == 0


    def test_bad_input_is_refused_before_the_journal(self, stack):
        _, durable, _, _ = stack
        appends = durable.journal.appends
        for image_seed in (None, "x"):
            with pytest.raises(ValueError, match="^image_seed="):
                durable.submit(CIRCUIT, image_seed=image_seed)
        assert durable.journal.appends == appends
        assert durable.jobs_snapshot() == {}


class TestAckIsDurable:
    """An id handed back by ``submit`` names a job whose submit record is
    on disk, whether it was minted now or found by its ``request_id``."""

    def test_retry_waits_for_the_original_fsync(self, tmp_path):
        """Was: the retry got the gid at once, with only the header
        fsynced, while the original still waited for its group commit."""
        path = tmp_path / "j.wal"
        journal = JobJournal(path, batch_window=0.5)
        durable = DurableCoordinator(idle_coordinator(tmp_path), journal)
        CIRCUIT.image(1)  # build the input shape before the clock matters
        first = []
        original = threading.Thread(target=lambda: first.append(
            durable.submit(CIRCUIT, image_seed=1, request_id="r1")
        ))
        original.start()
        time.sleep(0.1)
        gid = durable.submit(CIRCUIT, image_seed=1, request_id="r1")
        on_disk = recover_state(path).request_index.get("r1")
        original.join(timeout=30)
        assert not original.is_alive()
        journal.close()
        assert on_disk == gid == first[0]
        assert recover_state(path).submits == 1

    def test_concurrent_submits_stress(self, tmp_path):
        """Sixteen threads submit over five request ids with a short switch
        interval: each request id is one job, every returned id is on disk
        when it is returned, and ``seq`` numbers every job once."""
        path = tmp_path / "j.wal"
        journal = JobJournal(path, batch_window=0.001)
        durable = DurableCoordinator(idle_coordinator(tmp_path), journal)
        CIRCUIT.image(0)
        returned, errors = [], []

        def client(worker):
            try:
                for i in range(10):
                    rid = f"r{(worker + i) % 5}" if i % 2 else None
                    gid = durable.submit(CIRCUIT, image_seed=i, request_id=rid)
                    assert gid in recover_state(path).jobs
                    returned.append((rid, gid))
            except Exception as exc:  # reported below, on the test thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(w,)) for w in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        owners = {}
        for rid, gid in returned:
            if rid is not None:
                assert owners.setdefault(rid, gid) == gid
        journal.close()
        state = recover_state(path)
        assert state.submits == len(state.jobs) == 16 * 5 + len(owners)
        seqs = sorted(job.spec["seq"] for job in state.jobs.values())
        assert seqs == list(range(1, len(seqs) + 1))

    def test_failed_append_leaves_no_job(self, tmp_path):
        """Was: the retry returned a gid no record names, ``queued``
        forever."""
        journal = JobJournal(tmp_path / "j.wal", batch_window=0)
        durable = DurableCoordinator(idle_coordinator(tmp_path), journal)
        journal.close()
        for _ in range(2):
            with pytest.raises(JournalError):
                durable.submit(CIRCUIT, image_seed=1, request_id="r1")
        assert durable.jobs_snapshot() == {}
        assert durable.journal.state.request_index == {}


class TestCrashRecovery:
    def test_epoch_restart_reproves_pending_only(self, tmp_path):
        path = tmp_path / "journal.wal"
        # Epoch 1: no workers; everything stays queued.  Abandon the
        # journal without close() — as a SIGKILL would.
        c1 = make_coordinator()
        d1 = DurableCoordinator(c1, JobJournal(path, batch_window=0))
        gids = [
            d1.submit(CIRCUIT, image_seed=20 + i)
            for i in range(4)
        ]
        c1.shutdown(drain=False)

        # Epoch 2: fresh coordinator, same WAL -> all 4 re-enqueued.
        c2 = make_coordinator()
        j2 = JobJournal(path, batch_window=0.001)
        d2 = DurableCoordinator(c2, j2)
        assert d2.recovered_pending == 4
        node = WorkerNode(c2.address, node_id="n1", mode="inline").start()
        proofs = {}
        for gid in gids:
            job = d2.wait_terminal(gid, timeout=60)
            assert job.state == "done"
            proofs[gid] = job.result["proof"]
        assert j2.state.duplicate_done == 0
        node.stop()
        c2.shutdown(drain=False)

        # Epoch 3: everything terminal; results come from the WAL,
        # byte-identical, with nothing re-enqueued.
        c3 = make_coordinator()
        j3 = JobJournal(path, batch_window=0)
        d3 = DurableCoordinator(c3, j3)
        assert d3.recovered_pending == 0
        assert d3.recovered_completed == 4
        for gid in gids:
            view = d3.result_view(gid)
            assert view["recovered"] is True
            assert view["proof"] == proofs[gid]
        assert j3.state.duplicate_done == 0
        c3.shutdown(drain=False)
        j3.close()

    def test_recovery_skips_done_reproves_running(self, tmp_path):
        path = tmp_path / "journal.wal"
        c1 = make_coordinator()
        d1 = DurableCoordinator(c1, JobJournal(path, batch_window=0.001))
        node = WorkerNode(c1.address, node_id="n1", mode="inline").start()
        done_gid = d1.submit(CIRCUIT, image_seed=30)
        assert d1.wait_terminal(done_gid, timeout=60).state == "done"
        node.stop()
        pending_gid = d1.submit(CIRCUIT, image_seed=31)
        c1.shutdown(drain=False)

        c2 = make_coordinator()
        d2 = DurableCoordinator(c2, JobJournal(path, batch_window=0.001))
        assert d2.recovered_completed == 1
        assert d2.recovered_pending == 1
        assert d2.job(done_gid).state == "done"
        assert d2.job(pending_gid).state == "queued"
        c2.shutdown(drain=False)
        d2.close()

    def test_journal_written_by_the_parent_commit_recovers(self, tmp_path):
        """A WAL from the last commit before the job engine was unified
        (a real ``zeno gateway``, SIGKILLed with jobs in flight; recipe in
        ``tests/fixtures/make_parent_wal.py``): done results are served
        from disk, pending jobs are proved once, and every proof is the
        byte string the parent itself produced on restart."""
        fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
        path = tmp_path / "journal.wal"
        shutil.copyfile(os.path.join(fixtures, "parent_gateway.wal"), path)
        with open(os.path.join(fixtures, "parent_gateway_expected.json")) as fh:
            expected = json.load(fh)
        before = recover_state(path)
        done = {j.gid for j in before.completed()}
        pending = {j.gid for j in before.pending()}
        assert done and pending and done | pending == set(expected)

        coord = make_coordinator()
        journal = JobJournal(path, batch_window=0.001)
        durable = DurableCoordinator(coord, journal)
        assert durable.recovered_completed == len(done)
        assert durable.recovered_pending == len(pending)
        for gid in done:  # no node yet: these can only come from the WAL
            assert durable.result_view(gid)["proof"] == expected[gid]
        node = WorkerNode(coord.address, node_id="n1", mode="inline").start()
        try:
            for gid in pending:
                assert durable.wait_terminal(gid, timeout=60).state == "done"
                view = durable.result_view(gid)
                assert view["proof"] == expected[gid] and view["recovered"]
            # Same request ids as the fixture's clients used: nothing new.
            assert {
                durable.submit(CIRCUIT, image_seed=7000 + i,
                               request_id=f"fixture-{i}")
                for i in range(len(expected))
            } == set(expected)
            assert coord.stats()["jobs"]["submitted"] == len(pending)
        finally:
            node.stop()
            coord.shutdown(drain=False)
            durable.close()
        after = recover_state(path)
        assert after.duplicate_done == 0
        assert {j.gid for j in after.completed()} == set(expected)

    def test_unreplayable_submit_record_fails_durably(self, tmp_path):
        """The parent commit journaled a submit before checking it, so a
        WAL can hold a record naming no valid circuit.  Recovery must not
        raise: that job fails with a durable record naming the field, and
        the valid pending job beside it proves."""
        path = tmp_path / "journal.wal"
        with JobJournal(path, batch_window=0) as journal:
            for seq, (gid, model) in enumerate(
                [("g-bad", "NOPE"), ("g-ok", MODEL)], start=1
            ):
                journal.append({
                    "t": "submit", "gid": gid, "seq": seq, "ts": 0.0,
                    "tenant": "default", "request_id": None,
                    "model": model, "scale": SCALE, "seed": 0,
                    "privacy": "one-private", "priority": 0,
                    "timeout": None, "image_seed": 80 + seq,
                }, durable=True)

        coord = make_coordinator()
        durable = DurableCoordinator(coord, JobJournal(path, batch_window=0))
        node = WorkerNode(coord.address, node_id="n1", mode="inline").start()
        try:
            bad = durable.job("g-bad")
            assert bad.state == "failed" and "model='NOPE'" in bad.error
            assert durable.recovered_pending == 1
            assert durable.wait_terminal("g-ok", timeout=60).state == "done"
        finally:
            node.stop()
            coord.shutdown(drain=False)
            durable.close()
        after = recover_state(path)
        assert after.jobs["g-bad"].state == "failed"
        assert "model='NOPE'" in after.jobs["g-bad"].error
        assert after.jobs["g-ok"].state == "done"

    def test_request_index_survives_restart(self, tmp_path):
        path = tmp_path / "journal.wal"
        c1 = make_coordinator()
        d1 = DurableCoordinator(c1, JobJournal(path, batch_window=0))
        gid = d1.submit(CIRCUIT, image_seed=40, request_id="retry-me")
        c1.shutdown(drain=False)

        c2 = make_coordinator()
        d2 = DurableCoordinator(c2, JobJournal(path, batch_window=0))
        # The client retries the same request against the new process:
        # it must get the original job back, not a duplicate.
        assert d2.submit(CIRCUIT, image_seed=40, request_id="retry-me") == gid
        assert d2.journal.state.submits == 1
        c2.shutdown(drain=False)
        d2.close()


class TestHTTP:
    def test_healthz_and_404(self, stack):
        _, _, _, base = stack
        status, body = http_get(base + "/healthz")
        assert status == 200 and body["ok"]
        assert http_get(base + "/nope")[0] == 404
        assert http_get(base + "/status/g-unknown")[0] == 404
        assert http_get(base + "/result/g-unknown")[0] == 404

    def test_submit_status_result_metrics(self, stack):
        _, durable, _, base = stack
        status, body = http_post(
            base + "/submit",
            {"model": MODEL, "scale": SCALE, "image_seed": 50},
        )
        assert status == 200 and body["durable"]
        gid = body["job_id"]
        assert durable.wait_terminal(gid, timeout=60).state == "done"
        status, view = http_get(base + "/status/" + gid)
        assert status == 200 and view["state"] == "done"
        status, res = http_get(base + "/result/" + gid)
        assert status == 200
        assert res["proof"] and res["logits"]
        status, metrics = http_get(base + "/metrics")
        assert status == 200
        assert metrics["journal"]["duplicate_done"] == 0
        assert metrics["http"]["submitted"] >= 1
        assert "gauges" in metrics  # telemetry snapshot incl. new gauges

    def test_pending_result_is_202(self, tmp_path):
        coord = make_coordinator()  # no workers: jobs never finish
        journal = JobJournal(tmp_path / "j.wal", batch_window=0)
        durable = DurableCoordinator(coord, journal)
        server = GatewayServer(durable, GatewayConfig()).start()
        base = f"http://{server.host}:{server.port}"
        try:
            _, body = http_post(
                base + "/submit",
                {"model": MODEL, "scale": SCALE, "image_seed": 51},
            )
            status, view = http_get(base + "/result/" + body["job_id"])
            assert status == 202
            assert view["state"] in ("queued", "running")
        finally:
            server.stop()
            coord.shutdown(drain=False)
            journal.close()

    def test_submit_validation(self, stack):
        _, _, _, base = stack
        assert http_post(base + "/submit", {"scale": SCALE})[0] == 400
        assert http_post(base + "/submit", {"model": MODEL})[0] == 400

    def test_malformed_submit_is_a_400_naming_the_field(self, stack):
        """Was a 500 (``int()`` outside the ``try``) for seed/priority, and
        a journaled job for a bad model; now nothing reaches the WAL."""
        _, durable, server, base = stack
        appends = durable.journal.appends
        good = {"model": MODEL, "scale": SCALE, "image_seed": 52}
        for field, value in [
            ("seed", "x"), ("priority", "high"), ("timeout", "soon"),
            ("model", "NOPE"), ("scale", "huge"), ("privacy", "bogus"),
            ("gadgets", "Strict"), ("relu_mode", "Lookup"), ("prune", "2"),
            ("sparse", "yes"), ("image_seed", "x"),
        ]:
            status, body = http_post(base + "/submit", {**good, field: value})
            assert status == 400, (field, status, body)
            assert body["error"].startswith(f"{field}="), (field, body)
        assert server.http_stats["errors"] == 0
        assert durable.journal.appends == appends

    def test_bad_content_length_is_a_400(self, stack):
        """Was: the connection closed with no response."""
        _, _, server, _ = stack
        with socket.create_connection((server.host, server.port), 10) as sock:
            sock.sendall(
                b"POST /submit HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(body)["error"].startswith("content-length=")
        assert server.http_stats["errors"] == 0

    def test_oversized_head_is_a_413(self, stack):
        """Was: a head past the 64 KiB stream limit dropped the connection
        with no response."""
        _, _, server, _ = stack
        for pad, code in ((60_000, b"404"), (70_000, b"413")):
            with socket.create_connection((server.host, server.port), 10) as sock:
                sock.sendall(
                    b"GET /nope HTTP/1.1\r\nX-Pad: " + b"x" * pad
                    + b"\r\nConnection: close\r\n\r\n"
                )
                reply = sock.recv(4096)
            assert reply.startswith(b"HTTP/1.1 " + code), (pad, reply[:40])

    def test_body_without_gadgets_takes_the_gateway_profile(self, tmp_path):
        coord = make_coordinator()  # no workers: the jobs stay queued
        journal = JobJournal(tmp_path / "j.wal", batch_window=0)
        durable = DurableCoordinator(coord, journal)
        server = GatewayServer(durable, GatewayConfig(gadgets="strict")).start()
        base = f"http://{server.host}:{server.port}"
        try:
            profiles = []
            for named in ({}, {"gadgets": "lean"}):
                _, body = http_post(base + "/submit", {
                    "model": MODEL, "scale": SCALE, "image_seed": 54, **named,
                })
                profiles.append(durable.job(body["job_id"]).spec["gadgets"])
            assert profiles == ["strict", "lean"]
        finally:
            server.stop()
            coord.shutdown(drain=False)
            journal.close()

    def test_api_key_auth(self, tmp_path):
        coord = make_coordinator()
        journal = JobJournal(tmp_path / "j.wal", batch_window=0)
        durable = DurableCoordinator(coord, journal)
        server = GatewayServer(
            durable,
            GatewayConfig(api_keys={"sekrit": "acme"}),
        ).start()
        base = f"http://{server.host}:{server.port}"
        try:
            # healthz never needs auth; everything else does.
            assert http_get(base + "/healthz")[0] == 200
            assert http_get(base + "/metrics")[0] == 401
            status, body = http_post(
                base + "/submit",
                {"model": MODEL, "scale": SCALE, "image_seed": 60},
                headers={"X-API-Key": "sekrit"},
            )
            assert status == 200
            assert body["tenant"] == "acme"  # tenant comes from the key
            assert http_post(
                base + "/submit",
                {"model": MODEL, "scale": SCALE, "image_seed": 61},
                headers={"X-API-Key": "wrong"},
            )[0] == 401
        finally:
            server.stop()
            coord.shutdown(drain=False)
            journal.close()

    def test_rate_limit_429(self, tmp_path):
        coord = make_coordinator()
        journal = JobJournal(tmp_path / "j.wal", batch_window=0)
        durable = DurableCoordinator(coord, journal)
        server = GatewayServer(
            durable, GatewayConfig(rate=0.001, burst=2)
        ).start()
        base = f"http://{server.host}:{server.port}"
        try:
            codes = [http_get(base + "/metrics")[0] for _ in range(4)]
            assert codes[:2] == [200, 200]
            assert 429 in codes[2:]
        finally:
            server.stop()
            coord.shutdown(drain=False)
            journal.close()


class TestOneFrontDoor:
    def test_cluster_port_refuses_a_submit_frame(self, tmp_path):
        """Was: a keyless SUBMIT frame (type 9) on the coordinator's port
        got a verified proof past API-key auth, the rate limit and the
        journal.  The port now serves nodes only: the frame's type is
        unknown, the connection closes, and nothing is queued or
        journaled."""
        coord = make_coordinator()
        node = WorkerNode(coord.address, node_id="n1", mode="inline").start()
        path = tmp_path / "journal.wal"
        try:
            with gateway_over(
                coord, path, api_keys={"secret": "t"}
            ) as (durable, base):
                assert http_post(base + "/submit", {
                    "model": MODEL, "scale": SCALE, "image_seed": 1,
                })[0] == 401
                body = protocol.encode_value({
                    "req": 1, **CIRCUIT.to_json(), "image": None,
                    "image_seed": 1, "priority": 0, "timeout": None,
                    "tenant": "default", "extra": {},
                })
                header = protocol._HEADER.pack(
                    protocol.MAGIC, protocol.PROTOCOL_VERSION, 9, len(body),
                    protocol._frame_crc(9, body),
                )
                with socket.create_connection(coord.address, 10) as sock:
                    sock.sendall(header + body)
                    try:
                        reply = sock.recv(4096)
                    except ConnectionResetError:  # closed with body unread
                        reply = b""
                assert reply == b""
                assert coord.stats()["jobs"]["submitted"] == 0
                assert durable.journal.state.jobs == {}
            assert recover_state(path).jobs == {}
        finally:
            node.stop()
            coord.shutdown(drain=False)


class TestFairShare:
    def test_token_bucket(self):
        bucket = TokenBucket(rate=0.0, burst=3)
        assert [bucket.try_take() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_stride_weights_admission_ratio(self):
        sched = StrideScheduler({"big": 3.0, "small": 1.0})
        for i in range(40):
            sched.push("big", i)
            sched.push("small", i)
        first = [sched.pop()[0] for _ in range(24)]
        # Weight 3 tenant gets ~3x the early admission slots.
        assert first.count("big") == 18
        assert first.count("small") == 6

    def test_idle_tenant_does_not_bank_credit(self):
        sched = StrideScheduler({})
        for i in range(10):
            sched.push("busy", i)
        for _ in range(10):
            assert sched.pop()[0] == "busy"
        # "late" was idle the whole time; on arrival it competes fairly
        # instead of draining its backlog first forever.
        sched.push("late", 0)
        sched.push("busy", 99)
        winners = {sched.pop()[0], sched.pop()[0]}
        assert winners == {"late", "busy"}
        assert sched.pop() is None


class _StubCoordinator:
    """Telemetry-only coordinator stand-in for pure policy tests."""

    def __init__(self):
        self.gauges = {"queue_depth": 0, "batcher_pending": 0,
                       "inflight_jobs": 0}
        self.telemetry = self

    def snapshot(self):
        return {"gauges": dict(self.gauges)}


class _StubLauncher:
    def __init__(self):
        self.launched = []
        self.drained = []

    def launch(self):
        token = object()
        self.launched.append(token)
        return token

    def drain(self, node):
        self.drained.append(node)


class TestAutoscaler:
    def make(self, **cfg):
        coord = _StubCoordinator()
        launcher = _StubLauncher()
        scaler = Autoscaler(coord, launcher, AutoscalerConfig(**cfg))
        return coord, launcher, scaler

    def test_scale_up_on_backlog(self):
        _, launcher, scaler = self.make(
            min_nodes=1, max_nodes=3, scale_up_backlog=4.0
        )
        scaler._scale_up()  # the min_nodes baseline
        scaler._last_scale_up = 0.0  # decide() runs on a fake clock
        assert scaler.decide(backlog=10, inflight=0, now=100.0) == 1
        scaler._scale_up()
        scaler._last_scale_up = 0.0
        # 10 outstanding / 2 nodes = 5 > 4 -> keep growing
        assert scaler.decide(backlog=10, inflight=0, now=101.0) == 1
        scaler._scale_up()
        scaler._last_scale_up = 0.0
        # at max_nodes: never exceed the bound
        assert scaler.decide(backlog=100, inflight=0, now=102.0) == 0

    def test_cooldown_throttles_scale_up(self, monkeypatch):
        monkeypatch.setattr(autoscale, "COOLDOWN", 5.0)
        _, _, scaler = self.make(min_nodes=1, max_nodes=4, scale_up_backlog=1.0)
        scaler._scale_up()
        scaler._last_scale_up = 100.0
        assert scaler.decide(backlog=50, inflight=0, now=101.0) == 0
        assert scaler.decide(backlog=50, inflight=0, now=106.0) == 1

    def test_scale_down_after_idle(self):
        _, _, scaler = self.make(
            min_nodes=1, max_nodes=3, scale_down_idle=2.0
        )
        scaler._scale_up()
        scaler._scale_up()
        assert scaler.decide(backlog=0, inflight=0, now=10.0) == 0
        assert scaler.decide(backlog=0, inflight=0, now=11.0) == 0
        assert scaler.decide(backlog=0, inflight=0, now=12.5) == -1
        scaler._scale_down()
        # at min_nodes: drain no further
        assert scaler.decide(backlog=0, inflight=0, now=20.0) == 0

    def test_work_resets_idle_window(self):
        _, _, scaler = self.make(
            min_nodes=1, max_nodes=3, scale_down_idle=2.0,
            scale_up_backlog=100.0,
        )
        scaler._scale_up()
        scaler._scale_up()
        assert scaler.decide(backlog=0, inflight=0, now=10.0) == 0
        assert scaler.decide(backlog=1, inflight=0, now=11.9) == 0
        # idle clock restarted by the burst of work
        assert scaler.decide(backlog=0, inflight=0, now=12.5) == 0
        assert scaler.decide(backlog=0, inflight=0, now=14.6) == -1

    def test_live_loop_scales_real_nodes(self, tmp_path):
        coord = make_coordinator()
        scaler = Autoscaler(
            coord,
            InProcessNodeLauncher(coord.address),
            AutoscalerConfig(min_nodes=1, max_nodes=2),
        ).start()
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if len(coord.live_nodes()) == 1:
                    break
                time.sleep(0.05)
            assert len(coord.live_nodes()) == 1
            assert scaler.node_count == 1
        finally:
            scaler.stop()
            coord.shutdown(drain=False)
        assert scaler.node_count == 0


class TestGatewayProcessCrash:
    """The real thing: SIGKILL a `zeno gateway` subprocess mid-batch."""

    def _start(self, data_dir, port_file):
        if os.path.exists(port_file):
            os.unlink(port_file)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "gateway",
                "--data-dir", str(data_dir), "--port-file", str(port_file),
                "--min-nodes", "1", "--max-nodes", "2",
                "--node-mode", "inline", "--max-wait", "0.02",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60
        while not os.path.exists(port_file):
            if proc.poll() is not None:
                raise AssertionError(
                    "gateway died: " + proc.stdout.read().decode()
                )
            if time.monotonic() > deadline:
                proc.kill()
                raise AssertionError("gateway never wrote its port file")
            time.sleep(0.05)
        host, port = open(port_file).read().split()
        return proc, f"http://{host}:{port}"

    def test_sigkill_restart_exactly_once_byte_identical(self, tmp_path):
        data_dir = tmp_path / "data"
        port_file = str(tmp_path / "port.txt")
        proc, base = self._start(data_dir, port_file)
        try:
            jobs = [
                {"model": MODEL, "scale": SCALE, "image_seed": 70 + i}
                for i in range(12)
            ]
            gids = [
                http_post(base + "/submit", job)[1]["job_id"]
                for job in jobs
            ]
            # Capture proofs for whatever completed pre-crash.
            pre = {}
            for gid in gids[:3]:
                for _ in range(300):
                    status, view = http_get(base + "/result/" + gid)
                    if status == 200:
                        pre[gid] = view["proof"]
                        break
                    time.sleep(0.1)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        proc, base = self._start(data_dir, port_file)
        try:
            deadline = time.monotonic() + 120
            states = {}
            while time.monotonic() < deadline:
                states = {
                    gid: http_get(base + "/status/" + gid)[1]["state"]
                    for gid in gids
                }
                if all(s == "done" for s in states.values()):
                    break
                time.sleep(0.2)
            # Zero lost: every acked submit survived the SIGKILL.
            assert all(s == "done" for s in states.values()), states
            # Byte-identical: pre-crash results replay unchanged.
            for gid, proof in pre.items():
                assert http_get(base + "/result/" + gid)[1]["proof"] == proof
            # Zero double-proved, across BOTH epochs' records.
            _, metrics = http_get(base + "/metrics")
            assert metrics["journal"]["duplicate_done"] == 0
            assert metrics["gateway_jobs"]["done"] == len(gids)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
