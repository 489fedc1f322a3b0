"""ClusterClient reconnect: coordinator restarts must not kill clients.

A coordinator death used to surface as ``ClusterError: connection
closed`` from every client call.  Now the receive thread redials with
capped exponential backoff and re-registers outstanding jobs with a
WATCH frame; jobs the new coordinator never heard of come back in the
WATCH_ACK as unknown and fail their waiters explicitly (the in-memory
queue died with the old process — resubmit), while the client object
itself stays usable for new work.
"""

import time

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterConfig,
    ClusterCoordinator,
    ClusterError,
    WorkerNode,
)
from repro.core.spec import CircuitSpec
from repro.serve.service import ServiceConfig

CIRCUIT = CircuitSpec("SHAL", scale="micro")


def make_coordinator(port=0, bind_timeout=10.0):
    cfg = ClusterConfig(
        port=port,
        heartbeat_timeout=2.0,
        node_window=1,
        service=ServiceConfig(max_batch=2, max_wait=0.02, deterministic=True),
    )
    # Rebinding a just-vacated port can race the old listener's close.
    deadline = time.monotonic() + bind_timeout
    while True:
        coord = ClusterCoordinator(cfg)
        try:
            coord.start()
            return coord
        except OSError:
            if port == 0 or time.monotonic() > deadline:
                raise
            time.sleep(0.1)


def retry(fn, timeout=15.0, interval=0.1):
    """Keep calling ``fn`` until it stops raising ClusterError/Timeout."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return fn()
        except (ClusterError, TimeoutError):
            if time.monotonic() > deadline:
                raise
            time.sleep(interval)


class TestReconnect:
    def test_client_survives_coordinator_restart(self):
        coord_a = make_coordinator()
        _, port = coord_a.address
        client = ClusterClient(
            coord_a.address,
            reconnect_backoff_base=0.02,
            reconnect_deadline=20.0,
        )
        node = WorkerNode(coord_a.address, node_id="n1",
                          mode="inline").start()
        try:
            job = client.submit(CIRCUIT, image_seed=1)
            assert client.result(job, timeout=60).verified

            node.stop()
            coord_a.shutdown(drain=False)
            coord_b = make_coordinator(port=port)  # same address
            try:
                # In-flight requests during the redial window may fail
                # with ClusterError (reply lost) — but the client heals.
                stats = retry(lambda: client.stats(timeout=5))
                assert "gauges" in stats
                assert client.reconnects >= 1

                # And brand-new work flows through the new coordinator.
                node_b = WorkerNode(coord_b.address, node_id="n2",
                                    mode="inline").start()
                try:
                    job2 = retry(
                        lambda: client.submit(CIRCUIT, image_seed=2)
                    )
                    assert client.result(job2, timeout=60).verified
                finally:
                    node_b.stop()
            finally:
                coord_b.shutdown(drain=False)
        finally:
            client.close()

    def test_outstanding_job_lost_across_restart_fails_loudly(self):
        # No workers: the job sits in coordinator A's in-memory queue,
        # which dies with it.  The reconnected client must learn that
        # from the WATCH_ACK instead of hanging forever.
        coord_a = make_coordinator()
        _, port = coord_a.address
        client = ClusterClient(
            coord_a.address,
            reconnect_backoff_base=0.02,
            reconnect_deadline=20.0,
        )
        try:
            job = client.submit(CIRCUIT, image_seed=3)
            coord_a.shutdown(drain=False)
            coord_b = make_coordinator(port=port)
            try:
                with pytest.raises(ClusterError, match="lost"):
                    client.result(job, timeout=30)
                assert job in client.lost_jobs()
            finally:
                coord_b.shutdown(drain=False)
        finally:
            client.close()

    def test_watch_on_live_coordinator_finds_done_job(self):
        # WATCH for a job that finished before the watch registers: the
        # coordinator replays the JOB_DONE push instead of dropping it.
        coord = make_coordinator()
        _, port = coord.address
        node = WorkerNode(coord.address, node_id="n1",
                          mode="inline").start()
        client = ClusterClient(
            coord.address,
            reconnect_backoff_base=0.02,
            reconnect_deadline=20.0,
        )
        try:
            job = client.submit(CIRCUIT, image_seed=4)
            assert client.result(job, timeout=60).verified

            # Bounce only the SOCKET (coordinator stays alive): sever
            # the underlying connection as a fault, forcing a redial
            # that re-watches `job` — already terminal on the other
            # end.  shutdown() (not close()) so the blocked recv wakes.
            import socket as _socket

            with client._cond:
                client._outstanding.add(job)
                client._done.pop(job)
            client._sock.shutdown(_socket.SHUT_RDWR)
            result = retry(lambda: client.result(job, timeout=10))
            assert result.verified
            assert client.reconnects >= 1
        finally:
            client.close()
            node.stop()
            coord.shutdown(drain=False)

    def test_reconnect_disabled_fails_fast(self):
        coord = make_coordinator()
        client = ClusterClient(coord.address, reconnect=False)
        try:
            coord.shutdown(drain=False)
            with pytest.raises((ClusterError, TimeoutError)):
                retry(lambda: client.stats(timeout=2), timeout=6)
            # The client is terminally failed, not retrying.
            with pytest.raises(ClusterError, match="gave up|closed"):
                client.stats(timeout=2)
        finally:
            client.close()

    def test_reconnect_gives_up_after_deadline(self):
        coord = make_coordinator()
        client = ClusterClient(
            coord.address,
            reconnect_backoff_base=0.02,
            reconnect_backoff_cap=0.1,
            reconnect_deadline=1.0,
        )
        try:
            coord.shutdown(drain=False)  # nothing ever comes back
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not client._failed:
                time.sleep(0.05)
            with pytest.raises(ClusterError, match="gave up"):
                client.stats(timeout=2)
        finally:
            client.close()
