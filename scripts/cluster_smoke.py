"""CI smoke test for the distributed proving cluster.

Runs an in-process coordinator with two REAL worker subprocesses
(``python -m repro.cli cluster worker``) on localhost, then:

1. submits a batch and asserts every proof verifies AND is byte-identical
   to proofs produced locally by :func:`repro.serve.workers.prove_batch`
   under the same deterministic blinding;
2. submits a second batch against a cold circuit key (so batches stay in
   flight long enough to observe), SIGKILLs the worker that holds one
   mid-batch, and asserts no job is lost — the stranded batch reroutes to
   the surviving worker within the retry budget and the telemetry records
   the node death and reroute.

Exit code 0 on success.  Used by the CI "Cluster smoke" step::

    PYTHONPATH=src python scripts/cluster_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.core.spec import CircuitSpec
from repro.serve.service import ServiceConfig

WARM = CircuitSpec("SHAL", scale="micro")
COLD = CircuitSpec("LCS", scale="micro")


def wait_for(predicate, timeout, what, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


def spawn_worker(address, node_id):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    host, port = address
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "cluster", "worker",
            "--connect", f"{host}:{port}", "--node-id", node_id,
            "--pool-workers", "1", "--window", "1",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def main() -> int:
    coord = ClusterCoordinator(
        ClusterConfig(
            heartbeat_timeout=2.0,
            node_window=1,
            service=ServiceConfig(
                max_batch=2, max_wait=0.02, deterministic=True,
            ),
        )
    )
    address = coord.start()
    print(f"coordinator on {address[0]}:{address[1]}")
    workers = {
        node_id: spawn_worker(address, node_id)
        for node_id in ("smoke-w0", "smoke-w1")
    }
    try:
        wait_for(
            lambda: len(coord.live_nodes()) == 2, 60, "both workers to register"
        )
        print(f"workers registered: {sorted(coord.live_nodes())}")

        # -- phase 1: correctness + byte-identity --------------------------------
        seeds = list(range(6100, 6104))
        job_ids = [
            coord.submit(WARM, image_seed=s) for s in seeds
        ]
        results = [coord.result(j, timeout=300) for j in job_ids]
        assert all(r.verified for r in results), "a cluster proof failed"

        from repro.serve.workers import prove_batch

        local = prove_batch(
            {**WARM.to_json(), "backend": "simulated", "deterministic": True},
            [{"job_id": f"local-{s}", "image": WARM.image(s)} for s in seeds],
        )
        for res, ref in zip(results, local["results"]):
            assert res.proof == ref["proof"], "cluster proof != local proof"
        print(f"phase 1 ok: {len(results)} proofs verified, byte-identical "
              "to local proving")

        # -- phase 2: kill a worker mid-batch ------------------------------------
        # A cold circuit key keeps the batch in flight for the whole
        # worker-side warm-up, giving a wide window to kill the node.
        job_ids = [
            coord.submit(COLD, image_seed=6200 + i)
            for i in range(4)
        ]

        busy = {}

        def some_node_busy():
            for node_id, node in coord.stats()["cluster"]["nodes"].items():
                if node.get("alive") and node.get("inflight_batches", 0) >= 1:
                    busy["node"] = node_id
                    return True
            return False

        wait_for(some_node_busy, 120, "a worker to hold an in-flight batch")
        victim = busy["node"]
        print(f"SIGKILL {victim} (pid {workers[victim].pid}) mid-batch")
        workers[victim].send_signal(signal.SIGKILL)
        workers[victim].wait(timeout=30)

        results = [coord.result(j, timeout=300) for j in job_ids]
        assert all(r.verified for r in results), "a rerouted proof failed"
        nodes_used = {r.store_keys["node"] for r in results}
        cluster = coord.stats()["cluster"]
        assert cluster["node_deaths"] >= 1, "node death not recorded"
        assert cluster["reroutes"] >= 1, "reroute not recorded"
        assert victim in cluster["dead_nodes"], "victim not marked dead"
        print(
            f"phase 2 ok: {len(results)} jobs survived the kill "
            f"(nodes used: {sorted(nodes_used)}, "
            f"deaths={cluster['node_deaths']}, reroutes={cluster['reroutes']})"
        )
        print("CLUSTER SMOKE PASSED")
        return 0
    finally:
        for proc in workers.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in workers.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        coord.shutdown(drain=False)


if __name__ == "__main__":
    sys.exit(main())
