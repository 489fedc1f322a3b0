"""``gateway_mix``: a real ``zeno gateway`` subprocess driven over HTTP.

One client process, two keep-alive connections, two threads: one submits
on a schedule, the other polls ``/result`` and verifies every proof with
the client's *own* verifying keys (derived here from the model, never
taken from the server).  Circuits are trivial, so the gateway, cluster
and serve layers do the work and the prover layers do little.

Phase A is an open loop at a fixed rate, each latency timed from the
instant the request was *due*; phase B submits back-to-back and is timed
to the last verified result.
"""

from __future__ import annotations

import collections
import gc
import http.client
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from harness import (
    SRC,
    due_times,
    lateness,
    median,
    open_loop_latency,
    percentile,
    process_tree,
    tail_percentile,
    use_repo,
    vm_hwm_mib,
)
from workloads import image_seed, signed

use_repo()

from repro.core.circuit.compute import ComputeOptions  # noqa: E402
from repro.core.reuse.batch import BatchProver  # noqa: E402
from repro.ec.backend import SimulatedBackend  # noqa: E402
from repro.nn.data import synthetic_images  # noqa: E402
from repro.nn.models import build_model  # noqa: E402
from repro.snark import groth16  # noqa: E402
from repro.snark.serialize import deserialize_proof  # noqa: E402

SCALE = "micro"
NODES = 2  # worker-node subprocesses, one pool worker each
TENANTS = ("acme", "globex", "initech")
LCS_EVERY = 8  # 7:1 SHAL/LCS, so batches of two circuits interleave
# The serving workers derive every CRS from this seed
# (repro.serve.workers); the client needs it to rebuild the same keys.
SERVE_CRS_SEED = 0x5E70
POLL_WINDOW = 8  # oldest pending jobs polled per round
POLL_PAUSE = 0.002
WARMUP_JOBS = 2 * LCS_EVERY
JOB_TIMEOUT = 60.0


def model_of(index: int) -> str:
    return "LCS" if index % LCS_EVERY == LCS_EVERY - 1 else "SHAL"


class ClientVerifier:
    """The client's side of the contract: its own keys and its own oracle."""

    def __init__(self) -> None:
        self.backend = SimulatedBackend()
        self.models, self.keys, self.constraints = {}, {}, {}
        for name in ("SHAL", "LCS"):
            model = build_model(name, scale=SCALE, seed=0)
            prover = BatchProver(
                model, self.image(model, 0),
                options=ComputeOptions(gadget_mode="lean"),
            )
            setup = prover.warm_setup(
                self.backend, random.Random(SERVE_CRS_SEED), precompute=False
            )
            self.models[name] = model
            self.keys[name] = setup.verifying_key
            self.constraints[name] = prover.cs.num_constraints

    @staticmethod
    def image(model, data_seed: int):
        """What the gateway generates for ``image_seed=data_seed``."""
        return synthetic_images(model.input_shape, n=1, seed=data_seed)[0]

    def verify(self, name: str, body: dict, flip: bool = False) -> bool:
        publics = [int(v) for v in body["public_inputs"]]
        if flip:
            publics[0] ^= 1
        proof = deserialize_proof(bytes.fromhex(body["proof"]))
        return bool(groth16.verify(
            self.keys[name], publics, proof, self.backend
        ))

    def logits_match(self, name: str, data_seed: int, body: dict) -> bool:
        model = self.models[name]
        expected = model.forward(self.image(model, data_seed)).reshape(-1)
        modulus = self.backend.scalar_field.modulus
        claimed = signed([int(v) for v in body["public_inputs"]], modulus)
        return claimed == [int(v) for v in expected]


class GatewayProc:
    """One ``zeno gateway`` process group under a work directory."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.starts = 0
        self.proc: Optional[subprocess.Popen] = None
        self.address = ("", 0)

    def start(self) -> None:
        """A new gateway on a fresh data directory (no journal to replay)."""
        self.starts += 1
        home = self.work / f"gateway-{self.starts}"
        home.mkdir()
        port_file = home / "port.txt"
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(home))
        self.log_path = home / "gateway.log"
        self.log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "gateway",
                "--data-dir", str(home / "data"),
                "--port-file", str(port_file),
                "--node-mode", "subprocess",
                "--min-nodes", str(NODES),
                "--max-nodes", str(NODES),
                "--pool-workers", "1",
                "--max-wait", "0.02",
                "--gadgets", "lean",
            ],
            env=env, cwd=home, stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT,
            start_new_session=True,  # own group: stop() reaches the workers
        )
        deadline = time.monotonic() + 60
        while not port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    "gateway did not start:\n" + self.log_tail()
                )
            time.sleep(0.01)
        host, port = port_file.read_text().split()
        self.address = (host, int(port))

    def log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]

    def peak_rss_mib(self) -> float:
        return sum(vm_hwm_mib(pid) for pid in process_tree(self.proc.pid))

    def stop(self) -> None:
        """Kill the whole group (gateway, worker nodes, their pools) and
        wait until every member is gone."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                proc.poll()  # reap our direct child
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.02)
        proc.wait()
        self.log.close()


class Connection:
    """One keep-alive HTTP connection speaking JSON."""

    def __init__(self, address) -> None:
        self.conn = http.client.HTTPConnection(*address, timeout=JOB_TIMEOUT)

    def call(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        self.conn.request(method, path, body=body)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


class Job:
    __slots__ = ("index", "traced", "model", "data_seed", "due", "sent",
                 "acked", "job_id", "polls", "got", "done", "ok", "body")

    def __init__(self, index: int, seed: int, due: float, trace=False) -> None:
        self.index = index
        self.traced = trace and index % 2 == 0  # as the in-process loop
        self.model = model_of(index)
        self.data_seed = image_seed(seed, index)
        self.due = due
        self.sent = self.acked = self.got = self.done = 0.0
        self.job_id = ""
        self.polls: List[tuple] = []
        self.ok = False
        self.body: Optional[dict] = None


def run_phase(
    address, verifier: ClientVerifier, jobs: Iterable[Job], tag: str,
    stop_submitting_at: Optional[float] = None,
) -> List[Job]:
    """Submit ``jobs`` (each when due) on one connection while polling and
    verifying on the other; returns the jobs that were actually sent."""
    pending: collections.deque = collections.deque()
    sent: List[Job] = []
    submit_error: List[BaseException] = []
    submitting = threading.Event()
    submitting.set()

    def submitter() -> None:
        conn = Connection(address)
        try:
            for job in jobs:
                now = time.perf_counter()
                if stop_submitting_at is not None and now >= stop_submitting_at:
                    break
                if job.due > now:
                    time.sleep(job.due - now)
                job.sent = time.perf_counter()
                status, body = conn.call("POST", "/submit", {
                    "model": job.model, "scale": SCALE,
                    "image_seed": job.data_seed,
                    "tenant": TENANTS[job.index % len(TENANTS)],
                    "request_id": f"{tag}-{job.index}",
                })
                job.acked = time.perf_counter()
                if status != 200:
                    raise RuntimeError(f"submit refused: {status} {body}")
                job.job_id = body["job_id"]
                sent.append(job)
                pending.append(job)
        except BaseException as exc:  # surfaced by the polling thread
            submit_error.append(exc)
        finally:
            conn.close()
            submitting.clear()

    thread = threading.Thread(target=submitter, name="e2e-submit")
    thread.start()
    conn = Connection(address)
    try:
        while submitting.is_set() or pending:
            progressed = False
            for _ in range(min(POLL_WINDOW, len(pending))):
                job = pending.popleft()
                start = time.perf_counter()
                status, body = conn.call("GET", f"/result/{job.job_id}")
                end = time.perf_counter()
                if job.traced:
                    job.polls.append((start, end))
                if status == 200:
                    job.got = end
                    job.body = body
                    job.ok = body.get("state") == "done" and verifier.verify(
                        job.model, body
                    )
                    job.done = time.perf_counter()
                    progressed = True
                elif end - job.acked > JOB_TIMEOUT:
                    job.done = end  # timed out: counted as failed
                    progressed = True
                else:
                    pending.append(job)
            if not progressed:
                time.sleep(POLL_PAUSE)
    finally:
        conn.close()
        thread.join()
    if submit_error:
        raise submit_error[0]
    return sent


def server_metrics(address) -> dict:
    """``GET /metrics`` on a connection of its own, opened and closed
    between phases so that a phase never has more than its two."""
    conn = Connection(address)
    try:
        return conn.call("GET", "/metrics")[1]
    finally:
        conn.close()


def phase_seconds_per_batch(before: dict, after: dict, phase: str) -> float:
    """Mean worker seconds per batch in ``phase`` between two snapshots.

    The telemetry keeps a bounded reservoir per phase; once it has wrapped
    it holds only the latest batches, and their mean is the answer."""
    a = after["phase_latency_seconds"].get(phase)
    b = before["phase_latency_seconds"].get(phase, {"mean": 0.0, "count": 0})
    if a is None:
        return 0.0
    if a["count"] > b["count"]:
        return (a["mean"] * a["count"] - b["mean"] * b["count"]) / (
            a["count"] - b["count"]
        )
    return a["mean"]


def server_delta(before: dict, after: dict) -> Dict[str, float]:
    """What the gateway's own ``/metrics`` counted between two snapshots."""
    def d(*path):
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    jobs = max(d("jobs", "completed"), 1)
    batches = max(d("batches", "runs"), 1)
    hits, misses = d("key_cache", "hits"), d("key_cache", "misses")
    appends, fsyncs = d("journal", "appends"), d("journal", "fsyncs")
    polls = d("http", "requests") - d("http", "submitted")
    return {
        "gateway.journal_appends": appends,
        "gateway.journal_fsyncs": fsyncs,
        "gateway.appends_per_fsync": appends / max(fsyncs, 1),
        "gateway.polls_per_job": polls / jobs,
        "gateway.queue_peak": after["queue"]["peak"],
        "serve.batches": d("batches", "runs"),
        "serve.batch_size_mean": jobs / batches,
        "serve.key_cache_hit_ratio": hits / max(hits + misses, 1),
        "serve.retries": d("jobs", "retries"),
        "serve.assign_s_mean": phase_seconds_per_batch(
            before, after, "assign") * batches / jobs,
        "serve.prove_s_mean": phase_seconds_per_batch(
            before, after, "security") * batches / jobs,
        "cluster.reroutes": d("cluster", "reroutes"),
        "cluster.node_deaths": d("cluster", "node_deaths"),
    }


def drive_gateway(
    work: Path,
    seed: int,
    seconds: float,
    trace: bool,
    setups: int = 1,
    rate: float = 40.0,
) -> dict:
    """Start (``setups`` times), warm, then phase A for 0.6 of
    ``seconds`` and phase B's submit window for 0.3 of it."""
    gateway = GatewayProc(work)
    setup_times = []
    failed = 0
    try:
        for round_ in range(setups):
            gc.collect()
            gateway.stop()
            start = time.perf_counter()
            verifier = ClientVerifier()
            gateway.start()
            warm = run_phase(
                gateway.address, verifier,
                [Job(i, seed, 0.0) for i in range(WARMUP_JOBS)],
                f"warm{round_}",
            )
            setup_times.append(time.perf_counter() - start)
            failed += sum(not j.ok for j in warm)

        gc.collect()
        count_a = max(LCS_EVERY, int(rate * seconds * 0.6) // LCS_EVERY * LCS_EVERY)
        m0 = server_metrics(gateway.address)
        start = time.perf_counter() + 0.05
        phase_a = run_phase(
            gateway.address, verifier,
            [
                Job(WARMUP_JOBS + i, seed, due, trace)
                for i, due in enumerate(due_times(start, rate, count_a))
            ],
            "a",
        )
        m1 = server_metrics(gateway.address)

        gc.collect()
        start = time.perf_counter()
        phase_b = run_phase(
            gateway.address, verifier,
            (Job(WARMUP_JOBS + count_a + i, seed, 0.0)
             for i in itertools.count()),
            "b", stop_submitting_at=start + seconds * 0.3,
        )
        burst_wall = max(j.done for j in phase_b) - start
        m2 = server_metrics(gateway.address)
        peak_rss = gateway.peak_rss_mib()
        # Oracle, after the timed phases: every claimed logit vector
        # against the plaintext forward pass on the image the client
        # generated itself.
        jobs = phase_a + phase_b
        for job in jobs:
            job.ok = job.ok and verifier.logits_match(
                job.model, job.data_seed, job.body
            )
        bad = [j for j in jobs if not j.ok]
        if bad:
            print(f"gateway_mix: {len(bad)} of {len(jobs)} jobs not verified;"
                  f" first: {bad[0].body}\n{gateway.log_tail()}",
                  file=sys.stderr)
        failed += len(bad)
        control = next((j for j in jobs if j.ok), None)
        # The negative control: a flipped public input must be rejected.
        failed += control is None or verifier.verify(
            control.model, control.body, flip=True
        )
    finally:
        gateway.stop()

    return {
        "phase_a": phase_a,
        "phase_b": phase_b,
        "burst_wall": burst_wall,
        "setup_times": setup_times,
        "attempted": WARMUP_JOBS * setups + len(jobs) + 1,
        "failed": failed,
        "peak_rss_mib": peak_rss,
        "server_a": server_delta(m0, m1),
        "server_b": server_delta(m1, m2),
        "constraints": sum(
            verifier.constraints[j.model] for j in phase_a
        ) / len(phase_a),
    }


def end_to_end(result: dict) -> Dict[str, float]:
    done_a = [j for j in result["phase_a"] if j.ok]
    latencies = [open_loop_latency(j.due, j.done) for j in done_a]
    good_b = sum(j.ok for j in result["phase_b"])
    jobs = result["phase_a"] + result["phase_b"]
    return {
        "setup_s": median(result["setup_times"]),
        "e2e_s_p50": median(latencies),
        "e2e_s_p95": tail_percentile(latencies),
        "compile_s_p50": result["server_a"]["serve.assign_s_mean"],
        "prove_s_p50": result["server_a"]["serve.prove_s_mean"],
        "verify_s_p50": median([j.done - j.got for j in done_a]),
        "jobs_per_s": good_b / result["burst_wall"],
        "peak_rss_mib": result["peak_rss_mib"],
        "proof_bytes": median(
            [len(j.body["proof"]) // 2 for j in jobs if j.ok]
        ),
        "constraints": result["constraints"],
        "samples": len(latencies),
    }


def layer_metrics(result: dict) -> Dict[str, float]:
    """Client-side spans of phase A (submit ack, wait, poll round trips),
    the generator's lateness, and the server's own counters."""
    jobs = [j for j in result["phase_a"] if j.ok]
    acks = [j.acked - j.sent for j in jobs]
    # Tracing overhead on one circuit only: every LCS job has an odd index.
    shal = [j for j in jobs if j.model == "SHAL"]
    out = dict(result["server_a"])
    out.update({
        "bench.trace_overhead_share": median(
            [j.done - j.due for j in shal if j.traced]
        ) / median([j.done - j.due for j in shal if not j.traced]) - 1.0,
        "gateway.submit_ack_s_p50": median(acks),
        "gateway.submit_ack_s_p95": tail_percentile(acks) or percentile(acks, 0.95),
        "gateway.wait_s_p50": median([j.got - j.acked for j in jobs]),
        "gateway.poll_rtt_s_p50": median(
            [end - start for j in jobs for start, end in j.polls]
        ),
        "gateway.lateness_s_max": max(lateness(j.due, j.sent) for j in jobs),
        "snark.verify_s": median([j.done - j.got for j in jobs]),
        # Client-side spans tile the request by construction: due -> sent
        # -> acked -> got -> done.
        "bench.residual_share": 0.0,
    })
    return out
