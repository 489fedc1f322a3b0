"""CI smoke test for the durable HTTP gateway.

Runs a REAL ``zeno gateway`` subprocess (journal + coordinator + 2
autoscaled inline worker nodes) on localhost, then:

1. submits a mixed batch over HTTP and asserts acks are durable (200 +
   job id only after the WAL fsync);
2. SIGKILLs the gateway process mid-batch — in-flight and queued jobs
   die with the coordinator's memory, completed ones exist only in the
   WAL;
3. restarts the gateway on the same ``--data-dir`` and asserts the
   exactly-once contract: every acked job completes (zero lost), the
   journal records zero duplicate terminal states (zero double-proved),
   pre-crash results replay byte-identical, and re-submitting every
   request id mints zero new jobs;
4. POSTs one new request id from two threads at once and asserts both
   get the same job id and the journal gained exactly one job;
5. POSTs bodies naming an unknown model and a non-integer weight seed
   and asserts each gets a 400 with no journal record written, then
   restarts once more on the same ``--data-dir`` and asserts the gateway
   comes up and serves every earlier result;
6. runs ``zeno cluster submit --connect <gateway> --jobs 2 --out-dir D``
   and then ``zeno verify --batch D``, and asserts each exits 0.

Exit code 0 on success.  Used by the CI "Gateway smoke" step; an optional
job count turns it into a soak (24 by default)::

    PYTHONPATH=src python scripts/gateway_smoke.py
    PYTHONPATH=src python scripts/gateway_smoke.py 1000
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

N_JOBS = 24
MODELS = ["SHAL", "LCS"]  # alternate: shallow CNN + the larger circuit
SCALE = "micro"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def start_gateway(data_dir: str, port_file: str) -> subprocess.Popen:
    if os.path.exists(port_file):
        os.unlink(port_file)
    env = cli_env()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "gateway",
            "--data-dir", data_dir, "--port-file", port_file,
            "--min-nodes", "2", "--max-nodes", "3",
            "--node-mode", "inline", "--max-wait", "0.02",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 120
    while not os.path.exists(port_file):
        if proc.poll() is not None:
            raise AssertionError(
                "gateway died at startup:\n" + proc.stdout.read().decode()
            )
        if time.monotonic() > deadline:
            proc.kill()
            raise AssertionError("gateway never wrote its port file")
        time.sleep(0.05)
    return proc


def base_url(port_file: str) -> str:
    host, port = open(port_file).read().split()
    return f"http://{host}:{port}"


def request(method: str, url: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def submit(base: str, i: int) -> str:
    status, body = request(
        "POST", base + "/submit",
        {
            "model": MODELS[i % len(MODELS)],
            "scale": SCALE,
            "image_seed": 4000 + i,
            "request_id": f"smoke-{i}",
        },
    )
    assert status == 200, (status, body)
    return body["job_id"]


def refused(base: str, field: str, value) -> None:
    """A submit with ``field`` out of range is a 400 naming the field,
    and writes no journal record."""
    _, before = request("GET", base + "/metrics")
    status, reply = request(
        "POST", base + "/submit",
        {"model": "SHAL", "scale": SCALE, "image_seed": 1, field: value},
    )
    assert status == 400 and reply["error"].startswith(f"{field}="), (
        status, reply
    )
    _, after = request("GET", base + "/metrics")
    assert after["journal"]["appends"] == before["journal"]["appends"], (
        f"a submit with {field}={value!r} reached the journal"
    )


def concurrent_retry(base: str) -> None:
    """One request id POSTed from two threads at once: both replies name
    the same job, and the journal holds exactly one more job."""
    _, before = request("GET", base + "/metrics")
    body = {"model": "SHAL", "scale": SCALE, "image_seed": 5000,
            "request_id": "smoke-concurrent"}
    replies = []
    threads = [
        threading.Thread(
            target=lambda: replies.append(
                request("POST", base + "/submit", body)
            )
        )
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert [status for status, _ in replies] == [200, 200], replies
    assert replies[0][1]["job_id"] == replies[1][1]["job_id"], replies
    _, after = request("GET", base + "/metrics")
    assert after["journal"]["jobs"] == before["journal"]["jobs"] + 1, (
        before["journal"], after["journal"]
    )


def cli_round_trip(base: str, out_dir: str) -> None:
    """``zeno cluster submit`` through the gateway writes proof, ``.vk``
    and claim files that ``zeno verify --batch`` accepts."""
    for argv in (
        ["cluster", "submit", "--connect", base[len("http://"):],
         "--model", "SHAL", "--scale", SCALE, "--jobs", "2",
         "--out-dir", out_dir],
        ["verify", "--batch", out_dir],
    ):
        run = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv], env=cli_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=600,
        )
        assert run.returncode == 0, (argv, run.stdout.decode())


def main(n_jobs: int = N_JOBS) -> int:
    workdir = tempfile.mkdtemp(prefix="gateway-smoke-")
    data_dir = os.path.join(workdir, "data")
    port_file = os.path.join(workdir, "port.txt")

    proc = start_gateway(data_dir, port_file)
    base = base_url(port_file)
    print(f"gateway on {base} (2 inline worker nodes)")
    try:
        gids = [submit(base, i) for i in range(n_jobs)]
        print(f"submitted {n_jobs} jobs (durable acks)")

        # Snapshot pre-crash completions for the byte-identical check.
        pre = {}
        for i, gid in enumerate(gids):
            status, body = request("GET", f"{base}/result/{gid}")
            if status == 200:
                pre[i] = body["proof"]
        _, health = request("GET", base + "/healthz")
        assert health["ok"]
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
    print(f"SIGKILLed the gateway mid-batch ({len(pre)} jobs had finished)")

    proc = start_gateway(data_dir, port_file)
    base = base_url(port_file)
    try:
        _, metrics = request("GET", base + "/metrics")
        recovered = metrics["gateway_jobs"]
        print(
            "restarted: recovered "
            f"pending={recovered.get('recovered_pending', 0)} "
            f"completed={recovered.get('recovered_completed', 0)}"
        )

        # Idempotent resubmission: every request id maps to its old job.
        for i in range(n_jobs):
            status, body = request(
                "POST", base + "/submit",
                {
                    "model": MODELS[i % len(MODELS)],
                    "scale": SCALE,
                    "image_seed": 4000 + i,
                    "request_id": f"smoke-{i}",
                },
            )
            assert status == 200 and body["job_id"] == gids[i], (
                f"smoke-{i} re-minted: {body} != {gids[i]}"
            )

        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            states = {}
            for gid in gids:
                _, view = request("GET", f"{base}/status/{gid}")
                states[gid] = view["state"]
            if all(s == "done" for s in states.values()):
                break
            time.sleep(0.25)
        missing = [g for g, s in states.items() if s != "done"]
        assert not missing, f"jobs lost across the crash: {missing}"
        print(f"all {n_jobs} jobs done after restart (zero lost)")

        for i, proof in pre.items():
            _, body = request("GET", f"{base}/result/{gids[i]}")
            assert body["proof"] == proof, (
                f"job {gids[i]} proof changed across restart"
            )
        print(f"{len(pre)} pre-crash proofs byte-identical after replay")

        _, metrics = request("GET", base + "/metrics")
        journal = metrics["gateway_jobs"]
        assert metrics["journal"]["duplicate_done"] == 0, metrics["journal"]
        assert journal["done"] == n_jobs, journal
        print(
            "exactly-once held: done="
            f"{journal['done']}/{n_jobs}, duplicate_done=0, "
            f"journal fsyncs={metrics['journal']['fsyncs']}"
        )

        concurrent_retry(base)
        print("one request id from two threads at once: one job")

        refused(base, "model", "NOPE")
        refused(base, "seed", "x")
        print("bad submits refused with 400, nothing journaled")
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

    proc = start_gateway(data_dir, port_file)
    base = base_url(port_file)
    try:
        for i, gid in enumerate(gids):
            status, body = request("GET", f"{base}/result/{gid}")
            assert status == 200 and body["recovered"], (gid, status, body)
            assert i not in pre or body["proof"] == pre[i], gid
        print(f"restarted again: all {n_jobs} results served from the journal")

        cli_round_trip(base, os.path.join(workdir, "cli-out"))
        print("`cluster submit` over HTTP: 2 proofs `verify --batch` accepts")
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
    print("gateway smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:2])))
