"""Regenerate ``parent_gateway.wal`` / ``parent_gateway_expected.json``.

    python tests/fixtures/make_parent_wal.py <checkout> [out_dir]

Runs the ``zeno gateway`` of ``<checkout>`` (the commit *before* the job
engine was unified, 2ea3e99) as a real subprocess: three jobs are proved
and polled to ``done``, three more are acked, and the process is SIGKILLed
while those are in flight (a micro proof is quick: one of them may have
landed its ``done`` record).  The journal at that instant is the fixture.
The same checkout is then restarted on it to record every job's final proof
— the gateway proves deterministically, so any later commit recovering the
fixture must serve exactly those bytes
(``tests/test_gateway.py::TestCrashRecovery``).
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path


def start(src, data_dir, port_file):
    if os.path.exists(port_file):
        os.unlink(port_file)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "gateway", "--data-dir", data_dir,
         "--port-file", port_file, "--min-nodes", "1", "--max-nodes", "1",
         "--node-mode", "inline", "--max-batch", "2", "--max-wait", "0.2"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 120
    while not os.path.exists(port_file):
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.05)
    host, port = open(port_file).read().split()
    return proc, f"http://{host}:{port}"


def call(url, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    try:
        with urllib.request.urlopen(
            urllib.request.Request(url, data=data), timeout=60
        ) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def submit(base, i):
    status, body = call(base + "/submit", {
        "model": "SHAL", "scale": "micro", "image_seed": 7000 + i,
        "request_id": f"fixture-{i}",
    })
    assert status == 200, body
    return body["job_id"]


def wait_done(base, gid):
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status, body = call(f"{base}/result/{gid}")
        if status == 200:
            return body
        time.sleep(0.05)
    raise AssertionError(f"{gid} never finished")


def main(checkout, out_dir):
    src = str(Path(checkout).resolve() / "src")
    work = tempfile.mkdtemp(prefix="parent-wal-")
    data_dir, port_file = os.path.join(work, "data"), os.path.join(work, "port")
    proc, base = start(src, data_dir, port_file)
    try:
        done = [submit(base, i) for i in range(3)]
        proofs = {gid: wait_done(base, gid)["proof"] for gid in done}
        pending = [submit(base, i) for i in range(3, 6)]
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
    wal = Path(out_dir) / "parent_gateway.wal"
    shutil.copyfile(os.path.join(data_dir, "journal.wal"), wal)

    proc, base = start(src, data_dir, port_file)
    try:
        for gid in pending:
            proofs[gid] = wait_done(base, gid)["proof"]
        assert all(wait_done(base, g)["proof"] == proofs[g] for g in done)
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    (Path(out_dir) / "parent_gateway_expected.json").write_text(
        json.dumps(proofs, indent=1) + "\n"
    )
    print(f"{wal}: {wal.stat().st_size} bytes, {len(proofs)} jobs")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else Path(__file__).parent)
