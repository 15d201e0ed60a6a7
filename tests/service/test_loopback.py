"""Full-stack loopback test: a real ``python -m repro serve`` process,
the stdlib HTTP client, and a genuine ``SIGKILL`` mid-flight.

This is the integration twin of ``test_resume.py``: dedupe and
cancellation over actual sockets, then kill -9 the server, restart it
on the same store, and check that terminal jobs are still retrievable,
the incomplete job resumes and completes, and a re-submitted finished
cell is answered from the cache with zero additional executions.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import ServiceClient

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
READY = re.compile(r"serving on http://127\.0\.0\.1:(\d+)")

CELL = {"workload": "twolf", "max_instructions": 2500,
        "config": {"iq": "ideal", "size": 32}}
VICTIM_CELL = {"workload": "twolf", "max_instructions": 400_000, "scale": 40,
               "config": {"iq": "segmented", "size": 64, "segment_size": 16}}
SURVIVOR_CELL = {"workload": "twolf", "max_instructions": 60_000, "scale": 10,
                 "config": {"iq": "ideal", "size": 64}}


def _spawn(store: Path, log_path: Path, *, port: int = 0) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # The child keeps its own copy of the log descriptor.
    with open(log_path, "ab") as log:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--port", str(port), "--jobs", "2"],
            stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=str(ROOT))


def _wait_port(log_path: Path, proc: subprocess.Popen,
               *, timeout: float = 30.0) -> int:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError("server died during startup:\n"
                               + log_path.read_text(errors="replace"))
        match = READY.search(log_path.read_text(errors="replace"))
        if match:
            return int(match.group(1))
        time.sleep(0.05)
    raise TimeoutError("server never reported its port")


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)


@pytest.mark.slow
def test_loopback_dedupe_cancel_and_sigkill_resume(tmp_path):
    store = tmp_path / "store"
    server1 = _spawn(store, tmp_path / "server1.log")
    try:
        port = _wait_port(tmp_path / "server1.log", server1)
        client = ServiceClient(port=port)
        client.wait_until_up()

        # Two tenants submit the same cell over HTTP: one execution.
        first = client.submit(CELL, tenant="alice")
        twin = client.submit(CELL, tenant="bob")
        assert twin["dedupe"] == "inflight"
        assert twin["shared_with"] == first["id"]
        assert client.wait(first["id"], timeout=120)["state"] == "done"
        assert client.wait(twin["id"], timeout=30)["state"] == "done"
        assert (client.result(first["id"])["result"]
                == client.result(twin["id"])["result"])
        counters = client.metrics()["counters"]
        assert counters["executions"] == 1
        assert counters["dedupe_inflight"] == 1

        # Cancellation over HTTP.
        victim = client.submit(VICTIM_CELL)
        assert client.cancel(victim["id"])["state"] == "cancelled"

        # Leave a job incomplete, then SIGKILL the server.
        survivor = client.submit(SURVIVOR_CELL)
        _kill(server1)
    finally:
        _kill(server1)

    # Restart on the SAME port: forked simulation workers close the
    # inherited listener at fork, so no orphan of the killed server can
    # keep the port bound.
    server2 = _spawn(store, tmp_path / "server2.log", port=port)
    try:
        _wait_port(tmp_path / "server2.log", server2)
        client = ServiceClient(port=port)
        client.wait_until_up()

        # Terminal jobs survived the crash, results intact.
        assert client.status(first["id"])["state"] == "done"
        assert client.result(first["id"])["result"]["ipc"] > 0
        assert client.status(victim["id"])["state"] == "cancelled"

        # The incomplete job was resumed and completes.
        record = client.status(survivor["id"])
        assert record["resumed"]
        final = client.wait(survivor["id"], timeout=240)
        assert final["state"] == "done"
        assert client.result(survivor["id"])["result"]["ipc"] > 0

        # Re-submitting the finished cell: instant cache answer, no
        # additional execution.
        before = client.metrics()["counters"]["executions"]
        redo = client.submit(CELL, tenant="carol")
        assert redo["state"] == "done"
        assert redo["dedupe"] == "cache"
        assert client.metrics()["counters"]["executions"] == before
        assert client.metrics()["counters"]["dedupe_cache"] >= 1
    finally:
        _kill(server2)
