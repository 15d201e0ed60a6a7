"""Crash-resume semantics: a restarted service re-adopts the journal.

The acceptance bar for the service PR: kill the server mid-campaign,
restart it, and every incomplete job resumes — with *zero* duplicate
executions for cells whose results already landed in the cache before
the crash.  These tests simulate the crash in-process (abandon the
service object without clean shutdown); the loopback test and the CI
smoke job do it with a real SIGKILL.
"""

import time

from repro.service import InProcessClient, ServiceConfig, SimulationService

CELL = {"workload": "twolf", "max_instructions": 2000,
        "config": {"iq": "ideal", "size": 32}}


def _config(tmp_path, **overrides) -> ServiceConfig:
    fields = dict(store_dir=tmp_path / "svc", jobs=2)
    fields.update(overrides)
    return ServiceConfig(**fields)


def _drive(service, deadline=120.0):
    limit = time.time() + deadline
    while not service.idle:
        service.step()
        assert time.time() < limit, "service did not drain"
        time.sleep(0.02)


class TestResume:
    def test_pending_jobs_are_requeued(self, tmp_path):
        svc1 = SimulationService(_config(tmp_path))
        a = svc1.submit(dict(CELL, max_instructions=2001))
        b = svc1.submit(dict(CELL, max_instructions=2002), tenant="bob")

        svc2 = SimulationService(_config(tmp_path))
        try:
            assert svc2.metrics.counters["resumed"] == 2
            for job_id in (a.id, b.id):
                record = svc2.status(job_id)
                assert record["state"] == "pending"
                assert record["resumed"]
            _drive(svc2)
            assert svc2.status(a.id)["state"] == "done"
            assert svc2.status(b.id)["state"] == "done"
            assert svc2.metrics.counters["executions"] == 2
        finally:
            svc2.close()

    def test_cached_cell_resumes_without_reexecution(self, tmp_path):
        """Crash after the result hit the cache but before the terminal
        journal line: the restarted server answers from the cache and
        never re-runs the cell."""
        svc1 = SimulationService(_config(tmp_path))
        client1 = InProcessClient(svc1)
        job = client1.submit(CELL)

        original_append = svc1.journal.append

        def crash_before_terminal(job_id, state, **extra):
            if state in ("done", "failed"):
                return                 # the line never reached the disk
            original_append(job_id, state, **extra)

        svc1.journal.append = crash_before_terminal
        client1.wait(job["id"], timeout=90)
        assert svc1.cache.get(svc1.jobs[job["id"]].key) is not None

        svc2 = SimulationService(_config(tmp_path))
        try:
            assert svc2.metrics.counters["resumed"] == 1
            assert svc2.status(job["id"])["state"] == "pending"
            _drive(svc2)
            record = svc2.status(job["id"], include_result=True)
            assert record["state"] == "done"
            assert record["result"]["ipc"] > 0
            # The headline number: zero duplicate executions.
            assert svc2.metrics.counters["executions"] == 0
            assert svc2.metrics.counters["dedupe_cache"] == 1
        finally:
            svc2.close()

    def test_duplicate_keys_reattach_after_restart(self, tmp_path):
        svc1 = SimulationService(_config(tmp_path))
        primary = svc1.submit(CELL, tenant="alice")
        twin = svc1.submit(CELL, tenant="bob")
        assert twin.dedupe == "inflight"

        svc2 = SimulationService(_config(tmp_path))
        try:
            states = {job_id: svc2.jobs[job_id]
                      for job_id in (primary.id, twin.id)}
            shared = [job for job in states.values()
                      if job.shared_with is not None]
            owners = [job for job in states.values()
                      if job.shared_with is None]
            assert len(shared) == 1 and len(owners) == 1
            _drive(svc2)
            assert all(job.state == "done" for job in states.values())
            assert svc2.metrics.counters["executions"] == 1
            assert svc2.metrics.counters["dedupe_inflight"] == 1
        finally:
            svc2.close()

    def test_traced_job_keeps_its_artifact_across_restart(self, tmp_path):
        """A trace request pending at the crash still writes its trace
        after resume: the artifact name rides the submission record."""
        svc1 = SimulationService(_config(tmp_path))
        job = svc1.submit(dict(CELL, trace="jsonl"))
        assert job.artifact

        svc2 = SimulationService(_config(tmp_path))
        try:
            assert svc2.jobs[job.id].artifact == job.artifact
            _drive(svc2)
            assert svc2.status(job.id)["state"] == "done"
            trace = svc2.artifacts_dir / job.artifact
            assert trace.exists() and trace.stat().st_size > 0
        finally:
            svc2.close()

    def test_running_job_is_reexecuted(self, tmp_path):
        svc1 = SimulationService(_config(tmp_path, jobs=1))
        job = svc1.submit(dict(CELL, max_instructions=100_000, scale=20))
        deadline = time.time() + 30
        while svc1.jobs[job.id].state != "running":
            svc1.step()
            assert time.time() < deadline
            time.sleep(0.02)
        svc1.close()                   # kills the worker, like a crash

        svc2 = SimulationService(_config(tmp_path, jobs=1))
        try:
            assert svc2.status(job.id)["state"] == "pending"
            assert svc2.status(job.id)["resumed"]
            _drive(svc2, deadline=180)
            assert svc2.status(job.id)["state"] == "done"
            assert svc2.metrics.counters["executions"] == 1
        finally:
            svc2.close()

    def test_terminal_jobs_survive_with_results(self, tmp_path):
        svc1 = SimulationService(_config(tmp_path))
        client1 = InProcessClient(svc1)
        job = client1.submit(CELL)
        client1.wait(job["id"], timeout=90)
        cancelled = client1.submit(dict(CELL, max_instructions=9999))
        svc1.cancel(cancelled["id"])
        svc1.close()

        svc2 = SimulationService(_config(tmp_path))
        try:
            record = svc2.status(job["id"], include_result=True)
            assert record["state"] == "done"
            assert record["result"]["ipc"] > 0
            assert svc2.status(cancelled["id"])["state"] == "cancelled"
            assert svc2.metrics.counters["resumed"] == 0
        finally:
            svc2.close()

    def test_sweep_resumes_and_aggregates(self, tmp_path):
        svc1 = SimulationService(_config(tmp_path, jobs=1))
        sweep = svc1.submit({
            "kind": "sweep", "workloads": ["twolf"],
            "configs": [{"label": "a", "iq": "ideal", "size": 32},
                        {"label": "b", "iq": "ideal", "size": 64}],
            "max_instructions": 1500})
        children = list(sweep.children)
        deadline = time.time() + 90
        while not any(svc1.jobs[cid].state == "done" for cid in children):
            svc1.step()
            assert time.time() < deadline
            time.sleep(0.02)
        svc1.close()                   # crash with one cell done

        svc2 = SimulationService(_config(tmp_path, jobs=1))
        try:
            assert svc2.status(sweep.id)["state"] == "pending"
            _drive(svc2)
            record = svc2.status(sweep.id, include_result=True)
            assert record["state"] == "done"
            grid = record["result"]["grid"]["twolf"]
            assert set(grid) == {"a", "b"}
            assert all(cell and cell["ipc"] > 0 for cell in grid.values())
            # At most the one unfinished cell re-executed (zero if its
            # result had already reached the cache before the crash).
            assert svc2.metrics.counters["executions"] <= 1
        finally:
            svc2.close()
