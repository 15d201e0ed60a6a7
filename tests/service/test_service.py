"""The service core, driven in-process: lifecycle, dedupe, fairness
interplay, cancellation (with promotion), timeouts, sweeps, GC."""

import time

import pytest

from repro import api
from repro.harness import configs
from repro.harness.cache import GCPolicy
from repro.service import (Backpressure, InProcessClient, ServiceConfig,
                           ServiceError, SimulationService)

CELL = {"workload": "twolf", "max_instructions": 2000,
        "config": {"iq": "ideal", "size": 32}}


@pytest.fixture
def service(tmp_path):
    svc = SimulationService(ServiceConfig(
        store_dir=tmp_path / "svc", jobs=2, default_timeout=120.0))
    yield svc
    svc.close()


@pytest.fixture
def client(service):
    return InProcessClient(service)


def _drive(service, deadline=90.0):
    limit = time.time() + deadline
    while not service.idle:
        service.step()
        if time.time() > limit:
            raise TimeoutError("service did not drain")
        time.sleep(0.02)


class TestLifecycle:
    def test_run_job_end_to_end(self, service, client):
        job = client.submit(CELL)
        assert job["state"] == "pending"
        final = client.wait(job["id"], timeout=90)
        assert final["state"] == "done"
        result = client.result(job["id"])["result"]
        assert result["ipc"] > 0
        assert result["workload"] == "twolf"
        # Heartbeat/state events accumulated.
        events = client.events(job["id"])["events"]
        kinds = {event["event"] for event in events}
        assert "queued" in kinds and "state" in kinds

    def test_results_bit_identical_to_direct_api_run(self, service, client):
        job = client.submit(CELL)
        client.wait(job["id"], timeout=90)
        via_service = client.result(job["id"])["result"]
        direct = api.run(configs.ideal(32), "twolf", max_instructions=2000)
        assert via_service["ipc"] == direct.ipc
        assert via_service["cycles"] == direct.cycles
        assert via_service["instructions"] == direct.instructions
        assert via_service["stats"] == direct.stats

    def test_failed_job_reports_the_error(self, service, client):
        # measure=0 passes spec validation (it is an int) but the
        # sampler rejects it inside the worker — the error must surface
        # as a failed job, not a dead service.
        job = client.submit({"kind": "sample", "workload": "twolf",
                             "config": {"iq": "ideal", "size": 32},
                             "sampling": {"windows": 2, "measure": 0}})
        final = client.wait(job["id"], timeout=90)
        assert final["state"] == "failed"
        assert final["error"]
        with pytest.raises(Exception):
            client.result(job["id"])

    def test_surrogate_job(self, service, client):
        job = client.submit(dict(CELL, kind="surrogate"))
        final = client.wait(job["id"], timeout=90)
        assert final["state"] == "done"
        result = client.result(job["id"])["result"]
        assert result["surrogate"] is True
        assert result["ipc"] > 0

    def test_sample_job(self, service, client):
        job = client.submit({"kind": "sample", "workload": "twolf",
                             "config": {"iq": "ideal", "size": 32},
                             "scale": 4,
                             "sampling": {"windows": 3, "warmup": 200,
                                          "measure": 200}})
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "done", final.get("error")
        assert client.result(job["id"])["result"]["ipc"] > 0


class TestDedupe:
    def test_two_tenants_share_one_execution(self, service, client):
        a = client.submit(CELL, tenant="alice")
        b = client.submit(CELL, tenant="bob")
        assert b["dedupe"] == "inflight"
        assert b["shared_with"] == a["id"]
        client.wait(a["id"], timeout=90)
        final_b = client.wait(b["id"], timeout=10)
        assert final_b["state"] == "done"
        assert (client.result(a["id"])["result"]
                == client.result(b["id"])["result"])
        counters = client.metrics()["counters"]
        assert counters["executions"] == 1
        assert counters["dedupe_inflight"] == 1

    def test_cache_hit_is_instant_done(self, service, client):
        a = client.submit(CELL)
        client.wait(a["id"], timeout=90)
        b = client.submit(CELL, tenant="late")
        assert b["state"] == "done"
        assert b["dedupe"] == "cache"
        counters = client.metrics()["counters"]
        assert counters["executions"] == 1
        assert counters["dedupe_cache"] == 1

    def test_different_cells_do_not_dedupe(self, service, client):
        a = client.submit(CELL)
        b = client.submit(dict(CELL, max_instructions=2001))
        assert b.get("dedupe") is None
        client.wait(a["id"], timeout=90)
        client.wait(b["id"], timeout=90)
        assert client.metrics()["counters"]["executions"] == 2


class TestAdmission:
    def test_backpressure_when_queue_is_full(self, tmp_path):
        svc = SimulationService(ServiceConfig(
            store_dir=tmp_path / "svc", jobs=1, max_depth=2))
        client = InProcessClient(svc)
        try:
            # No step() calls: both jobs stay queued.
            client.submit(dict(CELL, max_instructions=2001))
            client.submit(dict(CELL, max_instructions=2002))
            with pytest.raises(Backpressure) as exc:
                client.submit(dict(CELL, max_instructions=2003))
            assert exc.value.status == 429
            assert svc.metrics.counters["rejected_queue_depth"] == 1
            # Duplicates of queued work still come in free (attached).
            twin = client.submit(dict(CELL, max_instructions=2001),
                                 tenant="bob")
            assert twin["dedupe"] == "inflight"
        finally:
            svc.close()

    def test_per_tenant_depth_bound(self, tmp_path):
        svc = SimulationService(ServiceConfig(
            store_dir=tmp_path / "svc", jobs=1, max_depth=50,
            max_tenant_depth=1))
        client = InProcessClient(svc)
        try:
            client.submit(dict(CELL, max_instructions=2001))
            with pytest.raises(Backpressure):
                client.submit(dict(CELL, max_instructions=2002))
            client.submit(dict(CELL, max_instructions=2003), tenant="bob")
        finally:
            svc.close()

    def test_sweep_admission_is_atomic(self, tmp_path):
        """A sweep that cannot fully fit the tenant bound is rejected
        whole: no parent, no children, nothing journaled or queued."""
        svc = SimulationService(ServiceConfig(
            store_dir=tmp_path / "svc", jobs=1, max_depth=50,
            max_tenant_depth=2))
        client = InProcessClient(svc)
        try:
            with pytest.raises(Backpressure) as exc:
                client.submit({
                    "kind": "sweep", "workloads": ["twolf"],
                    "configs": [
                        {"label": "a", "iq": "ideal", "size": 32},
                        {"label": "b", "iq": "ideal", "size": 64},
                        {"label": "c", "iq": "ideal", "size": 128}],
                    "max_instructions": 30000})
            assert exc.value.status == 429
            assert not svc.jobs
            assert len(svc.scheduler) == 0
            assert svc.journal.path.read_text() == ""
            # A sweep that fits the bound still expands fully.
            sweep = client.submit({
                "kind": "sweep", "workloads": ["twolf"],
                "configs": [{"label": "a", "iq": "ideal", "size": 32},
                            {"label": "b", "iq": "ideal", "size": 64}],
                "max_instructions": 30000})
            assert len(sweep["children"]) == 2
        finally:
            svc.close()

    def test_sweep_rejected_on_partially_full_queue(self, tmp_path):
        """Queue-depth backpressure also fires before expansion: a
        sweep whose cells would overflow the remaining queue space is
        bounced without journaling the parent or any child."""
        svc = SimulationService(ServiceConfig(
            store_dir=tmp_path / "svc", jobs=1, max_depth=3))
        client = InProcessClient(svc)
        try:
            occupant = client.submit(dict(CELL, max_instructions=2001))
            with pytest.raises(Backpressure):
                client.submit({
                    "kind": "sweep", "workloads": ["twolf"],
                    "configs": [
                        {"label": "a", "iq": "ideal", "size": 32},
                        {"label": "b", "iq": "ideal", "size": 64},
                        {"label": "c", "iq": "ideal", "size": 128}],
                    "max_instructions": 30000})
            assert set(svc.jobs) == {occupant["id"]}
            assert len(svc.scheduler) == 1
        finally:
            svc.close()

    def test_malformed_timeout_is_a_400(self, service, client):
        with pytest.raises(ServiceError) as exc:
            client.submit(dict(CELL, timeout="fast"))
        assert exc.value.status == 400
        assert "timeout" in str(exc.value)


class TestCancellation:
    def test_cancel_pending_job(self, service, client):
        # jobs=2: fill both slots first so the third stays pending.
        client.submit(dict(CELL, max_instructions=30000))
        client.submit(dict(CELL, max_instructions=30001))
        victim = client.submit(dict(CELL, max_instructions=30002))
        service.step()
        answer = client.cancel(victim["id"])
        assert answer["cancelled"] and answer["state"] == "cancelled"
        assert client.metrics()["counters"]["cancelled"] == 1
        _drive(service)

    def test_cancel_running_job_kills_the_worker(self, service, client):
        job = client.submit(dict(CELL, max_instructions=500_000, scale=50))
        deadline = time.time() + 30
        while client.status(job["id"])["state"] != "running":
            service.step()
            assert time.time() < deadline
            time.sleep(0.02)
        client.cancel(job["id"])
        assert client.status(job["id"])["state"] == "cancelled"
        assert not service.running
        counters = client.metrics()["counters"]
        assert counters["cancelled"] == 1 and counters["completed"] == 0

    def test_cancelling_primary_promotes_the_twin(self, service, client):
        primary = client.submit(dict(CELL, max_instructions=20000,
                                     scale=10), tenant="alice")
        twin = client.submit(dict(CELL, max_instructions=20000, scale=10),
                             tenant="bob")
        assert twin["dedupe"] == "inflight"
        deadline = time.time() + 30
        while client.status(primary["id"])["state"] != "running":
            service.step()
            assert time.time() < deadline
            time.sleep(0.02)
        client.cancel(primary["id"])
        assert client.status(primary["id"])["state"] == "cancelled"
        # The twin inherited the live execution and completes.
        assert client.status(twin["id"])["state"] == "running"
        final = client.wait(twin["id"], timeout=90)
        assert final["state"] == "done"
        assert client.metrics()["counters"]["executions"] == 1

    def test_cancelling_a_rider_leaves_the_primary(self, service, client):
        primary = client.submit(dict(CELL, max_instructions=20000))
        rider = client.submit(dict(CELL, max_instructions=20000),
                              tenant="bob")
        client.cancel(rider["id"])
        assert client.status(rider["id"])["state"] == "cancelled"
        final = client.wait(primary["id"], timeout=90)
        assert final["state"] == "done"


class TestTimeouts:
    def test_overrunning_job_is_reaped(self, tmp_path):
        svc = SimulationService(ServiceConfig(
            store_dir=tmp_path / "svc", jobs=1, default_timeout=0.3))
        client = InProcessClient(svc)
        try:
            job = client.submit(dict(CELL, max_instructions=5_000_000,
                                     scale=200))
            final = client.wait(job["id"], timeout=60)
            assert final["state"] == "failed"
            assert "timeout" in final["error"]
            assert svc.metrics.counters["timeouts"] == 1
        finally:
            svc.close()


class TestSweep:
    def test_sweep_expands_dedupes_and_aggregates(self, service, client):
        # Pre-complete one cell so the sweep gets a cache hit for it.
        warm = client.submit({"workload": "twolf", "max_instructions": 1500,
                              "config": {"iq": "ideal", "size": 32}})
        client.wait(warm["id"], timeout=90)
        sweep = client.submit({
            "kind": "sweep", "workloads": ["twolf"],
            "configs": [{"label": "ideal-32", "iq": "ideal", "size": 32},
                        {"label": "ideal-64", "iq": "ideal", "size": 64}],
            "max_instructions": 1500})
        assert sweep["kind"] == "sweep" and len(sweep["children"]) == 2
        final = client.wait(sweep["id"], timeout=120)
        assert final["state"] == "done"
        grid = client.result(sweep["id"])["result"]["grid"]
        assert set(grid["twolf"]) == {"ideal-32", "ideal-64"}
        assert grid["twolf"]["ideal-32"]["dedupe"] == "cache"
        assert grid["twolf"]["ideal-32"]["ipc"] > 0
        # Only the cold cell executed.
        assert client.metrics()["counters"]["executions"] == 2

    def test_cancelling_a_sweep_cancels_its_children(self, service, client):
        sweep = client.submit({
            "kind": "sweep", "workloads": ["twolf"],
            "configs": [{"label": "a", "iq": "ideal", "size": 32},
                        {"label": "b", "iq": "ideal", "size": 64}],
            "max_instructions": 30000})
        client.cancel(sweep["id"])
        assert client.status(sweep["id"])["state"] == "cancelled"
        for child_id in sweep["children"]:
            assert client.status(child_id)["state"] == "cancelled"


class TestGC:
    def test_result_store_respects_the_policy(self, tmp_path):
        svc = SimulationService(ServiceConfig(
            store_dir=tmp_path / "svc", jobs=2,
            gc_policy=GCPolicy(max_entries=1)))
        client = InProcessClient(svc)
        try:
            for budget in (1500, 1600, 1700):
                job = client.submit(dict(CELL, max_instructions=budget))
                client.wait(job["id"], timeout=90)
            svc._gc()
            kept = list(svc.results_dir.glob("*.json"))
            assert len(kept) <= 1
            assert svc.metrics.counters["gc_removed"] > 0
        finally:
            svc.close()
