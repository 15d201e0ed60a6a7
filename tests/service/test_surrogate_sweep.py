"""Sweep submissions opting into Pareto-band surrogate pruning.

``"surrogate": true`` on a sweep body lets the service answer cells the
calibrated analytical surrogate can rule out of the Pareto band without
simulating them: those children finish instantly as
``surrogate_result`` jobs carrying the predicted IPC.  Calibration uses
cached results only — a cold cache prunes nothing by construction.
"""

import pytest

from repro.service import ServiceConfig, SimulationService

CONFIGS = [{"label": "seg-64", "iq": "segmented", "size": 64,
            "chains": 32},
           {"label": "seg-512", "iq": "segmented", "size": 512,
            "chains": 128},
           {"label": "fifo-64", "iq": "fifo", "size": 64}]

BODY = {"kind": "sweep", "workloads": ["swim"], "configs": CONFIGS,
        "max_instructions": 3000, "surrogate": True}


@pytest.fixture
def service(tmp_path):
    svc = SimulationService(ServiceConfig(
        store_dir=tmp_path / "svc", jobs=2))
    yield svc
    svc.close()


class TestSurrogateSweep:
    def test_cold_cache_prunes_nothing(self, service):
        job = service.submit(BODY, tenant="t1")
        service.drain(deadline=180)
        parent = service.jobs[job.id]
        assert parent.state == "done", parent.error
        kinds = [service.jobs[child].kind for child in parent.children]
        assert kinds.count("surrogate_result") == 0
        assert len(parent.children) == len(CONFIGS)

    def test_warm_sweep_prunes_dominated_cells(self, service):
        # Calibrate: run the base grid for real.
        service.submit(BODY, tenant="t1")
        service.drain(deadline=180)

        # Resubmitting the identical sweep is all cache hits — cached
        # cells are never predicted, so still no pruning.
        again = service.submit(BODY, tenant="t1")
        service.drain(deadline=60)
        assert all(service.jobs[child].dedupe == "cache"
                   for child in service.jobs[again.id].children)

        # A new config strictly inside the cached Pareto band (a fifo
        # smaller than the cached fifo-64) is answered analytically.
        extra = dict(BODY, configs=CONFIGS
                     + [{"label": "fifo-48", "iq": "fifo", "size": 48}])
        job = service.submit(extra, tenant="t1")
        service.drain(deadline=180)
        parent = service.jobs[job.id]
        assert parent.state == "done", parent.error

        by_label = {service.jobs[child].payload.get("config_label"):
                    service.jobs[child] for child in parent.children}
        pruned = by_label["fifo-48"]
        assert pruned.kind == "surrogate_result"
        assert pruned.dedupe == "surrogate"
        assert pruned.state == "done"
        assert pruned.cost == 0.0
        # The others came straight from the warm cache.
        assert all(by_label[config["label"]].dedupe == "cache"
                   for config in CONFIGS)

        # The grid carries the prediction, marked as such.
        result = service.status(job.id, include_result=True)["result"]
        row = result["grid"]["swim"]
        assert set(row) == {c["label"] for c in CONFIGS} | {"fifo-48"}
        assert row["fifo-48"]["ipc"] > 0
        assert row["fifo-48"]["dedupe"] == "surrogate"
        stats = service.status(pruned.id,
                               include_result=True)["result"]["stats"]
        assert stats["surrogate.predicted"] == 1.0
        assert "surrogate.uncertainty" in stats

        # Expansion telemetry records the pruning.
        expanded = [event for event in parent.events
                    if event["event"] == "expanded"]
        assert expanded and expanded[-1]["pruned"] == 1

    def test_predictions_never_enter_the_run_cache(self, service):
        """A later plain run of a pruned cell must simulate, not be
        served the prediction from the ResultCache."""
        service.submit(BODY, tenant="t1")
        service.drain(deadline=180)
        extra = dict(BODY, configs=CONFIGS
                     + [{"label": "fifo-48", "iq": "fifo", "size": 48}])
        job = service.submit(extra, tenant="t1")
        service.drain(deadline=180)
        parent = service.jobs[job.id]
        [pruned_id] = [child for child in parent.children
                       if service.jobs[child].kind == "surrogate_result"]

        real = service.submit({"workload": "swim",
                               "config": {"iq": "fifo", "size": 48},
                               "max_instructions": 3000}, tenant="t2")
        assert real.dedupe != "cache"
        service.drain(deadline=180)
        finished = service.jobs[real.id]
        assert finished.state == "done", finished.error
        result = service.status(real.id, include_result=True)["result"]
        assert "surrogate.predicted" not in result["stats"]
        # Simulated and predicted agree on which cell this is, but the
        # simulated result replaces the prediction rather than aliasing
        # it: the pruned child keeps its surrogate payload.
        assert service.jobs[pruned_id].kind == "surrogate_result"
