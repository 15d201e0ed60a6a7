"""Tests for the throughput benchmark (``python -m repro bench``)."""

import json

from repro.harness.bench import (compare_with, render_summary, run_bench)


def _tiny_bench(tmp_path, **kwargs):
    return run_bench(quick=True, jobs=2, workloads=["twolf"],
                     max_instructions=400, out_dir=str(tmp_path), **kwargs)


class TestBench:
    def test_artifact_schema(self, tmp_path):
        path, data = _tiny_bench(tmp_path)
        assert path.exists()
        assert path.name.startswith("BENCH_")
        on_disk = json.loads(path.read_text())
        for key in ("schema", "date", "machine", "serial",
                    "serial_geomean", "sweep", "sampling",
                    "metrics", "surrogate", "profile"):
            assert key in on_disk
        # Schema 9: the per-backend ``fabric`` section is gone.
        assert "fabric" not in on_disk
        assert on_disk["schema"] == 9
        assert on_disk["machine"]["cpu_count"] >= 1
        # Host-speed calibration reference (fixed pure-Python spin).
        assert on_disk["machine"]["calibration_seconds"] > 0
        for key, row in on_disk["serial"].items():
            # Schema 5: every serial key is annotated with its IQ model.
            assert key.endswith(f" [{row['model']}]")
            # Schema 6: the kernel backend that produced the row.
            assert row["kernels"] in ("py", "compiled")
            assert row["kcycles_per_sec"] > 0
            assert row["seconds"] > 0
            assert row["energy_per_instruction"] > 0
            assert isinstance(row["energy"], dict) and row["energy"]
            assert all(value >= 0 for value in row["energy"].values())
            # Schema 4: event-driven skip-ahead coverage per cell.
            assert 0.0 <= row["skip_ratio"] <= 1.0
            assert row["skip_windows"] >= 0
        sweep = on_disk["sweep"]
        assert sweep["cells"] == len(sweep["workloads"]) * \
            len(sweep["configs"])
        assert sweep["serial_seconds"] > 0
        assert sweep["cache_hits"] == sweep["cells"]
        assert 0 < sweep["cached_fraction_of_cold"]
        # Schema 7: the execution backend the sweep ran on.
        assert sweep["backend"] == "local-process"
        sampling = on_disk["sampling"]
        assert sampling["sampled_seconds"] > 0
        assert sampling["full_seconds"] > 0
        assert sampling["detail_cycle_ratio"] > 1
        assert sampling["sampled_ipc"] > 0
        assert sampling["full_ipc"] > 0
        metrics = on_disk["metrics"]
        assert metrics["samples"] > 0
        assert metrics["events_emitted"] > 0
        assert "ipc" in metrics["series_means"]
        assert metrics["plain_seconds"] > 0
        assert metrics["traced_seconds"] > 0
        # Schema 5: predicted-vs-simulated surrogate section.
        surrogate = on_disk["surrogate"]
        assert surrogate["seconds"] > 0
        assert surrogate["error_bound"] > 0
        assert surrogate["scored_cells"] > 0
        assert "mean_abs_rel_error" in surrogate
        assert "within_bound" in surrogate
        sweep_models = on_disk["sweep"]["models"]
        assert sweep_models and all(kind for kind in sweep_models.values())
        # Schema 8: per-stage inclusive profile split of one dense cell.
        profile = on_disk["profile"]
        assert profile["total_seconds"] > 0
        assert profile["kernels"] in ("py", "compiled")
        for stage in ("dispatch", "fetch", "issue", "commit", "iq_engine"):
            assert 0.0 <= profile["stages"][stage]["fraction"] <= 1.0

    def test_render_summary(self, tmp_path):
        _, data = _tiny_bench(tmp_path)
        text = render_summary(data)
        assert "serial throughput" in text
        assert "cached" in text
        assert "sampling" in text

    def test_compare_reports_speedups_and_epi(self, tmp_path):
        path, data = _tiny_bench(tmp_path)
        diff = compare_with(str(path), data["serial"])
        assert set(diff) == {"previous_schema", "kcycles_speedup",
                             "epi_ratio", "kernels_mismatch"}
        assert diff["previous_schema"] == 9
        assert diff["kernels_mismatch"] == {}   # same backend both sides
        assert set(diff["kcycles_speedup"]) == set(data["serial"])
        assert set(diff["epi_ratio"]) == set(data["serial"])
        for value in diff["kcycles_speedup"].values():
            assert value == 1.0     # compared against itself
        for value in diff["epi_ratio"].values():
            assert value == 1.0

    def test_compare_flags_kernel_backend_mismatch(self, tmp_path):
        path, data = _tiny_bench(tmp_path)
        old = json.loads(path.read_text())
        for row in old["serial"].values():
            row["kernels"] = ("py" if row["kernels"] == "compiled"
                              else "compiled")
        old_path = tmp_path / "BENCH_flipped.json"
        old_path.write_text(json.dumps(old))
        diff = compare_with(str(old_path), data["serial"])
        assert set(diff["kernels_mismatch"]) == set(data["serial"])
        text = render_summary({**data,
                               "compare": {"previous": old_path.name,
                                           **diff}})
        assert "WARNING" in text and "kernel backends" in text

    def test_compare_reports_host_speed_ratio(self, tmp_path):
        path, data = _tiny_bench(tmp_path)
        old_calibration = json.loads(
            path.read_text())["machine"]["calibration_seconds"]
        diff = compare_with(str(path), data["serial"],
                            calibration=old_calibration / 2.0)
        # The "new" host spins twice as fast -> ratio 2.0.
        assert diff["host_speed_ratio"] == 2.0
        text = render_summary({**data,
                               "compare": {"previous": path.name, **diff}})
        assert "host calibration" in text
        # Without a calibration value the field stays absent.
        assert "host_speed_ratio" not in compare_with(str(path),
                                                      data["serial"])

    def test_compare_matches_pre_schema5_artifacts(self, tmp_path):
        """Pre-schema-5 serial keys carry no ``" [model]"`` annotation;
        compare_with must still match them to today's annotated keys."""
        path, data = _tiny_bench(tmp_path)
        old_serial = {}
        for key, row in data["serial"].items():
            bare = key.split(" [", 1)[0]
            old_row = {field: value for field, value in row.items()
                       if field != "model"}
            old_row["kcycles_per_sec"] = row["kcycles_per_sec"] / 2.0
            old_serial[bare] = old_row
        old_artifact = {"schema": 3, "serial": old_serial}
        old_path = tmp_path / "BENCH_old.json"
        old_path.write_text(json.dumps(old_artifact))
        diff = compare_with(str(old_path), data["serial"])
        assert diff["previous_schema"] == 3
        # Every current cell found its pre-schema-5 counterpart, and the
        # diff keys keep the current (annotated) spelling.
        assert set(diff["kcycles_speedup"]) == set(data["serial"])
        for value in diff["kcycles_speedup"].values():
            assert value == 2.0
        for value in diff["epi_ratio"].values():
            assert value == 1.0
