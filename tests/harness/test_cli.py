"""Tests for the command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("swim", "gcc", "vortex"):
            assert name in out

    def test_run_segmented(self, capsys):
        assert main(["run", "twolf", "--size", "128",
                     "--instructions", "2000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "chains" in out

    def test_run_ideal_with_stats(self, capsys):
        assert main(["run", "gcc", "--iq", "ideal", "--size", "64",
                     "--instructions", "2000", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_run_unlimited_chains(self, capsys):
        assert main(["run", "twolf", "--chains", "unlimited",
                     "--instructions", "1500"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_run_fifo_and_prescheduled(self, capsys):
        for iq in ("fifo", "prescheduled"):
            assert main(["run", "twolf", "--iq", iq, "--size", "128",
                         "--instructions", "1500"]) == 0

    def test_disasm(self, capsys):
        assert main(["disasm", "swim"]) == 0
        out = capsys.readouterr().out
        assert "loop:" in out
        assert "fld" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "twolf", "--sizes", "32,64",
                     "--instructions", "1500"]) == 0
        out = capsys.readouterr().out
        assert "IPC vs IQ size" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "doom"])

    def test_trace(self, capsys):
        assert main(["trace", "twolf", "--instructions", "800",
                     "--start", "50", "--count", "8"]) == 0
        out = capsys.readouterr().out
        assert "pipeline trace" in out
        assert "dispatch->issue" in out

    def test_trace_chrome_format(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "twolf", "--instructions", "800",
                     "--format", "chrome", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        events = data["traceEvents"]
        assert events
        cats = {event.get("cat") for event in events}
        assert {"chain_create", "chain_wire", "promote"} <= cats
        phases = {event.get("ph") for event in events}
        assert {"i", "X", "C", "M"} <= phases

    def test_trace_jsonl_format(self, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "twolf", "--instructions", "600",
                     "--format", "jsonl", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["kind"] for line in lines[:20])

    def test_trace_json_flag_writes_chrome(self, capsys, tmp_path):
        out = tmp_path / "chrome.json"
        assert main(["trace", "twolf", "--instructions", "600",
                     "--count", "4", "--json", str(out)]) == 0
        assert "pipeline trace" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]

    def test_common_flags_accepted_uniformly(self, capsys, tmp_path):
        """--jobs/--no-cache/--progress/--json parse on run/bench/sample/
        validate/trace alike (shared parent parsers)."""
        out = tmp_path / "run.json"
        assert main(["run", "twolf", "--instructions", "800",
                     "--jobs", "1", "--no-cache", "--progress", "0",
                     "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["workload"] == "twolf"
        assert data["ipc"] > 0
        assert main(["validate", "--programs", "1", "--no-shrink",
                     "--jobs", "1", "--no-cache", "--progress", "0",
                     "--json", str(tmp_path / "validate.json")]) == 0
        assert json.loads((tmp_path / "validate.json").read_text())["ok"]

    def test_segments(self, capsys):
        assert main(["segments", "twolf", "--size", "128",
                     "--instructions", "1500", "--interval", "25"]) == 0
        out = capsys.readouterr().out
        assert "seg 0 (issue)" in out

    def test_reproduce_headline_subset(self, capsys):
        assert main(["reproduce", "headline", "--workloads", "twolf",
                     "--budget", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Headline" in out
        assert "twolf" in out

    def test_reproduce_writes_json(self, capsys, tmp_path):
        path = tmp_path / "data.json"
        assert main(["reproduce", "table2", "--workloads", "twolf",
                     "--budget", "0.2", "--json", str(path)]) == 0
        assert path.exists()
        assert "twolf" in path.read_text()

    def test_sweep_jobs_populates_cache(self, capsys, monkeypatch,
                                        tmp_path):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        args = ["sweep", "twolf", "--sizes", "32,64",
                "--instructions", "1500"]
        assert main(args + ["--jobs", "2"]) == 0
        assert "IPC vs IQ size" in capsys.readouterr().out
        cached = sorted(cache_dir.glob("*.json"))
        assert len(cached) == 6        # 2 sizes x 3 config families
        # A warm re-run serves every cell from disk, byte-identically.
        assert main(args) == 0
        assert "IPC vs IQ size" in capsys.readouterr().out
        assert sorted(cache_dir.glob("*.json")) == cached

    def test_sweep_no_cache_bypasses_disk(self, capsys, monkeypatch,
                                          tmp_path):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(["sweep", "twolf", "--sizes", "32",
                     "--instructions", "1200", "--no-cache"]) == 0
        assert not list(cache_dir.glob("*.json"))

    def test_bench_quick(self, capsys, tmp_path):
        assert main(["bench", "--quick", "--jobs", "2",
                     "--workloads", "twolf", "--instructions", "400",
                     "--out", str(tmp_path)]) == 0
        artifacts = list(tmp_path.glob("BENCH_*.json"))
        assert len(artifacts) == 1
        data = json.loads(artifacts[0].read_text())
        assert data["schema"] == 9
        assert data["sweep"]["cache_hits"] == data["sweep"]["cells"]
        assert data["sampling"]["detail_cycle_ratio"] > 1
        assert data["surrogate"]["scored_cells"] > 0
        out = capsys.readouterr().out
        assert "serial throughput" in out

    def test_surrogate_report(self, capsys, tmp_path):
        out_path = tmp_path / "surrogate.json"
        assert main(["surrogate", "--workloads", "twolf",
                     "--instructions", "1500", "--jobs", "2",
                     "--json", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["within_bound"]
        assert data["scored_cells"] > 0
        assert data["mean_abs_rel_error"] <= data["error_bound"]
        for row in data["cells"]:
            assert {"workload", "config", "model", "anchor",
                    "simulated_ipc", "predicted_ipc",
                    "rel_error"} <= set(row)
        out = capsys.readouterr().out
        assert "predicted vs simulated IPC" in out
        assert "PASS" in out

    def test_sample_writes_ci_artifact(self, capsys, tmp_path):
        """The CI smoke contract: 4 windows on a tiny workload, JSON
        artifact carries the confidence-interval fields."""
        out_path = tmp_path / "sample.json"
        assert main(["sample", "twolf", "--scale", "2", "--windows", "4",
                     "--warmup", "200", "--measure", "300",
                     "--json", str(out_path), "--no-cache"]) == 0
        printed = capsys.readouterr().out
        assert "sampled IPC" in printed
        data = json.loads(out_path.read_text())
        for key in ("ipc_estimate", "ipc_ci_low", "ipc_ci_high",
                    "confidence", "cpi_stderr", "estimator"):
            assert key in data
        assert data["num_windows"] == 4
        assert data["ipc_ci_low"] <= data["ipc_estimate"] \
            <= data["ipc_ci_high"]

    def test_sample_compare_full_reports_error(self, capsys, tmp_path):
        out_path = tmp_path / "sample.json"
        assert main(["sample", "twolf", "--scale", "2", "--windows", "4",
                     "--warmup", "200", "--measure", "300",
                     "--compare-full", "--json", str(out_path),
                     "--no-cache"]) == 0
        assert "sampled error" in capsys.readouterr().out
        data = json.loads(out_path.read_text())
        assert "compare_full" in data
        assert data["compare_full"]["detail_cycle_ratio"] > 1

    def test_run_progress_flag_accepted(self, capsys):
        assert main(["run", "twolf", "--instructions", "1500",
                     "--progress", "5"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_validate_jobs(self, capsys):
        assert main(["validate", "--programs", "1", "--jobs", "2",
                     "--no-shrink"]) == 0
        out = capsys.readouterr().out
        assert "validation campaign" in out
