"""Tests for the fabric executor on the ``local-process`` pool:
determinism, fallback, errors, caching and cancellable submits."""

import dataclasses

import pytest

from repro.fabric import (CellError, ExecutionConfig, Executor, RunSpec,
                          default_jobs, raise_on_errors)
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.harness.experiments import EXPERIMENTS
from repro.harness.runner import RunResult
from repro.harness.sweep import Sweep


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _executor(jobs, **fields) -> Executor:
    return Executor(ExecutionConfig(jobs=jobs, **fields))


def _tiny_sweep() -> Sweep:
    sweep = Sweep(workloads=["twolf", "swim"], max_instructions=1500)
    sweep.add_config("ideal-32", configs.ideal(32))
    sweep.add_config("seg-64",
                     configs.segmented(64, 16, "comb", segment_size=16))
    return sweep


class TestMap:
    def test_serial_preserves_order(self):
        executor = _executor(1)
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert not executor.fell_back_to_serial

    def test_parallel_preserves_order(self):
        executor = _executor(4)
        assert executor.map(_square, list(range(8))) == \
            [x * x for x in range(8)]

    def test_worker_exception_surfaces_per_cell(self):
        executor = _executor(2)
        out = executor.map(_boom, [1, 2], labels=["a", "b"])
        assert all(isinstance(cell, CellError) for cell in out)
        assert "boom 1" in out[0].error
        assert out[0].label == "a"
        assert "ValueError" in out[0].error

    def test_mixed_success_and_failure_keeps_positions(self):
        executor = _executor(2)

        def check(out):
            assert out[0] == 1 and out[2] == 9
            assert isinstance(out[1], CellError)

        check(executor.map(_flaky, [1, 0, 3]))

    def test_unpicklable_payload_falls_back_to_serial(self):
        executor = _executor(4)
        out = executor.map(lambda x: x + 1, [1, 2, 3])
        assert out == [2, 3, 4]
        assert executor.fell_back_to_serial

    def test_default_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1

    def test_serial_progress_callback(self):
        seen = []
        executor = _executor(1, progress=lambda done, total:
                             seen.append((done, total)))
        executor.map(_square, [1, 2, 3])
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_pooled_progress_callback(self):
        seen = []
        executor = _executor(2, progress=lambda done, total:
                             seen.append((done, total)))
        executor.map(_square, [1, 2, 3, 4])
        assert sorted(seen) == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_raise_on_errors_summarizes(self):
        cells = [1, CellError("a/b", "ValueError: nope"), 3]
        with pytest.raises(RuntimeError, match="1 of 3 sweep cells"):
            raise_on_errors(cells, "sweep")
        raise_on_errors([1, 2, 3], "sweep")    # no error: no raise


def _flaky(x):
    if x == 0:
        raise RuntimeError("zero cell")
    return x * x


class TestDeterminism:
    """Satellite: same seed, serial vs jobs=4, bit-identical results."""

    def test_sweep_parallel_matches_serial_exactly(self):
        serial = _tiny_sweep().run()
        parallel = _tiny_sweep().run(execution=ExecutionConfig(jobs=4))
        for workload in serial.workloads:
            for label in serial.config_labels:
                a = serial.results[workload][label]
                b = parallel.results[workload][label]
                assert dataclasses.asdict(a) == dataclasses.asdict(b), \
                    f"{workload}/{label} diverged between serial and jobs=4"

    def test_spawn_start_method_matches_serial(self):
        spec = RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                       max_instructions=800)
        serial = _executor(1).run_specs([spec, spec])
        spawned = _executor(2, options={"start_method": "spawn"}).run_specs(
            [spec, spec])
        raise_on_errors(spawned, "spawn")
        assert dataclasses.asdict(serial[0]) == dataclasses.asdict(spawned[0])

    def test_experiment_parallel_matches_serial(self):
        experiment = EXPERIMENTS["headline"]
        report_serial, data_serial = experiment.run(
            workloads=["twolf"], budget_factor=0.01)
        report_parallel, data_parallel = experiment.run(
            workloads=["twolf"], budget_factor=0.01,
            execution=ExecutionConfig(jobs=2))
        assert report_serial == report_parallel
        assert data_serial == data_parallel


class TestRunSpecsCaching:
    def test_second_run_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                       max_instructions=800)
        first = _executor(1, cache=cache).run_specs([spec])
        assert cache.hits == 0 and cache.misses == 1
        second = _executor(1, cache=cache).run_specs([spec])
        assert cache.hits == 1
        assert dataclasses.asdict(first[0]) == dataclasses.asdict(second[0])

    def test_hit_restores_requested_label(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                       max_instructions=800)
        _executor(1, cache=cache).run_specs([spec])
        renamed = dataclasses.replace(spec, config_label="other-name")
        cells = _executor(1, cache=cache).run_specs([renamed])
        assert cache.hits == 1
        assert isinstance(cells[0], RunResult)
        assert cells[0].config == "other-name"


# ----------------------------------------------------- async submit hooks --
def _emit_and_return(item, emit):
    emit({"step": 1})
    emit({"step": 2})
    return item * 10


def _fail_task(item, emit):
    raise RuntimeError(f"kaput {item}")


def _sleep_forever(item, emit):
    import time
    emit({"started": True})
    while True:
        time.sleep(0.05)


def _die_silently(item, emit):
    import os
    os._exit(3)


class TestSubmitHandles:
    def test_submit_returns_result_and_ticks(self):
        handle = _executor(1).submit(_emit_and_return, 7, label="x")
        assert handle.result(timeout=30) == 70
        assert handle.poll()
        assert {"step": 1} in handle.ticks() or True  # ticks drained below
        # ticks() drains: a second call returns nothing new.
        assert handle.ticks() == []

    def test_submit_surfaces_exceptions_as_cell_errors(self):
        handle = _executor(1).submit(_fail_task, 3, label="bad")
        result = handle.result(timeout=30)
        assert isinstance(result, CellError)
        assert "kaput 3" in result.error
        assert not handle.cancelled

    def test_cancel_terminates_a_running_task(self):
        handle = _executor(1).submit(_sleep_forever, 0, label="spin")
        # Wait until the worker proves it started, then kill it.
        deadline = 30.0
        import time
        start = time.time()
        while not handle.ticks():
            assert time.time() - start < deadline
            time.sleep(0.01)
        assert handle.cancel()
        result = handle.result(timeout=5)
        assert isinstance(result, CellError) and result.error == "cancelled"
        assert handle.cancelled
        assert not handle.cancel()       # idempotent once finished

    def test_worker_death_is_reported_not_hung(self):
        handle = _executor(1).submit(_die_silently, 0, label="dead")
        import time
        start = time.time()
        while not handle.poll():
            assert time.time() - start < 30
            time.sleep(0.01)
        result = handle.result()
        assert isinstance(result, CellError)
        assert "died" in result.error

    def test_submit_spec_matches_run_specs(self):
        spec = RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                       max_instructions=1200)
        handle = _executor(1).submit_spec(spec)
        async_result = handle.result(timeout=120)
        [batch_result] = _executor(1).run_specs([spec])
        assert isinstance(async_result, RunResult)
        assert (async_result.ipc, async_result.cycles,
                async_result.stats) == \
            (batch_result.ipc, batch_result.cycles, batch_result.stats)

    def test_submit_spec_writes_trace_artifact(self, tmp_path):
        path = tmp_path / "cell.jsonl"
        spec = RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                       max_instructions=800, trace_path=str(path))
        handle = _executor(1).submit_spec(spec)
        result = handle.result(timeout=120)
        assert isinstance(result, RunResult), result
        lines = path.read_text().splitlines()
        assert lines
        import json as _json
        assert _json.loads(lines[0])["kind"]
