"""Backend conformance suite.

Every registered backend must (a) produce bit-identical results to
serial in-process execution, in input order; (b) honour the hard-kill
task contract (cancel and worker death settle the handle, never hang);
(c) recover from a dead worker — the next submission gets a fresh one.
Backends a platform cannot provide skip rather than fail.
"""

import dataclasses
import time

import pytest

from repro.common.errors import ConfigurationError
from repro.fabric import (CellError, ExecutionConfig, Executor, RunSpec,
                          create_backend, raise_on_errors)
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.harness.runner import RunResult

#: Spec strings the suite conforms. ``ssh:local`` is the transport-free
#: form of the ssh backend: same worker, same JSONL wire, no ssh.
BACKENDS = ["local-process", "ssh:local"]


def _grid_specs():
    cells = [("twolf", "ideal-32", configs.ideal(32)),
             ("twolf", "seg-64",
              configs.segmented(64, 16, "comb", segment_size=16)),
             ("swim", "ideal-32", configs.ideal(32)),
             ("swim", "seg-64",
              configs.segmented(64, 16, "comb", segment_size=16))]
    return [RunSpec(workload, params, config_label=label,
                    max_instructions=1200)
            for workload, label, params in cells]


def _backend_or_skip(spec: str, jobs: int = 1):
    try:
        return create_backend(spec, jobs=jobs)
    except ConfigurationError as exc:
        pytest.skip(f"{spec}: {exc}")


@pytest.fixture(scope="module")
def serial_results():
    """The reference: the same grid, serially, in this process."""
    results = Executor(ExecutionConfig(jobs=1)).run_specs(_grid_specs())
    raise_on_errors(results, "serial reference")
    return results


# ------------------------------------------------------------ identity --
@pytest.mark.parametrize("backend", BACKENDS)
class TestBitIdentity:
    def test_matches_serial_in_input_order(self, backend, serial_results):
        specs = _grid_specs()
        executor = Executor(ExecutionConfig(backend=backend, jobs=2))
        try:
            results = executor.run_specs(specs)
        except ConfigurationError as exc:
            pytest.skip(f"{backend}: {exc}")
        raise_on_errors(results, backend)
        for spec, got, want in zip(specs, results, serial_results):
            assert got.workload == spec.workload
            assert got.config == spec.config_label
            assert dataclasses.asdict(got) == dataclasses.asdict(want), \
                f"{spec.label} diverged between serial and {backend}"

    def test_cache_round_trip(self, backend, tmp_path):
        """A backend-executed cell lands in the cache; the rerun is a
        hit that needs no backend at all."""
        cache = ResultCache(tmp_path / "cache")
        spec = _grid_specs()[0]
        execution = ExecutionConfig(backend=backend, jobs=1, cache=cache)
        try:
            [first] = Executor(execution).run_specs([spec])
        except ConfigurationError as exc:
            pytest.skip(f"{backend}: {exc}")
        assert isinstance(first, RunResult), first
        [second] = Executor(ExecutionConfig(jobs=1,
                                            cache=cache)).run_specs([spec])
        assert cache.hits == 1
        assert dataclasses.asdict(first) == dataclasses.asdict(second)


# ------------------------------------------------------- task contract --
def _sleep_forever(item, emit):
    emit({"started": True})
    while True:
        time.sleep(0.05)


def _die_silently(item, emit):
    import os
    os._exit(3)


def _wait(predicate, timeout=30.0, message="condition"):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, f"timed out waiting for {message}"
        time.sleep(0.01)


@pytest.mark.parametrize("backend", BACKENDS)
class TestTaskContract:
    def test_cancel_is_a_hard_kill(self, backend):
        back = _backend_or_skip(backend)
        try:
            handle = back.submit_task(_sleep_forever, 0, label="spin")
            # Wait until the worker proves it started, then kill it.
            deadline = time.time() + 30
            while not handle.ticks():
                assert time.time() < deadline, "no heartbeat from worker"
                time.sleep(0.01)
            assert back.cancel(handle)
            result = handle.result(timeout=10)
            assert isinstance(result, CellError)
            assert result.error == "cancelled"
            assert handle.cancelled
            assert not handle.cancel()      # idempotent once settled
        finally:
            back.close()

    def test_worker_death_is_reported_not_hung(self, backend):
        back = _backend_or_skip(backend)
        try:
            handle = back.submit_task(_die_silently, 0, label="dead")
            _wait(handle.poll, message="death report")
            result = handle.result()
            assert isinstance(result, CellError)
            assert "died" in result.error
        finally:
            back.close()


# ----------------------------------------------- mid-cell worker death --
def _long_spec():
    # Big enough that the kill always lands mid-simulation.
    return RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                   max_instructions=300_000)


def _small_spec():
    return RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                   max_instructions=800)


class TestWorkerDeathMidCell:
    """Kill the worker while a *cell* (not a task) is computing: the
    handle settles with a CellError and the backend recovers — the next
    submission gets a fresh worker."""

    def test_ssh_channel_death(self):
        back = _backend_or_skip("ssh:local")
        try:
            handle = back.submit(_long_spec())
            back._channels[0].process.kill()
            _wait(handle.poll, message="channel death report")
            result = handle.result()
            assert isinstance(result, CellError)
            assert "died" in result.error
            back.tick()
            retry = back.submit(_small_spec()).result(timeout=120)
            assert isinstance(retry, RunResult), retry
        finally:
            back.close()


# ------------------------------------------------------- ssh specifics --
class TestSSHBackend:
    def test_rejects_metered_cells(self):
        back = _backend_or_skip("ssh:local")
        try:
            metered = dataclasses.replace(_small_spec(), metrics=200)
            with pytest.raises(ConfigurationError, match="metered cells"):
                back.submit(metered)
        finally:
            back.close()

    def test_merges_worker_cache_entries(self, tmp_path):
        back = _backend_or_skip("ssh:local")
        back.close()
        try:
            back = create_backend(
                "ssh:local", jobs=1,
                worker_cache_dir=str(tmp_path / "worker-cache"))
        except ConfigurationError as exc:
            pytest.skip(str(exc))
        try:
            spec = _small_spec()
            result = back.submit(spec).result(timeout=180)
            assert isinstance(result, RunResult), result
            local = ResultCache(tmp_path / "local-cache")
            assert back.merge_cache(local) == 1
            key = local.key_for(spec.workload, spec.params,
                                **spec.cache_kwargs())
            hit = local.get(key)
            assert hit is not None
            assert dataclasses.asdict(hit) == dataclasses.asdict(result)
            # Entries already present are left alone on a second merge.
            assert back.merge_cache(local) == 0
        finally:
            back.close()
