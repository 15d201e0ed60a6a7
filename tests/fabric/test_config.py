"""ExecutionConfig, the backend registry, and worker-cache merging."""

import dataclasses
import importlib
import warnings

import pytest

from repro import api
from repro.common.errors import ConfigurationError
from repro.fabric import (ExecutionBackend, ExecutionConfig,
                          LocalProcessBackend, backend_names,
                          create_backend, parse_backend_spec)
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.harness.experiments import EXPERIMENTS
from repro.harness.runner import RunResult
from repro.harness.sweep import Sweep


class TestBackendSpec:
    def test_builtins_are_registered(self):
        assert {"local-process", "ssh"} <= set(backend_names())

    def test_parse_plain_and_ssh_specs(self):
        assert parse_backend_spec("local-process") == ("local-process", {})
        assert parse_backend_spec("ssh:hosta,hostb") == \
            ("ssh", {"hosts": ["hosta", "hostb"]})
        assert parse_backend_spec("ssh: a , b ") == \
            ("ssh", {"hosts": ["a", "b"]})

    def test_non_ssh_argument_is_rejected(self):
        with pytest.raises(ConfigurationError, match="takes no ':'"):
            parse_backend_spec("local-process:8")

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ConfigurationError, match="local-process"):
            create_backend("teleport")

    def test_create_backend_honours_jobs(self):
        backend = create_backend("local-process", jobs=3)
        try:
            assert isinstance(backend, LocalProcessBackend)
            assert backend.capacity() == 3
        finally:
            backend.close()


class TestExecutionConfig:
    def test_resolve_jobs_defaults(self):
        assert ExecutionConfig().resolve_jobs() == 1
        assert ExecutionConfig().resolve_jobs(default=4) == 4
        assert ExecutionConfig(jobs=2).resolve_jobs(default=4) == 2
        assert ExecutionConfig(jobs=0).resolve_jobs() == 1

    def test_make_backend_passes_instances_through(self):
        class Stub(ExecutionBackend):
            def close(self):
                pass

        stub = Stub()
        assert ExecutionConfig(backend=stub).make_backend() is stub

    def test_make_backend_from_spec_string(self):
        backend = ExecutionConfig(backend="local-process",
                                  jobs=2).make_backend()
        try:
            assert backend.capacity() == 2
        finally:
            backend.close()


class TestLegacyKwargs:
    """``execution=`` is the only spelling of jobs/cache: the
    one-release ``jobs=``/``cache=`` kwargs and the old executor module
    are gone, not silently accepted."""

    def test_legacy_kwargs_are_rejected(self):
        with pytest.raises(TypeError, match="cache"):
            api.run(configs.ideal(32), "twolf",
                    cache=ResultCache(enabled=False))
        sweep = Sweep(workloads=["twolf"])
        sweep.add_config("ideal-32", configs.ideal(32))
        with pytest.raises(TypeError, match="jobs"):
            sweep.run(jobs=2)
        with pytest.raises(TypeError, match="jobs"):
            EXPERIMENTS["headline"].run(workloads=["twolf"], jobs=2)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.harness.parallel")

    def test_no_legacy_kwargs_no_warning(self, tmp_path):
        sweep = Sweep(workloads=["twolf"], max_instructions=600)
        sweep.add_config("ideal-32", configs.ideal(32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = sweep.run(execution=ExecutionConfig(
                cache=ResultCache(tmp_path / "cache")))
        assert grid.results["twolf"]["ideal-32"].ipc > 0

    def test_api_run_execution_config(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = api.run(configs.ideal(32), "twolf", max_instructions=600,
                        execution=ExecutionConfig(cache=cache))
        second = api.run(configs.ideal(32), "twolf", max_instructions=600,
                         execution=ExecutionConfig(cache=cache))
        assert cache.hits == 1
        assert dataclasses.asdict(first) == dataclasses.asdict(second)


def _result(workload="twolf", config="ideal-32", ipc=1.25):
    return RunResult(workload=workload, config=config, ipc=ipc,
                     cycles=800, instructions=1000,
                     stats={"iq.occupancy": 11.5, "commit.total": 1000})


class TestCacheMerge:
    def test_merge_adopts_new_entries_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _result()
        assert cache.merge([("k1", result)]) == 1
        assert cache.merge([("k1", result), ("k2", _result(ipc=2.0))]) == 1
        hit = cache.get("k1")
        assert hit is not None and hit.ipc == result.ipc
        assert hit.stats == result.stats

    def test_merge_on_disabled_cache_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        assert cache.merge([("k1", _result())]) == 0
        assert cache.get("k1") is None
