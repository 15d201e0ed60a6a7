"""Py-vs-compiled kernel backend parity suite.

The segmented IQ's active-cycle state lives in a struct-of-arrays kernel
engine with two interchangeable implementations: the pure-Python
reference (:class:`repro.core.segmented.kernels.PyKernelEngine`) and the
optional C extension (``repro.core.segmented._ckernels``, built with
``python -m repro.core.segmented.build``).  The backends must be
**bit-identical**: same cycle counts, same statistics, same JSONL trace
streams, on every registered model and every benchmark workload.

When the extension is not built (or ``REPRO_KERNELS=py`` disabled it for
the process) the compiled-side tests skip gracefully — the pure-Python
fallback is the only backend and there is nothing to compare.
"""

import pytest

from repro.core.registry import registered_models
from repro.core.segmented import kernels
from repro.workloads import WORKLOADS

from tests.conftest import traced_run

MODELS = registered_models()


def _compiled_available() -> bool:
    try:
        kernels.set_backend("compiled")
        kernels.backend()
        return True
    except RuntimeError:
        return False
    finally:
        kernels.set_backend(None)


COMPILED = _compiled_available()

requires_compiled = pytest.mark.skipif(
    not COMPILED,
    reason="compiled kernel backend not built "
           "(python -m repro.core.segmented.build)")


def _run(params, workload, backend):
    """One traced run under a forced kernel backend: (cycles,
    instructions, stats, jsonl).  ``"a+b"`` co-schedules two analogs as
    SMT threads (600 instructions each)."""
    kernels.set_backend(backend)
    try:
        return traced_run(params, workload,
                          600 if "+" in workload else 1200)
    finally:
        kernels.set_backend(None)


class TestBackendSelection:
    def test_py_backend_always_available(self):
        kernels.set_backend("py")
        try:
            assert kernels.backend() == "py"
            engine = kernels.make_engine(4, 8, [0, 4, 8, 12])
            assert engine.kind == "py"
        finally:
            kernels.set_backend(None)

    @requires_compiled
    def test_compiled_backend_reports_kind(self):
        kernels.set_backend("compiled")
        try:
            assert kernels.backend() == "compiled"
            engine = kernels.make_engine(4, 8, [0, 4, 8, 12])
            assert engine.kind == "compiled"
        finally:
            kernels.set_backend(None)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            kernels.set_backend("fortran")

    def test_segmented_iq_reports_its_backend(self):
        from repro.harness import configs
        from repro.pipeline import Processor
        kernels.set_backend("py")
        try:
            processor = Processor(configs.segmented(128, 64, "comb"),
                                  iter(()))
            assert processor.iq.kernel_backend == "py"
        finally:
            kernels.set_backend(None)


@requires_compiled
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_segmented_backend_parity(workload):
    """The tentpole contract: engine backends are indistinguishable on
    the segmented design across all eight benchmarks."""
    params = MODELS["segmented"].conformance_config()
    assert (_run(params, workload, "compiled")
            == _run(params, workload, "py"))


@requires_compiled
@pytest.mark.parametrize("kind,workload", [
    pytest.param(kind, workload,
                 id=kind if workload == "gcc" else f"{kind}-{workload}")
    for workload in ("gcc", "gcc+swim") for kind in sorted(MODELS)])
def test_all_models_backend_parity(kind, workload):
    """Every registered model runs bit-identically under both backends,
    single-threaded and with two SMT threads sharing the IQ (one rename
    map per thread through the fused rename loop).  Non-segmented models
    exercise the shared compiled stat/event primitives rather than the
    IQ engine."""
    params = MODELS[kind].conformance_config()
    assert (_run(params, workload, "compiled")
            == _run(params, workload, "py"))


# ------------------------------------------------------- pipeline tier --
@requires_compiled
@pytest.mark.parametrize("workload", sorted(WORKLOADS) + ["swim+twolf"])
def test_pipeline_tier_parity(workload):
    """The pipeline-tier contract: with dispatch rename and IQ admission
    kernelized, the dense seg-512 design point stays bit-identical across
    backends on all eight benchmarks and on a two-thread SMT pairing."""
    from repro.harness import configs
    params = configs.segmented(512, 128, "comb")
    assert (_run(params, workload, "compiled")
            == _run(params, workload, "py"))


@requires_compiled
def test_rename_kernel_matches_python_loop():
    """The fused rename loop builds the same operand list, field for
    field, as the Python twin in Processor._dispatch."""
    from repro.core.iq_base import Operand
    kernels.set_backend("compiled")
    try:
        fused = kernels.rename_kernel()
    finally:
        kernels.set_backend(None)

    class _Producer:
        def __init__(self, ready):
            self.value_ready_cycle = ready

    last_writer = {3: _Producer(17), 5: _Producer(None)}
    for srcs, limit in [((3, 5), -1), ((0, 3), -1), ((5, 3), 1), ((), -1)]:
        expected = []
        for reg in (srcs[:1] if limit == 1 else srcs):
            producer = last_writer.get(reg) if reg != 0 else None
            if producer is None:
                expected.append(Operand(reg, None, 0, 0))
            else:
                expected.append(Operand(reg, producer,
                                        producer.value_ready_cycle, 0))
        got = fused(Operand, last_writer, srcs, limit)
        assert [(op.reg, op.producer, op.ready_cycle, op.penalty)
                for op in got] == \
               [(op.reg, op.producer, op.ready_cycle, op.penalty)
                for op in expected], (srcs, limit)


class TestPipelineGracefulFallback:
    def test_py_backend_uses_python_engine_and_loop(self):
        """On the py backend the dispatch path needs no extension: the
        rename kernel is None and Processor keeps its Python loop."""
        kernels.set_backend("py")
        try:
            assert kernels.rename_kernel() is None
        finally:
            kernels.set_backend(None)

    @requires_compiled
    @pytest.mark.parametrize("requested", ["auto", "compiled"])
    def test_stale_extension_is_refused(self, tmp_path, monkeypatch,
                                        requested):
        """A working extension older than _ckernels.c is never loaded:
        ``auto`` resolves to the Python backend and ``compiled`` raises,
        instead of silently running code built from an older source."""
        import os
        import shutil
        import sys
        from repro.common import _ckload
        built = _ckload.load_extension().__file__
        extension = tmp_path / os.path.basename(built)
        shutil.copy(built, extension)
        source = tmp_path / "_ckernels.c"
        source.write_text("/* edited after the build */\n")
        stamp = source.stat().st_mtime
        os.utime(extension, (stamp - 60, stamp - 60))
        monkeypatch.setattr(_ckload, "_PACKAGE_DIR", str(tmp_path))
        monkeypatch.delitem(sys.modules, _ckload._MODULE_NAME)
        assert _ckload.load_extension() is None
        kernels.set_backend(requested)
        try:
            if requested == "auto":
                assert kernels.backend() == "py"
                assert kernels.make_engine(2, 4, [0, 4]).kind == "py"
            else:
                with pytest.raises(RuntimeError, match="older than"):
                    kernels.backend()
        finally:
            kernels.set_backend(None)
