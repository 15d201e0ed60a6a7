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
    """The pipeline-tier contract: with dispatch rename, IQ admission and
    the FU heaps kernelized, the dense seg-512 design point stays
    bit-identical across backends on all eight benchmarks and on a
    two-thread SMT pairing."""
    from repro.harness import configs
    params = configs.segmented(512, 128, "comb")
    assert (_run(params, workload, "compiled")
            == _run(params, workload, "py"))


class _Counter:
    """Minimal stand-in honouring the stat ``inc`` protocol."""

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


def _pipeline_engines():
    """A (py, compiled) pair of pipeline engines with identical FU
    shapes, plus their counters for comparison."""
    from repro.pipeline.kernels import PyPipelineEngine, make_engine
    shapes = dict(n_classes=3, clusters=2, counts=[4, 2, 2],
                  mem_port_index=2)
    py_issued = [_Counter() for _ in range(3)]
    py_structural = _Counter()
    py_engine = PyPipelineEngine(issued_counters=py_issued,
                                 structural_counter=py_structural,
                                 **shapes)
    kernels.set_backend("compiled")
    try:
        c_issued = [_Counter() for _ in range(3)]
        c_structural = _Counter()
        c_engine = make_engine(issued_counters=c_issued,
                               structural_counter=c_structural, **shapes)
    finally:
        kernels.set_backend(None)
    return (py_engine, py_issued, py_structural,
            c_engine, c_issued, c_structural)


@requires_compiled
def test_pipeline_engine_op_parity():
    """The FU-heap engine twins agree call-for-call: accept outcomes,
    cache-port claims, next-event horizons, and every stat increment."""
    (py_engine, py_issued, py_structural,
     c_engine, c_issued, c_structural) = _pipeline_engines()
    if c_engine.kind != "compiled":
        pytest.skip("extension predates the pipeline tier")
    ops = [("accept", 0, 0, 3, 0), ("accept", 0, 0, 3, 0),
           ("accept", 0, 1, 2, 0), ("can", 0, 0, 1), ("can", 0, 0, 3),
           ("port", 0), ("port", 0), ("port", 1), ("next", 0),
           ("accept", 1, 0, 5, 2), ("accept", 1, 0, 5, 2),
           ("next", 2), ("port", 2), ("next", 4), ("can", 1, 0, 6),
           ("accept", 2, 1, 1, 6), ("port", 6), ("next", 6)]
    for op in ops:
        if op[0] == "accept":
            _, ci, cluster, occupancy, now = op
            assert (py_engine.fu_accept(ci, cluster, occupancy, now)
                    == c_engine.fu_accept(ci, cluster, occupancy, now)), op
        elif op[0] == "can":
            _, ci, cluster, now = op
            assert (py_engine.fu_can_accept(ci, cluster, now)
                    == c_engine.fu_can_accept(ci, cluster, now)), op
        elif op[0] == "port":
            assert (py_engine.fu_cache_port(op[1])
                    == c_engine.fu_cache_port(op[1])), op
        else:
            assert (py_engine.fu_next_event(op[1])
                    == c_engine.fu_next_event(op[1])), op
    assert [c.value for c in c_issued] == [c.value for c in py_issued]
    assert c_structural.value == py_structural.value


@requires_compiled
def test_rename_kernel_matches_python_loop():
    """The fused rename loop builds the same operand list, field for
    field, as the Python twin in Processor._dispatch."""
    from repro.core.iq_base import Operand
    from repro.pipeline.kernels import rename_kernel
    kernels.set_backend("compiled")
    try:
        fused = rename_kernel()
    finally:
        kernels.set_backend(None)
    if fused is None:
        pytest.skip("extension predates the rename kernel")

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
        """On the py backend the pipeline tier needs no extension: the
        engine is the Python reference and the rename kernel is None."""
        from repro.pipeline.kernels import PyPipelineEngine, make_engine, \
            rename_kernel
        kernels.set_backend("py")
        try:
            engine = make_engine(1, 1, [2], 0, [_Counter()], _Counter())
            assert isinstance(engine, PyPipelineEngine)
            assert rename_kernel() is None
        finally:
            kernels.set_backend(None)

    @requires_compiled
    def test_stale_extension_falls_back_quietly(self, monkeypatch):
        """An extension built before the pipeline tier existed lacks
        the Pipeline type: make_engine falls back to the bit-identical
        Python twin instead of raising."""
        from repro.core.segmented import _ckernels
        from repro.pipeline.kernels import PyPipelineEngine, make_engine
        monkeypatch.delattr(_ckernels, "Pipeline")
        kernels.set_backend("compiled")
        try:
            engine = make_engine(1, 1, [2], 0, [_Counter()], _Counter())
            assert isinstance(engine, PyPipelineEngine)
        finally:
            kernels.set_backend(None)
