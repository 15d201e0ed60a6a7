"""Shared fixtures and program helpers for the test suite."""

import pytest

from repro import api
from repro.common import ProcessorParams, StatGroup, ideal_iq_params


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the on-disk result cache at a per-test directory.

    The CLI caches simulation results by default; tests must never read
    from (or pollute) the invoking user's real ``~/.cache/repro``.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
from repro.isa import F, ProgramBuilder, R, execute
from repro.obs import RingBufferTracer, dump_jsonl
from repro.pipeline import Processor
from repro.workloads import WORKLOADS


def daxpy_program(n=64, stride=1, name="daxpy"):
    """y[i] = 3*x[i] + y[i] over n/stride elements."""
    b = ProgramBuilder(name)
    x = b.alloc("x", n, init=[1.0] * n)
    y = b.alloc("y", n, init=[2.0] * n)
    i, limit, addr = R(1), R(2), R(3)
    b.li(R(4), 3)
    b.cvtif(F(4), R(4))
    b.li(limit, n)
    b.li(i, 0)
    b.label("loop")
    b.slli(addr, i, 3)
    b.fld(F(0), addr, base=x)
    b.fld(F(1), addr, base=y)
    b.fmul(F(2), F(0), F(4))
    b.fadd(F(3), F(2), F(1))
    b.fst(F(3), addr, base=y)
    b.addi(i, i, stride)
    b.blt(i, limit, "loop")
    b.halt()
    return b.build()


def dependent_chain_program(length=100):
    """A serial integer dependence chain (no ILP at all)."""
    b = ProgramBuilder("chain")
    b.li(R(1), 0)
    for _ in range(length):
        b.addi(R(1), R(1), 1)
    b.halt()
    return b.build()


def independent_ops_program(count=100):
    """Fully parallel integer ops (ILP = issue width)."""
    b = ProgramBuilder("parallel")
    regs = [R(i) for i in range(1, 25)]
    for i in range(count):
        reg = regs[i % len(regs)]
        b.li(reg, i)
    b.halt()
    return b.build()


def run_program(program, params=None, max_cycles=1_000_000,
                max_instructions=None):
    """Run a program through the timing model; returns the processor."""
    if params is None:
        params = ProcessorParams().replace(iq=ideal_iq_params(64))
    stream = execute(program, max_instructions=max_instructions)
    processor = Processor(params, stream)
    processor.run(max_cycles=max_cycles)
    return processor


def traced_run(params, workload, max_instructions):
    """Run one analog through :func:`repro.api.run`, or co-schedule the
    analogs of an ``"a+b"`` name as SMT threads (``max_instructions``
    each; code warmed, data warmed where the analog asks for it), under
    an unbounded tracer.  Returns ``(cycles, instructions, stats,
    jsonl)`` so mode/backend comparisons treat both alike."""
    tracer = RingBufferTracer()
    if "+" in workload:
        names = workload.split("+")
        programs = [WORKLOADS[name].build(1) for name in names]
        processor = Processor(
            params, [execute(program, max_instructions=max_instructions)
                     for program in programs], tracer=tracer)
        for thread, (name, program) in enumerate(zip(names, programs)):
            processor.warm_code(program, thread=thread)
            if WORKLOADS[name].warm_data:
                processor.warm_data(program, thread=thread)
        processor.run()
        outcome = (processor.cycle, processor.committed,
                   processor.stats.as_dict())
    else:
        result = api.run(params, workload, max_instructions=max_instructions,
                         trace=tracer)
        outcome = (result.cycles, result.instructions, result.stats)
    return outcome + (dump_jsonl(tracer.events),)


def without_skip_counters(stats):
    """A stats dict minus the skip.* counters: they describe the skipping
    mechanism itself and are the one permitted difference between a
    skipping run and a plain-stepped one."""
    return {key: value for key, value in stats.items()
            if not key.startswith("skip.")}


@pytest.fixture
def ideal_params():
    return ProcessorParams().replace(iq=ideal_iq_params(64))
