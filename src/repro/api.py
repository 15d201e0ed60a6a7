"""The single programmatic entry point for running one simulation.

:func:`run` is what every in-repo caller — the CLI, :class:`Sweep`,
:class:`Experiment`, the bench, the validation campaign, the sampling
subsystem's full-run comparisons — goes through.  It composes the
features that used to require picking the right helper by hand:

* **observability** — ``trace=`` accepts a :class:`~repro.obs.Tracer`
  or a path (``.jsonl`` streams JSONL, anything else writes Chrome
  ``trace_event`` JSON); ``metrics=`` accepts a
  :class:`~repro.obs.MetricsConfig`, a sampling interval, or a ready
  :class:`~repro.obs.MetricsCollector` and lands the report in
  ``RunResult.metrics``;
* **sampled simulation** — ``sampling=`` switches to the SMARTS-style
  interval sampler and returns its extrapolated result;
* **result caching** — ``cache=`` consults a
  :class:`~repro.harness.cache.ResultCache` (only for plain runs:
  traced or metered runs always simulate, because their value *is*
  the instrumentation).

This is the only simulation entry point — the deprecated ``run_workload``
shim has been removed.  The job service (:mod:`repro.service`) builds on
this function and returns bit-identical results.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.common.errors import ConfigurationError
from repro.common.params import ProcessorParams
from repro.harness.runner import RunResult, resolve_workload
from repro.isa.executor import execute
from repro.pipeline.processor import Processor


def _open_trace_sink(target: str):
    """Path -> sink: ``.jsonl`` streams lines, anything else buffers and
    writes Chrome ``trace_event`` JSON on close."""
    from repro.obs.sinks import ChromeTraceSink, JSONLSink
    if target.endswith(".jsonl"):
        return JSONLSink(target)
    return ChromeTraceSink(target)


def run(params: ProcessorParams, workload, *,
        config_label: str = "",
        scale: int = 1,
        max_instructions: Optional[int] = None,
        max_cycles: int = 5_000_000,
        warm_code: bool = True,
        trace=None,
        metrics=None,
        sampling=None,
        execution=None,
        progress=None,
        progress_interval: float = 5.0) -> RunResult:
    """Simulate ``workload`` under ``params`` and return a RunResult.

    Parameters
    ----------
    params:
        The processor configuration (validated by the processor).
    workload:
        A registered workload name or a ``WorkloadSpec``.
    config_label:
        Display label for the configuration (defaults to the IQ kind).
    scale / max_instructions / max_cycles / warm_code:
        Simulation budget knobs (stream length multiplier, instruction
        and cycle caps, warm-fetch of the kernel's code footprint).
    trace:
        ``None`` (off), a tracer object with an ``emit`` method, or a
        path string.  Sinks the API opens from a path are closed before
        returning; caller-supplied tracers are left open.
    metrics:
        ``None`` (off), a :class:`~repro.obs.MetricsConfig`, an ``int``
        sampling interval, or a :class:`~repro.obs.MetricsCollector`.
        The windowed time-series report lands in ``RunResult.metrics``.
    sampling:
        A :class:`~repro.sampling.SamplingConfig` switches to sampled
        simulation (mutually exclusive with ``trace``/``metrics``).
    execution:
        An optional :class:`~repro.fabric.ExecutionConfig` — the same
        object :meth:`Sweep.run` and :meth:`Experiment.run` accept.
        ``jobs`` is the sampling fan-out worker count (a plain run is a
        single cell and ignores it); ``cache`` is a
        :class:`~repro.harness.cache.ResultCache` consulted for plain
        runs (no trace, no metrics) and populated on miss.  On the
        sampling path, a ``CheckpointStore`` cache is forwarded to the
        sampler; other cache objects are ignored there.
    progress / progress_interval:
        Heartbeat callback receiving
        :class:`~repro.pipeline.processor.ProgressTick` records roughly
        every ``progress_interval`` wall-clock seconds.
    """
    jobs = execution.jobs if execution is not None else None
    cache = execution.cache if execution is not None else None
    if sampling is not None:
        if trace is not None or metrics is not None:
            raise ConfigurationError(
                "sampling is mutually exclusive with trace/metrics: a "
                "sampled run simulates disjoint windows, so a contiguous "
                "event stream does not exist")
        from repro.sampling.checkpoint import CheckpointStore
        from repro.sampling.sampler import sample_workload
        store = cache if isinstance(cache, CheckpointStore) else None
        report = sample_workload(
            workload, params, sampling,
            config_label=config_label, scale=scale,
            max_instructions=max_instructions, warm_code=warm_code,
            jobs=1 if jobs is None else jobs, store=store,
            progress=progress)
        return report.to_run_result()

    # Plain (cacheable) runs only: instrumented runs always simulate.
    cacheable = (trace is None and metrics is None and cache is not None
                 and hasattr(cache, "key_for"))
    spec = resolve_workload(workload)
    key = None
    if cacheable:
        key = cache.key_for(spec.name, params,
                            max_instructions=max_instructions,
                            scale=scale, max_cycles=max_cycles,
                            warm_code=warm_code)
        hit = cache.get(key)
        if hit is not None:
            if config_label and hit.config != config_label:
                hit = RunResult(
                    workload=hit.workload, config=config_label,
                    ipc=hit.ipc, cycles=hit.cycles,
                    instructions=hit.instructions, stats=hit.stats)
            return hit

    tracer = trace
    owns_sink = False
    if isinstance(trace, str):
        tracer = _open_trace_sink(trace)
        owns_sink = True

    collector = metrics
    if collector is not None and not hasattr(collector, "sample"):
        from repro.obs.metrics import MetricsCollector
        collector = MetricsCollector(collector)

    program = spec.build(scale)
    budget = (max_instructions if max_instructions is not None
              else spec.default_instructions * scale)
    try:
        processor = Processor(params,
                              execute(program, max_instructions=budget),
                              tracer=tracer, metrics=collector)
        if warm_code:
            processor.warm_code(program)
        if spec.warm_data:
            processor.warm_data(program)
        processor.run(max_cycles=max_cycles, progress=progress,
                      progress_interval=progress_interval)
    finally:
        if owns_sink:
            # Fold the metrics report into Chrome counter tracks when the
            # sink supports it, then flush the file.
            if collector is not None and hasattr(tracer, "metrics"):
                tracer.metrics = collector.to_dict()
            tracer.close()

    result = RunResult(
        workload=spec.name,
        config=config_label or params.iq.kind,
        ipc=processor.ipc,
        cycles=processor.cycle,
        instructions=processor.committed,
        stats=processor.stats.as_dict(),
        metrics=collector.to_dict() if collector is not None else None)
    if key is not None:
        cache.put(key, result)
    return result


def predict(params: ProcessorParams, workload, *,
            scale: int = 1,
            max_instructions: Optional[int] = None,
            surrogate=None):
    """Predict IPC analytically instead of simulating (the surrogate).

    Returns a :class:`~repro.harness.surrogate.SurrogatePrediction` from
    the Carroll-Lin-style queuing model over a one-pass functional
    profile — no cycle-accurate simulation.  Pass a calibrated
    :class:`~repro.harness.surrogate.Surrogate` as ``surrogate`` to
    reuse its profile cache and per-(workload, kind) anchors; the same
    instance is the one :meth:`repro.harness.sweep.Sweep.run` and the
    experiments use for grid pruning (``surrogate=True`` there).
    """
    from repro.harness.surrogate import Surrogate
    spec = resolve_workload(workload)
    params.validate()
    if surrogate is None:
        surrogate = Surrogate(scale=scale, max_instructions=max_instructions)
    return surrogate.predict(spec.name, params)
