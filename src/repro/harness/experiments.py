"""Programmatic definitions of the paper's experiments.

Each experiment knows which (workload, configuration) grid it needs, how
to render its report, and how to serialize its raw data.  The pytest
benches and the ``python -m repro reproduce`` CLI both drive these, so a
user can regenerate any table or figure from a script::

    from repro.harness.experiments import EXPERIMENTS

    report, data = EXPERIMENTS["table2"].run(workloads=["swim", "twolf"])
    print(report)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness import configs
from repro.harness.reporting import (ascii_series_plot, figure2_report,
                                     format_table, table2_report)
from repro.harness.runner import RunResult
from repro.workloads import WORKLOADS

VARIANTS = ("base", "hmp", "lrp", "comb")
CHAIN_SETTINGS = ((None, "unlimited"), (128, "128 chains"),
                  (64, "64 chains"))
FIG3_SIZES = (32, 64, 128, 256, 512)
PRESCHED_LINES = (8, 24, 56, 120)


class ExperimentRunner:
    """Caches simulation runs across one experiment invocation.

    With ``execution.jobs`` > 1 the experiment's whole grid is discovered
    up front (see :meth:`prefetch`) and fanned out over a process pool;
    ``execution.cache`` threads an on-disk
    :class:`~repro.harness.cache.ResultCache` through every cell so
    repeated invocations skip simulation entirely.
    """

    def __init__(self, workloads: Sequence[str],
                 budget_factor: float = 1.0,
                 progress: Optional[Callable[[str], None]] = None, *,
                 execution=None,
                 sampling=None, sampling_scale: int = 1,
                 metrics=None, surrogate: bool = False) -> None:
        unknown = set(workloads) - set(WORKLOADS)
        if unknown:
            raise KeyError(f"unknown workloads: {sorted(unknown)}")
        self.workloads = list(workloads)
        self.budget_factor = budget_factor
        self.progress = progress
        if execution is None:
            from repro.fabric import ExecutionConfig
            execution = ExecutionConfig()
        #: The fabric placement for this experiment's cells (backend,
        #: worker count, cache).
        self.execution = execution
        self.jobs = execution.resolve_jobs(1)
        self.cache = execution.cache
        #: Optional SamplingConfig: estimate every cell by interval
        #: sampling (at ``sampling_scale``x the workload size) instead of
        #: simulating it in full detail.
        self.sampling = sampling
        self.sampling_scale = sampling_scale
        #: Optional :class:`repro.obs.MetricsConfig` (or interval int)
        #: applied to every full-detail cell; every RunResult then
        #: carries its windowed time series (and skips the cache).
        self.metrics = metrics
        #: With ``surrogate`` the prefetch fan-out runs the analytical
        #: surrogate as a pruning pre-pass (repro.harness.surrogate):
        #: cells far from the per-workload Pareto front are filled with
        #: predicted results marked ``stats["surrogate.predicted"]``.
        self.surrogate = surrogate
        self._cache: Dict[Tuple[str, str], RunResult] = {}
        self._recording: Optional[List[Tuple[str, str, Callable]]] = None

    def _budget(self, workload: str) -> int:
        spec = WORKLOADS[workload]
        scale = self.sampling_scale if self.sampling is not None else 1
        return max(2_000, int(spec.default_instructions
                              * self.budget_factor * scale))

    def _sampled_spec(self, workload: str, config_key: str, params):
        from repro.sampling.sampler import SampledRunSpec
        return SampledRunSpec(workload, params, config_label=config_key,
                              sampling=self.sampling,
                              scale=self.sampling_scale,
                              max_instructions=self._budget(workload))

    def run(self, workload: str, config_key: str,
            params_factory) -> RunResult:
        key = (workload, config_key)
        if key in self._cache:
            return self._cache[key]
        if self._recording is not None:
            # Planning pass: record the cell, hand back a placeholder.
            self._recording.append((workload, config_key, params_factory))
            return RunResult(workload=workload, config=config_key,
                             ipc=0.0, cycles=0, instructions=0)
        if self.progress is not None:
            self.progress(f"{workload}/{config_key}")
        from repro.fabric import (ExecutionConfig, Executor, RunSpec,
                                  raise_on_errors)
        executor = Executor(ExecutionConfig(backend=self.execution.backend,
                                            jobs=1, cache=self.cache,
                                            options=self.execution.options))
        if self.sampling is not None:
            from repro.sampling.sampler import run_sampled_cell
            spec = self._sampled_spec(workload, config_key, params_factory())
            cells = executor.map(
                run_sampled_cell, [spec], labels=[f"{workload}/{config_key}"])
        else:
            spec = RunSpec(workload, params_factory(),
                           config_label=config_key,
                           max_instructions=self._budget(workload),
                           metrics=self.metrics)
            cells = executor.run_specs([spec])
        raise_on_errors(cells, "experiment")
        self._cache[key] = cells[0]
        return cells[0]

    def prefetch(self, build: Callable[["ExperimentRunner"], object]) -> None:
        """Discover the grid ``build`` will request, then run it in bulk.

        The builder runs once against placeholder results purely to record
        which cells it asks for (builders only combine results
        arithmetically, with zero-guarded divisions, so placeholders are
        safe); the recorded cells then run through one parallel,
        cache-aware fan-out.  If the dry run raises, fall back silently to
        the ordinary lazy-serial path.
        """
        self._recording = []
        try:
            build(self)
        except Exception:
            self._recording = None
            return
        plan, self._recording = self._recording, None
        seen = set()
        unique = []
        for workload, config_key, factory in plan:
            if (workload, config_key) not in seen:
                seen.add((workload, config_key))
                unique.append((workload, config_key, factory))
        import dataclasses as _dataclasses

        from repro.fabric import Executor, RunSpec, raise_on_errors
        executor = Executor(_dataclasses.replace(
            self.execution, jobs=self.jobs, cache=self.cache))
        if self.progress is not None:
            for workload, config_key, _ in unique:
                self.progress(f"{workload}/{config_key}")
        if self.sampling is not None:
            from repro.sampling.sampler import run_sampled_cell
            sampled = [self._sampled_spec(workload, config_key, factory())
                       for workload, config_key, factory in unique]
            cells = executor.map(
                run_sampled_cell, sampled,
                labels=[f"{s.workload}/{s.config_label}" for s in sampled])
        elif self.surrogate:
            from repro.harness.surrogate import prune_and_run
            grid = [(workload, config_key, factory())
                    for workload, config_key, factory in unique]
            budgets = {workload: self._budget(workload)
                       for workload, _key, _factory in unique}
            outcome = prune_and_run(grid, budgets=budgets,
                                    execution=executor.execution,
                                    progress=self.progress)
            for workload, config_key, _factory in unique:
                self._cache[(workload, config_key)] = \
                    outcome.results[(workload, config_key)]
            return
        else:
            specs = [RunSpec(workload, factory(), config_label=config_key,
                             max_instructions=self._budget(workload),
                             metrics=self.metrics)
                     for workload, config_key, factory in unique]
            cells = executor.run_specs(specs)
        raise_on_errors(cells, "experiment")
        for (workload, config_key, _), cell in zip(unique, cells):
            self._cache[(workload, config_key)] = cell

    def ideal(self, workload: str, size: int) -> RunResult:
        return self.run(workload, f"ideal-{size}",
                        lambda: configs.ideal(size))

    def segmented(self, workload: str, size: int, chains,
                  variant: str) -> RunResult:
        chain_key = "unl" if chains is None else str(chains)
        return self.run(workload, f"seg-{size}-{chain_key}-{variant}",
                        lambda: configs.segmented(size, chains, variant))

    def prescheduled(self, workload: str, lines: int) -> RunResult:
        return self.run(workload, f"presched-{lines}",
                        lambda: configs.prescheduled(lines))


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    name: str
    title: str
    build: Callable[[ExperimentRunner], Tuple[str, dict]]

    def run(self, workloads: Optional[Sequence[str]] = None,
            budget_factor: float = 1.0,
            progress: Optional[Callable[[str], None]] = None, *,
            execution=None, sampling=None, sampling_scale: int = 1,
            metrics=None, surrogate: bool = False) -> Tuple[str, dict]:
        """Returns (rendered report, raw data dict).

        ``execution`` is an optional
        :class:`~repro.fabric.ExecutionConfig` choosing the execution
        backend, worker count, and result cache for the experiment's
        grid: ``jobs`` > 1 fans the grid out in parallel, ``cache``
        reuses results across invocations (see
        :mod:`repro.harness.cache`).  ``sampling`` estimates every cell
        by interval sampling instead of full-detail simulation (see
        :mod:`repro.sampling`) — faster, with a small statistical error
        the sampled stats quantify.  ``metrics`` attaches a
        :class:`~repro.obs.MetricsConfig` to every full-detail cell.
        ``surrogate`` prunes the grid with the analytical surrogate
        (:mod:`repro.harness.surrogate`): non-competitive cells carry
        predicted results marked ``stats["surrogate.predicted"]``.
        """
        runner = ExperimentRunner(workloads or sorted(WORKLOADS),
                                  budget_factor, progress,
                                  execution=execution,
                                  sampling=sampling,
                                  sampling_scale=sampling_scale,
                                  metrics=metrics, surrogate=surrogate)
        if runner.jobs > 1 or sampling is not None or surrogate:
            runner.prefetch(self.build)
        return self.build(runner)


# ------------------------------------------------------------- builders --
def _build_table2(runner: ExperimentRunner) -> Tuple[str, dict]:
    results = {workload: {variant: runner.segmented(workload, 512, None,
                                                    variant)
                          for variant in VARIANTS}
               for workload in runner.workloads}
    data = {workload: {variant: {"avg": results[workload][variant].chains_avg,
                                 "peak": results[workload][variant].chains_peak}
                       for variant in VARIANTS}
            for workload in runner.workloads}
    return table2_report(results), data


def _build_figure2(runner: ExperimentRunner) -> Tuple[str, dict]:
    rel: dict = {}
    for workload in runner.workloads:
        ideal = runner.ideal(workload, 512)
        rel[workload] = {}
        for chains, label in CHAIN_SETTINGS:
            rel[workload][label] = {
                variant: (runner.segmented(workload, 512, chains,
                                           variant).ipc / ideal.ipc
                          if ideal.ipc else 0.0)
                for variant in VARIANTS}
    return figure2_report(rel), rel


def _build_figure3(runner: ExperimentRunner) -> Tuple[str, dict]:
    series: dict = {}
    for workload in runner.workloads:
        per = {"ideal": {}, "seg-128ch": {}, "seg-64ch": {}, "presched": {}}
        for size in FIG3_SIZES:
            per["ideal"][size] = runner.ideal(workload, size).ipc
            per["seg-128ch"][size] = runner.segmented(
                workload, size, 128, "comb").ipc
            per["seg-64ch"][size] = runner.segmented(
                workload, size, 64, "comb").ipc
        for lines in PRESCHED_LINES:
            per["presched"][32 + 12 * lines] = runner.prescheduled(
                workload, lines).ipc
        series[workload] = per
    blocks = [ascii_series_plot(series[w],
                                title=f"Figure 3 ({w}): IPC vs queue size")
              for w in sorted(series)]
    return "\n".join(blocks), series


def _build_headline(runner: ExperimentRunner) -> Tuple[str, dict]:
    rows = []
    data = {}
    for workload in runner.workloads:
        conv32 = runner.ideal(workload, 32)
        ideal512 = runner.ideal(workload, 512)
        seg = runner.segmented(workload, 512, 128, "comb")
        gain = seg.ipc / conv32.ipc if conv32.ipc else 0.0
        fraction = seg.ipc / ideal512.ipc if ideal512.ipc else 0.0
        data[workload] = {"gain_over_32": gain,
                          "fraction_of_ideal": fraction}
        rows.append([workload, round(conv32.ipc, 3), round(seg.ipc, 3),
                     f"{100 * (gain - 1):+.0f}%", f"{100 * fraction:.0f}%"])
    report = format_table(
        ["benchmark", "conv-32 IPC", "seg-512/128 IPC", "gain", "% ideal"],
        rows, title="Headline claims (abstract / section 1)")
    return report, data


EXPERIMENTS: Dict[str, Experiment] = {
    "table2": Experiment(
        "table2", "Table 2: chain usage (512 entries, unlimited chains)",
        _build_table2),
    "figure2": Experiment(
        "figure2", "Figure 2: relative performance at 512 entries",
        _build_figure2),
    "figure3": Experiment(
        "figure3", "Figure 3: IPC across IQ sizes", _build_figure3),
    "headline": Experiment(
        "headline", "Abstract headline claims", _build_headline),
}


def save_data(data: dict, path: str) -> None:
    """Serialize an experiment's raw data as JSON."""
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True, default=str)
