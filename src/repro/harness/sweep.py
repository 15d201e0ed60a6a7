"""Generic parameter-grid sweeps with tabular/CSV output.

A :class:`Sweep` crosses workloads with named configurations, runs every
cell once, and renders the grid — the shape behind Figure 3 and most of
the ablations, packaged for users exploring their own design points::

    from repro.harness import configs
    from repro.harness.sweep import Sweep

    sweep = Sweep(workloads=["swim", "twolf"])
    for size in (32, 128, 512):
        sweep.add_config(f"ideal-{size}", configs.ideal(size))
        sweep.add_config(f"seg-{size}", configs.segmented(size, 128, "comb"))
    grid = sweep.run()
    print(grid.render())
    grid.write_csv("sweep.csv")
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.params import ProcessorParams
from repro.fabric.base import ExecutionConfig
from repro.harness.reporting import format_table
from repro.harness.runner import RunResult
from repro.workloads import WORKLOADS


@dataclass
class SweepGrid:
    """Results of a sweep: results[workload][config_label].

    ``models`` maps each config label to its IQ model kind; rendered and
    CSV headers carry the kind (``"seg-128 [segmented]"``) so grids that
    mix several IQ designs stay unambiguous.  ``surrogate_cells`` lists
    the (workload, label) cells whose results came from the analytical
    surrogate rather than simulation (see
    :mod:`repro.harness.surrogate`); they are rendered with a ``~``
    prefix.
    """

    workloads: List[str]
    config_labels: List[str]
    results: Dict[str, Dict[str, RunResult]]
    metric: str = "ipc"
    models: Dict[str, str] = field(default_factory=dict)
    surrogate_cells: set = field(default_factory=set)

    def column_key(self, label: str) -> str:
        """The config label, annotated with its IQ model kind."""
        kind = self.models.get(label)
        return f"{label} [{kind}]" if kind else label

    def value(self, workload: str, label: str) -> float:
        result = self.results[workload][label]
        if self.metric == "ipc":
            return result.ipc
        if self.metric == "cycles":
            return float(result.cycles)
        try:
            return result.stats[self.metric]
        except KeyError:
            available = ["ipc", "cycles"] + sorted(result.stats)
            raise KeyError(
                f"unknown metric {self.metric!r}; available metrics: "
                f"{', '.join(available)}") from None

    def _cell(self, workload: str, label: str):
        value = round(self.value(workload, label), 3)
        if (workload, label) in self.surrogate_cells:
            return f"~{value}"
        return value

    def render(self, metric: Optional[str] = None) -> str:
        metric = metric or self.metric
        saved, self.metric = self.metric, metric
        try:
            rows = [[workload] + [self._cell(workload, label)
                                  for label in self.config_labels]
                    for workload in self.workloads]
        finally:
            self.metric = saved
        headers = ["benchmark"] + [self.column_key(label)
                                   for label in self.config_labels]
        title = f"sweep: {metric}"
        if self.surrogate_cells:
            title += "  (~ = surrogate prediction, not simulated)"
        return format_table(headers, rows, title=title)

    def write_csv(self, path: str, metric: Optional[str] = None) -> None:
        metric = metric or self.metric
        saved, self.metric = self.metric, metric
        try:
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["benchmark"]
                                + [self.column_key(label)
                                   for label in self.config_labels])
                for workload in self.workloads:
                    writer.writerow(
                        [workload] + [self.value(workload, label)
                                      for label in self.config_labels])
        finally:
            self.metric = saved

    def best_config(self, workload: str) -> str:
        return max(self.config_labels,
                   key=lambda label: self.value(workload, label))


class Sweep:
    """Builds and executes a workload x configuration grid."""

    def __init__(self, workloads: Sequence[str],
                 max_instructions: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None) -> None:
        unknown = set(workloads) - set(WORKLOADS)
        if unknown:
            raise KeyError(f"unknown workloads: {sorted(unknown)}")
        self.workloads = list(workloads)
        self.max_instructions = max_instructions
        self.progress = progress
        self._configs: List[tuple] = []

    def add_config(self, label: str, params: ProcessorParams) -> "Sweep":
        if any(existing == label for existing, _ in self._configs):
            raise ValueError(f"duplicate config label {label!r}")
        params.validate()
        self._configs.append((label, params))
        return self

    def run(self, metric: str = "ipc", *, execution=None,
            sampling=None, sampling_scale: int = 1,
            metrics=None, surrogate: bool = False) -> SweepGrid:
        """Run every (workload, config) cell and collect the grid.

        ``execution`` is an optional
        :class:`~repro.fabric.ExecutionConfig` selecting the execution
        backend (``local-process``, ``ssh:host,...``), worker count,
        result cache, and (optionally) a resumable sweep journal.  The
        default runs serially on ``local-process``.  ``jobs`` > 1 fans
        the cells out over the backend (cells are independent; results
        are deterministic and ordered either way); cached cells skip
        simulation entirely.

        ``sampling`` is an optional
        :class:`~repro.sampling.SamplingConfig`: when given, every cell
        runs as a sampled simulation (checkpoint + interval windows)
        instead of full detail, and the grid's IPC values are sampled
        estimates carrying ``sampling.*`` stats (CI bounds, detail
        fraction).  ``sampling_scale`` scales the workloads up so the
        stream is long enough to sample; the on-disk ``cache`` is not
        consulted for sampled cells (estimates are not exchangeable with
        full-detail results).

        ``metrics`` is an optional :class:`~repro.obs.MetricsConfig` (or
        interval int) applied to every full-detail cell: each
        ``RunResult.metrics`` then carries the windowed time series.
        Metered cells always simulate (the cache is not consulted).

        ``surrogate=True`` runs the analytical surrogate as a pruning
        pre-pass (see :mod:`repro.harness.surrogate`): one anchor cell
        per (workload, IQ kind) is simulated, cells outside the error
        band of the per-workload Pareto front are filled with predicted
        results (``stats["surrogate.predicted"]``, listed in
        ``SweepGrid.surrogate_cells``), and only the competitive
        remainder is simulated in full detail.
        """
        if not self._configs:
            raise ValueError("no configurations added")
        if execution is None:
            execution = ExecutionConfig()
        if metrics is not None and sampling is not None:
            from repro.common.errors import ConfigurationError
            raise ConfigurationError(
                "metrics= requires full-detail cells; drop sampling= or "
                "collect metrics from a separate full run")
        models = {label: params.iq.kind for label, params in self._configs}
        if surrogate:
            if sampling is not None or metrics is not None:
                from repro.common.errors import ConfigurationError
                raise ConfigurationError(
                    "surrogate pruning requires plain full-detail cells; "
                    "drop sampling=/metrics= or run without surrogate=")
            from repro.harness.surrogate import prune_and_run
            cells = [(workload, label, params)
                     for workload in self.workloads
                     for label, params in self._configs]
            outcome = prune_and_run(cells,
                                    max_instructions=self.max_instructions,
                                    execution=execution,
                                    progress=self.progress)
            results = {workload: {} for workload in self.workloads}
            for (workload, label), result in outcome.results.items():
                results[workload][label] = result
            return SweepGrid(self.workloads,
                             [label for label, _ in self._configs],
                             results, metric, models=models,
                             surrogate_cells=set(outcome.pruned))
        import dataclasses as _dataclasses

        from repro.fabric import Executor, raise_on_errors
        executor = Executor(_dataclasses.replace(
            execution, jobs=execution.resolve_jobs(1)))
        if sampling is not None:
            from repro.sampling.sampler import (SampledRunSpec,
                                                run_sampled_cell)
            sampled_specs = [
                SampledRunSpec(workload, params, config_label=label,
                               sampling=sampling, scale=sampling_scale,
                               max_instructions=self.max_instructions)
                for workload in self.workloads
                for label, params in self._configs]
            if self.progress is not None:
                for spec in sampled_specs:
                    self.progress(
                        f"{spec.workload}/{spec.config_label} (sampled)")
            cells = executor.map(
                run_sampled_cell, sampled_specs,
                labels=[f"{s.workload}/{s.config_label}"
                        for s in sampled_specs])
            raise_on_errors(cells, "sampled sweep")
            specs = sampled_specs
        else:
            from repro.fabric import RunSpec
            specs = [RunSpec(workload, params, config_label=label,
                             max_instructions=self.max_instructions,
                             metrics=metrics)
                     for workload in self.workloads
                     for label, params in self._configs]
            if self.progress is not None:
                for spec in specs:
                    self.progress(f"{spec.workload}/{spec.config_label}")
            cells = executor.run_specs(specs)
            raise_on_errors(cells, "sweep")
        results: Dict[str, Dict[str, RunResult]] = {
            workload: {} for workload in self.workloads}
        for spec, cell in zip(specs, cells):
            results[spec.workload][spec.config_label] = cell
        return SweepGrid(self.workloads,
                         [label for label, _ in self._configs],
                         results, metric, models=models)
