"""Experiment harness: configurations, the runner, and report rendering."""

from repro.fabric import CellError, RunSpec
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.harness.energy import (EnergyModel, energy_per_instruction,
                                  format_breakdown)
from repro.harness.experiments import EXPERIMENTS, Experiment
from repro.harness.trace import (render_pipeline_trace, segment_heatmap,
                                 stage_latency_summary)
from repro.harness.reporting import (ascii_series_plot, figure2_report,
                                     format_table, geometric_mean,
                                     relative_performance, table2_report)
from repro.harness.runner import RunResult, resolve_workload
from repro.harness.sweep import Sweep, SweepGrid

__all__ = [
    "CellError", "EXPERIMENTS", "EnergyModel", "Experiment",
    "ResultCache", "RunResult", "RunSpec",
    "ascii_series_plot", "configs", "energy_per_instruction",
    "figure2_report", "format_breakdown", "render_pipeline_trace",
    "segment_heatmap", "stage_latency_summary",
    "format_table", "geometric_mean", "relative_performance",
    "resolve_workload", "Sweep", "SweepGrid",
    "table2_report",
]
