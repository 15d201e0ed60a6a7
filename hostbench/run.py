"""The repository benchmark: host-time cost of the simulator's user paths.

Usage (from the repository root)::

    python3 hostbench/run.py --workload cell-seg --seed 1 --seconds 25 \
        --trace 0

Workloads (see ``hostbench/README.md`` for why each exists):

* ``cell-seg``    — serial ``api.run`` of the segmented IQ on FP analogs;
* ``cell-ideal``  — the same driver, ideal IQ on integer analogs;
* ``sweep``       — overlapping grids through ``Sweep.run`` on a pool;
* ``service-mix`` — a closed-loop job stream through ``SimulationService``.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced passes over the same inputs,
prints the per-layer table, checks that every wrapper fired and writes a
Chrome trace to ``.hostbench/trace-<workload>.json``.  Both modes check
every answer against ``hostbench/expected.json`` and print one JSON
object as the last line; the exit code is nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import sysconfig
from pathlib import Path
from time import perf_counter

import pools

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD_SCRIPT = SRC / "repro" / "core" / "segmented" / "build.py"
WORK = ROOT / ".hostbench"

#: Environment knobs that would change the measured program.
PINNED_ENV = ("REPRO_KERNELS", "REPRO_JOBS")
#: String hashing is randomised per process, which moves dict layouts and
#: with them the simulator's speed by a few percent from one process to
#: the next; the benchmark runs with this fixed seed instead.
HASH_SEED = "0"
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

END_TO_END = {                   # name -> unit
    "setup_s": "s",
    "kinsts_per_s": "kinst/s",
    "cells_per_s": "cells/s",
    "jobs_per_s": "jobs/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_rss_mb": "MB",
    "error_rate": "fraction",
}
#: Printed but not reported in the JSON line: it is 0 when the run is
#: correct, and the line's ``attempted``/``failed`` already carry it.
PRINT_ONLY = ("error_rate",)

# ensure_built runs in a helper interpreter so the compiler stays out of
# this process's child rusage (which ``peak_rss_mb`` reads).
_BUILD_HELPER = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("kernel_build", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(module.ensure_built() or "")
"""
# A set-up's imports, timed in a fresh interpreter so every repeat pays
# them (this process imports once).
_IMPORT_HELPER = """
import time
began = time.perf_counter()
import drivers
print(time.perf_counter() - began)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=pools.WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path,
                        default=HERE / "expected.json",
                        help="recorded outcomes to check against")
    return parser.parse_args(argv)


def ensure_built() -> str:
    done = subprocess.run([sys.executable, "-c", _BUILD_HELPER,
                           str(BUILD_SCRIPT)],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def fresh_import_s() -> float:
    done = subprocess.run([sys.executable, "-c", _IMPORT_HELPER],
                          capture_output=True, text=True, check=True)
    return float(done.stdout.split()[-1])


def quantile(values, q: float, grid: int = 2000) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A beta-weighted mean of all order statistics instead of one or two of
    them: a run's requests come from a few size classes, and a plain
    percentile jumps between classes as the number of passes changes.
    The beta(q(n+1), (1-q)(n+1)) CDF is integrated numerically.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    step = 1.0 / grid
    density = [0.0] + [
        math.exp((a - 1) * math.log(k * step)
                 + (b - 1) * math.log1p(-k * step) - log_beta)
        for k in range(1, grid)] + [0.0]
    cdf = [0.0]
    for k in range(1, grid + 1):
        cdf.append(cdf[-1] + (density[k - 1] + density[k]) * step / 2)

    def beta_cdf(x: float) -> float:
        k = min(int(x * grid), grid - 1)
        return (cdf[k] + (cdf[k + 1] - cdf[k]) * (x * grid - k)) / cdf[-1]

    return sum((beta_cdf(i / n) - beta_cdf((i - 1) / n)) * value
               for i, value in enumerate(ordered, 1))


# ------------------------------------------------------------ per layer --
FRONTEND = ("frontend.cycle", "frontend.branch_resolved",
            "frontend.next_event_cycle", "frontend.skip_cycles")
IQ_ADMIT = ("core.iq.can_dispatch", "core.iq.dispatch")
IQ_SKIP = ("core.iq.next_event_cycle", "core.iq.skip_cycles",
           "core.iq.skip_blocked_dispatch", "core.iq.blocked_dispatch_wake")
IQ_ALL = IQ_ADMIT + IQ_SKIP + ("core.iq.select_issue", "core.iq.cycle",
                               "core.iq.on_writeback")
LSQ = ("pipeline.lsq.cycle", "pipeline.lsq.dispatch", "pipeline.lsq.commit",
       "pipeline.lsq.address_ready")
MEMORY = ("memory.l1i.touch", "memory.l1i.access", "memory.l1d.access",
          "memory.l2.access_line")
CACHE = ("harness.cache.get", "harness.cache.put")
FABRIC_WAIT = ("fabric.poll", "fabric.result", "fabric.idle",
               "harness.sweep")
SERVICE = ("service.submit", "service.step", "service.journal.append",
           "service.journal.submitted")
HOST_WORK = CACHE + SERVICE + ("fabric.submit", "fabric.journal.record")

#: Wrappers that must fire at least once per workload (a layer reading 0
#: means a call moved).  Wrapped-but-optional: the rare skip-probe hooks
#: and the I-cache miss path (code is pre-warmed).
REQUIRED = {
    "cell": (("workloads.build", "isa.stream", "pipeline.run") + FRONTEND
             + IQ_ADMIT + ("core.iq.next_event_cycle", "core.iq.skip_cycles",
                           "core.iq.select_issue", "core.iq.cycle",
                           "core.iq.on_writeback")
             + LSQ + ("memory.l1i.touch", "memory.l1d.access",
                      "memory.l2.access_line")),
    "sweep": CACHE + ("harness.sweep", "fabric.submit", "fabric.poll",
                      "fabric.result", "fabric.journal.record"),
    "service-mix": CACHE + SERVICE + ("fabric.submit", "fabric.poll",
                                      "fabric.result"),
}

PER_LAYER_UNITS = {
    "workloads.build_s": "s", "isa.stream_s": "s", "isa.stream_calls": "count",
    "frontend.self_s": "s", "frontend.calls": "count",
    "frontend.mispredicts": "count",
    "core.iq.admit_s": "s", "core.iq.admit_calls": "count",
    "core.iq.admit_refused": "count",
    "core.iq.select_s": "s", "core.iq.select_calls": "count",
    "core.iq.issued_per_select": "inst/call",
    "core.iq.maintain_s": "s", "core.iq.maintain_calls": "count",
    "core.iq.promotions": "count",
    "core.iq.wakeup_s": "s", "core.iq.skip_s": "s",
    "pipeline.lsq_s": "s", "pipeline.lsq_calls": "count",
    "memory.access_s": "s", "memory.access_calls": "count",
    "memory.l1d_miss_ratio": "fraction",
    "pipeline.self_s": "s", "pipeline.ns_per_inst": "ns/inst",
    "pipeline.skip_ratio": "fraction",
    "harness.cache.get_s": "s", "harness.cache.get_calls": "count",
    "harness.cache.hit_ratio": "fraction", "harness.cache.put_s": "s",
    "harness.cache.put_calls": "count",
    "fabric.submit_s": "s", "fabric.submit_calls": "count",
    "fabric.wait_s": "s",
    "fabric.journal_s": "s", "fabric.journal_calls": "count",
    "service.submit_s": "s", "service.step_s": "s",
    "service.journal_s": "s", "service.journal_calls": "count",
    "service.queue_wait_s_p50": "s", "service.queue_wait_s_p90": "s",
    "service.run_s_p50": "s", "service.dedupe_ratio": "fraction",
    "trace.overhead": "fraction", "trace.core_iq_share": "fraction",
    "trace.host_layers_share": "fraction",
}


def layer_metrics(tracer, passes: int, wall_untraced: float,
                  wall_traced: float, traced_jobs) -> dict:
    """Per-layer figures of the traced passes, averaged per pass."""
    def s(*names):
        return tracer.self_s(*names) / passes

    def calls(*names):
        return tracer.calls_of(*names) / passes

    def ratio(part, whole):
        return part / whole if whole else 0.0

    counts = tracer.counts
    executed = [job for job in traced_jobs if job.started_at is not None]
    waits = [job.started_at - job.submitted_at for job in executed]
    runs = [job.finished_at - job.started_at for job in executed
            if job.finished_at is not None]
    deduped = sum(job.dedupe in ("cache", "inflight") for job in traced_jobs)
    return {
        "workloads.build_s": s("workloads.build"),
        "isa.stream_s": s("isa.stream"),
        "isa.stream_calls": calls("isa.stream"),
        "frontend.self_s": s(*FRONTEND),
        "frontend.calls": calls(*FRONTEND),
        "frontend.mispredicts": calls("frontend.branch_resolved"),
        "core.iq.admit_s": s(*IQ_ADMIT),
        "core.iq.admit_calls": calls(*IQ_ADMIT),
        "core.iq.admit_refused": counts["core.iq.admit_refused"] / passes,
        "core.iq.select_s": s("core.iq.select_issue"),
        "core.iq.select_calls": calls("core.iq.select_issue"),
        "core.iq.issued_per_select": ratio(
            counts["core.iq.issued"], tracer.calls_of("core.iq.select_issue")),
        "core.iq.maintain_s": s("core.iq.cycle"),
        "core.iq.maintain_calls": calls("core.iq.cycle"),
        "core.iq.promotions": counts["stats.promotions"] / passes,
        "core.iq.wakeup_s": s("core.iq.on_writeback"),
        "core.iq.skip_s": s(*IQ_SKIP),
        "pipeline.lsq_s": s(*LSQ),
        "pipeline.lsq_calls": calls(*LSQ),
        "memory.access_s": s(*MEMORY),
        "memory.access_calls": calls(*MEMORY),
        "memory.l1d_miss_ratio": ratio(counts["stats.l1d_misses"],
                                       counts["stats.l1d_accesses"]),
        "pipeline.self_s": s("pipeline.run"),
        "pipeline.ns_per_inst": ratio(tracer.self_ns.get("pipeline.run", 0),
                                      counts["stats.committed"]),
        "pipeline.skip_ratio": ratio(counts["stats.skipped"],
                                     counts["stats.cycles"]),
        "harness.cache.get_s": s("harness.cache.get"),
        "harness.cache.get_calls": calls("harness.cache.get"),
        "harness.cache.hit_ratio": ratio(
            counts["harness.cache.hits"],
            tracer.calls_of("harness.cache.get")),
        "harness.cache.put_s": s("harness.cache.put"),
        "harness.cache.put_calls": calls("harness.cache.put"),
        "fabric.submit_s": s("fabric.submit"),
        "fabric.submit_calls": calls("fabric.submit"),
        "fabric.wait_s": s(*FABRIC_WAIT),
        "fabric.journal_s": s("fabric.journal.record"),
        "fabric.journal_calls": calls("fabric.journal.record"),
        "service.submit_s": s("service.submit"),
        "service.step_s": s("service.step"),
        "service.journal_s": s("service.journal.append",
                               "service.journal.submitted"),
        # ``submitted`` writes through ``append``: count lines once.
        "service.journal_calls": calls("service.journal.append"),
        "service.queue_wait_s_p50": quantile(waits, 0.5) if waits else 0.0,
        "service.queue_wait_s_p90": quantile(waits, 0.9) if waits else 0.0,
        "service.run_s_p50": quantile(runs, 0.5) if runs else 0.0,
        "service.dedupe_ratio": ratio(deduped, len(traced_jobs)),
        "trace.overhead": ratio(wall_traced, wall_untraced) - 1.0,
        "trace.core_iq_share": ratio(tracer.self_s(*IQ_ALL), wall_traced),
        "trace.host_layers_share": ratio(tracer.self_s(*HOST_WORK),
                                         wall_traced),
    }


# ----------------------------------------------------------------- runs --
def set_up(args):
    """Pin the environment, build kernels, import, set up the driver
    ``SETUP_REPEATS`` times; returns (driver, gate, setup info)."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    # Worker and helper interpreters import the same source tree.
    os.environ["PYTHONPATH"] = os.pathsep.join([str(HERE), str(SRC)])

    # One set-up: build the kernels, import, then the driver's own part
    # (programs, a warm cell, worker pool or service).
    began = perf_counter()
    ensure_built()
    build_s = perf_counter() - began
    import drivers
    from hostprobe import corrected, probe
    from repro.core.segmented import backend

    expected = json.loads(args.expected.read_text())
    gate = drivers.Gate(expected["cells"])
    workers = min(2, os.cpu_count() or 1)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    driver = drivers.make_driver(args.workload, gate, workdir, workers)
    repeats = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            driver.teardown()
            began = perf_counter()
            ensure_built()
            build_s = perf_counter() - began
        import_s = fresh_import_s()
        began = perf_counter()
        driver.setup()
        repeats.append(corrected(build_s + import_s + perf_counter() - began,
                                 probe(3)))

    kernels = backend()
    compiler = shutil.which(
        shlex.split(sysconfig.get_config_var("CC") or "cc")[0])
    if compiler and kernels != "compiled":
        gate.fail(f"kernel backend is {kernels!r} although {compiler} "
                  f"is present")
    info = {"setup_s": statistics.median(repeats),
            "setup_repeats_s": repeats,
            "kernels": kernels, "workers": driver.workers,
            "workdir": workdir, "drivers": drivers}
    return driver, gate, info


def _out_of_time(began: float, last_pass: float, seconds: float) -> bool:
    """True when another pass like the last would overrun ``seconds``."""
    return perf_counter() - began + last_pass > seconds


def measure(driver, gate, args):
    """Whole passes (checked and collected between, not within, the timed
    parts) for about ``--seconds``."""
    rng = random.Random(args.seed)
    passes = []
    began = perf_counter()
    while True:
        started = perf_counter()
        result = driver.run_pass(driver.plan(rng))
        for cell, outcome in result.outcomes:
            gate.check(cell, outcome)
        passes.append(result)
        gc.collect()
        if _out_of_time(began, perf_counter() - started, args.seconds):
            return passes


def measure_traced(driver, gate, args, tracer):
    """Pairs of untraced and traced passes over the same inputs, order
    alternating; returns (pairs, untraced wall, traced wall).  The walls
    are raw, like the span times they are compared with."""
    rng = random.Random(args.seed)
    pairs = 0
    walls = [0.0, 0.0]
    began = perf_counter()
    while True:
        started = perf_counter()
        plan = driver.plan(rng)
        results = [None, None]
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            results[traced] = driver.run_pass(
                plan, tracer if traced else None)
            walls[traced] += results[traced].raw_seconds
            gc.collect()
        untraced = dict(results[0].outcomes)
        for cell, outcome in results[1].outcomes:
            gate.check(cell, outcome)
            gate.same(f"{cell.id} traced", untraced.get(cell), outcome)
        for cell, outcome in results[0].outcomes:
            gate.check(cell, outcome)
        pairs += 1
        if _out_of_time(began, perf_counter() - started, args.seconds):
            return pairs, walls[0], walls[1]


def peak_rss_mb(live_children_kb: int) -> tuple:
    """(benchmark process, largest child) peak RSS in MB.  Live pool
    workers are read before tear-down; exited children (service jobs)
    through the rusage of reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024, max(live_children_kb, reaped) / 1024


def end_to_end(passes, setup_s: float, rss: tuple, gate) -> dict:
    """The end-to-end metrics; rates and latencies pool every pass."""
    seconds = sum(result.seconds for result in passes)
    latencies = [value for result in passes for value in result.latencies]
    return {
        "setup_s": setup_s,
        "kinsts_per_s": sum(r.instructions for r in passes) / seconds / 1e3,
        "cells_per_s": sum(r.cells for r in passes) / seconds,
        "jobs_per_s": sum(r.jobs for r in passes) / seconds,
        "job_s_p50": quantile(latencies, 0.5),
        "job_s_p90": quantile(latencies, 0.9),
        "peak_rss_mb": max(rss),
        "error_rate": gate.failed / max(1, gate.attempted),
    }


def print_table(title: str, rows) -> None:
    print(f"\n{title}")
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def run_all(args) -> int:
    """Every workload in turn, one child process each, reports printed as
    they finish; the last line sums their checks and keys each metric
    ``<workload>/<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in pools.WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--expected", str(args.expected)],
            capture_output=True, text=True)
        sys.stdout.write(done.stdout + "\n")
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            total["correct"] = False
            total["attempted"] += 1
            total["failed"] += 1
            continue
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not BUILD_SCRIPT.is_file():
        print(f"hostbench: no simulator source at {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    driver, gate, info = set_up(args)
    drivers = info["drivers"]
    tracer = None
    try:
        if args.trace:
            from spans import SpanTracer
            tracer = SpanTracer()
            pairs, wall_untraced, wall_traced = measure_traced(
                driver, gate, args, tracer)
        else:
            passes = measure(driver, gate, args)
        live_children_kb = drivers.live_children_peak_kb()
    finally:
        driver.teardown()
        drivers.reap_children()
        shutil.rmtree(info["workdir"], ignore_errors=True)
    for command in drivers.stop_stray_children():
        gate.fail(f"process left running after tear-down: {command}")
    rss = peak_rss_mb(live_children_kb)
    if args.trace:
        family = "cell" if args.workload.startswith("cell") else args.workload
        for name in REQUIRED[family]:
            if not tracer.calls.get(name):
                gate.fail(f"wrapper {name} never fired: a call moved")

    print(f"hostbench {args.workload}: seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"  host: nproc {os.cpu_count()}, workers {info['workers']}, "
          f"python {platform.python_version()}, kernels {info['kernels']}, "
          f"poll interval {drivers.POLL_INTERVAL * 1e3:g} ms, "
          f"PYTHONHASHSEED {HASH_SEED}")
    print("  set-up: median of " + ", ".join(
        f"{value:.3f}" for value in info["setup_repeats_s"]) + " s")
    print(f"  checks: {gate.attempted} attempted, {gate.failed} failed")
    for problem in gate.problems[:20]:
        print(f"  FAILED: {problem}")

    if not args.trace:
        metrics = end_to_end(passes, info["setup_s"], rss, gate)
        requests = sum(len(result.latencies) for result in passes)
        raw = sum(result.raw_seconds for result in passes)
        print(f"  passes {len(passes)}, request latency samples "
              f"{requests}, peak RSS: benchmark {rss[0]:.1f} MB, largest "
              f"child {rss[1]:.1f} MB")
        print(f"  host-speed correction: {raw:.3f} s measured wall time "
              f"counts as {sum(r.seconds for r in passes):.3f} s at the "
              f"nominal probe speed")
        print_table("end-to-end (tracing off; host wall time, "
                    "probe-corrected)",
                    [(name, metrics[name], unit)
                     for name, unit in END_TO_END.items()])
        reported = {name: metrics[name] for name in END_TO_END
                    if name not in PRINT_ONLY}
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, pairs, wall_untraced, wall_traced,
                                getattr(driver, "traced_jobs", []))
        print(f"  traced pairs {pairs}: untraced {wall_untraced:.3f} s, "
              f"traced {wall_traced:.3f} s")
        print_table("per layer (traced run, per pass, self time)",
                    [(name, metrics[name], unit)
                     for name, unit in PER_LAYER_UNITS.items()])
        print_table("wrapped calls (all traced passes)",
                    [(name, tracer.calls[name], "calls")
                     for name in sorted(tracer.calls)])
        print("\ncompiled layers (cannot be wrapped; where their time lands):")
        for name, lands in driver.compiled or [
                ("none in this process", "cells run in worker processes; "
                 "per-layer time inside a cell is measured by cell-seg and "
                 "cell-ideal")]:
            print(f"  {name}: {lands}")
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}.json"
        tracer.write_chrome(str(trace_path), {
            "workload": args.workload, "seed": args.seed})
        print(f"\nChrome trace: {trace_path} ({len(tracer.spans)} spans kept, "
              f"{tracer.dropped} dropped)")
        reported = metrics
        units = PER_LAYER_UNITS

    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
