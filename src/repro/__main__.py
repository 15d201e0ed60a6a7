"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``    — show the benchmark analogs and their characters
* ``run``     — simulate one benchmark under one configuration
* ``sample``  — checkpoint-based interval sampling (docs/sampling.md)
* ``sweep``   — IPC-vs-IQ-size curves (Figure 3 style) for one benchmark
* ``disasm``  — print a benchmark kernel's assembly listing
* ``trace``   — structured event trace: pipeline diagram, Chrome
  ``trace_event`` JSON, or JSONL (docs/observability.md)
* ``segments`` — segment-occupancy heatmap from the metrics sampler
* ``validate`` — differential-oracle fuzzing campaign (docs/validation.md)
* ``surrogate`` — analytical-IPC surrogate validation report: predicted
  vs simulated IPC over the bench grid (docs/models.md)
* ``bench``   — simulator throughput + sweep scaling (docs/performance.md)
* ``serve``   — start the simulation job service (docs/service.md)
* ``submit`` / ``status`` / ``cancel`` / ``fetch`` — job-service client:
  submit run/sample/surrogate/sweep jobs to a served instance, poll or
  stream their progress, cancel them, download results and trace
  artifacts

Every simulation command accepts the same common flags — ``--backend
SPEC`` (execution backend: ``local-process`` or ``ssh:hosta,hostb``;
see docs/fabric.md), ``--jobs N`` (worker fan-out
where the command has independent cells), ``--no-cache`` (skip the
on-disk result/checkpoint cache), ``--progress SECONDS`` (heartbeat on
stderr), and ``--json PATH`` (machine-readable artifact alongside the
rendered report) — via shared argparse parent parsers, and routes
simulations through :func:`repro.api.run`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from repro.core.registry import registered_models
from repro.harness import ascii_series_plot, configs
from repro.workloads import WORKLOADS

#: Every registered IQ design (repro.core.registry); a newly registered
#: model becomes a ``--iq`` choice automatically.
IQ_KINDS = list(registered_models())


def _common_parent() -> argparse.ArgumentParser:
    """Flags every simulation command accepts uniformly."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("common options")
    group.add_argument("--backend", default="local-process", metavar="SPEC",
                       help="execution backend for independent cells: "
                            "local-process (default) or ssh:host1,host2 "
                            "(see docs/fabric.md)")
    group.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="concurrent workers for independent cells "
                            "(default: serial; bench defaults to all cores)")
    group.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk result/checkpoint cache")
    group.add_argument("--progress", type=float, default=0.0,
                       metavar="SECONDS",
                       help="print a heartbeat to stderr every N seconds")
    group.add_argument("--json", default="", metavar="PATH",
                       help="also write machine-readable data to this file")
    group.add_argument("--kernels", default="", metavar="BACKEND",
                       choices=["", "auto", "py", "compiled"],
                       help="segmented-IQ kernel backend: 'py' forces the "
                            "pure-Python engine, 'compiled' requires the C "
                            "extension, 'auto' (default) prefers compiled "
                            "when built (see docs/performance.md)")
    return parent


def _config_parent() -> argparse.ArgumentParser:
    """Processor-configuration flags shared by run/sample/trace."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("configuration options")
    group.add_argument("--iq", default="segmented", choices=IQ_KINDS)
    group.add_argument("--size", type=int, default=512)
    group.add_argument("--segment-size", type=int, default=32)
    group.add_argument("--chains", default="128",
                       help="chain wires, or 'unlimited'")
    group.add_argument("--variant", default="comb",
                       choices=["base", "hmp", "lrp", "comb"])
    group.add_argument("--instructions", type=int, default=None,
                       help="instruction budget override")
    group.add_argument("--no-skip", action="store_true",
                       help="disable event-driven cycle skipping (results "
                            "are bit-identical either way; this forces the "
                            "plain one-step-per-cycle loop)")
    return parent


def _parse_chains(value: str):
    return None if value in ("unlimited", "none") else int(value)


def _params_from_args(args) -> "ProcessorParams":
    if args.iq == "ideal":
        params = configs.ideal(args.size)
    elif args.iq == "segmented":
        params = configs.segmented(args.size, _parse_chains(args.chains),
                                   args.variant,
                                   segment_size=args.segment_size)
    elif args.iq == "prescheduled":
        params = configs.prescheduled(max(1, (args.size - 32) // 12))
    elif args.iq == "distance":
        params = configs.distance(max(1, (args.size - 32) // 12))
    elif args.iq == "fifo":
        params = configs.fifo(args.size, depth=args.segment_size)
    elif args.iq == "delay_tracking":
        params = configs.delay_tracking(args.size)
    else:
        # A registered kind without a CLI mapping: build it from its
        # registry validation config, resized to --size.
        from repro.core.registry import get_model
        params = get_model(args.iq).validation_config()
        params = params.replace(
            iq=dataclasses.replace(params.iq, size=args.size))
    if getattr(args, "no_skip", False):
        params = params.replace(event_driven=False)
    return params


def _make_cache(args):
    """On-disk result cache unless ``--no-cache`` was given."""
    if getattr(args, "no_cache", False):
        return None
    from repro.harness.cache import ResultCache
    return ResultCache()


def _jobs(args, default: int = 1) -> int:
    return default if args.jobs is None else args.jobs


def _execution(args, default_jobs: int = 1, journal=None):
    """An :class:`ExecutionConfig` from the shared CLI flags."""
    from repro.fabric import ExecutionConfig
    return ExecutionConfig(backend=getattr(args, "backend", "local-process"),
                           jobs=_jobs(args, default_jobs),
                           cache=_make_cache(args), journal=journal)


def _write_json(path: str, data) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True, default=str)
    print(f"\nraw data written to {path}", file=sys.stderr)


def _heartbeat(tick) -> None:
    """Progress line for long runs (``--progress N``)."""
    print(f"  [{tick.elapsed_seconds:6.1f}s] cycle {tick.cycle:>9,}  "
          f"committed {tick.committed:>9,}  "
          f"{tick.kcycles_per_sec:6.1f} kcycles/s", file=sys.stderr)


def cmd_list(_args) -> int:
    width = max(len(name) for name in WORKLOADS)
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        group = "FP " if spec.is_fp else "INT"
        print(f"{name:<{width}}  [{group}]  ~{spec.default_instructions:>6} "
              f"insts  {spec.description}")
    return 0


def cmd_run(args) -> int:
    from repro import api

    params = _params_from_args(args)
    if args.check_invariants:
        params = params.replace(check_invariants=True)
    from repro.fabric import ExecutionConfig
    result = api.run(params, args.workload,
                     config_label=args.iq,
                     max_instructions=args.instructions,
                     execution=ExecutionConfig(cache=_make_cache(args)),
                     progress=_heartbeat if args.progress else None,
                     progress_interval=args.progress or 5.0)
    print(result)
    stats = result.stats
    print(f"  branch accuracy : {100 * result.branch_accuracy:.1f}%")
    loads = stats.get("lsq.loads", 0)
    if loads:
        delayed = stats.get("l1d.delayed_hits", 0)
        misses = stats.get("l1d.misses", 0)
        print(f"  loads           : {loads:.0f} "
              f"({misses:.0f} misses, {delayed:.0f} delayed hits)")
    if args.iq == "segmented":
        print(f"  chains          : avg {result.chains_avg:.1f}, "
              f"peak {result.chains_peak:.0f}")
        print(f"  promotions      : {stats.get('iq.promotions', 0):.0f} "
              f"(+{stats.get('iq.pushdowns', 0):.0f} pushdowns)")
        print(f"  deadlock events : "
              f"{stats.get('iq.deadlock_recoveries', 0):.0f}")
    if args.stats:
        for key in sorted(stats):
            print(f"  {key:<40} {stats[key]:.3f}")
    if args.json:
        _write_json(args.json, dataclasses.asdict(result))
    return 0


def cmd_sample(args) -> int:
    import time

    from repro import api
    from repro.sampling import (CheckpointStore, SamplingConfig,
                                sample_workload)

    params = _params_from_args(args)
    sampling = SamplingConfig(num_windows=args.windows,
                              warmup_instructions=args.warmup,
                              measure_instructions=args.measure,
                              seed=args.seed)
    store = None if args.no_cache else CheckpointStore()
    started = time.perf_counter()
    report = sample_workload(
        args.workload, params, sampling, config_label=args.iq,
        scale=args.scale, max_instructions=args.instructions,
        jobs=_jobs(args), store=store,
        progress=lambda line: print(f"  {line}...", file=sys.stderr))
    sampled_seconds = time.perf_counter() - started
    print(f"{report.workload} [{report.config}]  "
          f"sampled IPC {report.ipc_estimate:.3f}  "
          f"({report.confidence:.0%} CI "
          f"[{report.ipc_ci_low:.3f}, {report.ipc_ci_high:.3f}], "
          f"{report.estimator} estimator)")
    print(f"  windows  : {len(report.windows)} x "
          f"{sampling.measure_instructions} insts measured "
          f"(+{sampling.warmup_instructions} warmup each), "
          f"{report.dropped_windows} dropped")
    print(f"  detail   : {report.detailed_instructions:,} of "
          f"{report.total_instructions:,} insts "
          f"({100 * report.detail_fraction:.1f}%), "
          f"{report.detailed_cycles:,} detailed cycles, "
          f"{sampled_seconds:.1f}s wall")
    data = report.to_dict()
    data["sampled_seconds"] = round(sampled_seconds, 3)
    if args.compare_full:
        started = time.perf_counter()
        full = api.run(params, args.workload, config_label=args.iq,
                       scale=args.scale,
                       max_instructions=args.instructions)
        full_seconds = time.perf_counter() - started
        error = ((report.ipc_estimate - full.ipc) / full.ipc
                 if full.ipc else 0.0)
        ratio = (full.cycles / report.detailed_cycles
                 if report.detailed_cycles else 0.0)
        print(f"  full     : IPC {full.ipc:.3f} in {full_seconds:.1f}s — "
              f"sampled error {100 * error:+.2f}%, "
              f"{ratio:.1f}x fewer detailed cycles")
        data["compare_full"] = {
            "full_ipc": full.ipc, "full_cycles": full.cycles,
            "full_seconds": round(full_seconds, 3),
            "ipc_error": error, "detail_cycle_ratio": ratio}
    if args.json:
        _write_json(args.json, data)
    return 0


def cmd_sweep(args) -> int:
    from repro.fabric import Executor, RunSpec, raise_on_errors

    sizes = [int(s) for s in args.sizes.split(",")]
    factories = [
        ("ideal", configs.ideal),
        ("segmented-128ch",
         lambda size: configs.segmented(size, 128, "comb")),
        ("segmented-64ch",
         lambda size: configs.segmented(size, 64, "comb"))]
    specs = [RunSpec(args.workload, factory(size),
                     config_label=f"{label}@{size}",
                     max_instructions=args.instructions)
             for label, factory in factories for size in sizes]
    executor = Executor(_execution(args, journal=args.journal or None))
    cells = executor.run_specs(specs)
    raise_on_errors(cells, "sweep")
    series = {label: {} for label, _ in factories}
    for spec, result in zip(specs, cells):
        label, size = spec.config_label.rsplit("@", 1)
        series[label][int(size)] = result.ipc
        print(f"  {label} @{size}: IPC={result.ipc:.3f}", file=sys.stderr)
    print(ascii_series_plot(series,
                            title=f"IPC vs IQ size — {args.workload}"))
    if args.json:
        _write_json(args.json, series)
    return 0


def cmd_disasm(args) -> int:
    program = WORKLOADS[args.workload].build(1)
    print(program.disassemble())
    return 0


def cmd_trace(args) -> int:
    from repro import api
    from repro.harness.trace import (render_pipeline_trace, segment_heatmap,
                                     stage_latency_summary)
    from repro.obs import (MetricsCollector, RingBufferTracer, chrome_trace,
                           dump_jsonl)

    params = _params_from_args(args)
    tracer = RingBufferTracer()
    collector = MetricsCollector(args.interval)
    budget = args.instructions if args.instructions is not None else 2000
    result = api.run(params, args.workload, config_label=args.iq,
                     max_instructions=budget,
                     trace=tracer, metrics=collector,
                     progress=_heartbeat if args.progress else None,
                     progress_interval=args.progress or 5.0)
    events = tracer.events
    report = collector.to_dict()
    if args.format == "ascii":
        print(render_pipeline_trace(events, start_seq=args.start,
                                    count=args.count))
        print()
        print(stage_latency_summary(events))
        samples = collector.segment_samples()
        if samples:
            print(f"\nsegment occupancy — {args.workload} "
                  f"(IPC {result.ipc:.2f})")
            print(segment_heatmap(samples, params.iq.segment_size))
    else:
        out = args.out or ("trace.jsonl" if args.format == "jsonl"
                           else "trace.json")
        if args.format == "jsonl":
            with open(out, "w") as handle:
                handle.write(dump_jsonl(events))
        else:
            with open(out, "w") as handle:
                json.dump(chrome_trace(events, metrics=report), handle)
        print(f"{len(events)} events over {result.cycles} cycles "
              f"(IPC {result.ipc:.2f}) written to {out}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(chrome_trace(events, metrics=report), handle)
        print(f"\nchrome trace written to {args.json}", file=sys.stderr)
    return 0


def cmd_segments(args) -> int:
    from repro import api
    from repro.harness.trace import segment_heatmap
    from repro.obs import MetricsCollector

    params = configs.segmented(args.size, _parse_chains(args.chains),
                               args.variant)
    collector = MetricsCollector(args.interval)
    result = api.run(params, args.workload, config_label="segmented",
                     max_instructions=args.instructions, metrics=collector,
                     progress=_heartbeat if args.progress else None,
                     progress_interval=args.progress or 5.0)
    print(f"segment occupancy over time — {args.workload} "
          f"(IPC {result.ipc:.2f})\n")
    print(segment_heatmap(collector.segment_samples(),
                          params.iq.segment_size))
    if args.json:
        _write_json(args.json, collector.to_dict())
    return 0


def cmd_reproduce(args) -> int:
    from repro.harness.experiments import EXPERIMENTS, save_data

    experiment = EXPERIMENTS[args.experiment]
    workloads = (args.workloads.split(",") if args.workloads else None)
    report, data = experiment.run(
        workloads=workloads, budget_factor=args.budget,
        execution=_execution(args),
        progress=lambda label: print(f"  running {label}...",
                                     file=sys.stderr))
    print(report)
    if args.json:
        save_data(data, args.json)
        print(f"\nraw data written to {args.json}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    from repro.common.errors import ConfigurationError
    from repro.validation import FuzzProfile, run_campaign, validation_models

    profile = FuzzProfile(
        length=args.length, loop_iterations=args.iterations,
        chain_bias=args.chain_bias, miss_bias=args.miss_bias)
    try:
        profile.validate()
    except ConfigurationError as exc:
        raise SystemExit(f"bad fuzz profile: {exc}")
    models = validation_models()
    if args.models:
        wanted = args.models.split(",")
        unknown = [name for name in wanted if name not in models]
        if unknown:
            raise SystemExit(f"unknown model(s) {','.join(unknown)}; "
                             f"known: {','.join(models)}")
        models = {name: models[name] for name in wanted}
    report = run_campaign(
        seed=args.seed, num_programs=args.programs, profile=profile,
        models=models, check_invariants=not args.no_invariants,
        shrink=not args.no_shrink, jobs=_jobs(args),
        progress=(lambda line: print(f"  {line}", file=sys.stderr))
        if args.verbose else None)
    print(report.summary())
    if args.json:
        _write_json(args.json, {"ok": report.ok,
                                "summary": report.summary()})
    return 0


def cmd_surrogate(args) -> int:
    """Score the analytical surrogate against full-detail simulation."""
    from repro.harness.surrogate import (default_grid, render_report,
                                         validation_report)
    if args.workloads:
        workloads = args.workloads.split(",")
    elif args.quick:
        workloads = ["gcc", "swim"]
    else:
        workloads = sorted(WORKLOADS)
    budget = args.instructions
    if budget is None:
        budget = 8_000 if args.quick else 20_000
    report = validation_report(
        workloads, default_grid(), max_instructions=budget,
        execution=_execution(args),
        progress=(lambda line: print(f"  {line}...", file=sys.stderr))
        if args.progress else None)
    print(render_report(report))
    if args.json:
        _write_json(args.json, report)
    return 0 if report["within_bound"] else 1


def cmd_bench(args) -> int:
    from repro.harness.bench import (profile_serial_cell, render_summary,
                                     run_bench)

    if args.profile:
        budget = (args.instructions if args.instructions is not None
                  else 20_000)
        workload = (args.workloads.split(",")[0] if args.workloads
                    else "gcc")
        print(profile_serial_cell(workload=workload,
                                  max_instructions=budget))
        return 0
    path, data = run_bench(
        jobs=args.jobs, quick=args.quick,
        workloads=args.workloads.split(",") if args.workloads else None,
        max_instructions=args.instructions,
        out_dir=args.out, compare=args.compare or None,
        backend=args.backend,
        progress=lambda line: print(f"  {line}...", file=sys.stderr))
    print(render_summary(data))
    print(f"\nartifact written to {path}", file=sys.stderr)
    if args.json:
        _write_json(args.json, data)
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.harness.cache import GCPolicy
    from repro.service import ServiceConfig, SimulationService, run_server

    weights = {}
    if args.weights:
        for pair in args.weights.split(","):
            tenant, _sep, weight = pair.partition("=")
            weights[tenant.strip()] = float(weight or 1.0)
    config = ServiceConfig(
        store_dir=args.store, jobs=_jobs(args, default=2),
        backend=args.backend,
        max_depth=args.max_depth, max_tenant_depth=args.max_tenant_depth,
        default_timeout=args.timeout, weights=weights,
        gc_policy=GCPolicy(max_bytes=args.gc_bytes or None,
                           max_age_seconds=args.gc_age or None))
    service = SimulationService(config)
    resumed = service.metrics.counters["resumed"]
    if resumed:
        print(f"resumed {resumed} incomplete job(s) from the journal",
              file=sys.stderr)

    def ready(server):
        print(f"serving on http://{server.host}:{server.port} "
              f"(store: {config.store_dir})", file=sys.stderr, flush=True)

    try:
        asyncio.run(run_server(service, host=args.host, port=args.port,
                               ready=ready))
    except KeyboardInterrupt:
        pass
    return 0


def _service_client(args):
    from repro.service import ServiceClient
    return ServiceClient(args.host, args.port)


def cmd_submit(args) -> int:
    client = _service_client(args)
    if args.body:
        with open(args.body) as handle:
            body = json.load(handle)
    else:
        if not args.workload:
            raise SystemExit("submit needs a workload (or --body FILE)")
        body = {"kind": args.kind, "workload": args.workload,
                "config": {"iq": args.iq, "size": args.size,
                           "segment_size": args.segment_size,
                           "chains": args.chains, "variant": args.variant},
                "max_instructions": args.instructions}
        if args.trace_format:
            body["trace"] = args.trace_format
        if args.kind == "sample":
            body["sampling"] = {"windows": args.windows,
                                "warmup": args.warmup,
                                "measure": args.measure}
    if args.timeout:
        body["timeout"] = args.timeout
    job = client.submit(body, tenant=args.tenant)
    print(f"{job['id']}  {job['state']}"
          + (f"  (dedupe: {job['dedupe']})" if job.get("dedupe") else ""))
    if args.watch:
        for event in client.watch(job["id"]):
            if event["event"] == "tick":
                print(f"  cycle {event.get('cycle', 0):>9,}  "
                      f"committed {event.get('committed', 0):>9,}",
                      file=sys.stderr)
    if args.wait or args.watch:
        final = client.wait(job["id"])
        print(f"{job['id']}  {final['state']}"
              + (f"  error: {final['error']}" if final.get("error") else ""))
        if final["state"] == "done":
            record = client.result(job["id"])
            result = record.get("result") or {}
            if "ipc" in result:
                print(f"  IPC {result['ipc']:.4f}  "
                      f"({result.get('cycles', 0):,} cycles)")
            if args.json:
                _write_json(args.json, record)
        return 0 if final["state"] == "done" else 1
    return 0


def cmd_status(args) -> int:
    client = _service_client(args)
    if args.job:
        record = client.status(args.job)
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    jobs = client.jobs(tenant=args.for_tenant or None)
    for record in jobs:
        dedupe = f"  [{record['dedupe']}]" if record.get("dedupe") else ""
        print(f"{record['id']}  {record['state']:<9}  "
              f"{record['tenant']:<10}  {record['kind']}{dedupe}")
    snapshot = client.metrics()
    gauges = snapshot["gauges"]
    print(f"\nqueued {gauges['queued']}  running {gauges['running']}  "
          f"tracked {gauges['jobs_tracked']}", file=sys.stderr)
    return 0


def cmd_cancel(args) -> int:
    client = _service_client(args)
    answer = client.cancel(args.job)
    print(f"{args.job}  {answer['state']}"
          + ("" if answer["cancelled"] else "  (already terminal)"))
    return 0 if answer["cancelled"] else 1


def cmd_fetch(args) -> int:
    client = _service_client(args)
    if args.artifact:
        data = client.fetch_artifact(args.job)
        out = args.out or f"{args.job}-trace"
        with open(out, "wb") as handle:
            handle.write(data)
        print(f"{len(data)} bytes written to {out}")
        return 0
    record = client.result(args.job)
    if args.out:
        _write_json(args.out, record)
    else:
        print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Segmented dependence-chain IQ reproduction "
                    "(Raasch/Binkert/Reinhardt, ISCA 2002)")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parent()
    config = _config_parent()

    sub.add_parser("list", help="list benchmark analogs")

    run_parser = sub.add_parser("run", help="simulate one benchmark",
                                parents=[common, config])
    run_parser.add_argument("workload", choices=sorted(WORKLOADS))
    run_parser.add_argument("--stats", action="store_true",
                            help="dump every statistic")
    run_parser.add_argument("--check-invariants", action="store_true",
                            help="run per-cycle pipeline invariant checks")

    sample_parser = sub.add_parser(
        "sample", help="sampled simulation: checkpoints + interval windows",
        parents=[common, config])
    sample_parser.add_argument("workload", choices=sorted(WORKLOADS))
    sample_parser.add_argument("--windows", type=int, default=10,
                               help="number of measurement windows")
    sample_parser.add_argument("--warmup", type=int, default=500,
                               help="detailed warmup insts per window")
    sample_parser.add_argument("--measure", type=int, default=500,
                               help="measured insts per window")
    sample_parser.add_argument("--scale", type=int, default=8,
                               help="workload scale factor (longer stream)")
    sample_parser.add_argument("--seed", type=int, default=0,
                               help="window-placement jitter seed")
    sample_parser.add_argument("--compare-full", action="store_true",
                               help="also run full detail; report the error")

    sweep_parser = sub.add_parser("sweep", help="IQ size sweep",
                                  parents=[common])
    sweep_parser.add_argument("workload", choices=sorted(WORKLOADS))
    sweep_parser.add_argument("--sizes", default="32,64,128,256,512")
    sweep_parser.add_argument("--instructions", type=int, default=None)
    sweep_parser.add_argument("--journal", default="", metavar="PATH",
                              help="record cell states in a JSONL journal "
                                   "so a killed sweep resumes without "
                                   "re-running finished cells (needs the "
                                   "cache; see docs/fabric.md)")

    disasm_parser = sub.add_parser("disasm", help="print kernel assembly")
    disasm_parser.add_argument("workload", choices=sorted(WORKLOADS))

    trace_parser = sub.add_parser(
        "trace", help="structured event trace (ascii / chrome / jsonl)",
        parents=[common, config])
    trace_parser.add_argument("workload", choices=sorted(WORKLOADS))
    trace_parser.add_argument("--format", default="ascii",
                              choices=["ascii", "chrome", "jsonl"],
                              help="ascii pipeline diagram, Chrome "
                                   "trace_event JSON, or JSONL stream")
    trace_parser.add_argument("--out", default="",
                              help="output file for chrome/jsonl formats "
                                   "(default trace.json / trace.jsonl)")
    trace_parser.add_argument("--start", type=int, default=200,
                              help="first dynamic seq to display (ascii)")
    trace_parser.add_argument("--count", type=int, default=32,
                              help="instructions to display (ascii)")
    trace_parser.add_argument("--interval", type=int, default=100,
                              help="metrics sampling interval (cycles)")

    segments_parser = sub.add_parser(
        "segments", help="segment-occupancy heatmap (segmented IQ)",
        parents=[common])
    segments_parser.add_argument("workload", choices=sorted(WORKLOADS))
    segments_parser.add_argument("--size", type=int, default=512)
    segments_parser.add_argument("--chains", default="128")
    segments_parser.add_argument("--variant", default="comb",
                                 choices=["base", "hmp", "lrp", "comb"])
    segments_parser.add_argument("--interval", type=int, default=50)
    segments_parser.add_argument("--instructions", type=int, default=None)

    reproduce_parser = sub.add_parser(
        "reproduce", help="regenerate a paper table/figure",
        parents=[common])
    reproduce_parser.add_argument(
        "experiment", choices=["table2", "figure2", "figure3", "headline"])
    reproduce_parser.add_argument(
        "--workloads", default="",
        help="comma-separated benchmark subset (default: all eight)")
    reproduce_parser.add_argument("--budget", type=float, default=1.0,
                                  help="instruction-budget multiplier")

    bench_parser = sub.add_parser(
        "bench", help="measure simulator throughput and sweep scaling",
        parents=[common])
    bench_parser.add_argument("--quick", action="store_true",
                              help="small grid / budgets (CI smoke mode)")
    bench_parser.add_argument("--workloads", default="",
                              help="comma-separated workload subset")
    bench_parser.add_argument("--instructions", type=int, default=None,
                              help="per-run instruction budget")
    bench_parser.add_argument("--out", default=".",
                              help="directory for BENCH_<date>.json")
    bench_parser.add_argument("--compare", default="",
                              help="older BENCH_*.json to diff against")
    bench_parser.add_argument("--profile", action="store_true",
                              help="cProfile one serial cell (top-20 "
                                   "cumulative) instead of the full bench")

    validate_parser = sub.add_parser(
        "validate",
        help="differential-oracle fuzzing across every IQ model",
        parents=[common])
    validate_parser.add_argument("--seed", type=int, default=0)
    validate_parser.add_argument("--programs", type=int, default=50,
                                 help="number of random programs to fuzz")
    validate_parser.add_argument("--models", default="",
                                 help="comma-separated model subset "
                                      "(default: every registered model)")
    validate_parser.add_argument("--length", type=int, default=40,
                                 help="loop-body units per program")
    validate_parser.add_argument("--iterations", type=int, default=3,
                                 help="outer-loop iterations per program")
    validate_parser.add_argument("--chain-bias", type=float, default=0.5,
                                 help="dependence-chain depth bias [0,1]")
    validate_parser.add_argument("--miss-bias", type=float, default=0.25,
                                 help="fraction of memory ops aimed at the "
                                      "L1-missing region")
    validate_parser.add_argument("--no-invariants", action="store_true",
                                 help="skip per-cycle invariant checks")
    validate_parser.add_argument("--no-shrink", action="store_true",
                                 help="report failures without shrinking")
    validate_parser.add_argument("--verbose", action="store_true",
                                 help="print each check as it runs")

    surrogate_parser = sub.add_parser(
        "surrogate",
        help="validate the analytical IPC surrogate against simulation",
        parents=[common])
    surrogate_parser.add_argument("--workloads", default="",
                                  help="comma-separated workload subset "
                                       "(default: all; --quick: gcc,swim)")
    surrogate_parser.add_argument("--instructions", type=int, default=None,
                                  help="per-cell instruction budget "
                                       "(default: 20000; --quick: 8000)")
    surrogate_parser.add_argument("--quick", action="store_true",
                                  help="small grid / budgets "
                                       "(CI smoke mode)")

    serve_parser = sub.add_parser(
        "serve", help="start the simulation job service (docs/service.md)",
        parents=[common])
    serve_parser.add_argument("--store", default=".repro-service",
                              help="service state directory (journal, "
                                   "cache, results, artifacts)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8421,
                              help="listen port (0 picks a free one)")
    serve_parser.add_argument("--max-depth", type=int, default=64,
                              help="pending-job bound before 429s")
    serve_parser.add_argument("--max-tenant-depth", type=int, default=32,
                              help="per-tenant pending-job bound")
    serve_parser.add_argument("--timeout", type=float, default=600.0,
                              help="per-job wall-clock budget (seconds)")
    serve_parser.add_argument("--weights", default="",
                              help="fair-share weights, e.g. 'ci=2,dev=1'")
    serve_parser.add_argument("--gc-bytes", type=int,
                              default=256 * 1024 * 1024,
                              help="result/cache store size bound (0: off)")
    serve_parser.add_argument("--gc-age", type=float, default=7 * 86400,
                              help="result/cache entry age bound (0: off)")

    client_common = argparse.ArgumentParser(add_help=False)
    client_common.add_argument("--host", default="127.0.0.1")
    client_common.add_argument("--port", type=int, default=8421)
    client_common.add_argument("--tenant", default="default")

    submit_parser = sub.add_parser(
        "submit", help="submit a job to a served instance",
        parents=[client_common, config])
    submit_parser.add_argument("workload", nargs="?", default="",
                               choices=sorted(WORKLOADS) + [""])
    submit_parser.add_argument("--kind", default="run",
                               choices=["run", "sample", "surrogate"])
    submit_parser.add_argument("--body", default="", metavar="FILE",
                               help="raw JSON submission body (any kind, "
                                    "including sweep); overrides the flags")
    submit_parser.add_argument("--trace-format", default="",
                               choices=["", "jsonl", "chrome"],
                               help="also record a trace artifact "
                                    "(fetch with 'fetch --artifact')")
    submit_parser.add_argument("--timeout", type=float, default=0.0,
                               help="per-job wall-clock budget override")
    submit_parser.add_argument("--windows", type=int, default=10)
    submit_parser.add_argument("--warmup", type=int, default=500)
    submit_parser.add_argument("--measure", type=int, default=500)
    submit_parser.add_argument("--wait", action="store_true",
                               help="block until the job finishes")
    submit_parser.add_argument("--watch", action="store_true",
                               help="stream heartbeats until it finishes")
    submit_parser.add_argument("--json", default="", metavar="PATH",
                               help="write the final result record here")

    status_parser = sub.add_parser(
        "status", help="one job's record, or the whole job table",
        parents=[client_common])
    status_parser.add_argument("job", nargs="?", default="")
    status_parser.add_argument("--for-tenant", default="",
                               help="filter the table to one tenant")

    cancel_parser = sub.add_parser("cancel", help="cancel a job",
                                   parents=[client_common])
    cancel_parser.add_argument("job")

    fetch_parser = sub.add_parser(
        "fetch", help="download a job's result (or its trace artifact)",
        parents=[client_common])
    fetch_parser.add_argument("job")
    fetch_parser.add_argument("--artifact", action="store_true",
                              help="download the trace artifact instead "
                                   "of the result record")
    fetch_parser.add_argument("--out", default="",
                              help="write to this path (default: stdout "
                                   "for results, <job>-trace for artifacts)")

    args = parser.parse_args(argv)
    if getattr(args, "kernels", ""):
        # Exported (not just set_backend) so process-pool workers inherit
        # the choice.  The compiled stat/event primitives are selected at
        # interpreter start from REPRO_KERNELS, so --kernels py switches
        # the IQ engine here but not primitives already imported; use the
        # environment variable for a fully pure-Python process.
        os.environ["REPRO_KERNELS"] = args.kernels
        from repro.core.segmented.kernels import set_backend
        set_backend(args.kernels)
    handler = {"list": cmd_list, "run": cmd_run, "sample": cmd_sample,
               "sweep": cmd_sweep, "disasm": cmd_disasm, "trace": cmd_trace,
               "segments": cmd_segments, "reproduce": cmd_reproduce,
               "validate": cmd_validate, "bench": cmd_bench,
               "surrogate": cmd_surrogate, "serve": cmd_serve,
               "submit": cmd_submit, "status": cmd_status,
               "cancel": cmd_cancel, "fetch": cmd_fetch,
               }[args.command]
    if args.command in ("submit", "status", "cancel", "fetch"):
        # Client commands talk to a server that may be down, saturated,
        # or unaware of the job id — operational conditions, not bugs,
        # so answer with a message and exit code instead of a traceback.
        from repro.service.client import Backpressure, ServiceError
        try:
            return handler(args)
        except Backpressure as exc:
            print(f"error: {exc} (queue saturated; retry later)",
                  file=sys.stderr)
            return 1
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except ConnectionError as exc:
            print(f"error: cannot reach the server ({exc}); "
                  "is `repro serve` running?", file=sys.stderr)
            return 1
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
