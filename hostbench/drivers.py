"""The four workload drivers, the correctness gate and the traced cell.

Imported only after ``run.py`` has pinned the environment and built the
compiled kernels, because ``repro`` picks its stat/event primitives at
import time.  Drivers reach the simulator only through its public entry
points — ``repro.api.run``, ``repro.harness.sweep.Sweep.run`` and
``repro.service.SimulationService`` — and the traced run wraps public
methods on instances the benchmark itself builds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import time
import types
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import api
from repro.fabric import (ExecutionConfig, LocalProcessBackend, RunSpec,
                          SweepJournal)
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.harness.sweep import Sweep
from repro.isa.executor import execute
from repro.pipeline.processor import Processor
from repro.service.scheduler import AdmissionError
from repro.service.service import ServiceConfig, SimulationService
from repro.workloads import WORKLOADS

import pools
from hostprobe import ParallelProbe, corrected, probe
from pools import Cell
from spans import SpanTracer, TracedIterator

#: Sleep between idle polls of the service loop and the warm-up waits.
#: Far below a job's duration, so it does not quantise ``job_s_*``.
POLL_INTERVAL = 0.001

#: api.run's default cycle cap, mirrored by the traced cell.
MAX_CYCLES = 5_000_000


def make_params(label: str):
    factory, args = pools.CONFIGS[label]["factory"]
    return getattr(configs, factory)(*args)


def job_body(cell: Cell) -> dict:
    return {"kind": "run", "workload": cell.workload,
            "config": dict(pools.CONFIGS[cell.config]["body"]),
            "max_instructions": cell.budget}


# ------------------------------------------------------------- the gate --
def digest(stats: dict) -> str:
    """Content hash of a full stats dict."""
    body = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


class Outcome(NamedTuple):
    """What the gate compares: simulated cycles, committed instructions
    and the stats digest."""

    cycles: int
    committed: int
    digest: str

    @classmethod
    def of(cls, result) -> "Outcome":
        if isinstance(result, dict):
            return cls(result["cycles"], result["instructions"],
                       digest(result["stats"]))
        return cls(result.cycles, result.instructions, digest(result.stats))


class Gate:
    """Checks every answered operation against this commit's recorded
    outcomes; counts attempts and failures."""

    def __init__(self, expected: Dict[str, list]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, cell: Cell, outcome: Outcome) -> None:
        self.attempted += 1
        want = self.expected.get(cell.id)
        if want is None or Outcome(*want) != outcome:
            self.fail(f"{cell.id}: expected {want}, got {list(outcome)}",
                      attempted=False)

    def same(self, what: str, first: Outcome, second: Outcome) -> None:
        """A traced result must equal its untraced twin."""
        self.attempted += 1
        if first != second:
            self.fail(f"{what}: untraced {list(first)} != traced "
                      f"{list(second)}", attempted=False)

    def fail(self, problem: str, *, attempted: bool = True) -> None:
        self.attempted += attempted
        self.failed += 1
        self.problems.append(problem)


class PassResult(NamedTuple):
    """One pass of a workload.  ``seconds`` and ``latencies`` are host
    wall times corrected by the host-speed probe (see ``hostprobe``);
    ``raw_seconds`` is the uncorrected wall time."""

    seconds: float
    raw_seconds: float
    cells: int
    jobs: int
    latencies: List[float]
    outcomes: List[Tuple[Cell, Outcome]]

    @property
    def instructions(self) -> int:
        """Simulated instructions: each distinct cell once, so cache and
        dedupe hits (which simulate nothing) do not count."""
        return sum(outcome.committed
                   for outcome in dict(self.outcomes).values())


def _wait_all(handles, timeout: float = 120.0) -> list:
    deadline = time.monotonic() + timeout
    while not all(handle.poll() for handle in handles):
        if time.monotonic() > deadline:
            raise TimeoutError("warm-up cells did not finish")
        time.sleep(POLL_INTERVAL)
    return [handle.result() for handle in handles]


def reap_children() -> None:
    """Wait for every multiprocessing child this process started."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def stop_stray_children() -> List[str]:
    """Kill and wait for every child process still alive after tear-down
    (one the drivers did not stop); returns their command lines so the
    run can report the leak.  Exited children are only reaped.  Reads
    ``/proc``; finds nothing where there is none."""
    strays = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
            command = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
        if int(ppid) != os.getpid():
            continue
        pid = int(entry.name)
        if state != "Z":
            strays.append(command.replace(b"\0", b" ").decode().strip()
                          or f"pid {pid}")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return strays


def live_children_peak_kb() -> int:
    """Largest peak RSS (VmHWM) among live multiprocessing children."""
    peak = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak


# ------------------------------------------------------ traced cell run --
#: Wrapped public methods of the instances a cell builds, by owner.
FRONTEND_METHODS = ("cycle", "branch_resolved", "next_event_cycle",
                    "skip_cycles")
IQ_METHODS = ("can_dispatch", "dispatch", "select_issue", "cycle",
              "on_writeback", "next_event_cycle", "skip_cycles",
              "skip_blocked_dispatch", "blocked_dispatch_wake")
LSQ_METHODS = ("cycle", "dispatch", "commit", "address_ready")
CACHE_METHODS = (("l1i", "touch"), ("l1i", "access"), ("l1d", "access"),
                 ("l2", "access_line"))


def _instrument_processor(processor: Processor, tracer: SpanTracer) -> None:
    frontend = processor.frontend
    for method in FRONTEND_METHODS:
        tracer.wrap(frontend, method, f"frontend.{method}")
    iq = processor.iq
    for method in IQ_METHODS:
        on_result = None
        if method == "can_dispatch":
            def on_result(admitted, _args):
                if not admitted:
                    tracer.count("core.iq.admit_refused")
        elif method == "select_issue":
            def on_result(issued, _args):
                tracer.count("core.iq.issued", len(issued) if issued else 0)
        tracer.wrap(iq, method, f"core.iq.{method}", on_result=on_result)
    for method in LSQ_METHODS:
        tracer.wrap(processor.lsq, method, f"pipeline.lsq.{method}")
    for level, method in CACHE_METHODS:
        tracer.wrap(getattr(processor.memory, level), method,
                    f"memory.{level}.{method}")
    tracer.wrap(processor, "run", "pipeline.run")


def _compiled(obj) -> bool:
    if isinstance(obj, types.BuiltinFunctionType):
        return "_ckernels" in (obj.__module__ or "")
    return "_ckernels" in type(obj).__module__


def compiled_layers(processor: Processor) -> List[Tuple[str, str]]:
    """Compiled objects a wrapper cannot time, with where their time
    lands in the per-layer table."""
    candidates = [
        ("EventQueue (advance_to, schedule_at)", processor.events,
         "pipeline.self_s; wrapped callbacks it fires (LSQ address_ready, "
         "IQ on_writeback, frontend branch_resolved) keep their own spans"),
        ("segmented IQ kernel Engine", getattr(processor.iq, "_engine", None),
         "the core.iq.* span of the IQ method that calls it"),
        ("FU pipeline kernel", getattr(processor.fu_pool, "_engine", None),
         "core.iq.select_s (FU acquisition runs inside select_issue) and "
         "pipeline.self_s"),
        ("fused rename (rename_operands)", processor._c_rename,
         "pipeline.self_s (dispatch)"),
        ("stat primitives (Counter, Distribution)", processor.stat_cycles,
         "the span of whichever layer bumps the counter"),
    ]
    return [(name, lands) for name, obj, lands in candidates
            if obj is not None and _compiled(obj)]


def traced_cell(params, analog: str, tracer: SpanTracer, request: str):
    """``api.run(params, analog)`` rebuilt from the same public parts so
    each layer's instance can be wrapped; returns (result-like dict,
    processor).  The gate checks its outcome equals ``api.run``'s."""
    root = tracer.begin("bench.cell", request)
    try:
        spec = WORKLOADS[analog]
        spec = dataclasses.replace(
            spec, build=tracer.timed(spec.build, "workloads.build"))
        program = spec.build(1)
        stream = TracedIterator(
            execute(program, max_instructions=spec.default_instructions),
            tracer, "isa.stream")
        processor = Processor(params, stream)
        _instrument_processor(processor, tracer)
        processor.warm_code(program)
        if spec.warm_data:
            processor.warm_data(program)
        processor.run(max_cycles=MAX_CYCLES)
        result = {"cycles": processor.cycle,
                  "instructions": processor.committed,
                  "stats": processor.stats.as_dict()}
    finally:
        tracer.end(root)
        tracer.unwrap_all()
    return result, processor


# ---------------------------------------------------------- the drivers --
class CellDriver:
    """cell-seg / cell-ideal: serial ``api.run``, no result cache."""

    def __init__(self, name: str, gate: Gate, workdir: Path) -> None:
        self.name = name
        self.gate = gate
        self.config, self.analogs = pools.CELL_WORKLOADS[name]
        self.params = make_params(self.config)
        self.workers = 1
        #: Compiled objects seen by the traced run (name, where time lands).
        self.compiled: List[Tuple[str, str]] = []

    def setup(self) -> None:
        for analog in self.analogs:
            WORKLOADS[analog].build(1)
        warm = Cell(*pools.WARM_CELLS[self.name])
        result = api.run(make_params(warm.config), warm.workload,
                         max_instructions=warm.budget)
        self.gate.check(warm, Outcome.of(result))

    def teardown(self) -> None:
        pass

    def plan(self, rng):
        return pools.cell_pass(self.name, rng)

    def run_pass(self, plan: List[Cell],
                 tracer: Optional[SpanTracer] = None) -> PassResult:
        raw, latencies, outcomes = [], [], []
        for index, cell in enumerate(plan):
            start = perf_counter()
            if tracer is None:
                result = api.run(self.params, cell.workload)
            else:
                result, processor = traced_cell(
                    self.params, cell.workload, tracer,
                    f"cell-{index}:{cell.id}")
                self.compiled = compiled_layers(processor)
                stats = result["stats"]
                tracer.count("stats.promotions", stats.get("iq.promotions", 0))
                tracer.count("stats.l1d_accesses", stats["l1d.accesses"])
                tracer.count("stats.l1d_misses", stats["l1d.misses"])
                tracer.count("stats.cycles", stats["cycles"])
                tracer.count("stats.skipped", stats["skip.cycles_skipped"])
                tracer.count("stats.committed", result["instructions"])
            raw.append(perf_counter() - start)
            latencies.append(corrected(raw[-1], probe()))
            outcomes.append((cell, Outcome.of(result)))
        return PassResult(sum(latencies), sum(raw), len(plan), len(plan),
                          latencies, outcomes)


class SweepDriver:
    """sweep: overlapping grids through ``Sweep.run`` on a warmed
    two-worker ``local-process`` pool, cache and journal per pass."""

    def __init__(self, name: str, gate: Gate, workdir: Path,
                 workers: int) -> None:
        self.name = name
        self.gate = gate
        self.workdir = workdir
        self.workers = workers
        self.params = {label: make_params(label)
                       for label in pools.SWEEP_CONFIGS}
        self.backend: Optional[LocalProcessBackend] = None
        self.compiled: List[Tuple[str, str]] = []
        #: Host-speed probe on every worker CPU.
        self.probe = ParallelProbe(workers)
        self._passes = 0

    def setup(self) -> None:
        backend = LocalProcessBackend(jobs=self.workers)
        warm = Cell(*pools.WARM_CELLS[self.name])
        spec = RunSpec(warm.workload, make_params(warm.config),
                       config_label=warm.config,
                       max_instructions=warm.budget)
        # One warm cell per worker so the whole pool is started.
        handles = [backend.submit(spec) for _ in range(self.workers)]
        for result in _wait_all(handles):
            self.gate.check(warm, Outcome.of(result))
        self.backend = backend

    def teardown(self) -> None:
        self.probe.close()
        if self.backend is not None:
            self.backend.close()
            self.backend = None
        reap_children()

    def plan(self, rng):
        return pools.sweep_pass(rng)

    def run_pass(self, grids: List[pools.Grid],
                 tracer: Optional[SpanTracer] = None) -> PassResult:
        self._passes += 1
        passdir = self.workdir / f"sweep-pass-{self._passes}"
        cache = ResultCache(passdir / "cache")
        journals = [SweepJournal(passdir / f"grid-{index}.jsonl")
                    for index in range(len(grids))]
        if tracer is not None:
            self._instrument(tracer, cache, journals)
        raw, latencies, answered = [], [], []
        for index, grid in enumerate(grids):
            sweep = Sweep(list(grid.workloads))
            for label in grid.configs:
                sweep.add_config(label, self.params[label])
            if tracer is not None:
                tracer.wrap(sweep, "run", "harness.sweep",
                            request=f"grid-{index}")
            began = perf_counter()
            try:
                result = sweep.run(execution=ExecutionConfig(
                    backend=self.backend, jobs=self.workers, cache=cache,
                    journal=journals[index]))
            except Exception as exc:     # noqa: BLE001 — a failed grid
                self.gate.fail(f"grid {index} {grid}: "
                               f"{type(exc).__name__}: {exc}")
                continue
            raw.append(perf_counter() - began)
            # The pool is idle between grids: probe the host there.
            latencies.append(corrected(raw[-1], self.probe.measure()))
            answered.extend((cell, result.results[cell.workload][cell.config])
                            for cell in grid.cells())
        if tracer is not None:
            tracer.unwrap_all()
        outcomes = [(cell, Outcome.of(result)) for cell, result in answered]
        shutil.rmtree(passdir, ignore_errors=True)
        return PassResult(sum(latencies), sum(raw), len(outcomes),
                          len(latencies), latencies, outcomes)

    def _instrument(self, tracer: SpanTracer, cache: ResultCache,
                    journals: List[SweepJournal]) -> None:
        def on_get(hit, _args):
            tracer.count("harness.cache.hits", hit is not None)

        tracer.wrap(cache, "get", "harness.cache.get", on_result=on_get)
        tracer.wrap(cache, "put", "harness.cache.put")
        for journal in journals:
            tracer.wrap(journal, "record", "fabric.journal.record")
        wrap_backend_submit(tracer, self.backend, "submit")


def wrap_backend_submit(tracer: SpanTracer, backend, method: str) -> None:
    """Time ``backend.<method>`` and the poll/result calls on every
    handle it returns, keyed by the handle's label."""
    def on_handle(handle, _args):
        tracer.wrap(handle, "poll", "fabric.poll", request=handle.label)
        tracer.wrap(handle, "result", "fabric.result", request=handle.label)

    def request_of(args, kwargs):
        label = kwargs.get("label")
        return label if label is not None else getattr(args[0], "label", None)

    tracer.wrap(backend, method, "fabric.submit", on_result=on_handle,
                request_of=request_of)


class ServiceDriver:
    """service-mix: an in-process ``SimulationService`` with its default
    config, driven by a closed loop of two tenants x two outstanding
    jobs from one thread."""

    def __init__(self, name: str, gate: Gate, workdir: Path) -> None:
        self.name = name
        self.gate = gate
        self.workdir = workdir
        self.workers = ServiceConfig(store_dir=workdir).jobs
        self.compiled: List[Tuple[str, str]] = []
        #: Host-speed probe on every worker CPU.
        self.probe = ParallelProbe(self.workers)
        #: Jobs of the last traced pass (queue wait / run / dedupe).
        self.traced_jobs: list = []
        self._stores = 0

    def _new_service(self) -> SimulationService:
        self._stores += 1
        store = self.workdir / f"service-{self._stores}"
        return SimulationService(ServiceConfig(store_dir=store))

    def _discard(self, service: SimulationService) -> None:
        service.close()
        multiprocessing.active_children()    # reaps exited job processes
        shutil.rmtree(service.config.store_dir, ignore_errors=True)

    def setup(self) -> None:
        service = self._new_service()
        warm = Cell(*pools.WARM_CELLS[self.name])
        job = service.submit(job_body(warm), tenant="warm-up")
        deadline = time.monotonic() + 120
        while not job.terminal and time.monotonic() < deadline:
            service.step()
            time.sleep(POLL_INTERVAL)
        if job.result is None:
            self.gate.fail(f"warm job {warm.id}: {job.state} {job.error}")
        else:
            self.gate.check(warm, Outcome.of(job.result))
        self._discard(service)

    def teardown(self) -> None:
        self.probe.close()
        reap_children()

    def plan(self, rng):
        return pools.service_pass(rng)

    def _speeds(self) -> List[float]:
        return [self.probe.measure() for _ in range(3)]

    def run_pass(self, stream: List[Cell],
                 tracer: Optional[SpanTracer] = None) -> PassResult:
        service = self._new_service()
        if tracer is not None:
            self._instrument(tracer, service)
        speeds = self._speeds()
        queue = deque(stream)
        outstanding = {tenant: [] for tenant in pools.SERVICE_TENANTS}
        done: List[tuple] = []           # (cell, job, latency)
        submitted = []
        start = perf_counter()
        while queue or any(outstanding.values()):
            for tenant, slots in outstanding.items():
                while len(slots) < pools.SERVICE_OUTSTANDING and queue:
                    cell = queue.popleft()
                    began = perf_counter()
                    try:
                        job = service.submit(job_body(cell), tenant=tenant)
                    except AdmissionError as exc:
                        self.gate.fail(f"{cell.id} refused: {exc}")
                        continue
                    submitted.append((cell, job))
                    if job.terminal:
                        done.append((cell, job, perf_counter() - began))
                    else:
                        slots.append((cell, job, began))
            progress = service.step()
            now = perf_counter()
            finished = False
            for slots in outstanding.values():
                for entry in [entry for entry in slots if entry[1].terminal]:
                    slots.remove(entry)
                    done.append((entry[0], entry[1], now - entry[2]))
                    finished = True
            if not (finished or progress["launched"] or progress["finished"]):
                if tracer is None:
                    time.sleep(POLL_INTERVAL)
                else:
                    frame = tracer.begin("fabric.idle")
                    time.sleep(POLL_INTERVAL)
                    tracer.end(frame)
        seconds = perf_counter() - start
        # Jobs overlap, so the pass shares one probe: the median of three
        # rounds before and three after it, while the workers are idle.
        speed = statistics.median(speeds + self._speeds())
        if tracer is not None:
            tracer.unwrap_all()
            self.traced_jobs = [job for _, job in submitted]
        outcomes = []
        for cell, job, _latency in done:
            if job.result is None:
                self.gate.fail(f"{cell.id} job {job.id}: {job.state} "
                               f"{job.error}")
                continue
            outcomes.append((cell, Outcome.of(job.result)))
        cell_of_key: Dict[str, Cell] = {}
        for cell, job in submitted:
            if cell_of_key.setdefault(job.key, cell) != cell:
                self.gate.fail(f"job key {job.key[:12]} answers both "
                               f"{cell_of_key[job.key].id} and {cell.id}")
        self._discard(service)
        latencies = [corrected(latency, speed) for _, _, latency in done]
        return PassResult(corrected(seconds, speed), seconds, len(outcomes),
                          len(outcomes), latencies, outcomes)

    def _instrument(self, tracer: SpanTracer,
                    service: SimulationService) -> None:
        labels = {json.dumps(config["body"], sort_keys=True): label
                  for label, config in pools.CONFIGS.items()}

        def body_request(args, _kwargs):
            body = args[0]
            return Cell(body["workload"],
                        labels[json.dumps(body["config"], sort_keys=True)],
                        body["max_instructions"]).id

        def on_get(hit, _args):
            tracer.count("harness.cache.hits", hit is not None)

        tracer.wrap(service, "submit", "service.submit",
                    request_of=body_request)
        tracer.wrap(service, "step", "service.step")
        tracer.wrap(service.cache, "get", "harness.cache.get",
                    on_result=on_get)
        tracer.wrap(service.cache, "put", "harness.cache.put")
        tracer.wrap(service.journal, "append", "service.journal.append")
        tracer.wrap(service.journal, "submitted", "service.journal.submitted")
        wrap_backend_submit(tracer, service.fabric, "submit_task")


def make_driver(name: str, gate: Gate, workdir: Path, workers: int):
    if name in pools.CELL_WORKLOADS:
        return CellDriver(name, gate, workdir)
    if name == "sweep":
        return SweepDriver(name, gate, workdir, workers)
    if name == "service-mix":
        return ServiceDriver(name, gate, workdir)
    raise KeyError(name)
