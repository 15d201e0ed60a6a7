"""The simulation job service core (synchronous, event-loop-free).

:class:`SimulationService` is the whole brain of the job server —
admission, dedupe, fair scheduling, execution, journaling, GC — as a
plain object driven by calling :meth:`step` repeatedly.  The asyncio
HTTP layer (:mod:`repro.service.http`) is a thin shell that parses
requests into :meth:`handle` calls and awaits between steps; tests
drive the same object directly, deterministically, with no sockets or
event loop.

Life of a job::

    submit ── cache hit? ──────────────► done  (dedupe="cache")
       │
       ├─ same key in flight? ─────────► attach (dedupe="inflight")
       │
       ├─ admission (depth/cost) ──────► AdmissionError  (HTTP 429)
       │
       └─ journal "pending", queue (SFQ)
              step(): pop → re-check cache → place on the fabric backend
              step(): drain heartbeats → events ring
              step(): done/failed/timeout → journal terminal, store
                      result by key, fan out to attached jobs

Every transition is journaled with fsync before the service acts on it,
so ``kill -9`` at any point loses at most in-flight *work* — never a
job, and a restarted service re-queues the survivors.  At schedule time
the cache is consulted again, so resumed cells that finished before the
crash are answered without a second execution.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fabric import CellError, create_backend
from repro.harness.cache import GCPolicy, ResultCache, prune_dir
from repro.harness.runner import RunResult
from repro.obs.service_metrics import ServiceMetrics
from repro.service.jobs import (CANCELLED, DONE, FAILED, PENDING, RUNNING,
                                TRACE_FORMATS, Job, JobSpec, JobSpecError,
                                execute_job, normalize)
from repro.service.journal import JobJournal
from repro.service.scheduler import AdmissionError, FairScheduler
from repro.workloads import WORKLOADS


@dataclass
class ServiceConfig:
    """Everything a service instance needs; all paths live under
    ``store_dir`` so one directory is the whole persistent state."""

    store_dir: Path
    #: Concurrent simulation workers (execution slots).
    jobs: int = 2
    #: Execution-backend spec placing jobs (see :mod:`repro.fabric`):
    #: ``"local-process"`` or ``"ssh:hosta,hostb"``.
    backend: str = "local-process"
    #: Backend-specific knobs forwarded to the factory.
    backend_options: Dict[str, object] = field(default_factory=dict)
    #: Admission bounds (queue-wide, per-tenant, per-job cost).
    max_depth: int = 64
    max_tenant_depth: Optional[int] = 32
    max_cost: Optional[float] = None
    #: Per-tenant fair-share weights (default weight 1.0).
    weights: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock budget per execution; jobs may lower (not raise) it.
    default_timeout: float = 600.0
    #: GC policy applied to both the result cache and the result store.
    gc_policy: GCPolicy = field(
        default_factory=lambda: GCPolicy(max_bytes=256 * 1024 * 1024,
                                         max_age_seconds=7 * 86400))
    #: Steps between GC sweeps (GC also runs on startup).
    gc_interval_steps: int = 500
    #: Terminal jobs kept through startup compaction.
    keep_terminal: int = 256
    #: Heartbeat cadence requested from workers.
    progress_interval: float = 0.5

    def __post_init__(self) -> None:
        self.store_dir = Path(self.store_dir)


class SimulationService:
    """Synchronous job-service core; see the module docstring."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        root = config.store_dir
        root.mkdir(parents=True, exist_ok=True)
        self.results_dir = root / "results"
        self.artifacts_dir = root / "artifacts"
        self.results_dir.mkdir(exist_ok=True)
        self.artifacts_dir.mkdir(exist_ok=True)
        self.cache = ResultCache(root / "cache", gc_policy=config.gc_policy)
        self.journal = JobJournal(root / "journal.jsonl")
        self.fabric = create_backend(config.backend, jobs=config.jobs,
                                     **config.backend_options)
        self.scheduler = FairScheduler(
            max_depth=config.max_depth,
            max_tenant_depth=config.max_tenant_depth,
            max_cost=config.max_cost, weights=config.weights)
        self.metrics = ServiceMetrics()
        self.jobs: Dict[str, Job] = {}
        #: job id -> fabric handle of its in-flight execution.
        self.running: Dict[str, object] = {}
        #: key -> job id owning the (single) in-flight/pending execution.
        self._inflight: Dict[str, str] = {}
        #: Sweep parents mid-expansion (children list still growing).
        self._expanding: set = set()
        self._steps = 0
        self._next_id = 1
        self._resume()
        self._gc()

    # ---------------------------------------------------------- plumbing --
    def _new_id(self) -> str:
        job_id = f"j-{self._next_id:06d}"
        self._next_id += 1
        return job_id

    def _result_path(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def _store_result(self, key: str, payload: dict) -> None:
        path = self._result_path(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)

    def _load_result(self, key: str) -> Optional[dict]:
        try:
            return json.loads(self._result_path(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    # ------------------------------------------------------------ resume --
    def _resume(self) -> None:
        """Re-adopt journaled jobs after a restart.

        Terminal jobs come back for status/result queries; pending *and*
        running jobs are re-queued (a running execution died with the old
        process).  Cells that completed before the crash are answered
        from the cache at schedule time — zero duplicate executions.
        """
        folded = self.journal.compact(
            keep_terminal=self.config.keep_terminal)
        order = sorted(folded, key=lambda job_id: folded[job_id]
                       .get("submitted_at", 0.0))
        for job_id in order:
            record = folded[job_id]
            number = int(job_id.split("-")[-1])
            self._next_id = max(self._next_id, number + 1)
            job = Job(id=job_id, kind=record["kind"], key=record["key"],
                      tenant=record.get("tenant", "default"),
                      payload=record.get("payload") or {},
                      cost=float(record.get("cost", 1.0)),
                      timeout=float(record.get("timeout",
                                               self.config.default_timeout)),
                      state=record["state"],
                      submitted_at=record.get("submitted_at", time.time()),
                      parent=record.get("parent"),
                      shared_with=record.get("shared_with"),
                      dedupe=record.get("dedupe"),
                      error=record.get("error"),
                      artifact=record.get("artifact"))
            self.jobs[job_id] = job
            if job.terminal:
                if job.state == DONE:
                    job.result = self._load_result(job.key)
                continue
            job.resumed = True
            job.state = PENDING
            job.started_at = None
            self.metrics.incr("resumed")
            self.metrics.incr("submitted")
            self.metrics.tenant_submitted(job.tenant)
            if job.kind == "sweep":
                continue                 # children carry the work
            if job.kind == "surrogate_result":
                # A crash between sweep expansion and the instant finish
                # lost the prediction; promote to a real execution (a
                # simulated result strictly refines a predicted one).
                job.kind = "run"
            primary_id = self._inflight.get(job.key)
            if primary_id is not None:
                primary = self.jobs[primary_id]
                job.shared_with = primary_id
                job.dedupe = "inflight"
                primary.attached.append(job_id)
                self.metrics.incr("dedupe_inflight")
            else:
                job.shared_with = None
                self._inflight[job.key] = job_id
                self.scheduler.push(job_id, job.tenant, job.cost)
            job.add_event("resumed")
        # Re-link sweep children lists (parents journal no child deltas).
        for job in self.jobs.values():
            if job.parent and job.parent in self.jobs:
                parent = self.jobs[job.parent]
                if job.id not in parent.children:
                    parent.children.append(job.id)
        for job in self.jobs.values():
            if job.kind == "sweep" and not job.terminal:
                self._maybe_finish_sweep(job)

    # ------------------------------------------------------------ submit --
    def submit(self, body: dict, *, tenant: str = "default") -> Job:
        """Admit one submission; raises :class:`JobSpecError` (HTTP 400)
        or :class:`AdmissionError` (HTTP 429)."""
        spec = normalize(body)
        try:
            timeout = min(float(body.get("timeout",
                                         self.config.default_timeout)),
                          self.config.default_timeout)
        except (TypeError, ValueError):
            raise JobSpecError(
                f"timeout must be a number, got "
                f"{body.get('timeout')!r}") from None
        if spec.kind == "sweep":
            return self._submit_sweep(spec, tenant, timeout)
        return self._submit_one(spec, tenant, timeout)

    def _submit_one(self, spec: JobSpec, tenant: str, timeout: float,
                    *, parent: Optional[str] = None,
                    config_label: str = "",
                    pre_admitted: bool = False) -> Job:
        cached = self.cache.get(spec.key) if spec.cacheable else None
        inflight = None if cached else self._inflight.get(spec.key)
        if cached is None and inflight is None and not pre_admitted:
            # Only jobs that will actually occupy the queue face
            # admission; dedupe hits are free by design.  Sweep children
            # are admitted as one batch in _submit_sweep so a sweep is
            # all-or-nothing: it never 429s mid-expansion.
            self.scheduler.admit(tenant, spec.cost)

        job = Job(id=self._new_id(), kind=spec.kind, key=spec.key,
                  tenant=tenant, payload=dict(spec.payload),
                  cost=spec.cost, timeout=timeout, parent=parent)
        if config_label:
            job.payload["config_label"] = config_label
        if job.payload.get("trace"):
            suffix = TRACE_FORMATS[job.payload["trace"]]
            job.artifact = f"{job.id}{suffix}"
        self.jobs[job.id] = job
        self.metrics.incr("submitted")
        self.metrics.tenant_submitted(tenant)

        if cached is not None:
            job.dedupe = "cache"
            self.metrics.incr("dedupe_cache")
            self.journal.submitted(job)
            self._finish(job, self._payload_from_cache(cached))
            return job
        if inflight is not None:
            primary = self.jobs[inflight]
            job.shared_with = inflight
            job.dedupe = "inflight"
            primary.attached.append(job.id)
            self.metrics.incr("dedupe_inflight")
            self.journal.submitted(job)
            job.add_event("attached", primary=inflight)
            return job
        self._inflight[spec.key] = job.id
        self.journal.submitted(job)
        self.scheduler.push(job.id, tenant, spec.cost)
        job.add_event("queued")
        return job

    def _submit_sweep(self, spec: JobSpec, tenant: str,
                      timeout: float) -> Job:
        # Whole-sweep admission: the expansion is atomic.  Every cell
        # that will occupy a queue slot is admitted here as one batch
        # (dedupe hits are free, duplicate keys within the sweep share
        # one slot); children then skip per-cell admit, so a sweep
        # either 429s before any state is journaled or expands fully.
        new_cells = []
        for workload, label, config in spec.cells:
            cell_body = {"kind": "run", "workload": workload,
                         "config": config,
                         "max_instructions":
                             spec.payload["max_instructions"]}
            new_cells.append((label, normalize(cell_body)))
        pruned: Dict[Tuple[str, str], object] = {}
        fill_instructions: Dict[str, int] = {}
        if spec.payload.get("surrogate"):
            pruned, fill_instructions = self._plan_sweep_pruning(
                spec, new_cells)
        pending: Dict[str, float] = {}
        for label, cell in new_cells:
            if (cell.payload["workload"], label) in pruned:
                continue                 # answered analytically: no slot
            if (cell.cacheable and self.cache.get(cell.key)) \
                    or cell.key in self._inflight:
                continue
            pending[cell.key] = cell.cost
        if len(new_cells) > self.scheduler.max_depth:
            raise AdmissionError(
                f"sweep expands to {len(new_cells)} cells; queue bound is "
                f"{self.scheduler.max_depth}", "rejected_queue_depth")
        self.scheduler.admit(tenant, sum(pending.values()),
                             count=len(pending))

        parent = Job(id=self._new_id(), kind="sweep", key=spec.key,
                     tenant=tenant, payload=dict(spec.payload),
                     cost=spec.cost, timeout=timeout)
        self.jobs[parent.id] = parent
        self.metrics.incr("submitted")
        self.metrics.tenant_submitted(tenant)
        self.journal.submitted(parent)
        self._expanding.add(parent.id)
        try:
            for label, cell in new_cells:
                workload = cell.payload["workload"]
                if (workload, label) in pruned:
                    child = self._surrogate_child(
                        cell, tenant, timeout, parent=parent.id,
                        config_label=label,
                        prediction=pruned[(workload, label)],
                        instructions=fill_instructions.get(workload, 0))
                else:
                    child = self._submit_one(cell, tenant, timeout,
                                             parent=parent.id,
                                             config_label=label,
                                             pre_admitted=True)
                parent.children.append(child.id)
        finally:
            self._expanding.discard(parent.id)
        parent.add_event("expanded", cells=len(parent.children),
                         pruned=len(pruned))
        self._maybe_finish_sweep(parent)
        return parent

    def _plan_sweep_pruning(self, spec: JobSpec, new_cells: list
                            ) -> Tuple[dict, Dict[str, int]]:
        """Decide which sweep cells the surrogate answers analytically.

        The planning phases of :func:`repro.harness.surrogate
        .prune_and_run`, minus anchor simulation (submission must not
        block on sims): cached results calibrate the surrogate and form
        the known Pareto front, then :func:`pareto_band_split` keeps
        every cell whose optimistic band still reaches it.  A cold
        cache calibrates nothing, uncertainty stays wide, and no cell
        is pruned — the sweep degrades to a plain submission.
        """
        from repro.harness.surrogate import Surrogate, pareto_band_split
        budget = spec.payload.get("max_instructions")
        surrogate = Surrogate(max_instructions=budget)
        cells = []
        by_cell = {}
        results = {}
        cached_by_kind: Dict[Tuple[str, str], Tuple[str, str]] = {}
        fill_instructions: Dict[str, int] = {}
        for label, cell in new_cells:
            workload = cell.payload["workload"]
            params = cell.params()
            cells.append((workload, label, params))
            by_cell[(workload, label)] = params
            hit = self.cache.get(cell.key) if cell.cacheable else None
            if hit is None:
                continue
            results[(workload, label)] = hit
            fill_instructions.setdefault(workload, hit.instructions)
            kind = (workload, params.iq.kind)
            if (kind not in cached_by_kind or params.iq.size
                    < by_cell[cached_by_kind[kind]].iq.size):
                cached_by_kind[kind] = (workload, label)
        for (workload, _iq_kind), cell_id in cached_by_kind.items():
            surrogate.calibrate(workload, by_cell[cell_id],
                                results[cell_id].ipc)
        predictions = {}
        for workload, label, params in cells:
            if (workload, label) not in results:
                predictions[(workload, label)] = surrogate.predict(
                    workload, params)
        _keep, pruned = pareto_band_split(cells, results, predictions)
        for workload, _label in pruned:
            if workload not in fill_instructions:
                fill_instructions[workload] = int(
                    budget or WORKLOADS[workload].default_instructions)
        return pruned, fill_instructions

    def _surrogate_child(self, cell: JobSpec, tenant: str, timeout: float,
                         *, parent: str, config_label: str,
                         prediction, instructions: int) -> Job:
        """An instant-done sweep child answered by the surrogate."""
        from repro.harness.surrogate import surrogate_result
        job = Job(id=self._new_id(), kind="surrogate_result", key=cell.key,
                  tenant=tenant, payload=dict(cell.payload), cost=0.0,
                  timeout=timeout, parent=parent)
        job.payload["config_label"] = config_label
        job.dedupe = "surrogate"
        self.jobs[job.id] = job
        self.metrics.incr("submitted")
        self.metrics.incr("dedupe_surrogate")
        self.metrics.tenant_submitted(tenant)
        self.journal.submitted(job)
        filled = surrogate_result(cell.payload["workload"], config_label,
                                  prediction, instructions)
        self._finish(job, self._payload_from_cache(filled))
        return job

    @staticmethod
    def _payload_from_cache(result: RunResult) -> dict:
        return {"workload": result.workload, "config": result.config,
                "ipc": result.ipc, "cycles": result.cycles,
                "instructions": result.instructions,
                "stats": result.stats, "metrics": result.metrics}

    # ------------------------------------------------------------ cancel --
    def cancel(self, job_id: str) -> bool:
        """Cancel a job; True if this call changed its fate.

        A primary with attached twins hands its execution to the first
        of them instead of killing it — cancellation never robs another
        tenant of a result they are still waiting on.
        """
        job = self.jobs.get(job_id)
        if job is None or job.terminal:
            return False
        if job.kind == "sweep":
            # Parent first: a child's terminal transition triggers sweep
            # aggregation, which must see the parent already settled.
            self._terminal(job, CANCELLED)
            for child_id in list(job.children):
                self.cancel(child_id)
            return True
        if job.shared_with is not None:          # attached rider
            primary = self.jobs.get(job.shared_with)
            if primary is not None and job_id in primary.attached:
                primary.attached.remove(job_id)
            self._terminal(job, CANCELLED)
            return True

        handle = self.running.pop(job_id, None)
        queued = self.scheduler.remove(job_id)
        heir_id = job.attached[0] if job.attached else None
        if heir_id is None:
            if handle is not None:
                handle.cancel()
                handle.close()
            if self._inflight.get(job.key) == job_id:
                del self._inflight[job.key]
        else:
            # Promote the heir: it adopts the execution (or the queue
            # slot) and the remaining riders.
            heir = self.jobs[heir_id]
            heir.shared_with = None
            heir.dedupe = None
            heir.attached = [rider for rider in job.attached
                             if rider != heir_id]
            for rider_id in heir.attached:
                self.jobs[rider_id].shared_with = heir_id
            self._inflight[job.key] = heir_id
            if handle is not None:
                self.running[heir_id] = handle
                heir.state = RUNNING
                heir.started_at = job.started_at or time.time()
                self.journal.append(heir.id, RUNNING,
                                    started_at=heir.started_at)
            elif queued or not job.terminal:
                self.scheduler.push(heir_id, heir.tenant, heir.cost)
            heir.add_event("promoted", from_job=job_id)
        self._terminal(job, CANCELLED)
        return True

    # -------------------------------------------------------------- step --
    def step(self) -> dict:
        """One scheduling quantum: fill slots, poll workers, reap
        timeouts, maybe GC.  Returns a small progress summary."""
        self._steps += 1
        launched = self._fill_slots()
        finished = self._poll_running()
        timeouts = self._check_timeouts()
        if self._steps % self.config.gc_interval_steps == 0:
            self._gc()
        return {"launched": launched, "finished": finished,
                "timeouts": timeouts, "running": len(self.running),
                "queued": len(self.scheduler)}

    @property
    def idle(self) -> bool:
        return not self.running and not len(self.scheduler)

    def drain(self, *, poll_interval: float = 0.05,
              deadline: Optional[float] = None) -> None:
        """Step until idle (testing/CLI convenience)."""
        limit = time.time() + deadline if deadline else None
        while not self.idle:
            self.step()
            if limit and time.time() > limit:
                raise TimeoutError("service did not drain in time")
            time.sleep(poll_interval)

    def _fill_slots(self) -> int:
        launched = 0
        while len(self.running) < self.fabric.capacity():
            job_id = self.scheduler.pop()
            if job_id is None:
                break
            job = self.jobs.get(job_id)
            if job is None or job.terminal:
                continue
            # Schedule-time cache re-check: a twin may have finished (or
            # a resumed journal may predate a completed cell).  This is
            # what makes crash-resume zero-duplicate for finished cells.
            if job.kind == "run" and not job.payload.get("trace"):
                cached = self.cache.get(job.key)
                if cached is not None:
                    job.dedupe = job.dedupe or "cache"
                    self.metrics.incr("dedupe_cache")
                    self._finish(job, self._payload_from_cache(cached))
                    continue
            payload = dict(job.payload, kind=job.kind,
                           progress_interval=self.config.progress_interval)
            if job.artifact:
                payload["trace_path"] = str(
                    self.artifacts_dir / job.artifact)
            label = f"{job.id}:{payload.get('workload', job.kind)}"
            job.state = RUNNING
            job.started_at = time.time()
            self.journal.append(job.id, RUNNING, started_at=job.started_at)
            self.metrics.incr("executions")
            self.metrics.observe_wait(job.tenant,
                                      job.started_at - job.submitted_at)
            self.running[job.id] = self.fabric.submit_task(
                execute_job, payload, label=label)
            job.add_event("started")
            launched += 1
        return launched

    def _poll_running(self) -> int:
        finished = 0
        for job_id in list(self.running):
            handle = self.running[job_id]
            job = self.jobs[job_id]
            for tick in handle.ticks():
                event = dict(tick)
                job.add_event("tick", **event)
                for rider_id in job.attached:
                    self.jobs[rider_id].add_event("tick", **event)
            if not handle.poll():
                continue
            del self.running[job_id]
            outcome = handle.result(timeout=0.1)
            handle.close()
            finished += 1
            if isinstance(outcome, CellError):
                if job.state == CANCELLED:
                    continue             # reaped by cancel() already
                self._fail(job, f"{outcome.error}"
                           + (f"\n{outcome.details}"
                              if outcome.details else ""))
            else:
                self._finish(job, outcome)
        return finished

    def _check_timeouts(self) -> int:
        now = time.time()
        reaped = 0
        for job_id in list(self.running):
            job = self.jobs[job_id]
            if job.started_at and now - job.started_at > job.timeout:
                handle = self.running.pop(job_id)
                handle.cancel()
                handle.close()
                self.metrics.incr("timeouts")
                self._fail(job, f"timeout after {job.timeout:.0f}s")
                reaped += 1
        return reaped

    # --------------------------------------------------------- completion --
    def _finish(self, job: Job, payload: dict) -> None:
        if job.state == DONE:
            return
        job.result = payload
        self._store_result(job.key, payload)
        if (job.kind == "run" and not job.payload.get("trace")
                and self.cache.get(job.key) is None):
            self.cache.put(job.key, RunResult(
                workload=payload["workload"], config=payload["config"],
                ipc=payload["ipc"], cycles=payload["cycles"],
                instructions=payload["instructions"],
                stats=payload.get("stats") or {}))
        self._terminal(job, DONE)
        for rider_id in job.attached:
            rider = self.jobs.get(rider_id)
            if rider is not None and not rider.terminal:
                rider.result = payload
                self._terminal(rider, DONE)
        job.attached = []

    def _fail(self, job: Job, error: str) -> None:
        job.error = error
        self._terminal(job, FAILED)
        for rider_id in job.attached:
            rider = self.jobs.get(rider_id)
            if rider is not None and not rider.terminal:
                rider.error = f"shared execution failed: {error}"
                self._terminal(rider, FAILED)
        job.attached = []

    def _terminal(self, job: Job, state: str) -> None:
        if job.terminal:
            return
        job.state = state
        job.finished_at = time.time()
        if self._inflight.get(job.key) == job.id:
            del self._inflight[job.key]
        self.scheduler.remove(job.id)
        extras = {}
        if job.error:
            extras["error"] = job.error
        if job.artifact:
            extras["artifact"] = job.artifact
        if job.dedupe:
            extras["dedupe"] = job.dedupe
        self.journal.append(job.id, state, **extras)
        self.metrics.incr({DONE: "completed", FAILED: "failed",
                           CANCELLED: "cancelled"}[state])
        if state == DONE:
            self.metrics.tenant_completed(job.tenant)
        job.add_event("state", state=state, error=job.error)
        if job.parent:
            parent = self.jobs.get(job.parent)
            if parent is not None:
                self._maybe_finish_sweep(parent)

    def _maybe_finish_sweep(self, parent: Job) -> None:
        if parent.terminal or parent.kind != "sweep":
            return
        if parent.id in self._expanding:
            return     # children list still growing; checked after expand
        children = [self.jobs[cid] for cid in parent.children
                    if cid in self.jobs]
        if not children or not all(child.terminal for child in children):
            return
        grid: Dict[str, Dict[str, Optional[dict]]] = {}
        failures = []
        for child in children:
            label = child.payload.get("config_label", child.key[:8])
            workload = child.payload.get("workload", "?")
            cell = grid.setdefault(workload, {})
            if child.state == DONE and child.result:
                cell[label] = {"ipc": child.result.get("ipc"),
                               "cycles": child.result.get("cycles"),
                               "job": child.id,
                               "dedupe": child.dedupe}
            else:
                cell[label] = None
                failures.append(f"{workload}/{label}: "
                                f"{child.error or child.state}")
        if failures:
            self._fail(parent, "; ".join(failures))
        else:
            self._finish_sweep_done(parent, grid)

    def _finish_sweep_done(self, parent: Job, grid: dict) -> None:
        payload = {"sweep": True, "grid": grid,
                   "cells": sum(len(row) for row in grid.values())}
        parent.result = payload
        self._store_result(parent.key, payload)
        self._terminal(parent, DONE)

    # ----------------------------------------------------------------- gc --
    def _gc(self) -> None:
        removed = self.cache.gc().removed
        removed += prune_dir(self.results_dir,
                             self.config.gc_policy).removed
        removed += prune_dir(self.artifacts_dir, self.config.gc_policy,
                             suffix="").removed
        if removed:
            self.metrics.incr("gc_removed", removed)

    # ------------------------------------------------------------- views --
    def status(self, job_id: str,
               *, include_result: bool = False) -> Optional[dict]:
        job = self.jobs.get(job_id)
        if job is None:
            return None
        record = job.to_dict(include_result=include_result)
        if include_result and record["result"] is None and job.state == DONE:
            record["result"] = self._load_result(job.key)
        return record

    def list_jobs(self, *, tenant: Optional[str] = None) -> List[dict]:
        return [job.to_dict(include_result=False)
                for job in sorted(self.jobs.values(),
                                  key=lambda j: j.id)
                if tenant is None or job.tenant == tenant]

    def snapshot(self) -> dict:
        return self.metrics.snapshot(
            queued=len(self.scheduler), running=len(self.running),
            jobs_tracked=len(self.jobs),
            inflight_keys=len(self._inflight))

    # --------------------------------------------------------- lifecycle --
    def close(self) -> None:
        for handle in self.running.values():
            handle.close()
        self.running.clear()
        self.fabric.close()

    # ------------------------------------------------------------- routes --
    def handle(self, method: str, path: str, query: Dict[str, str],
               body: Optional[dict]) -> Tuple[int, object]:
        """Shared route dispatch for the HTTP layer and the in-process
        client.  Returns ``(status, payload)``; payload is a JSON-ready
        object, or a ``Path`` for artifact downloads."""
        tenant = query.get("tenant", "default")
        parts = [part for part in path.split("/") if part]
        try:
            if method == "GET" and parts == ["healthz"]:
                return 200, {"ok": True, "queued": len(self.scheduler),
                             "running": len(self.running)}
            if method == "GET" and parts == ["metrics"]:
                return 200, self.snapshot()
            if method == "POST" and parts == ["jobs"]:
                job = self.submit(body or {}, tenant=tenant)
                return 201, job.to_dict(include_result=False)
            if method == "GET" and parts == ["jobs"]:
                return 200, {"jobs": self.list_jobs(
                    tenant=query.get("for_tenant"))}
            if len(parts) >= 2 and parts[0] == "jobs":
                job_id = parts[1]
                record = self.status(job_id)
                if record is None:
                    return 404, {"error": f"no such job {job_id!r}"}
                if method == "GET" and len(parts) == 2:
                    return 200, record
                if method == "POST" and parts[2:] == ["cancel"]:
                    changed = self.cancel(job_id)
                    return 200, {"cancelled": changed,
                                 "state": self.jobs[job_id].state}
                if method == "GET" and parts[2:] == ["result"]:
                    record = self.status(job_id, include_result=True)
                    if record["state"] != DONE:
                        return 409, {"error": f"job is {record['state']}",
                                     "state": record["state"]}
                    return 200, record
                if method == "GET" and parts[2:] == ["events"]:
                    since = int(query.get("since", 0))
                    job = self.jobs[job_id]
                    return 200, {"state": job.state,
                                 "events": job.events_since(since)}
                if method == "GET" and parts[2:] == ["artifact"]:
                    job = self.jobs[job_id]
                    if not job.artifact:
                        return 404, {"error": "job has no artifact"}
                    artifact = self.artifacts_dir / job.artifact
                    if not artifact.exists():
                        return 409, {"error": "artifact not ready",
                                     "state": job.state}
                    return 200, artifact
            return 404, {"error": f"no route {method} /{'/'.join(parts)}"}
        except JobSpecError as exc:
            return 400, {"error": str(exc)}
        except AdmissionError as exc:
            self.metrics.incr(exc.reason)
            return 429, {"error": str(exc), "reason": exc.reason,
                         "retry_after": 1.0}
