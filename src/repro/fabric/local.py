"""The ``local-process`` backend: the spawn-safe pool behind the protocol.

A :class:`concurrent.futures.ProcessPoolExecutor` for cell batches and
dedicated worker processes for cancellable tasks, with one degradation
ladder: ``jobs=1`` runs in-process, a payload that fails to pickle or a
pool that cannot start falls back to serial, a worker that raises (or
dies) surfaces as a per-cell :class:`~repro.fabric.cells.CellError`,
never a hung sweep.  Results
are bit-identical to serial execution by construction (workers share no
state; every cell rebuilds its program from the workload registry).
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple

from repro.fabric.base import ExecutionBackend, register_backend
from repro.fabric.cells import (CellError, RunSpec, _execute_spec,
                                _guarded_call, _handle_worker, default_jobs)
from repro.fabric.handles import CellHandle, CompletedHandle, FutureHandle


def submit_detached(func: Callable, item, *, label: str = "task",
                    start_method: Optional[str] = None) -> CellHandle:
    """Start ``func(item, emit)`` in its own dedicated worker process.

    Returns a :class:`CellHandle` immediately; the caller polls or
    cancels it.  ``func`` must be module-level (picklable) and take an
    ``emit(dict)`` second argument for progress streaming.  Each
    submission owns a process — that costs a fork per task but makes
    cancellation a hard kill, the contract the job service's timeouts
    and aborts need.
    """
    context = multiprocessing.get_context(start_method)
    parent, child = context.Pipe(duplex=False)
    process = context.Process(target=_handle_worker,
                              args=(child, func, item, label),
                              daemon=True)
    process.start()
    child.close()
    return CellHandle(label, process, parent)


def run_task_batch(func: Callable, items: Sequence,
                   labels: Optional[Sequence[str]] = None, *,
                   jobs: int,
                   start_method: Optional[str] = None,
                   progress: Optional[Callable[[int, int], None]] = None
                   ) -> Tuple[List, bool]:
    """Apply ``func`` to every item over a one-shot pool, in input order.

    The batch-map primitive behind ``Executor.map``: a fresh pool per
    call, serial fallback on
    unpicklable payloads or a pool that cannot start, per-cell errors.
    Returns ``(results, fell_back_to_serial)``.
    """
    if labels is None:
        labels = [f"task[{index}]" for index in range(len(items))]
    payloads = [(func, item, label) for item, label in zip(items, labels)]

    def serial() -> List:
        results = []
        for payload in payloads:
            results.append(_guarded_call(payload))
            if progress is not None:
                progress(len(results), len(payloads))
        return results

    if jobs <= 1 or len(payloads) <= 1:
        return serial(), False
    try:
        pickle.dumps(payloads)
    except Exception:
        return serial(), True
    workers = min(jobs, len(payloads))
    context = (multiprocessing.get_context(start_method)
               if start_method else None)
    results: List = [None] * len(payloads)
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=context) as pool:
            futures = [pool.submit(_guarded_call, payload)
                       for payload in payloads]
            for index, future in enumerate(futures):
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    results[index] = CellError(
                        label=labels[index],
                        error="worker process died (BrokenProcessPool)")
                except Exception as exc:   # noqa: BLE001
                    results[index] = CellError(
                        label=labels[index],
                        error=f"{type(exc).__name__}: {exc}")
                if progress is not None:
                    progress(index + 1, len(payloads))
    except (OSError, BrokenProcessPool):
        # Pool could not start at all (fd limits, sandboxing):
        # degrade to serial rather than fail the sweep.
        return serial(), True
    return results, False


class LocalProcessBackend(ExecutionBackend):
    """Single-host process-pool backend (the default)."""

    name = "local-process"

    def __init__(self, *, jobs: Optional[int] = None,
                 start_method: Optional[str] = None) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_broken = False
        #: True when any cell degraded to in-process serial execution.
        self.fell_back_to_serial = False

    # --------------------------------------------------------- protocol --
    def capacity(self) -> int:
        return self.jobs

    def submit(self, spec: RunSpec):
        return self._submit_payload(_execute_spec, spec, spec.label)

    def submit_task(self, func: Callable, item, *, label: str = "task"):
        return submit_detached(func, item, label=label,
                               start_method=self.start_method)

    def merge_cache(self, cache) -> int:
        return 0                         # workers share the local cache

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # --------------------------------------------------------- internals --
    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self._pool is None and not self._pool_broken:
            context = (multiprocessing.get_context(self.start_method)
                       if self.start_method else None)
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                                 mp_context=context)
            except (OSError, BrokenProcessPool):
                self._pool_broken = True
        return self._pool

    def _submit_payload(self, func: Callable, item, label: str):
        payload = (func, item, label)
        if self.jobs <= 1:               # serial by request, not fallback
            return CompletedHandle(label, _guarded_call(payload))
        try:
            pickle.dumps(payload)
        except Exception:
            self.fell_back_to_serial = True
            return CompletedHandle(label, _guarded_call(payload))
        pool = self._ensure_pool()
        if pool is None:
            self.fell_back_to_serial = True
            return CompletedHandle(label, _guarded_call(payload))
        try:
            future = pool.submit(_guarded_call, payload)
        except (RuntimeError, OSError, BrokenProcessPool):
            self._pool_broken = True
            self.fell_back_to_serial = True
            return CompletedHandle(label, _guarded_call(payload))
        return FutureHandle(label, future)


register_backend("local-process", LocalProcessBackend)
