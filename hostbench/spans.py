"""Outside-in host-time spans for the traced benchmark run.

:class:`SpanTracer` replaces public methods on object *instances* with
timing wrappers; the classes themselves are never touched, so objects the
benchmark did not build (for example inside worker processes) run
unwrapped.  Each wrapper records a span — name, start, end, parent, and
the id of the request (cell, grid or job) it serves — and accumulates
per-name *self* time: the span's duration minus the time covered by the
wrapped spans nested inside it.

Aggregates cover every call.  Individual spans are kept in memory up to
``max_spans`` and written once, at the end, as Chrome ``trace_event``
JSON that Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional


class SpanTracer:
    """Span stack, per-name self time and call counts, span log."""

    def __init__(self, max_spans: int = 50_000) -> None:
        self.max_spans = max_spans
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Free-form counters wrappers derive from results.
        self.counts: Dict[str, float] = defaultdict(float)
        #: (id, name, start_ns, end_ns, parent_id, request)
        self.spans: List[tuple] = []
        self.dropped = 0
        self._stack: List[list] = []     # [id, name, start, child_ns, req]
        self._next_id = 1
        self._wrapped: List[tuple] = []  # (obj, attribute)

    # --------------------------------------------------------- spans --
    def begin(self, name: str, request: Optional[str] = None) -> list:
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent[4]
        frame = [self._next_id, name, perf_counter_ns(), 0, request]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, frame: list) -> int:
        end = perf_counter_ns()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        duration = end - frame[2]
        name = frame[1]
        self.self_ns[name] += duration - frame[3]
        self.calls[name] += 1
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        if len(self.spans) < self.max_spans:
            self.spans.append((frame[0], name, frame[2], end, parent_id,
                               frame[4]))
        else:
            self.dropped += 1
        return duration

    # ------------------------------------------------------- wrapping --
    def timed(self, function: Callable, name: str, *,
              on_result: Optional[Callable] = None,
              request: Optional[str] = None,
              request_of: Optional[Callable] = None) -> Callable:
        """``function`` with every call timed as span ``name``.

        ``on_result(result, args)`` runs after each call (outside the
        span) to derive counts.  The span serves ``request``, or
        ``request_of(args, kwargs)``, or else its parent's request.
        """
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            frame = begin(name, request_of(args, kwargs) if request_of
                          else request)
            try:
                result = function(*args, **kwargs)
            finally:
                end(frame)
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def wrap(self, obj, attribute: str, name: str, **options) -> None:
        """Replace ``obj.attribute`` on the instance by its timed form;
        :meth:`unwrap_all` restores it.  Options as for :meth:`timed`."""
        setattr(obj, attribute,
                self.timed(getattr(obj, attribute), name, **options))
        self._wrapped.append((obj, attribute))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (instance overrides removed)."""
        for obj, attribute in reversed(self._wrapped):
            obj.__dict__.pop(attribute, None)
        self._wrapped.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # ---------------------------------------------------------- views --
    def self_s(self, *names: str) -> float:
        return sum(self.self_ns.get(name, 0) for name in names) / 1e9

    def calls_of(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def write_chrome(self, path: str, metadata: dict) -> None:
        """Write the kept spans as Chrome ``trace_event`` JSON."""
        origin = min((span[2] for span in self.spans), default=0)
        pid = os.getpid()
        events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
                   "ts": (start - origin) / 1e3,
                   "dur": (end - start) / 1e3, "pid": pid, "tid": 1,
                   "args": {"id": span_id, "parent": parent,
                            "request": request}}
                  for span_id, name, start, end, parent, request
                  in self.spans]
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": 1, "args": {"name": "benchmark host"}})
        document = {"traceEvents": events, "displayTimeUnit": "ms",
                    "otherData": dict(metadata, spans_kept=len(self.spans),
                                      spans_dropped=self.dropped)}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(document, handle)
        os.replace(tmp, path)


class TracedIterator:
    """An iterator whose ``next()`` calls are spans (the functional
    stream feeding the front end)."""

    def __init__(self, inner, tracer: SpanTracer, name: str) -> None:
        self._next = inner.__next__
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        frame = tracer.begin(self._name)
        try:
            return self._next()
        finally:
            tracer.end(frame)
