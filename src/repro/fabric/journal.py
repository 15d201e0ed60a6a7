"""Sweep journal: an append-only record of per-cell execution state.

A journaled sweep is a fold over JSONL events, one per state change::

    {"key": "<run_key>", "state": "pending",  "label": "dot/paper-32"}
    {"key": "<run_key>", "state": "running"}
    {"key": "<run_key>", "state": "done"}

States: ``pending`` (admitted), ``running`` (submitted to a backend),
``cached`` (satisfied from the ResultCache without executing),
``done`` (executed and stored), ``failed`` (executed, raised).

Cells are keyed by their cache ``run_key`` — the same identity the
:class:`~repro.harness.cache.ResultCache` uses — so a journal is only
meaningful alongside a cache: a *resumed* sweep treats journaled
``done``/``cached`` cells as "done-in-cache" and re-executes none of
them (the result comes from the cache; if the entry was evicted the
cell simply runs again).  ``failed`` and ``running`` cells re-run —
``running`` means the previous process died mid-cell.

The journal is a fold over an :class:`~repro.common.appendlog.AppendLog`
(shared with the service's job journal): every record is fsync'd
before the state is acted on, replay skips a torn final line (a crash
mid-append), and compaction rewrites the file atomically.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.common.appendlog import AppendLog

#: Terminal-success states: the cell's result is in the cache.
DONE_STATES = ("done", "cached")

_STATES = ("pending", "running", "cached", "done", "failed")


class SweepJournal:
    """Append-only per-cell state journal for resumable sweeps."""

    def __init__(self, path: os.PathLike) -> None:
        self.log = AppendLog(path)
        self.path = self.log.path
        #: Latest state per key, as replayed at open + appended since.
        self.states: Dict[str, str] = {}
        #: Label per key (from the first "pending" record), for reports.
        self.labels: Dict[str, str] = {}
        for record in self.log.records():
            key, state = record.get("key"), record.get("state")
            if not isinstance(key, str) or state not in _STATES:
                continue                 # foreign line
            self.states[key] = state
            label = record.get("label")
            if label:
                self.labels.setdefault(key, label)

    def record(self, key: str, state: str,
               label: Optional[str] = None) -> None:
        """Append one state change (fsync'd before returning)."""
        if state not in _STATES:
            raise ValueError(f"unknown journal state {state!r}")
        self.log.append(self._entry(key, state, label))
        if label:
            self.labels.setdefault(key, label)
        self.states[key] = state

    @staticmethod
    def _entry(key: str, state: str, label: Optional[str]) -> dict:
        entry = {"key": key, "state": state}
        if label:
            entry["label"] = label
        return entry

    # ----------------------------------------------------------- queries --
    def done(self, key: str) -> bool:
        """True when the journal says this cell's result is in the cache."""
        return self.states.get(key) in DONE_STATES

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for state in self.states.values():
            out[state] = out.get(state, 0) + 1
        return out

    # ----------------------------------------------------------- compact --
    def compact(self) -> None:
        """Rewrite as one line per key (latest state), atomically."""
        self.log.rewrite(self._entry(key, state, self.labels.get(key))
                         for key, state in self.states.items())

    def __repr__(self) -> str:
        return f"SweepJournal({self.path}, {self.counts()})"
