"""Crash-safe job journal: append-only JSONL with fsync'd transitions.

Every job state transition is one line::

    {"job": "j-000001", "record": {...full job...}, "state": "pending", ...}
    {"job": "j-000001", "state": "running", "t": 1722.5}
    {"job": "j-000001", "state": "done", "t": 1724.1, ...}

The first line for a job carries the full submission record (tenant,
kind, canonical payload, key); later lines are deltas.  The journal is
a fold over an :class:`~repro.common.appendlog.AppendLog`, so every
append is fsync'd before the service acts on the transition: after a
``kill -9`` the journal never *under*-reports — a job may be re-run
(its execution was in flight) but is never lost, and a terminal state
is never forgotten.

:func:`JobJournal.replay` folds the lines back into job records,
skipping a torn final line (the one partial write a crash can leave).
On startup the service compacts: terminal jobs beyond a keep-bound are
dropped and the log is rewritten atomically.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.common.appendlog import AppendLog
from repro.service.jobs import TERMINAL_STATES


class JobJournal:
    """Append-only JSONL journal for job state transitions."""

    def __init__(self, path) -> None:
        self.log = AppendLog(path)
        self.path = self.log.path

    # ------------------------------------------------------------- write --
    def append(self, job_id: str, state: str, **extra) -> None:
        """Durably record that ``job_id`` entered ``state``."""
        line = {"job": job_id, "state": state, "t": round(time.time(), 3)}
        line.update(extra)
        self.log.append(line)

    def submitted(self, job) -> None:
        """First line for a job: the full record, enough to re-create it."""
        self.append(job.id, job.state, record={
            "kind": job.kind, "key": job.key, "tenant": job.tenant,
            "payload": job.payload, "cost": job.cost,
            "timeout": job.timeout, "parent": job.parent,
            "shared_with": job.shared_with, "dedupe": job.dedupe,
            "artifact": job.artifact,
            "submitted_at": job.submitted_at,
        })

    # -------------------------------------------------------------- read --
    @staticmethod
    def replay(path) -> Dict[str, dict]:
        """Fold a journal into ``{job_id: folded}`` submission order.

        Each folded record is the submission ``record`` plus the latest
        ``state`` (and any terminal extras such as ``error``).  Lines for
        unknown jobs (submission line itself torn away — cannot happen
        with fsync'd appends, but tolerated) and the one possibly-partial
        final line are skipped, never fatal.
        """
        jobs: Dict[str, dict] = {}
        for line in AppendLog(path).records():
            job_id = line.get("job")
            state = line.get("state")
            if not isinstance(job_id, str) or not state:
                continue
            if job_id not in jobs:
                record = line.get("record")
                if not isinstance(record, dict):
                    continue            # delta for a job we never saw
                jobs[job_id] = dict(record, id=job_id, state=state)
            else:
                folded = jobs[job_id]
                folded["state"] = state
                for extra in ("error", "result_key", "artifact",
                              "dedupe", "shared_with", "started_at"):
                    if extra in line:
                        folded[extra] = line[extra]
        return jobs

    # --------------------------------------------------------- compaction --
    def compact(self, *, keep_terminal: int = 256) -> Dict[str, dict]:
        """Rewrite the journal keeping every non-terminal job and the
        most recent ``keep_terminal`` terminal ones; returns the replay.

        Called on startup, before resuming: bounds journal growth across
        restarts without ever dropping work the server still owes.
        """
        jobs = self.replay(self.path)
        live = {job_id: folded for job_id, folded in jobs.items()
                if folded["state"] not in TERMINAL_STATES}
        terminal = [(job_id, folded) for job_id, folded in jobs.items()
                    if folded["state"] in TERMINAL_STATES]
        kept = dict(terminal[-keep_terminal:] if keep_terminal else [])
        kept.update(live)
        self.log.rewrite(self._compacted_line(job_id, folded)
                         for job_id, folded in kept.items())
        return kept

    @staticmethod
    def _compacted_line(job_id: str, folded: dict) -> dict:
        record = {key: folded.get(key) for key in
                  ("kind", "key", "tenant", "payload", "cost", "timeout",
                   "parent", "shared_with", "dedupe", "artifact",
                   "submitted_at")}
        line = {"job": job_id, "state": folded["state"], "record": record}
        for extra in ("error", "result_key", "started_at"):
            if folded.get(extra) is not None:
                line[extra] = folded[extra]
        return line
