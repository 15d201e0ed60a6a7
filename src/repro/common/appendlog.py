"""Append-only JSONL log: the one durable-journal primitive.

Both journals in the repository — the fabric's per-cell
:class:`~repro.fabric.journal.SweepJournal` and the job service's
:class:`~repro.service.journal.JobJournal` — are folds over an
:class:`AppendLog`.  The log owns the durability discipline; the
journals own their record schemas, folds and compaction policies.

* :meth:`AppendLog.append` writes one ``json.dumps(record,
  sort_keys=True)`` line and fsyncs it before returning, so a caller
  may act on the record once the call returns.  A crash mid-append can
  leave a torn final line with no newline; the next append first ends
  that line, so the new record never glues onto the fragment.
* :meth:`AppendLog.records` yields every complete JSON-object line and
  skips torn fragments, blank lines and foreign (non-object) lines.
* :meth:`AppendLog.rewrite` replaces the whole log atomically: it
  writes a temp file, fsyncs it, ``os.replace``-s it over the log and
  fsyncs the parent directory so the rename itself survives power loss.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator


def _line(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode()


class AppendLog:
    """An fsync'd JSONL file of dict records."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)

    def append(self, record: dict) -> None:
        """Durably append ``record`` as one line (fsync'd on return)."""
        line = _line(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab+") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    line = b"\n" + line  # end a torn tail first
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def records(self) -> Iterator[dict]:
        """Yield the complete dict lines, oldest first."""
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return
        with handle:
            for raw in handle:
                try:
                    record = json.loads(raw)
                except ValueError:
                    continue             # torn tail or foreign line
                if isinstance(record, dict):
                    yield record

    def rewrite(self, records: Iterable[dict]) -> None:
        """Atomically replace the log with ``records``."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            for record in records:
                handle.write(_line(record))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        directory = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
