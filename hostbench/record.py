"""Record this commit's outcome of every cell the benchmark can run.

Usage (from the repository root)::

    python3 hostbench/record.py

Runs each pool cell once through ``repro.api.run`` (serially, no cache)
and rewrites ``hostbench/expected.json`` with its simulated cycles,
committed instructions and stats digest.  The benchmark's correctness
gate compares every answer against this file, so re-record only when a
change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    for name in run.PINNED_ENV:
        run.os.environ.pop(name, None)
    sys.path.insert(0, str(run.SRC))
    run.ensure_built()
    import drivers
    import pools
    from repro import api
    from repro.core.segmented import backend

    cells = {}
    for name in pools.WORKLOAD_NAMES:
        for cell in pools.pool(name):
            if cell.id in cells:
                continue
            result = api.run(drivers.make_params(cell.config), cell.workload,
                             max_instructions=cell.budget)
            cells[cell.id] = list(drivers.Outcome.of(result))
            print(f"{cell.id}: {cells[cell.id]}")
    target = run.HERE / "expected.json"
    lines = [f"  {json.dumps(cell_id)}: {json.dumps(outcome)}"
             for cell_id, outcome in sorted(cells.items())]
    target.write_text(f'{{"kernels": {json.dumps(backend())}, "cells": {{\n'
                      + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(cells)} cells to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
