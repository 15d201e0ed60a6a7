"""Seeded inputs of the four benchmark workloads (standard library only).

Every cell the benchmark can run comes from a fixed pool defined here, so
``expected.json`` can hold this commit's result for each of them.  The seed
only chooses the order, the grid overlaps and the job stream; the program
under test receives nothing but the generated inputs.

Each *pass* of a workload uses the whole pool exactly once as new work, so
the amount of simulation per pass does not depend on the seed: seeds move
ordering and sharing, not cost.  That keeps run-to-run spread low while
still exercising different schedules.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Configurations by label.  ``factory`` is the ``repro.harness.configs``
#: call used by the cell and sweep workloads; ``body`` is the service's
#: job-config vocabulary for the same machine.
CONFIGS: Dict[str, dict] = {
    "ideal-128": {"factory": ("ideal", (128,)),
                  "body": {"iq": "ideal", "size": 128}},
    "seg-512-128": {"factory": ("segmented", (512, 128, "comb")),
                    "body": {"iq": "segmented", "size": 512,
                             "chains": 128, "variant": "comb"}},
    "seg-128-32": {"factory": ("segmented", (128, 32, "comb")),
                   "body": {"iq": "segmented", "size": 128,
                            "chains": 32, "variant": "comb"}},
}

ALL_ANALOGS = ("ammp", "applu", "equake", "gcc", "mgrid", "swim", "twolf",
               "vortex")

#: cell-seg / cell-ideal: one configuration over three analogs at their
#: default budgets, run serially through ``api.run`` with no cache.
CELL_WORKLOADS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "cell-seg": ("seg-512-128", ("mgrid", "swim", "applu")),
    "cell-ideal": ("ideal-128", ("gcc", "twolf", "vortex")),
}

#: sweep: every analog under two configurations at default budgets.
SWEEP_CONFIGS = ("ideal-128", "seg-512-128")
#: Workloads per grid; consecutive grids share all but one of them.
SWEEP_GRID_WIDTH = 2

#: service-mix: small cells, every analog x config x budget.
SERVICE_CONFIGS = ("ideal-128", "seg-512-128", "seg-128-32")
SERVICE_BUDGETS = (1000, 2000, 3000)
#: Share of submissions that repeat an earlier key.
SERVICE_REPEAT_SHARE = 0.4
#: Of the repeats, the share drawn from the last few submissions (likely
#: still in flight, so they attach to a running twin) rather than from
#: any earlier one (likely already cached).
SERVICE_RECENT_SHARE = 0.5
SERVICE_RECENT_WINDOW = 4
SERVICE_TENANTS = ("tenant-a", "tenant-b")
SERVICE_OUTSTANDING = 2

#: The untimed warm cell each workload's set-up runs (all in the pool).
WARM_CELLS = {
    "cell-seg": ("mgrid", "seg-512-128", 1000),
    "cell-ideal": ("gcc", "ideal-128", 1000),
    "sweep": ("swim", "ideal-128", 1000),
    "service-mix": ("gcc", "ideal-128", 1000),
}

WORKLOAD_NAMES = ("cell-seg", "cell-ideal", "sweep", "service-mix")


class Cell(NamedTuple):
    """One simulation: analog, configuration label, instruction budget
    (``None`` means the analog's default budget)."""

    workload: str
    config: str
    budget: Optional[int] = None

    @property
    def id(self) -> str:
        return f"{self.workload}/{self.config}/{self.budget or 'default'}"


def pool(name: str) -> List[Cell]:
    """Every cell workload ``name`` can run, warm cell included."""
    warm = Cell(*WARM_CELLS[name])
    if name in CELL_WORKLOADS:
        config, analogs = CELL_WORKLOADS[name]
        cells = [Cell(analog, config) for analog in analogs]
    elif name == "sweep":
        cells = [Cell(analog, config) for analog in ALL_ANALOGS
                 for config in SWEEP_CONFIGS]
    elif name == "service-mix":
        cells = service_pool()
    else:
        raise KeyError(f"unknown workload {name!r}")
    return cells + ([warm] if warm not in cells else [])


def service_pool() -> List[Cell]:
    return [Cell(analog, config, budget) for analog in ALL_ANALOGS
            for config in SERVICE_CONFIGS for budget in SERVICE_BUDGETS]


# ------------------------------------------------------------- passes --
def cell_pass(name: str, rng: random.Random) -> List[Cell]:
    """The three cells of a cell workload in a seeded order."""
    config, analogs = CELL_WORKLOADS[name]
    order = list(analogs)
    rng.shuffle(order)
    return [Cell(analog, config) for analog in order]


class Grid(NamedTuple):
    workloads: Tuple[str, ...]
    configs: Tuple[str, ...]

    def cells(self) -> List[Cell]:
        return [Cell(workload, config) for workload in self.workloads
                for config in self.configs]


def sweep_pass(rng: random.Random) -> List[Grid]:
    """Overlapping grids covering every sweep cell once as new work.

    A window over a seeded permutation of the analogs grows to
    ``SWEEP_GRID_WIDTH`` and then slides by one, so every grid brings
    exactly one new analog (its configurations run side by side on the
    pool) and re-reads the cells its predecessor wrote: about half of
    all lookups are hits, and each pass simulates the same cells.
    """
    order = list(ALL_ANALOGS)
    rng.shuffle(order)
    configs = list(SWEEP_CONFIGS)
    rng.shuffle(configs)
    return [Grid(tuple(order[max(0, end - SWEEP_GRID_WIDTH + 1):end + 1]),
                 tuple(configs))
            for end in range(len(order))]


def service_pass(rng: random.Random) -> List[Cell]:
    """A job stream: every pool cell once as new work plus repeats.

    Repeats make up ``SERVICE_REPEAT_SHARE`` of the stream and never
    come first; half of them re-submit one of the last few keys (an
    in-flight twin), the rest any earlier key (a cached result).
    """
    fresh = service_pool()
    rng.shuffle(fresh)
    total = round(len(fresh) / (1.0 - SERVICE_REPEAT_SHARE))
    repeats = total - len(fresh)
    repeat_slots = set(rng.sample(range(1, total), repeats))
    stream: List[Cell] = []
    for position in range(total):
        if position in repeat_slots:
            if rng.random() < SERVICE_RECENT_SHARE:
                stream.append(rng.choice(stream[-SERVICE_RECENT_WINDOW:]))
            else:
                stream.append(rng.choice(stream))
        else:
            stream.append(fresh.pop())
    return stream


# --------------------------------------------------- stated properties --
def sweep_hit_share(grids: Sequence[Grid]) -> float:
    """Share of grid-cell lookups that read a cell written earlier in
    the same pass."""
    seen = set()
    lookups = hits = 0
    for grid in grids:
        for cell in grid.cells():
            lookups += 1
            hits += cell in seen
        seen.update(grid.cells())
    return hits / lookups


def service_repeat_share(stream: Sequence[Cell]) -> float:
    """Share of submissions whose key was submitted earlier."""
    seen = set()
    repeats = 0
    for cell in stream:
        repeats += cell in seen
        seen.add(cell)
    return repeats / len(stream)
