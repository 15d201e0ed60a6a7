"""Function-unit pool.

Table 1 gives 8 units of each class.  All units are fully pipelined (accept
one operation per cycle) except integer divide, FP divide, and FP sqrt,
which occupy their unit for the full latency.
"""

from __future__ import annotations

from heapq import heapreplace
from typing import Dict, List

from repro.common.stats import StatGroup
from repro.isa.instruction import DynInst
from repro.isa.opcodes import FUClass

#: What an issue of a class-NONE opcode (HALT/NOP) claims: nothing.
_NO_UNIT = (None, 0, None)


class FUPool:
    """Tracks when each function unit can next accept an operation.

    With ``clusters > 1`` (the paper's section-7 horizontal clustering),
    each class's units are split evenly across clusters and an instruction
    may only use its own cluster's units.

    The pool is also the issue loop's FU acquisition callable: the
    processor sets :attr:`now` once per cycle and hands the pool to the
    IQ's ``select_issue``, which calls it once per issue candidate.
    """

    __slots__ = ("clusters", "now", "_units", "_ports", "_stat_issued",
                 "_stat_structural", "_issue_slots")

    def __init__(self, fu_counts: Dict[str, int], stats: StatGroup,
                 clusters: int = 1) -> None:
        self.clusters = max(1, clusters)
        self.now = 0
        # Per (class, cluster): heap of next-free cycles, one per unit.
        self._units: Dict[tuple, List[int]] = {}
        self._stat_issued = {}
        for fu_class in FUClass:
            if fu_class is FUClass.NONE:
                continue
            per_cluster = fu_counts.get(fu_class.value, 0) // self.clusters
            for cluster in range(self.clusters):
                self._units[(fu_class, cluster)] = [0] * per_cluster
            self._stat_issued[fu_class] = stats.counter(
                f"fu.{fu_class.value}.ops")
        self._stat_structural = stats.counter(
            "fu.structural_stalls", "issue attempts blocked by busy units")
        #: The data-cache port heaps, in cluster order.
        self._ports = [self._units[(FUClass.MEM_PORT, cluster)]
                       for cluster in range(self.clusters)]
        #: Per cluster: opcode -> (unit heap, occupancy, issued counter)
        #: an issue claims, resolved on first sight of the opcode.
        self._issue_slots: List[Dict] = [{} for _ in range(self.clusters)]

    @staticmethod
    def issue_class(inst: DynInst) -> FUClass:
        """FU class consumed at IQ issue time.

        Memory operations issue their *effective-address calculation*, an
        ordinary integer add (paper section 5); the cache port (MEM_PORT) is
        consumed later by the LSQ when the access goes to the data cache.
        """
        if inst.is_mem:
            return FUClass.INT_ALU
        return inst.static.info.fu_class

    def can_accept(self, fu_class: FUClass, now: int,
                   cluster: int = 0) -> bool:
        units = self._units.get((fu_class, cluster))
        return bool(units) and units[0] <= now

    def accept(self, fu_class: FUClass, now: int, occupancy: int = 1,
               cluster: int = 0) -> bool:
        """Claim a ``fu_class`` unit in ``cluster`` for ``occupancy`` cycles."""
        units = self._units.get((fu_class, cluster))
        if not units or units[0] > now:
            self._stat_structural.inc()
            return False
        heapreplace(units, now + occupancy)
        self._stat_issued[fu_class].inc()
        return True

    def next_event_cycle(self, now: int) -> int:
        """Earliest future cycle a currently-busy unit frees up (NEVER if
        every unit is already free).

        Informational: the skip-ahead probe treats any cycle with ready
        instructions as active (FU-blocked retries count structural
        stalls per cycle), so unit availability never gates a skip on its
        own — but every timed component answers the same question.
        """
        earliest = 1 << 60
        for units in self._units.values():
            if units and now < units[0] < earliest:
                earliest = units[0]
        return earliest

    def _issue_slot(self, inst: DynInst):
        """Resolve and remember what an issue of ``inst``'s opcode in its
        cluster claims.

        Non-pipelined operations occupy their unit for the full latency;
        pipelined ones (and a memory op's effective-address add) free it
        next cycle.  HALT/NOP consume nothing.
        """
        info = inst.static.info
        fu_class = self.issue_class(inst)
        if fu_class is FUClass.NONE:
            slot = _NO_UNIT
        else:
            occupancy = 1 if inst.is_mem or info.pipelined else info.latency
            slot = (self._units[(fu_class, inst.cluster)], occupancy,
                    self._stat_issued[fu_class])
        self._issue_slots[inst.cluster][inst.static.opcode] = slot
        return slot

    def __call__(self, inst: DynInst) -> bool:
        """Claim the unit an IQ issue of ``inst`` needs at :attr:`now`.

        The same claim as ``accept(issue_class(inst), ...)``, with the
        class lookups done once per (opcode, cluster): this runs once per
        issue candidate.
        """
        slot = self._issue_slots[inst.cluster].get(inst.static.opcode)
        if slot is None:
            slot = self._issue_slot(inst)
        units, occupancy, issued = slot
        if units is None:
            return True
        now = self.now
        if not units or units[0] > now:
            self._stat_structural.inc()
            return False
        heapreplace(units, now + occupancy)
        issued.inc()
        return True

    def try_issue(self, inst: DynInst, now: int) -> bool:
        """Claim the unit an IQ issue of ``inst`` needs at cycle ``now``."""
        self.now = now
        return self(inst)

    def try_cache_port(self, now: int) -> bool:
        """Claim a data-cache read/write port for one cycle (LSQ side).

        The cache is shared: any cluster's port will do.  Each busy
        cluster passed over counts a structural stall, as ``accept``
        does."""
        for units in self._ports:
            if units and units[0] <= now:
                heapreplace(units, now + 1)
                self._stat_issued[FUClass.MEM_PORT].inc()
                return True
            self._stat_structural.inc()
        return False
