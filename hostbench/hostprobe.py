"""Host-speed probe: a fixed piece of interpreter work timed next to
every measured sample (standard library only, independent of the code
under test).

The shared host alternates between contended and uncontended phases that
last tens of seconds and change Python throughput by up to 1.6x, far
more than a code change should be judged on.  The probe does the same
kind of work the simulator does — small-object allocation, attribute
access, dict traffic, calls — so its time moves with the host's speed.
A sample's wall time is reported as
``wall * (PROBE_NOMINAL_S / probe) ** PROBE_ELASTICITY``: the time it
would take on a host where the probe takes ``PROBE_NOMINAL_S``.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

#: Probe time the corrected figures are scaled to (about its time on an
#: uncontended core of a 2.1 GHz x86-64 host with CPython 3.11).
PROBE_NOMINAL_S = 0.015
#: How strongly simulator time follows probe time across host phases
#: (log-log slope).  The pure-interpreter probe reacts more than the
#: simulator, part of whose time is in compiled kernels: over eight
#: 20-second windows and four separate processes, exponents 0.7–0.85
#: gave the flattest corrected rates on cell-seg and cell-ideal.
PROBE_ELASTICITY = 0.8

_ITERATIONS = 20_000


class _Node:
    __slots__ = ("key", "left", "right", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.left = None
        self.right = None
        self.weight = weight


def _work() -> int:
    table: dict = {}
    root = _Node(0, 0)
    total = 0
    x = 12345
    for i in range(_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        node = root
        while True:
            if key < node.key:
                if node.left is None:
                    node.left = _Node(key, i)
                    break
                node = node.left
            elif key > node.key:
                if node.right is None:
                    node.right = _Node(key, i)
                    break
                node = node.right
            else:
                node.weight += 1
                break
        table[key] = table.get(key, 0) + 1
        total += len(table) & 7
    return total


def probe(repeats: int = 1) -> float:
    """Seconds the fixed work takes now (median of ``repeats``)."""
    times = []
    for _ in range(repeats):
        began = perf_counter()
        _work()
        times.append(perf_counter() - began)
    times.sort()
    return times[len(times) // 2]


def corrected(seconds: float, probe_seconds: float) -> float:
    """``seconds`` scaled to the nominal host speed."""
    return seconds * (PROBE_NOMINAL_S / probe_seconds) ** PROBE_ELASTICITY


def _serve() -> None:
    """Helper process: run the probe for every ``probe`` line on stdin,
    answer with its time; stop on ``stop`` or end of input."""
    for line in sys.stdin:
        if line.strip() != "probe":
            break
        print(repr(probe()), flush=True)


class ParallelProbe:
    """The probe on ``workers`` CPUs at once, for workloads whose work
    runs in that many worker processes: the host's speed is then the
    mean over the CPUs they occupy.

    Helpers are plain interpreters running this file, started at the
    first measurement and blocked on their stdin between measurements.
    No thread is started in the calling process, so it stays safe to
    fork (the job service forks a process per job), and no
    ``multiprocessing`` start method is used, so no resource-tracker
    process outlives the benchmark.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._helpers: list = []

    def _start(self) -> None:
        for _ in range(self.workers):
            self._helpers.append(subprocess.Popen(
                [sys.executable, __file__, "--serve"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
        self.measure()                   # a fresh helper's first run is slow

    def measure(self) -> float:
        if not self._helpers:
            self._start()
        for helper in self._helpers:
            helper.stdin.write("probe\n")
            helper.stdin.flush()
        times = [float(helper.stdout.readline())
                 for helper in self._helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        for helper in self._helpers:
            try:
                helper.stdin.write("stop\n")
                helper.stdin.close()
            except OSError:
                pass
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    _serve()
