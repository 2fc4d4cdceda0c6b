"""The yardstick: a fixed piece of work that says how fast the machine is.

The benchmark runs on a few cores of a shared host whose speed moves by
a third or more and stays there for seconds to minutes (a neighbour on
the sibling hardware thread).  Wall time of the simulator follows the
host, not the program: identical code, ten runs, medians spread 15-25 %.
No statistic of wall time alone removes that - the slow stretches last
longer than a run.

So every timed phase is interleaved with *slices* of this module's
workload, a small event simulation of its own (a heap of timers over a
ring of linked nodes: pointer chasing, allocation, method calls - the
same diet as the simulator, measured to slow down by the same factor,
see README).  Its code never changes with the program, so the time a
slice takes reads the machine alone, and

    normalised seconds = wall seconds x NOMINAL_S / mean slice seconds

is what the program would have taken at the yardstick's nominal speed.
On a quiet machine of the reference kind the factor is 1.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List

#: Seconds one slice takes on the reference box (2-vCPU Firecracker
#: guest, Xeon @ 2.1 GHz, CPython 3.11) when nothing contends with it.
#: A constant, not a measurement: changing it rescales every normalised
#: timing, so it changes only together with a new baseline.
NOMINAL_S = 0.024

NODES = 30_000
TIMERS = 512
EVENTS = 25_000


class _Node:
    __slots__ = ("index", "next", "seen")

    def __init__(self, index: int) -> None:
        self.index = index
        self.next = self
        self.seen: List[int] = []

    def fire(self, heap: list, now: int, seq: int) -> None:
        self.seen.append(now)
        if len(self.seen) > 8:
            self.seen = self.seen[4:]
        delay = 1 + (self.index * 7919 + now) % 97
        heapq.heappush(heap, (now + delay, seq, self.next))


class Yardstick:
    """Call it to run one slice; ``slices`` keeps every slice's seconds."""

    def __init__(self) -> None:
        self.slices: List[float] = []
        self._nodes = [_Node(index) for index in range(NODES)]
        # A fixed permutation (7919 is prime to NODES): node i hands over
        # to node (i * 7919 + 1) mod NODES, far away in memory.
        for node in self._nodes:
            node.next = self._nodes[(node.index * 7919 + 1) % NODES]
        self()  # first slice warms caches and is not kept
        self.slices.clear()

    def __call__(self) -> None:
        nodes = self._nodes
        # A slice makes no cycles.  With the collector on, a collection
        # the *program's* garbage has made due could start inside the
        # slice and be read as a slow machine.
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        heap = [(tick, tick, nodes[tick * 37 % NODES]) for tick in range(TIMERS)]
        heapq.heapify(heap)
        pop = heapq.heappop
        for seq in range(TIMERS, TIMERS + EVENTS):
            now, _, node = pop(heap)
            node.fire(heap, now, seq)
        self.slices.append(time.perf_counter() - started)
        if collecting:
            gc.enable()

    def mean(self, first: int, last: int) -> float:
        """Mean seconds of slices ``first`` up to, not including, ``last``."""
        chosen = self.slices[first:last]
        return sum(chosen) / len(chosen)


class Still(Yardstick):
    """A yardstick that does no work and always reads nominal speed: for
    the traced run, which normalises nothing and profiles everything."""

    def __init__(self) -> None:
        self.slices = []

    def __call__(self) -> None:
        self.slices.append(NOMINAL_S)
