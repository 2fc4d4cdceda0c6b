"""Micro drivers: one layer's public functions timed in isolation.

Each driver uses only the public engine / link / spec API, so it keeps
measuring the same thing whatever happens to ``repro.perf``.  Sizes are
``(full, smoke)`` pairs.  A driver returns its cost per operation and
raises ``RuntimeError`` when the layer did not do the work it was
asked for.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Dict, Optional

from repro.experiments.registry import build_scenario
from repro.sim.entity import Entity
from repro.sim.kernel import build_simulator
from repro.sim.link import Link
from repro.sim.units import gbps

#: Each driver runs this many times; the median is reported.  Five
#: short repetitions ride out a noisy neighbour better than one long one.
REPEATS = 5
#: Per repetition - 400k events, 120k pairs, 150k frames over the five.
FIRE_EVENTS = (80_000, 800)
FIRE_CHAINS = 64
CANCEL_PAIRS = (24_000, 240)
LINK_FRAMES = (30_000, 300)
LINK_FRAME_BYTES = 512
HASHES = (400, 10)


def engine_fire_ns(kernel: Optional[str], smoke: bool) -> float:
    """ns per fired event: self-rearming chains on a bare simulator."""
    sim = build_simulator(kernel)
    events = FIRE_EVENTS[smoke]
    left = [events]

    def tick() -> None:
        left[0] -= 1
        if left[0] > 0:
            sim.call_later(7, tick)

    for chain in range(FIRE_CHAINS):
        sim.schedule(chain + 1, tick)
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    if sim.events_fired < events:
        raise RuntimeError(f"engine fired {sim.events_fired} of {events}")
    return wall * 1e9 / sim.events_fired


def engine_cancel_ns(kernel: Optional[str], smoke: bool) -> float:
    """ns per schedule + schedule-and-cancel pair, corpses drained."""
    sim = build_simulator(kernel)
    pairs = CANCEL_PAIRS[smoke]

    def noop() -> None:
        pass

    started = time.perf_counter()
    for tick in range(pairs):
        sim.at(tick + 1, noop)
        sim.at(tick + 1, noop).cancel()
    sim.run()
    wall = time.perf_counter() - started
    if sim.events_fired != pairs:
        raise RuntimeError(f"engine fired {sim.events_fired} of {pairs}")
    return wall * 1e9 / pairs


class _Sink(Entity):
    """Counts deliveries; the cheapest possible receiver."""

    def __init__(self, sim: Any) -> None:
        super().__init__(sim, "sink")
        self.frames = 0

    def receive(self, payload: Any, link: Link) -> None:
        self.frames += 1


def link_frame_ns(kernel: Optional[str], smoke: bool) -> float:
    """ns per frame through one saturated 100G link into a sink."""
    sim = build_simulator(kernel)
    sink = _Sink(sim)
    link = Link(sim, _Sink(sim), sink, gbps(100), propagation_ns=100)
    frames = LINK_FRAMES[smoke]
    payload = object()
    started = time.perf_counter()
    for _ in range(frames):
        link.send(payload, LINK_FRAME_BYTES)
    sim.run()
    wall = time.perf_counter() - started
    if sink.frames != frames:
        raise RuntimeError(f"link delivered {sink.frames} of {frames}")
    return wall * 1e9 / frames


def spec_hash_us(kernel: Optional[str], smoke: bool) -> float:
    """us per ``ScenarioSpec.content_hash`` of the default permutation."""
    spec = build_scenario("permutation", kernel=kernel)
    hashes = HASHES[smoke]
    started = time.perf_counter()
    for _ in range(hashes):
        spec.content_hash()
    return (time.perf_counter() - started) * 1e6 / hashes


def run_all(kernel: Optional[str], smoke: bool) -> Dict[str, float]:
    """Every micro metric, by its ``BENCHMARK.json`` name."""
    drivers = {
        "sim.engine.fire_ns": engine_fire_ns,
        "sim.engine.cancel_ns": engine_cancel_ns,
        "sim.link.frame_ns": link_frame_ns,
        "experiments.hash_us": spec_hash_us,
    }
    gc.collect()
    return {
        name: statistics.median(driver(kernel, smoke) for _ in range(REPEATS))
        for name, driver in drivers.items()
    }
