"""Discrete-event simulation substrate.

This package is the foundation every Stardust experiment runs on.  It
provides an integer-nanosecond event engine (:mod:`repro.sim.engine`),
point-to-point links with serialization and propagation delay
(:mod:`repro.sim.link`), drop-accounting FIFO queues
(:mod:`repro.sim.queue`) and measurement helpers
(:mod:`repro.sim.stats`).
"""

from repro.sim.engine import Simulator, Event, SimError
from repro.sim.entity import Entity
from repro.sim.link import Link, LinkDown
from repro.sim.queue import FifoQueue, QueueStats
from repro.sim.stats import (
    Counter,
    Histogram,
    RateMeter,
    TimeWeightedMean,
    percentile,
)
from repro.sim.trace import TraceRecord, Tracer
from repro.sim.units import (
    GBPS,
    KB,
    MB,
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    SECOND,
    bits_to_time_ns,
    gbps,
    time_ns_for_bytes,
)

__all__ = [
    "Simulator",
    "Event",
    "SimError",
    "Entity",
    "Link",
    "LinkDown",
    "FifoQueue",
    "QueueStats",
    "Counter",
    "Histogram",
    "RateMeter",
    "TimeWeightedMean",
    "percentile",
    "Tracer",
    "TraceRecord",
    "NANOSECOND",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "KB",
    "MB",
    "GBPS",
    "gbps",
    "bits_to_time_ns",
    "time_ns_for_bytes",
]
