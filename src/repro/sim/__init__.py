"""Discrete-event simulation substrate.

This package is the foundation every Stardust experiment runs on.  It
provides an integer-nanosecond event engine (:mod:`repro.sim.engine`),
point-to-point links with serialization and propagation delay and their
own FIFO transmit queues (:mod:`repro.sim.link`) and measurement
helpers (:mod:`repro.sim.stats`).  Run timelines are
:mod:`repro.telemetry`'s job.
"""

from repro.sim.engine import Simulator, Event, SimError
from repro.sim.entity import Entity
from repro.sim.link import Link, LinkDown
from repro.sim.stats import (
    Histogram,
    RateMeter,
    percentile,
)
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
    "Histogram",
    "RateMeter",
    "percentile",
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
