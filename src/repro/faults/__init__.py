"""Fault injection: declarative failure schedules for any fabric.

The paper's resilience story (§5.9, §5.10, Appendix E) stops being a
formula here: a :class:`FaultPlan` attached to a scenario spec compiles
into engine-scheduled link/element/edge failures, degraded-rate
intervals and seeded fault storms, and every faulted run reports a
:class:`ResilienceMetrics` section (measured recovery time next to the
Appendix E analytical value, throughput dip, blackholed flows, frames
lost in transit).
"""

from repro.faults.injector import FaultInjector, FaultTargetError, attach_plan
from repro.faults.metrics import ResilienceMetrics
from repro.faults.plan import (
    FaultEvent,
    FaultPlan,
    degrade,
    edge_down,
    edge_up,
    element_down,
    element_up,
    link_down,
    link_up,
    random_storm,
)

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultTargetError",
    "ResilienceMetrics",
    "attach_plan",
    "degrade",
    "edge_down",
    "edge_up",
    "element_down",
    "element_up",
    "link_down",
    "link_up",
    "random_storm",
]
