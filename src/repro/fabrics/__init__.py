"""The two fabric backends behind one contract.

The package has three pieces:

* :mod:`repro.fabrics.base` — the :class:`FabricNetwork` ABC every
  backend satisfies (construction from ``(topology_spec, config,
  sim)``, shared host attachment and run control, the fault and
  resilience surface) and the typed :class:`FabricMetrics` surface
  (latency histograms, queue depths with explicit units, drops split
  by locus, delivered bytes).
* :mod:`repro.fabrics.wiring` — topology specs compiled to an explicit
  :class:`WiringPlan` (node descriptors + duplex-link pairs + routes)
  that every backend replays, so no backend wires a topology itself:
  one planner for the single-row shape, one for pods under spines.
* :data:`FABRICS` — the name table: ``"stardust"`` (the paper's
  pull-based cell fabric) and ``"push"`` (the §5.2 Ethernet/ECMP
  strawman).  Scenario specs, the runner and the CLI look fabrics up
  here, and each class's ``fabric_name`` is its key.

Building one by name::

    from repro.fabrics import FABRICS
    from repro.fabrics.wiring import TwoTierSpec

    net = FABRICS["stardust"](TwoTierSpec(
        pods=2, fas_per_pod=4, fes_per_pod=4, spines=4, hosts_per_fa=4,
    ))
    net.run(1_000_000)
    print(net.collect_metrics().total_drops)
"""

from typing import Dict, Type

from repro.fabrics.base import FabricMetrics, FabricNetwork
from repro.fabrics.push import PushFabricNetwork
from repro.fabrics.stardust import StardustNetwork
from repro.fabrics.wiring import (
    EdgeNode,
    ElementNode,
    ElementRoutes,
    LinkPair,
    OneTierSpec,
    ThreeTierSpec,
    TwoTierSpec,
    WiringPlan,
    build_wiring_plan,
)

#: Fabric name -> backend class; the name a spec's ``fabric`` holds.
FABRICS: Dict[str, Type[FabricNetwork]] = {
    "stardust": StardustNetwork,
    "push": PushFabricNetwork,
}


class UnknownFabricError(KeyError, ValueError):
    """Raised for a fabric name that is not a key of :data:`FABRICS`.

    Also a ``ValueError``, like every other spec validation error.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        known = ", ".join(sorted(FABRICS))
        return f"unknown fabric {self.name!r}; known: {known}"


__all__ = [
    "FABRICS",
    "EdgeNode",
    "ElementNode",
    "ElementRoutes",
    "FabricMetrics",
    "FabricNetwork",
    "LinkPair",
    "OneTierSpec",
    "PushFabricNetwork",
    "StardustNetwork",
    "ThreeTierSpec",
    "TwoTierSpec",
    "UnknownFabricError",
    "WiringPlan",
    "build_wiring_plan",
]
