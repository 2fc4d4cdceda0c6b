"""Pluggable fabric backends behind one contract.

The package has three pieces:

* :mod:`repro.fabrics.base` — the :class:`FabricNetwork` ABC every
  backend satisfies (construction from ``(topology_spec, config,
  sim)``, shared host attachment and run control, the fault and
  resilience surface) and the typed :class:`FabricMetrics` surface
  (latency histograms, queue depths with explicit units, drops split
  by locus, delivered bytes).
* :mod:`repro.fabrics.registry` — ``@fabric("name")`` registration,
  mirroring the scenario registry, so builders and the CLI resolve
  fabrics by name and third fabrics drop in without touching the
  runner.
* :mod:`repro.fabrics.wiring` — topology specs compiled to an explicit
  :class:`WiringPlan` (node descriptors + duplex-link pairs + routes)
  that every backend replays, so no backend wires a topology itself:
  one planner for the single-row shape, one for pods under spines.

Two backends ship: ``"stardust"`` (the paper's pull-based cell fabric)
and ``"push"`` (the §5.2 Ethernet/ECMP strawman, alias ``"ethernet"``).

Building one by name::

    from repro.fabrics import get_fabric
    from repro.fabrics.wiring import TwoTierSpec

    net = get_fabric("stardust").cls(TwoTierSpec(
        pods=2, fas_per_pod=4, fes_per_pod=4, spines=4, hosts_per_fa=4,
    ))
    net.run(1_000_000)
    print(net.collect_metrics().total_drops)
"""

from repro.fabrics.base import FabricMetrics, FabricNetwork
from repro.fabrics.registry import (
    FabricEntry,
    UnknownFabricError,
    fabric,
    fabric_names,
    get_fabric,
    known_fabric_names,
)
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

# Importing the backend modules registers them.
from repro.fabrics.push import PushFabricNetwork
from repro.fabrics.stardust import StardustNetwork

__all__ = [
    "EdgeNode",
    "ElementNode",
    "ElementRoutes",
    "FabricEntry",
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
    "fabric",
    "fabric_names",
    "get_fabric",
    "known_fabric_names",
]
