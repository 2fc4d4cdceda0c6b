"""Stardust (NSDI 2019) reproduction library.

Subpackages:

* :mod:`repro.sim` — discrete-event simulation substrate.
* :mod:`repro.net` — packets, flows, addressing.
* :mod:`repro.core` — the Stardust architecture (Fabric Adapters,
  Fabric Elements, cells, credits, spraying, reachability).
* :mod:`repro.fabrics` — pluggable fabric backends: the
  :class:`FabricNetwork` contract, the ``@fabric`` registry, and the
  shared topology wiring plan.
* :mod:`repro.topology` — fat-tree construction and the Appendix A
  scaling mathematics.
* :mod:`repro.baselines` — Ethernet "push" fabric with ECMP.
* :mod:`repro.transport` — TCP NewReno, DCTCP, DCQCN, MPTCP host models.
* :mod:`repro.workloads` — permutation, incast and trace-shaped traffic.
* :mod:`repro.pipeline` — device-level throughput models (Figs 3 and 8).
* :mod:`repro.analysis` — queueing, cost, power, area and resilience
  models (Figs 9-11, appendices).
"""

__version__ = "1.0.0"

from repro.core import StardustConfig
from repro.fabrics import (
    OneTierSpec,
    StardustNetwork,
    ThreeTierSpec,
    TwoTierSpec,
)
from repro.net import Flow, Packet, PortAddress
from repro.sim import Simulator

__all__ = [
    "__version__",
    "StardustConfig",
    "StardustNetwork",
    "OneTierSpec",
    "TwoTierSpec",
    "ThreeTierSpec",
    "Packet",
    "Flow",
    "PortAddress",
    "Simulator",
]
