"""Stardust core: the paper's primary contribution.

Public surface:

* :class:`StardustConfig` — every knob of the architecture.
* :class:`FabricAdapter` / :class:`FabricElement` — the two device types.
* Cells, VOQs, packing, credits, spray, reassembly, reachability — the
  mechanisms, individually importable and testable.

:class:`StardustNetwork` and the topology specs live in
:mod:`repro.fabrics`.
"""

from repro.core.cell import Cell, CellFragment, CellKind, VoqId
from repro.core.config import StardustConfig
from repro.core.control import ControlPlane
from repro.core.credit import EgressScheduler
from repro.core.fabric_adapter import FabricAdapter
from repro.core.fabric_element import FabricElement, FabricPort
from repro.core.packing import cells_for_bytes, pack_burst
from repro.core.reachability import ReachabilityMonitor
from repro.core.reassembly import ReassemblyEngine
from repro.core.spray import SprayArbiter
from repro.core.voq import SharedBufferPool, Voq

__all__ = [
    "Cell",
    "CellFragment",
    "CellKind",
    "VoqId",
    "StardustConfig",
    "ControlPlane",
    "EgressScheduler",
    "FabricAdapter",
    "FabricElement",
    "FabricPort",
    "pack_burst",
    "cells_for_bytes",
    "ReachabilityMonitor",
    "ReassemblyEngine",
    "SprayArbiter",
    "SharedBufferPool",
    "Voq",
]
