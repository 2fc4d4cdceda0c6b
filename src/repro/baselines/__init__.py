"""Baseline systems the paper compares against.

:mod:`repro.baselines.ethernet` — a standard output-queued Ethernet
packet switch with ECMP flow hashing, drop-tail buffers and optional
ECN marking.

:class:`PushFabricNetwork` — a "push" data center fabric built from
those switches on the same topologies as Stardust (§5.2's comparison)
— lives in :mod:`repro.fabrics.push`.
"""

from repro.baselines.ethernet import EthConfig, EthernetSwitch, EthPort


__all__ = [
    "EthernetSwitch",
    "EthPort",
    "EthConfig",
]
