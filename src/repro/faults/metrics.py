"""Resilience metrics: what a faulted run measures.

:class:`ResilienceMetrics` is the resilience section of
:class:`~repro.fabrics.base.FabricMetrics` — filled in only when a
:class:`~repro.faults.injector.FaultInjector` is attached, ``None``
otherwise, so unfaulted metrics keep their exact historical shape.
The measured recovery time is reported *alongside* the Appendix E
formula (``FabricNetwork.analytical_recovery_ns``) instead of the
formula standing in for the experiment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional


@dataclass
class ResilienceMetrics:
    """How the fabric weathered the injected faults, with units."""

    #: Disruptive fault actions applied (storm failures count singly).
    faults_injected: int
    #: Frames lost on failed/failing links: queued at fail time,
    #: serialized into a dead link, or in flight when it went down —
    #: cells for the Stardust fabric, packets for the push baseline.
    frames_lost_in_transit: int
    #: Frames dropped by dead devices (element/edge death).
    dead_device_drops: int
    #: Distinct flows ECMP kept hashing onto a dead path during the
    #: rehash window (push baseline; identically 0 for Stardust,
    #: which re-sprays per cell).
    blackholed_flows: int
    #: Packets blackholed in total (every drop, not distinct flows).
    blackholed_packets: int
    #: Time from the first fault until delivered throughput was last
    #: seen below ``recovery_fraction`` x baseline.  0 = no measurable
    #: dip; -1 = still below baseline when the run ended.
    time_to_recover_ns: int
    #: Worst-case fractional throughput loss during the dip (0..1).
    dip_depth: float
    #: Total time spent below the recovery threshold.
    dip_duration_ns: int
    #: Pre-fault delivered throughput baseline (bytes per sample
    #: period averaged into Gbps).
    baseline_gbps: float
    #: Time from the first fault until a reachability monitor first
    #: declared a link down (Stardust dynamic mode; quantized to the
    #: sample period).  None: no protocol, or never detected.
    protocol_detect_ns: Optional[int] = None
    #: Appendix E analytical recovery time for this fabric's protocol
    #: parameters (Stardust dynamic reachability only; else None).
    analytical_recovery_ns: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON round-trippable)."""
        return asdict(self)

    def summary(self) -> Dict[str, Any]:
        """Flat entries for a RunResult ``metrics`` dict."""
        data = {
            "faults_injected": self.faults_injected,
            "frames_lost_in_transit": self.frames_lost_in_transit,
            "dead_device_drops": self.dead_device_drops,
            "blackholed_flows": self.blackholed_flows,
            "blackholed_packets": self.blackholed_packets,
            "measured_recovery_ns": self.time_to_recover_ns,
            "dip_depth": self.dip_depth,
            "dip_duration_ns": self.dip_duration_ns,
            "baseline_gbps": self.baseline_gbps,
        }
        if self.protocol_detect_ns is not None:
            data["protocol_detect_ns"] = self.protocol_detect_ns
        if self.analytical_recovery_ns is not None:
            data["analytical_recovery_ns"] = self.analytical_recovery_ns
        return data

