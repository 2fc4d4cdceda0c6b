"""Configuration of a Stardust fabric.

One :class:`StardustConfig` object parameterizes every mechanism the
paper describes that an experiment varies: cell geometry, credit size
and speedup, FCI behaviour, buffer sizes and the reachability protocol.
The defaults follow the paper's running examples (256B cells, 4KB
credits, ~2-3% credit speedup); link rates belong to the network.
Values no experiment varies are the module's fixed-value constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.units import KB, MB, MICROSECOND

# --- fixed values ------------------------------------------------------
# Parameters of the paper's mechanisms that no experiment varies.  They
# sit here, beside the knobs, so the parameter table stays in one file;
# link propagation delays are shared with the push baseline and live in
# :mod:`repro.fabrics.wiring`.

#: Ingress VOQs report demand to the egress scheduler immediately once
#: this many unreported bytes accumulate...
VOQ_REPORT_THRESHOLD_BYTES = 4 * KB
#: ...and in any case within this long of the first unreported byte
#: (so sub-threshold tails are never stranded).
VOQ_REPORT_FLUSH_NS = 1 * MICROSECOND
#: FCI throttle decays back to normal after this long without marks (§4.2).
FCI_DECAY_NS = 20 * MICROSECOND
#: Reachability cell size (Appendix E: 24B).
REACHABILITY_CELL_BYTES = 24
#: Per-hop forwarding latency of control-plane messages (credit
#: requests/grants ride the FE control crossbar).
CONTROL_HOP_NS = 200
#: Seeds every device's spray permutations (mixed with the device id).
#: Scenario seeds vary the workload, never the spray order.
SPRAY_SEED = 1


@dataclass(slots=True)
class StardustConfig:
    """Knobs for Fabric Adapters, Fabric Elements and the fabric protocol."""

    # --- cell geometry (§3.2, §3.4) -----------------------------------
    #: Maximum cell size on the wire, header included (matches the FE
    #: datapath width; the paper uses 256B).
    cell_size_bytes: int = 256
    #: Cell header: destination/source FA, VOQ id, sequence number, flags.
    cell_header_bytes: int = 16
    #: Pack multiple packets/fragments per cell (§3.4).  Turning this off
    #: reproduces the older-generation ("Arad") behaviour and the
    #: "Switch - Cells" curve of Fig 8.
    packet_packing: bool = True

    # --- credits (§3.3, §4.1) ------------------------------------------
    #: Bytes released by one credit (paper example: 4KB).
    credit_size_bytes: int = 4 * KB
    #: Credit rate exceeds egress port rate by this fraction (paper: ~2%).
    credit_speedup: float = 0.02
    #: Traffic classes (VOQ = destination port x class).
    traffic_classes: int = 1
    #: Strict priority across classes (class 0 = highest); within a class
    #: credits are round-robin across requesting VOQs.  With
    #: ``strict_priority=False`` classes share by weighted round-robin
    #: using ``class_weights`` (§4.1: "typically a combination of
    #: round-robin, strict priority and weighted").
    strict_priority: bool = True
    #: WRR weights per class (used when strict_priority is False);
    #: missing classes default to weight 1.
    class_weights: tuple = ()
    #: Traffic classes served *without* waiting for credits (§5.6's
    #: low-latency VOQs).  Their aggregate bandwidth must be small —
    #: they bypass the scheduler entirely.
    low_latency_classes: tuple = ()

    # --- host flow control (§5.4) ----------------------------------------
    #: Send PAUSE toward hosts when the shared ingress pool passes this
    #: occupancy (None disables host flow control).
    host_pause_threshold: Optional[float] = None
    #: ...and RESUME below this occupancy.
    host_resume_threshold: float = 0.7

    # --- buffers --------------------------------------------------------
    #: Deep ingress packet buffer per Fabric Adapter (§5.4 example: 32MB).
    ingress_buffer_bytes: int = 32 * MB
    #: Shallow egress (reassembled packet) buffer per port — sized to
    #: absorb credit-loop in-flight data only (§4.1; the §6.2
    #: extrapolation gives ~tens of KB per port).
    egress_buffer_bytes: int = 64 * KB
    #: Egress buffer high watermark: above it, stop granting credits.
    egress_high_watermark: float = 0.75
    #: ...and resume below this.
    egress_low_watermark: float = 0.5

    # --- FCI congestion indication (§4.2) --------------------------------
    #: FE link queue depth (in cells) above which transiting cells are
    #: FCI-marked.  Fig 9 shows healthy sub-unity loads reach ~40-70
    #: cells, so the threshold sits above that: FCI is an
    #: oversubscription backstop, not a steady-state governor.
    fci_threshold_cells: int = 96
    #: Multiplicative slow-down of credit generation while FCI-marked
    #: cells arrive (credit period is multiplied by this).
    fci_throttle_factor: float = 1.5

    # --- reassembly (§4.1) -----------------------------------------------
    #: Discard a partially reassembled packet when its context is stuck
    #: this long (link error / loss recovery).
    reassembly_timeout_ns: int = 500 * MICROSECOND

    # --- spray (§5.3) ----------------------------------------------------
    #: Link choice of every FA and FE: ``"permutation"`` (the paper's
    #: rotating random permutation); ``"random"`` and ``"static"``
    #: (destination hash) are ablations.
    spray_mode: str = "permutation"

    # --- reachability protocol (§5.9, Appendix E) ------------------------
    #: ``"static"`` installs forwarding tables from the wiring plan;
    #: ``"dynamic"`` runs the live protocol, so the fabric heals itself.
    reachability: str = "static"
    #: Interval between reachability cells on each link.
    reachability_period_ns: int = 10 * MICROSECOND
    #: Consecutive good messages needed to declare a link up.
    reachability_up_threshold: int = 3
    #: Missed periods after which a link is declared down.
    reachability_miss_threshold: int = 3

    def __post_init__(self) -> None:
        if self.cell_header_bytes >= self.cell_size_bytes:
            raise ValueError("cell header must be smaller than the cell")
        if self.cell_size_bytes <= 0 or self.cell_header_bytes < 0:
            raise ValueError("invalid cell geometry")
        if self.credit_size_bytes < self.cell_payload_bytes:
            raise ValueError("a credit must cover at least one cell")
        if self.credit_speedup < 0:
            raise ValueError("credit speedup must be non-negative")
        if self.traffic_classes < 1:
            raise ValueError("need at least one traffic class")
        if not 0 < self.egress_low_watermark <= self.egress_high_watermark <= 1:
            raise ValueError("watermarks must satisfy 0 < low <= high <= 1")
        if self.fci_throttle_factor < 1.0:
            raise ValueError("throttle factor must be >= 1")
        if any(w < 1 for w in self.class_weights):
            raise ValueError("class weights must be positive")
        if any(
            c < 0 or c >= self.traffic_classes
            for c in self.low_latency_classes
        ):
            raise ValueError("low-latency classes must be valid classes")
        if self.host_pause_threshold is not None and not (
            0 < self.host_resume_threshold < self.host_pause_threshold <= 1
        ):
            raise ValueError(
                "need 0 < resume threshold < pause threshold <= 1"
            )
        if self.reachability not in ("static", "dynamic"):
            raise ValueError(f"unknown reachability mode {self.reachability!r}")

    @property
    def cell_payload_bytes(self) -> int:
        """Payload capacity of one cell."""
        return self.cell_size_bytes - self.cell_header_bytes
