"""Fig 8: cycle-level throughput model of the NetFPGA experiment.

§6.1.1 compares four designs built from the same NetFPGA SUME source:
the Reference Switch, the NDP switch, Stardust (packed cells), and a
Stardust variant fed non-packed cells — all at a 150 MHz data path,
32B wide, with a table lookup every 2 cycles.

The hardware is modelled, not required: for each design we compute the
data path's service rate for a given packet size and take the minimum
of the line's goodput and the pipeline's goodput.  What the model
keeps from the real device:

* a packet occupies ``ceil(S / 32)`` data-path beats, minimum 2 (the
  lookup interval) — unaligned sizes waste the tail beat;
* NDP's trimming/priority logic adds per-packet beats;
* non-packed cells pad every packet's last cell to the cell size;
* packed cells fill every beat and amortize the wire's per-packet
  overhead across a whole credit-worth batch (§3.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Tuple

from repro.core.packing import cells_for_bytes
from repro.net.packet import ETHERNET_OVERHEAD_BYTES


class SwitchDesign(Enum):
    """The four NetFPGA designs of Fig 8."""

    REFERENCE = "reference"
    NDP = "ndp"
    STARDUST_PACKED = "stardust"
    CELLS_UNPACKED = "cells"


@dataclass(frozen=True)
class DesignThroughput:
    """One point of Fig 8(a)."""

    design: SwitchDesign
    packet_bytes: int
    goodput_bps: float
    line_goodput_bps: float

    @property
    def line_rate_fraction(self) -> float:
        """Achieved share of the wire's goodput at this size."""
        return self.goodput_bps / self.line_goodput_bps


@dataclass(frozen=True)
class NetFpgaModel:
    """The 4x10GE NetFPGA SUME platform of §6.1.1."""

    ports: int = 4
    port_rate_bps: int = 10_000_000_000
    clock_hz: int = 150_000_000
    bus_bytes: int = 32
    lookup_cycles: int = 2
    #: Extra per-packet beats for NDP's trim/priority-queue logic.
    ndp_extra_cycles: int = 1
    cell_bytes: int = 64

    @property
    def line_rate_bps(self) -> int:
        """Aggregate raw line rate of all ports."""
        return self.ports * self.port_rate_bps

    @property
    def datapath_bps(self) -> float:
        """Internal data-path capacity (bus width x clock)."""
        return self.clock_hz * self.bus_bytes * 8

    # ------------------------------------------------------------------
    def line_goodput_bps(self, packet_bytes: int) -> float:
        """Payload bits/s the wire itself can carry at ``packet_bytes``."""
        wire = packet_bytes + ETHERNET_OVERHEAD_BYTES
        return self.line_rate_bps * packet_bytes / wire

    def _pipeline_goodput(
        self, packet_bytes: int, beats_per_packet: int
    ) -> float:
        """Goodput when every packet costs ``beats_per_packet`` cycles."""
        pps = self.clock_hz / beats_per_packet
        return pps * packet_bytes * 8

    def throughput(
        self, design: SwitchDesign, packet_bytes: int
    ) -> DesignThroughput:
        """The Fig 8(a) y-value for one design and packet size."""
        if packet_bytes <= 0:
            raise ValueError("packet size must be positive")
        line = self.line_goodput_bps(packet_bytes)

        if design is SwitchDesign.REFERENCE or design is SwitchDesign.NDP:
            beats = max(
                math.ceil(packet_bytes / self.bus_bytes), self.lookup_cycles
            )
            if design is SwitchDesign.NDP:
                beats += self.ndp_extra_cycles
            pipe = self._pipeline_goodput(packet_bytes, beats)
        elif design is SwitchDesign.CELLS_UNPACKED:
            # Every packet is chopped alone; its last cell is padded to
            # the full cell size, and each cell costs its full beats.
            cells = cells_for_bytes(packet_bytes, self.cell_bytes)
            beats = cells * max(
                math.ceil(self.cell_bytes / self.bus_bytes),
                self.lookup_cycles,
            )
            pipe = self._pipeline_goodput(packet_bytes, beats)
        elif design is SwitchDesign.STARDUST_PACKED:
            # Packed cells: the data path carries a dense byte stream;
            # cost per cell is its beats, and cells carry pure payload.
            beats_per_cell = max(
                math.ceil(self.cell_bytes / self.bus_bytes),
                self.lookup_cycles,
            )
            cell_rate = self.clock_hz / beats_per_cell
            pipe = cell_rate * self.cell_bytes * 8
            # Packing amortizes the wire's per-packet overhead across a
            # whole credit batch, so the wire constraint is the *raw*
            # line rate, not the per-packet goodput — this is exactly
            # why Fig 8(a)'s Stardust curve is flat in packet size.
            return DesignThroughput(
                design,
                packet_bytes,
                min(self.line_rate_bps, pipe),
                self.line_goodput_bps(packet_bytes),
            )
        else:  # pragma: no cover
            raise ValueError(f"unknown design {design}")

        return DesignThroughput(design, packet_bytes, min(line, pipe), line)

    def sweep(
        self, design: SwitchDesign, sizes: Iterable[int]
    ) -> list[DesignThroughput]:
        """Throughput points for one design across packet sizes."""
        return [self.throughput(design, s) for s in sizes]


def trace_throughput(
    model: NetFpgaModel,
    design: SwitchDesign,
    size_probabilities: Sequence[Tuple[int, float]],
) -> float:
    """Fig 8(b): relative throughput (%) on a packet-size mix.

    ``size_probabilities`` is [(size, cumulative_probability), ...] as
    in :data:`repro.workloads.distributions.PACKET_SIZE_MIXES`.

    The y-axis is achieved goodput as a percentage of the *device's
    internal capacity* (what a perfectly packed data path moves): a
    packed-cell design scores ~100% on any mix, while per-packet
    designs lose the wire and data-path slack of every small or
    unaligned packet — Fig 8(b)'s gap.
    """
    achieved = 0.0
    prev = 0.0
    for size, cum in size_probabilities:
        weight = cum - prev
        prev = cum
        if weight <= 0:
            continue
        point = model.throughput(design, size)
        achieved += weight * point.goodput_bps
    return 100.0 * achieved / model.datapath_bps
