"""Packets and Ethernet on-wire framing.

A :class:`Packet` is a metadata-only object: it has sizes, addressing and
transport fields but carries no payload bytes.  Sizes matter everywhere
(serialization times, queue occupancy, packing), so the distinction
between *frame* bytes and *wire* bytes (frame + preamble + SFD + IPG) is
kept explicit — packing cells amortizes the wire overhead, which is one
of the paper's throughput arguments (§2.3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.net.addressing import PortAddress

# Ethernet constants (bytes).
PREAMBLE_SFD_BYTES = 8
INTERPACKET_GAP_BYTES = 12
ETHERNET_OVERHEAD_BYTES = PREAMBLE_SFD_BYTES + INTERPACKET_GAP_BYTES  # 20
ETHERNET_HEADER_BYTES = 14
ETHERNET_FCS_BYTES = 4
MIN_ETHERNET_FRAME = 64
MAX_ETHERNET_PAYLOAD = 1500
JUMBO_FRAME = 9000

_packet_ids = itertools.count()


@dataclass(frozen=True, slots=True)
class PauseFrame:
    """Flow control from a Fabric Adapter to its host (§5.4).

    ``pause=True`` asks the host to stop transmitting; ``pause=False``
    resumes it.  Modeled after PFC/802.3x at the host link only — the
    fabric itself never needs pause in normal operation.
    """

    pause: bool
    size_bytes: int = 64

    @property
    def wire_bytes(self) -> int:
        """On-wire size: frame plus preamble/SFD/IPG."""
        return wire_size(self.size_bytes)


def wire_size(frame_bytes: int) -> int:
    """On-wire bytes for one Ethernet frame (adds preamble/SFD/IPG)."""
    if frame_bytes < MIN_ETHERNET_FRAME:
        frame_bytes = MIN_ETHERNET_FRAME
    return frame_bytes + ETHERNET_OVERHEAD_BYTES


@dataclass(slots=True)
class Packet:
    """One Ethernet frame's worth of traffic.

    ``size_bytes`` is the frame size (headers + payload + FCS);
    :attr:`wire_bytes` adds the inter-packet overhead a real wire pays.
    Transport fields (``flow_id``, ``seq``, ``is_ack`` ...) are used by
    the TCP-family models, ``dst``/``src`` by switching, ``ecn``/``ecn_echo``
    by DCTCP/DCQCN, and ``priority`` by traffic-class experiments.
    """

    size_bytes: int
    src: PortAddress
    dst: PortAddress
    flow_id: int = 0
    seq: int = 0
    is_ack: bool = False
    ack_seq: int = 0
    ecn: bool = False
    ecn_echo: bool = False
    priority: int = 0
    created_ns: int = 0
    pkt_id: int = field(default_factory=_packet_ids.__next__)
    # DCQCN congestion-notification packets.
    is_cnp: bool = False
    #: On-wire size: frame plus preamble/SFD/IPG (:func:`wire_size`).
    #: A stored slot, not a property: every NIC and switch hop reads it
    #: (buffer check, link send) and ``size_bytes`` never changes after
    #: construction.
    wire_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(
                f"packet size must be positive, got {self.size_bytes}"
            )
        self.wire_bytes = wire_size(self.size_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        return (
            f"<Packet#{self.pkt_id} {kind} flow={self.flow_id} "
            f"{self.src}->{self.dst} {self.size_bytes}B seq={self.seq}>"
        )
