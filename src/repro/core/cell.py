"""Cells: the only thing the network fabric ever sees.

A data cell carries up to ``cell_payload_bytes`` of packet data as a
tuple of :class:`CellFragment` tuples (packet packing means one cell can
hold pieces of several packets).  The header carries exactly what §3.2/§4.2
say it must: destination Fabric Adapter, source Fabric Adapter, VOQ
identity, a sequence number for reassembly, and the FCI bit Fabric
Elements piggyback congestion on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import NamedTuple, Optional, Tuple

from repro.net.addressing import DeviceId, PortAddress
from repro.net.packet import Packet


class CellKind(Enum):
    """What a fabric frame is."""

    DATA = auto()
    REACHABILITY = auto()


@dataclass(frozen=True, slots=True)
class VoqId:
    """Identity of a VOQ: destination (FA, port) plus traffic class."""

    dst: PortAddress
    priority: int = 0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ValueError("priority must be non-negative")
        # VOQ ids key every hot dict on the path (VOQ tables, scheduler
        # demand books, reassembly contexts); cache the hash once at
        # construction.  Same value the generated dataclass __hash__
        # would produce, so hash-ordered structures are unaffected.
        object.__setattr__(self, "_hash", hash((self.dst, self.priority)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.dst}/tc{self.priority}"


class _Fragment(NamedTuple):
    packet: Packet
    nbytes: int
    end_of_packet: bool


class CellFragment(_Fragment):
    """A contiguous slice of one packet carried inside a cell.

    A plain tuple underneath: the packer builds one per slice with
    ``tuple.__new__(CellFragment, (packet, nbytes, end_of_packet))``,
    skipping the checks below because its arithmetic already guarantees
    ``0 < nbytes <= packet.size_bytes``.
    """

    __slots__ = ()

    def __new__(
        cls, packet: Packet, nbytes: int, end_of_packet: bool
    ) -> "CellFragment":
        if nbytes <= 0:
            raise ValueError("fragment must carry at least one byte")
        if nbytes > packet.size_bytes:
            raise ValueError("fragment larger than its packet")
        return super().__new__(cls, packet, nbytes, end_of_packet)


@dataclass(slots=True, eq=False)
class Cell:
    """One fabric cell (data or reachability).

    ``slots=True`` matters here: cells are created per ~payload-size
    bytes of traffic and their attributes are read at every hop, so
    dict-free instances shave both construction and access costs on the
    hottest object in the simulation.  Cells compare by identity.
    """

    kind: CellKind
    dst_fa: DeviceId
    src_fa: DeviceId
    header_bytes: int
    voq: Optional[VoqId] = None
    seq: int = 0
    fragments: Tuple[CellFragment, ...] = ()
    fci: bool = False
    created_ns: int = 0
    # Reachability payload: the set of FA ids the sender can reach,
    # and the sender's identity (used by the protocol only).
    reachable: Optional[frozenset] = None
    sender: Optional[DeviceId] = None
    #: Payload and on-wire sizes.  Stored slots, not properties: they
    #: are read at every hop (spray, FCI check, link send) and neither
    #: the header nor the fragments ever change after construction.
    payload_bytes: int = field(init=False, repr=False)
    size_bytes: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.header_bytes < 0:
            raise ValueError("header bytes must be non-negative")
        if self.kind is CellKind.DATA and self.voq is None:
            raise ValueError("data cells need a VOQ id")
        self.payload_bytes = sum(f.nbytes for f in self.fragments)
        self.size_bytes = self.header_bytes + self.payload_bytes

    @classmethod
    def data(
        cls,
        dst_fa: DeviceId,
        src_fa: DeviceId,
        header_bytes: int,
        voq: VoqId,
        seq: int,
        fragments: Tuple[CellFragment, ...],
        created_ns: int,
        payload_bytes: int,
    ) -> "Cell":
        """Fast constructor for DATA cells — the hot per-cell allocation.

        The packing layer creates one cell per ~payload-size bytes of
        traffic and already knows the payload sum and that a VOQ id is
        present, so this skips the dataclass ``__init__`` defaults
        machinery and ``__post_init__`` validation, and the packer calls
        it positionally.  Must assign every slot the dataclass declares.
        """
        cell = cls.__new__(cls)
        cell.kind = CellKind.DATA
        cell.dst_fa = dst_fa
        cell.src_fa = src_fa
        cell.header_bytes = header_bytes
        cell.voq = voq
        cell.seq = seq
        cell.fragments = fragments
        cell.fci = False
        cell.created_ns = created_ns
        cell.reachable = None
        cell.sender = None
        cell.payload_bytes = payload_bytes
        cell.size_bytes = header_bytes + payload_bytes
        return cell

    @classmethod
    def reach(
        cls, sender: DeviceId, header_bytes: int, reachable: frozenset
    ) -> "Cell":
        """Fast constructor for REACHABILITY cells (one per live port
        per advertisement tick).  Same contract as :meth:`data`: must
        assign every slot the dataclass declares.
        """
        cell = cls.__new__(cls)
        cell.kind = CellKind.REACHABILITY
        cell.dst_fa = 0  # reachability cells are per-link, not routed
        cell.src_fa = sender
        cell.header_bytes = header_bytes
        cell.voq = None
        cell.seq = 0
        cell.fragments = ()
        cell.fci = False
        cell.created_ns = 0
        cell.reachable = reachable
        cell.sender = sender
        cell.payload_bytes = 0
        cell.size_bytes = header_bytes
        return cell

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is CellKind.REACHABILITY:
            return f"<ReachCell from dev{self.sender}>"
        return (
            f"<Cell fa{self.src_fa}->fa{self.dst_fa} "
            f"voq={self.voq} seq={self.seq} {self.size_bytes}B"
            f"{' FCI' if self.fci else ''}>"
        )
