"""Cells: the only thing the network fabric ever sees.

A data cell carries up to ``cell_payload_bytes`` of packet data as a list
of :class:`CellFragment` records (packet packing means one cell can hold
pieces of several packets).  The header carries exactly what §3.2/§4.2
say it must: destination Fabric Adapter, source Fabric Adapter, VOQ
identity, a sequence number for reassembly, and the FCI bit Fabric
Elements piggyback congestion on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional, Tuple

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


@dataclass(frozen=True, slots=True)
class CellFragment:
    """A contiguous slice of one packet carried inside a cell."""

    packet: Packet
    nbytes: int
    end_of_packet: bool

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError("fragment must carry at least one byte")
        if self.nbytes > self.packet.size_bytes:
            raise ValueError("fragment larger than its packet")


_cell_ids = itertools.count()


@dataclass(slots=True)
class Cell:
    """One fabric cell (data or reachability).

    ``slots=True`` matters here: cells are created per ~payload-size
    bytes of traffic and their attributes are read at every hop, so
    dict-free instances shave both construction and access costs on the
    hottest object in the simulation.
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
    cell_id: int = field(default_factory=lambda: next(_cell_ids))
    # Reachability payload: the set of FA ids the sender can reach,
    # and the sender's identity (used by the protocol only).
    reachable: Optional[frozenset] = None
    sender: Optional[DeviceId] = None
    _payload_bytes: int = field(init=False, repr=False, compare=False)
    #: On-wire size.  A stored slot, not a property: it is read at every
    #: hop (spray, FCI check, link send) and neither the header nor the
    #: fragments ever change after construction.
    size_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.header_bytes < 0:
            raise ValueError("header bytes must be non-negative")
        if self.kind is CellKind.DATA and self.voq is None:
            raise ValueError("data cells need a VOQ id")
        # Fragments never change after construction, but the sizes are
        # read at every hop — memoize both.
        self._payload_bytes = sum(f.nbytes for f in self.fragments)
        self.size_bytes = self.header_bytes + self._payload_bytes

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
        machinery and ``__post_init__`` validation.  Must assign every
        slot the dataclass declares.
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
        cell.cell_id = next(_cell_ids)
        cell.reachable = None
        cell.sender = None
        cell._payload_bytes = payload_bytes
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
        cell.cell_id = next(_cell_ids)
        cell.reachable = reachable
        cell.sender = sender
        cell._payload_bytes = 0
        cell.size_bytes = header_bytes
        return cell

    @property
    def payload_bytes(self) -> int:
        """Payload bytes carried by this cell."""
        return self._payload_bytes

    @property
    def priority(self) -> int:
        """Traffic class of the cell's VOQ (0 for control)."""
        return self.voq.priority if self.voq is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is CellKind.REACHABILITY:
            return f"<ReachCell from dev{self.sender}>"
        return (
            f"<Cell#{self.cell_id} fa{self.src_fa}->fa{self.dst_fa} "
            f"voq={self.voq} seq={self.seq} {self.size_bytes}B"
            f"{' FCI' if self.fci else ''}>"
        )
