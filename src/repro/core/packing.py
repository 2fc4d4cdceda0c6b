"""Packet packing: chopping a credit-worth burst of packets into cells.

§3.4: when a VOQ receives a credit it treats the dequeued burst as one
byte stream and slices it into maximum-size cells, so a cell may carry
the tail of one packet, several whole packets and the head of another.
Only the final cell of a burst may be short.  Without packing (the
ablation, and the pre-Jericho "Arad" behaviour) every packet is chopped
independently, so every packet's last cell is short — the waste Fig 8
quantifies.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.cell import Cell, CellFragment, VoqId
from repro.net.packet import Packet


def pack_burst(
    packets: Sequence[Packet],
    *,
    payload_bytes: int,
    header_bytes: int,
    dst_fa: int,
    src_fa: int,
    voq: VoqId,
    first_seq: int,
    created_ns: int = 0,
    packing: bool = True,
) -> List[Cell]:
    """Chop ``packets`` into cells.

    Returns the cells in transmission order, sequence-numbered starting
    at ``first_seq``.  With ``packing=False`` each packet starts a fresh
    cell (no fragments of different packets share a cell).
    """
    if payload_bytes <= 0:
        raise ValueError("cell payload must be positive")
    cells: List[Cell] = []
    seq = first_seq
    current: List[CellFragment] = []
    room = payload_bytes
    # A cell closes when it is full or its stream ends: the burst's last
    # packet when packing, every packet when not.
    last = len(packets) - 1
    new_tuple = tuple.__new__
    new_cell = Cell.data
    for index, packet in enumerate(packets):
        remaining = packet.size_bytes
        while remaining > 0:
            take = room if room < remaining else remaining
            remaining -= take
            room -= take
            # 0 < take <= packet.size_bytes by construction, so the
            # validating CellFragment constructor is skipped.
            current.append(
                new_tuple(CellFragment, (packet, take, not remaining))
            )
            if not room or not remaining and (index == last or not packing):
                cells.append(
                    new_cell(
                        dst_fa, src_fa, header_bytes, voq, seq,
                        tuple(current), created_ns, payload_bytes - room,
                    )
                )
                seq += 1
                current = []
                room = payload_bytes
    return cells


def cells_for_bytes(nbytes: int, payload_bytes: int) -> int:
    """How many cells a contiguous burst of ``nbytes`` needs.

    For unpacked mode this is per-packet; callers sum per packet.
    Useful for closed-form checks and the pipeline model.
    """
    if nbytes < 0:
        raise ValueError("bytes must be non-negative")
    if payload_bytes <= 0:
        raise ValueError("cell payload must be positive")
    return -(-nbytes // payload_bytes)
