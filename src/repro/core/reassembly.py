"""Cell-to-packet reassembly at the egress Fabric Adapter (§4.1).

Cells of one VOQ are sequence-numbered at the ingress; dynamic
forwarding may deliver them out of order, so each (source FA, VOQ)
context holds a small resequencing buffer and processes cells strictly
in sequence.  Fragments accumulate per packet; when a packet's final
fragment is processed the packet pops out whole.  A context stuck
waiting for a missing sequence number longer than the reassembly
timeout skips ahead and discards the packets the gap corrupted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.core.cell import Cell, VoqId
from repro.net.addressing import DeviceId
from repro.net.packet import Packet
from repro.sim.engine import Simulator


@dataclass(slots=True)
class _Context:
    """Resequencing state for one (source FA, VOQ) stream."""

    #: This context's timeout check, bound once (see ``_new_context``).
    check_timeout: Callable[[], None]
    expected_seq: int = 0
    pending: Dict[int, Cell] = field(default_factory=dict)
    #: Bytes received so far for the packet currently being reassembled.
    partial_packet: Optional[Packet] = None
    partial_bytes: int = 0
    #: Time the head-of-line gap appeared (for timeout).
    stalled_since_ns: Optional[int] = None
    #: A packet discarded by timeout whose straggler fragments must be
    #: swallowed without re-counting the discard.
    discarded_packet: Optional[Packet] = None


class ReassemblyEngine:
    """All reassembly contexts of one Fabric Adapter."""

    __slots__ = (
        "sim", "_deliver", "_timeout_ns", "_contexts",
        "cells_received", "cells_out_of_order", "packets_completed",
        "packets_discarded", "timeouts",
    )

    def __init__(
        self,
        sim: Simulator,
        deliver: Callable[[Packet], None],
        timeout_ns: int,
    ) -> None:
        self.sim = sim
        self._deliver = deliver
        self._timeout_ns = timeout_ns
        self._contexts: Dict[Tuple[DeviceId, VoqId], _Context] = {}
        # Accounting.
        self.cells_received = 0
        self.cells_out_of_order = 0
        self.packets_completed = 0
        self.packets_discarded = 0
        self.timeouts = 0

    @property
    def open_contexts(self) -> int:
        """Number of (source, VOQ) reassembly contexts in use."""
        return len(self._contexts)

    def max_pending(self) -> int:
        """Largest resequencing buffer across contexts (bounded by FE
        queue depth, per §4.1 — tests assert this stays small)."""
        if not self._contexts:
            return 0
        return max(len(c.pending) for c in self._contexts.values())

    def receive(self, cell: Cell) -> None:
        """Accept one data cell from the fabric."""
        if cell.voq is None:
            raise ValueError("reassembly got a cell with no VOQ id")
        self.cells_received += 1
        key = (cell.src_fa, cell.voq)
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = self._new_context(key)

        if cell.seq < ctx.expected_seq:
            # Duplicate or late after a timeout skip — drop it.
            return
        if cell.seq != ctx.expected_seq:
            self.cells_out_of_order += 1
            ctx.pending[cell.seq] = cell
            if ctx.stalled_since_ns is None:
                ctx.stalled_since_ns = self.sim.now
                self.sim.call_later(self._timeout_ns, ctx.check_timeout)
            return

        self._consume(ctx, cell)
        # Drain whatever the arrival unblocked.
        while ctx.expected_seq in ctx.pending:
            self._consume(ctx, ctx.pending.pop(ctx.expected_seq))
        ctx.stalled_since_ns = self.sim.now if ctx.pending else None
        if ctx.pending:
            self.sim.call_later(self._timeout_ns, ctx.check_timeout)

    def _new_context(self, key: Tuple[DeviceId, VoqId]) -> _Context:
        ctx = _Context(partial(self._check_timeout, key))
        self._contexts[key] = ctx
        return ctx

    def _consume(self, ctx: _Context, cell: Cell) -> None:
        ctx.expected_seq = cell.seq + 1
        for packet, nbytes, end_of_packet in cell.fragments:
            if packet is ctx.discarded_packet:
                # Straggler fragment of a packet a timeout already
                # discarded; swallow it silently.
                if end_of_packet:
                    ctx.discarded_packet = None
                continue
            if ctx.partial_packet is None:
                ctx.partial_packet = packet
                ctx.partial_bytes = 0
            elif ctx.partial_packet is not packet:
                # The stream skipped a packet boundary (only possible
                # after a timeout discard); drop the stale partial.
                self.packets_discarded += 1
                ctx.partial_packet = packet
                ctx.partial_bytes = 0
            ctx.partial_bytes += nbytes
            if end_of_packet:
                complete = ctx.partial_bytes == packet.size_bytes
                ctx.partial_packet = None
                ctx.partial_bytes = 0
                if complete:
                    self.packets_completed += 1
                    self._deliver(packet)
                else:
                    self.packets_discarded += 1

    def _check_timeout(self, key: Tuple[DeviceId, VoqId]) -> None:
        ctx = self._contexts.get(key)
        if ctx is None or ctx.stalled_since_ns is None:
            return
        if self.sim.now - ctx.stalled_since_ns < self._timeout_ns:
            return
        if not ctx.pending:
            ctx.stalled_since_ns = None
            return
        # Skip the gap: resume at the lowest buffered sequence number.
        self.timeouts += 1
        if ctx.partial_packet is not None:
            self.packets_discarded += 1
            ctx.discarded_packet = ctx.partial_packet
            ctx.partial_packet = None
            ctx.partial_bytes = 0
        ctx.expected_seq = min(ctx.pending)
        while ctx.expected_seq in ctx.pending:
            self._consume(ctx, ctx.pending.pop(ctx.expected_seq))
        ctx.stalled_since_ns = self.sim.now if ctx.pending else None
        if ctx.pending:
            self.sim.call_later(self._timeout_ns, ctx.check_timeout)
