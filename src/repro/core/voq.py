"""Virtual Output Queues at the Fabric Adapter ingress.

One VOQ per (destination port, traffic class).  VOQs share the Fabric
Adapter's deep ingress buffer: admission is checked against the shared
pool, so empty VOQs cost nothing (§3.3).  Each VOQ tracks its credit
balance — credits may overshoot the queue (surplus is remembered) and a
burst may overshoot the credit (deficit is remembered), mirroring the
paper's "surplus data stored for later accounting".
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.core.cell import VoqId
from repro.net.packet import Packet


class SharedBufferPool:
    """Byte budget shared by all VOQs of one Fabric Adapter."""

    __slots__ = (
        "capacity_bytes", "used_bytes", "dropped_frames", "dropped_bytes",
    )

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self.dropped_frames = 0
        self.dropped_bytes = 0

    def try_admit(self, nbytes: int) -> bool:
        """Reserve ``nbytes``; False (and a drop recorded) if full."""
        if self.used_bytes + nbytes > self.capacity_bytes:
            self.dropped_frames += 1
            self.dropped_bytes += nbytes
            return False
        self.used_bytes += nbytes
        return True

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the pool (packets dequeued)."""
        if nbytes > self.used_bytes:
            raise ValueError("releasing more than reserved")
        self.used_bytes -= nbytes

    @property
    def occupancy(self) -> float:
        """Used fraction of the shared buffer pool."""
        return self.used_bytes / self.capacity_bytes


class Voq:
    """A single virtual output queue."""

    __slots__ = (
        "id", "_pool", "_packets", "_bytes", "credit_balance",
        "last_reported_bytes", "enqueued_packets", "enqueued_bytes",
        "dequeued_packets", "peak_bytes", "next_seq",
    )

    def __init__(self, voq_id: VoqId, pool: SharedBufferPool) -> None:
        self.id = voq_id
        self._pool = pool
        self._packets: Deque[Packet] = deque()
        self._bytes = 0
        #: Positive balance: credit granted but not yet consumed.
        #: Negative: the last burst overshot its credit (deficit).
        self.credit_balance = 0
        #: Cumulative enqueued bytes last reported to the destination's
        #: egress scheduler (see FabricAdapter demand reporting).
        self.last_reported_bytes = 0
        # Accounting.
        self.enqueued_packets = 0
        self.enqueued_bytes = 0
        self.dequeued_packets = 0
        self.peak_bytes = 0
        #: Next cell sequence number for this VOQ's reassembly context.
        self.next_seq = 0

    @property
    def bytes(self) -> int:
        """Bytes currently queued in this VOQ."""
        return self._bytes

    @property
    def packets(self) -> int:
        """Packets currently queued in this VOQ."""
        return len(self._packets)

    @property
    def empty(self) -> bool:
        """True when no packets are queued."""
        return not self._packets

    def push(self, packet: Packet) -> bool:
        """Admit ``packet`` against the shared pool; False if dropped."""
        if not self._pool.try_admit(packet.size_bytes):
            return False
        self._packets.append(packet)
        self._bytes += packet.size_bytes
        self.enqueued_packets += 1
        self.enqueued_bytes += packet.size_bytes
        if self._bytes > self.peak_bytes:
            self.peak_bytes = self._bytes
        return True

    def grant(self, credit_bytes: int) -> List[Packet]:
        """Apply a credit and dequeue the burst it releases.

        Dequeues whole packets while the balance is positive; a packet
        that overshoots leaves a deficit that future credits repay
        (§3.3).  Unused balance (queue drained) is kept as surplus.

        Bookkeeping is batched: the balance runs in a local, the shared
        pool is released once for the whole burst, counters update once
        — nothing observes intermediate state (the loop makes no
        callbacks), and per-grant cost is what the credit hot path pays
        on every scheduler pump.
        """
        if credit_bytes <= 0:
            raise ValueError("credit must be positive")
        balance = self.credit_balance + credit_bytes
        burst: List[Packet] = []
        packets = self._packets
        released = 0
        while packets and balance > 0:
            packet = packets.popleft()
            size = packet.size_bytes
            released += size
            balance -= size
            burst.append(packet)
        if released:
            self._bytes -= released
            self._pool.release(released)
            self.dequeued_packets += len(burst)
        if not packets and balance > 0:
            # Queue drained: surplus credit is forfeited (the scheduler
            # stops granting to empty VOQs; keeping the balance would
            # let a later burst burst-out above fabric speedup).
            balance = 0
        self.credit_balance = balance
        return burst

    def take_seq(self, count: int) -> int:
        """Reserve ``count`` consecutive cell sequence numbers."""
        first = self.next_seq
        self.next_seq += count
        return first

    def snapshot(self) -> tuple[int, int, int]:
        """``(bytes, packets, credit_balance)`` — one telemetry sample.

        A single tuple read so per-VOQ probes touch the queue once per
        tick instead of three property round-trips.
        """
        return self._bytes, len(self._packets), self.credit_balance
