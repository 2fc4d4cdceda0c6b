"""TCP NewReno at packet granularity.

Byte-sequence TCP with slow start, congestion avoidance, triple-dupack
fast retransmit with NewReno partial-ACK recovery, and an RTO with SRTT
estimation.  It is deliberately a *model*: no handshake, no FIN, no
window scaling — exactly the machinery whose interaction with the
fabric the paper's §6.3 measures, and nothing else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.net.flow import Flow
from repro.net.packet import Packet
from repro.sim.engine import Event, Simulator
from repro.sim.units import MICROSECOND

if TYPE_CHECKING:
    from repro.transport.host import Host

#: Floor of the retransmission timeout.
MIN_RTO_NS = 200 * MICROSECOND


class TcpSender:
    """One direction of a TCP connection (the data sender)."""

    __slots__ = (
        "host", "sim", "flow", "mss", "on_complete",
        "snd_una", "snd_nxt", "total_bytes", "cwnd", "ssthresh",
        "dup_acks", "in_recovery", "recover_point", "srtt_ns",
        "rttvar_ns", "_send_times", "_rto", "timeouts",
        "fast_retransmits", "packets_sent", "done",
    )

    def __init__(
        self,
        host: "Host",
        flow: Flow,
        mss: int = 1460,
        init_cwnd_mss: int = 10,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.host = host
        self.sim: Simulator = host.sim
        self.flow = flow
        self.mss = mss
        self.on_complete = on_complete

        # Sequence state (bytes).
        self.snd_una = 0
        self.snd_nxt = 0
        #: None for long-running flows.
        self.total_bytes = flow.size_bytes

        # Congestion state.
        self.cwnd = init_cwnd_mss * mss
        self.ssthresh = 2**40
        self.dup_acks = 0
        self.in_recovery = False
        self.recover_point = 0

        # RTT estimation.
        self.srtt_ns: Optional[int] = None
        self.rttvar_ns = 0
        self._send_times: Dict[int, int] = {}

        # RTO timer: one handle for the sender's life, re-armed in place.
        self._rto: Optional[Event] = None
        self.timeouts = 0
        self.fast_retransmits = 0
        self.packets_sent = 0
        self.done = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting (fills the initial window)."""
        self._try_send()

    @property
    def flight_size(self) -> int:
        """Unacknowledged bytes currently outstanding."""
        return self.snd_nxt - self.snd_una

    def _remaining(self) -> Optional[int]:
        if self.total_bytes is None:
            return None
        return self.total_bytes - self.snd_nxt

    def _try_send(self) -> None:
        """Send new data while the window (and the NIC) allow."""
        if self.done:
            return
        host = self.host
        total = self.total_bytes
        # Window and sequence state are re-read every segment: _emit can
        # re-enter the host (NIC wake-ups), so nothing is cached across it.
        while self.snd_nxt - self.snd_una < self.cwnd:
            size = self.mss
            if total is not None:
                remaining = total - self.snd_nxt
                if remaining <= 0:
                    break
                if remaining < size:
                    size = remaining
            if not host.nic_ready():
                # Qdisc backpressure: resume when the NIC drains.
                host.block_on_nic(self)
                break
            self._emit(self.snd_nxt, size)
            self.snd_nxt += size
        self._arm_rto()

    def nic_unblocked(self) -> None:
        """The host NIC drained below its backpressure threshold."""
        self._try_send()

    def _emit(self, seq: int, size: int, retransmit: bool = False) -> None:
        packet = Packet(
            size_bytes=size + 40,  # TCP/IP headers ride along
            src=self.flow.src,
            dst=self.flow.dst,
            flow_id=self.flow.flow_id,
            seq=seq,
            priority=self.flow.priority,
            created_ns=self.sim.now,
        )
        if not retransmit:
            self._send_times[seq] = self.sim.now
        self.packets_sent += 1
        self.host.output(packet)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, packet: Packet) -> None:
        """Process a (possibly duplicate) cumulative ACK."""
        if self.done:
            return
        ack = packet.ack_seq
        if ack > self.snd_una:
            acked = ack - self.snd_una
            self._update_rtt(ack)
            self.snd_una = ack
            self.dup_acks = 0
            if self.in_recovery:
                if ack >= self.recover_point:
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # NewReno partial ACK: retransmit the next hole.
                    self._emit(
                        self.snd_una,
                        min(self.mss, self._hole_size()),
                        retransmit=True,
                    )
                    self.cwnd = max(self.mss, self.cwnd - acked + self.mss)
            else:
                self._grow_cwnd(acked, packet)
            self._check_done()
            self._try_send()
        elif ack == self.snd_una and self.flight_size > 0:
            self.dup_acks += 1
            if self.dup_acks == 3 and not self.in_recovery:
                self._fast_retransmit()
            elif self.in_recovery:
                self.cwnd += self.mss  # window inflation
                self._try_send()

    def _grow_cwnd(self, acked_bytes: int, packet: Packet) -> None:
        """Slow start / congestion avoidance.  Subclasses hook here."""
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked_bytes, self.mss)
        else:
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)

    def _hole_size(self) -> int:
        return max(self.mss, self.snd_nxt - self.snd_una)

    def _fast_retransmit(self) -> None:
        self.fast_retransmits += 1
        self.ssthresh = max(2 * self.mss, self.flight_size // 2)
        self.recover_point = self.snd_nxt
        self.in_recovery = True
        self.cwnd = self.ssthresh + 3 * self.mss
        self._emit(self.snd_una, self.mss, retransmit=True)

    # ------------------------------------------------------------------
    # RTT / RTO
    # ------------------------------------------------------------------
    def _update_rtt(self, ack: int) -> None:
        sent = None
        for seq in list(self._send_times):
            if seq < ack:
                stamp = self._send_times.pop(seq)
                if sent is None or stamp > sent:
                    sent = stamp
        if sent is None:
            return
        sample = self.sim.now - sent
        if self.srtt_ns is None:
            self.srtt_ns = sample
            self.rttvar_ns = sample // 2
        else:
            self.rttvar_ns = (
                3 * self.rttvar_ns + abs(self.srtt_ns - sample)
            ) // 4
            self.srtt_ns = (7 * self.srtt_ns + sample) // 8

    @property
    def rto_ns(self) -> int:
        """Current retransmission timeout (SRTT + 4*RTTVAR, floored)."""
        if self.srtt_ns is None:
            return MIN_RTO_NS
        return max(MIN_RTO_NS, self.srtt_ns + 4 * self.rttvar_ns)

    def _arm_rto(self) -> None:
        rto = self._rto
        if self.snd_nxt > self.snd_una and not self.done:
            deadline = self.sim._now + self.rto_ns
            if rto is None:
                self._rto = self.sim.at(deadline, self._on_rto)
            else:
                rto.rearm_at(deadline)
        elif rto is not None:
            rto.cancel()

    def _on_rto(self) -> None:
        if self.done or self.flight_size == 0:
            return
        self.timeouts += 1
        self.ssthresh = max(2 * self.mss, self.flight_size // 2)
        self.cwnd = self.mss
        self.in_recovery = False
        self.dup_acks = 0
        self.snd_nxt = self.snd_una  # go-back-N from the hole
        self._try_send()

    # ------------------------------------------------------------------
    def _check_done(self) -> None:
        if (
            self.total_bytes is not None
            and self.snd_una >= self.total_bytes
            and not self.done
        ):
            self.done = True
            if self._rto is not None:
                self._rto.cancel()
            if self.on_complete is not None:
                self.on_complete()


class TcpReceiver:
    """Cumulative-ACK receiver with out-of-order buffering."""

    __slots__ = (
        "host", "flow_id", "rcv_nxt", "_ranges", "acks_sent",
    )

    def __init__(self, host: "Host", flow_id: int):
        self.host = host
        self.flow_id = flow_id
        self.rcv_nxt = 0
        #: Buffered out-of-order byte ranges, merged and sorted.
        self._ranges: List[Tuple[int, int]] = []
        self.acks_sent = 0

    def on_data(self, packet: Packet) -> int:
        """Process a data packet; returns newly in-order payload bytes.

        A segment that reaches the in-order edge advances ``rcv_nxt``
        directly, through any buffered ranges it now touches; only one
        wholly above the edge is merged into the buffer.
        """
        start = packet.seq
        end = start + packet.size_bytes - 40
        before = self.rcv_nxt
        if end > before:
            if start <= before:
                ranges = self._ranges
                if ranges:
                    covered = 0
                    for s, e in ranges:
                        if s > end:
                            break
                        if e > end:
                            end = e
                        covered += 1
                    del ranges[:covered]
                self.rcv_nxt = end
            else:
                self._insert(start, end)
        self._send_ack(packet)
        return self.rcv_nxt - before

    def _insert(self, start: int, end: int) -> None:
        merged: List[Tuple[int, int]] = []
        ranges = sorted([*self._ranges, (start, end)])
        for s, e in ranges:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self._ranges = merged

    def _send_ack(self, data: Packet) -> None:
        ack = Packet(
            size_bytes=64,
            src=data.dst,
            dst=data.src,
            flow_id=self.flow_id,
            is_ack=True,
            ack_seq=self.rcv_nxt,
            ecn_echo=data.ecn,
            created_ns=self.host.sim.now,
        )
        self.acks_sent += 1
        self.host.output(ack)
