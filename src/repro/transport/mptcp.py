"""Multipath TCP: several subflows, coupled congestion control.

Raiciu et al. (SIGCOMM 2011, the paper's [72]) modelled as in the §6.3
comparison: one logical transfer striped over ``n_subflows`` TCP
subflows, each with a distinct flow id (so ECMP hashes them onto
different paths), with Linked-Increases (LIA) coupling: subflow ``i``
increases per ACK by ``min(alpha * acked / cwnd_total, acked / cwnd_i)``
where ``alpha`` follows RFC 6356.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.net.flow import Flow
from repro.net.packet import Packet
from repro.transport.tcp import TcpSender

if TYPE_CHECKING:
    from repro.transport.host import Host


class _Subflow(TcpSender):
    """A TCP subflow whose window growth is coupled to its siblings."""

    __slots__ = ("connection",)

    def __init__(self, connection: "MptcpConnection", *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connection = connection

    def _grow_cwnd(self, acked_bytes: int, packet: Packet) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked_bytes, self.mss)
            return
        conn = self.connection
        alpha = conn.lia_alpha()
        total = conn.total_cwnd()
        coupled = alpha * acked_bytes * self.mss / max(total, self.mss)
        uncoupled = acked_bytes * self.mss / self.cwnd
        self.cwnd += max(1, int(min(coupled, uncoupled)))


class MptcpConnection:
    """A striped multi-subflow transfer."""

    __slots__ = (
        "host", "flow", "n_subflows", "on_complete", "_completed", "subflows",
    )

    def __init__(
        self,
        host: "Host",
        flow: Flow,
        n_subflows: int = 8,
        mss: int = 1460,
        on_complete: Optional[Callable[[], None]] = None,
        **sender_kwargs,
    ) -> None:
        if n_subflows < 1:
            raise ValueError("need at least one subflow")
        self.host = host
        self.flow = flow
        self.n_subflows = n_subflows
        self.on_complete = on_complete
        self._completed = 0
        self.subflows: List[_Subflow] = []

        # Stripe the transfer across subflows.  Long-running flows get
        # long-running subflows.
        if flow.size_bytes is None:
            shares = [None] * n_subflows
        else:
            base = flow.size_bytes // n_subflows
            shares = [base] * n_subflows
            shares[0] += flow.size_bytes - base * n_subflows
            shares = [s for s in shares if s and s > 0]

        host.tracker.register(flow)
        for share in shares:
            subflow_desc = Flow(
                src=flow.src,
                dst=flow.dst,
                size_bytes=share,
                start_ns=flow.start_ns,
                priority=flow.priority,
            )
            sender = _Subflow(
                self,
                host,
                subflow_desc,
                mss=mss,
                on_complete=self._subflow_done,
                **sender_kwargs,
            )
            # Data/ACKs of a subflow carry the *subflow's* flow id (for
            # ECMP diversity) but deliveries count toward the parent:
            # the destination host sees subflow ids, so the tracker maps
            # them via alias registration below.
            host.register_subflow_sender(subflow_desc.flow_id, sender)
            host.tracker.alias(subflow_desc.flow_id, flow.flow_id)
            self.subflows.append(sender)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every subflow."""
        for sender in self.subflows:
            sender.start()

    def total_cwnd(self) -> int:
        """Sum of subflow congestion windows (bytes)."""
        return sum(s.cwnd for s in self.subflows)

    def lia_alpha(self) -> float:
        """RFC 6356 alpha: couples aggregate aggressiveness."""
        flows = [s for s in self.subflows if not s.done]
        if not flows:
            return 1.0
        total = sum(s.cwnd for s in flows)
        # rtt-free approximation (all subflows share src/dst here):
        # alpha = total * max(cwnd_i) / (sum cwnd_i)^2 ... scaled.
        best = max(s.cwnd for s in flows)
        return total * best / max(sum(s.cwnd for s in flows), 1) ** 2 * total

    def _subflow_done(self) -> None:
        self._completed += 1
        if self._completed == len(self.subflows):
            if self.on_complete is not None:
                self.on_complete()

    @property
    def done(self) -> bool:
        """True when every subflow has delivered its share."""
        return self._completed == len(self.subflows)
