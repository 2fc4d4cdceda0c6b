"""DCQCN: rate-based congestion control for RDMA-style traffic.

Zhu et al. (SIGCOMM 2015, the paper's [82]), modelled at the fidelity
the §6.3 comparison needs: a paced sender; the receiver turns ECN marks
into CNPs (at most one per :data:`CNP_INTERVAL_NS`); the sender's reaction
point does multiplicative decrease with EWMA ``alpha``, then recovers
through fast-recovery / additive-increase stages driven by a timer.
Loss (rare for DCQCN's lossless intent, common on a pushed fabric
without PFC) falls back to go-back-N on RTO, inherited from the base
machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.packet import Packet
from repro.sim.engine import PeriodicTask
from repro.sim.units import MICROSECOND, SECOND
from repro.transport.tcp import TcpReceiver, TcpSender

if TYPE_CHECKING:
    from repro.transport.host import Host

#: EWMA gain of the congestion estimate ``alpha``.
G = 1 / 16
#: Period of the reaction point's rate-increase timer.
RATE_INCREASE_TIMER_NS = 55 * MICROSECOND
#: Target-rate step of each additive-increase round.
ADDITIVE_INCREASE_BPS = 2_000_000_000
#: Floor of the current rate under repeated decreases.
MIN_RATE_BPS = 100_000_000
#: Timer rounds of fast recovery before additive increase starts.
FAST_RECOVERY_ROUNDS = 5
#: The notification point sends at most one CNP per flow this often.
CNP_INTERVAL_NS = 50 * MICROSECOND


class DcqcnSender(TcpSender):
    """Rate-paced sender with DCQCN reaction/recovery state."""

    __slots__ = (
        "line_rate_bps", "alpha", "rc_bps", "rt_bps", "_recovery_stage",
        "cnps_received", "_pacing_armed", "_timer",
    )

    def __init__(
        self,
        host: "Host",
        flow,
        line_rate_bps: int = 50_000_000_000,
        **kwargs,
    ) -> None:
        # A huge static window: DCQCN is rate-limited, not window-limited.
        kwargs.setdefault("init_cwnd_mss", 10_000)
        super().__init__(host, flow, **kwargs)
        self.line_rate_bps = line_rate_bps
        self.alpha = 1.0
        self.rc_bps = float(line_rate_bps)  # current rate
        self.rt_bps = float(line_rate_bps)  # target rate
        self._recovery_stage = 0
        self.cnps_received = 0
        self._pacing_armed = False
        self._timer = PeriodicTask(
            host.sim, RATE_INCREASE_TIMER_NS, self._increase
        )

    # ------------------------------------------------------------------
    # Pacing: replace the windowed _try_send with a rate loop.
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        if self.done or self._pacing_armed:
            return
        self._pacing_armed = True
        self._pace()

    def _pace(self) -> None:
        if self.done:
            self._pacing_armed = False
            return
        remaining = self._remaining()
        if remaining is not None and remaining <= 0:
            self._pacing_armed = False
            return
        size = self.mss
        if remaining is not None:
            size = min(size, remaining)
        self._emit(self.snd_nxt, size)
        self.snd_nxt += size
        self._arm_rto()
        # DCQCN's current rate is float state by construction (the
        # multiplicative decrease/recovery algebra); the derived pacing
        # gap is the one sanctioned float-to-ns crossing in transport.
        gap_ns = int((size + 40) * 8 * SECOND / max(self.rc_bps, 1.0))  # repro-lint: allow=DET005 -- rc_bps is float per the DCQCN algorithm; f64 rounding is deterministic
        self.sim.call_later(max(gap_ns, 1), self._pace)

    def on_cnp(self, packet: Packet) -> None:
        """Reaction point: multiplicative decrease."""
        self.cnps_received += 1
        self.alpha = (1 - G) * self.alpha + G
        self.rt_bps = self.rc_bps
        self.rc_bps = max(MIN_RATE_BPS, self.rc_bps * (1 - self.alpha / 2))
        self._recovery_stage = 0

    def _increase(self) -> None:
        """Timer-driven recovery (fast recovery then additive)."""
        if self.done:
            self._timer.stop()
            return
        self.alpha = (1 - G) * self.alpha
        self._recovery_stage += 1
        if self._recovery_stage <= FAST_RECOVERY_ROUNDS:
            self.rc_bps = (self.rc_bps + self.rt_bps) / 2
        else:
            self.rt_bps = min(
                self.line_rate_bps, self.rt_bps + ADDITIVE_INCREASE_BPS
            )
            self.rc_bps = (self.rc_bps + self.rt_bps) / 2
        self.rc_bps = min(self.rc_bps, self.line_rate_bps)

    # DCQCN does not grow a window on ACKs; ACKs only advance snd_una.
    def _grow_cwnd(self, acked_bytes: int, packet: Packet) -> None:
        return

    def _check_done(self) -> None:
        super()._check_done()
        if self.done:
            self._timer.stop()


class DcqcnNotificationPoint(TcpReceiver):
    """Receiver that converts ECN marks into paced CNPs."""

    __slots__ = ("_last_cnp_ns", "cnps_sent")

    def __init__(self, host: "Host", flow_id: int) -> None:
        super().__init__(host, flow_id)
        self._last_cnp_ns = -(10**18)
        self.cnps_sent = 0

    def on_data(self, packet: Packet) -> int:
        """Receive data; emit a paced CNP if it was ECN-marked."""
        fresh = super().on_data(packet)
        if packet.ecn:
            now = self.host.sim.now
            if now - self._last_cnp_ns >= CNP_INTERVAL_NS:
                self._last_cnp_ns = now
                self.cnps_sent += 1
                cnp = Packet(
                    size_bytes=64,
                    src=packet.dst,
                    dst=packet.src,
                    flow_id=self.flow_id,
                    is_cnp=True,
                    created_ns=now,
                )
                self.host.output(cnp)
        return fresh
