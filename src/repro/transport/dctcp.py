"""DCTCP: ECN-fraction-proportional congestion control.

Standard DCTCP on top of the NewReno machinery: the receiver echoes ECN
marks; the sender maintains an EWMA ``alpha`` of the marked fraction per
window and, once per window that saw marks, shrinks cwnd by
``alpha / 2`` (Alizadeh et al., SIGCOMM 2010 — the paper's [7]).
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.transport.tcp import TcpSender


class DctcpSender(TcpSender):
    """DCTCP sender: NewReno + ECN-proportional decrease."""

    __slots__ = (
        "g", "alpha", "_window_end", "_acked_in_window",
        "_marked_in_window", "_cut_this_window",
    )

    def __init__(self, *args, g: float = 1 / 16, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not 0 < g <= 1:
            raise ValueError("g must be in (0, 1]")
        self.g = g
        self.alpha = 0.0
        self._window_end = self.cwnd  # byte seq closing the current window
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._cut_this_window = False

    def _grow_cwnd(self, acked_bytes: int, packet: Packet) -> None:
        self._acked_in_window += acked_bytes
        if packet.ecn_echo:
            self._marked_in_window += acked_bytes
        if self.snd_una >= self._window_end:
            self._end_window()
        if packet.ecn_echo and not self._cut_this_window:
            # React once per window, immediately (DCTCP reacts at the
            # first mark of a window using the running alpha).
            self._cut_this_window = True
            self.cwnd = max(
                self.mss, int(self.cwnd * (1 - self.alpha / 2))
            )
            return
        super()._grow_cwnd(acked_bytes, packet)

    def _end_window(self) -> None:
        if self._acked_in_window > 0:
            fraction = self._marked_in_window / self._acked_in_window
            self.alpha = (1 - self.g) * self.alpha + self.g * fraction
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._cut_this_window = False
        self._window_end = self.snd_una + max(self.cwnd, self.mss)
