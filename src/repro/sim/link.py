"""Point-to-point simplex links.

A :class:`Link` models one direction of a serial link (Stardust never
bundles links, so one Link is one lane).  It serializes frames in FIFO
order at ``rate_bps`` and delivers each to the destination entity after
an additional ``propagation_ns`` delay.

The link keeps its own transmit queue and exposes its depth; devices
that need finite buffers (Ethernet drop-tail switches) or congestion
marking (Fabric Elements) consult :attr:`queued_bytes` /
:attr:`queued_frames` before or while enqueuing.

Hot-path design: cell trains
----------------------------

A sender's k back-to-back cells serialize as one *train*: a single
reusable ``[time_ns, seq, TAG_TX, link]`` engine entry steps through the
k completions at their exact per-cell timestamps, and the frame being
serialized lives in three scalar slots instead of an allocated record.
The run loop dispatches the tag straight into :meth:`Link._tx_done` —
the whole per-frame step: accounting, delivery arm, train re-arm — and
delivers ``TAG_RX`` entries itself, so a frame costs one Python frame
here, its two ``rearm_at`` calls and the destination's ``receive``.  The
events fired, and their ``(time_ns, seq)`` keys, are exactly those of
one fresh ``schedule_at`` per frame: each step arms where that code
would schedule, delivery first, then the next completion.  (Event
*count* is part of every golden digest, so trains amortize per-event
cost, never event count.)

Trains split correctly under mid-train disturbances because each step
re-derives its state from the live link: ``set_rate`` swaps the
memoized serialization times, so the next cell takes the new rate;
``fail()`` drops the queued remainder and lets the cell on the
serializer finish into a dead link (counted lost); a post-``restore``
train lays a fresh entry if the pre-fail one is still pending, and a
FIFO side queue (``_ser_extra``) pairs the stale completion with the
right frame.  Those corners, and a link with an ``on_transmit`` hook,
take the scalar :meth:`Link._start_next` instead of the train step —
which is why a host hooks its NIC link only while a sender waits.

Deliveries share one constant delay, so they fire in append order and a
pure FIFO (``_in_flight``) matches payloads exactly — a plain list, as
is ``_ser_extra``: a few frames deep at most, and an empty ``deque`` is
760 bytes on each of a fabric's thousands of links.  They dispatch
through ``dst.receive`` as bound at construction — endpoints are fixed
at wiring time; rebinding ``receive`` on a wired device is unsupported.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Optional

from repro.sim.engine import TAG_RX, TAG_TX, Simulator
from repro.sim.entity import Entity
from repro.sim.units import time_ns_for_bytes


class LinkDown(RuntimeError):
    """Raised when sending on a link that is administratively down."""


class Link:
    """A simplex serial link with serialization + propagation delay."""

    __slots__ = (
        "sim", "src", "dst", "rate_bps", "propagation_ns", "name", "up",
        "_queue", "_queued_bytes", "_busy",
        "_ser_payload", "_ser_size", "_ser_done", "_ser_extra",
        "_in_flight", "_tx_ns", "_tx_entry", "_rx_entry", "_dst_receive",
        "tx_frames", "tx_bytes", "peak_queue_bytes",
        "peak_queue_frames", "on_transmit", "on_idle",
        "dropped_frames", "dropped_bytes", "failed_at_ns",
    )

    def __init__(
        self,
        sim: Simulator,
        src: Entity,
        dst: Entity,
        rate_bps: int,
        propagation_ns: int = 0,
        name: Optional[str] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if propagation_ns < 0:
            raise ValueError("propagation delay must be non-negative")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = rate_bps
        self.propagation_ns = propagation_ns
        self.name = name or f"{src.name}->{dst.name}"
        self.up = True

        self._queue: deque[tuple[Any, int]] = deque()
        self._queued_bytes = 0
        self._busy = False
        #: The frame currently serializing, held in scalar slots
        #: (``_ser_done`` is -1 when idle).  ``fail()``/``restore()``
        #: can leave a stale pre-fail serialization pending alongside a
        #: new one; those overflow into ``_ser_extra`` (FIFO) and
        #: ``_tx_done`` matches on completion time rather than trusting
        #: the scalars.
        self._ser_payload: Any = None
        self._ser_size = 0
        self._ser_done = -1
        self._ser_extra: list[tuple[Any, int, int]] = []
        #: Payloads on the wire (serialized, not yet delivered).  Pure
        #: FIFO is exact here: entries are appended in simulation-time
        #: order and all delivery events share one propagation delay,
        #: so they fire in append order.
        self._in_flight: list[Any] = []
        #: Frame size -> serialization time at this link's rate (the
        #: simulation's one table for that rate).
        self._tx_ns: Dict[int, int] = sim.tx_ns_by_rate.setdefault(rate_bps, {})
        #: The train entry: one reusable engine entry stepping through
        #: back-to-back serialization completions.  ``entry[2] is None``
        #: means spent (fired or never armed) and safe to re-arm.
        self._tx_entry: list = [0, 0, None, self]
        #: The delivery entry, reused while it is free — it usually is:
        #: more than one delivery is pending only when propagation
        #: exceeds serialization, and those take a fresh entry each.
        self._rx_entry: list = [0, 0, None, self]
        #: Bound delivery target — ``dst`` never changes after wiring.
        self._dst_receive: Callable[[Any, "Link"], None] = dst.receive

        # Accounting.
        self.tx_frames = 0
        self.tx_bytes = 0
        self.peak_queue_bytes = 0
        self.peak_queue_frames = 0
        #: Frames lost to failure: queued at fail() time, serialized
        #: into a dead link, or in flight when the link went down.
        #: ``dropped_bytes`` counts the sizes where they are known
        #: (queued + serializing; pure-propagation losses only have the
        #: payload, so they count frames but not bytes).
        self.dropped_frames = 0
        self.dropped_bytes = 0
        #: Simulation time of the most recent fail() (0 = never failed).
        #: Consumers model detection/rehash lag relative to this.
        self.failed_at_ns = 0

        # Hooks: on_transmit(payload) fires when serialization starts;
        # on_idle() fires when the transmit queue fully drains.  Two
        # owners install on_transmit: a Fabric Adapter on each of its
        # host-facing links, for its whole life (a paused egress
        # scheduler resumes as the link drains), and a Host on its NIC
        # link only while a sender waits on it (``block_on_nic`` until
        # the last waiter is woken).  Fabric Elements mark FCI in
        # ``receive``, not here.
        self.on_transmit: Optional[Callable[[Any], None]] = None
        self.on_idle: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Queue state
    # ------------------------------------------------------------------
    @property
    def queued_bytes(self) -> int:
        """Bytes waiting in the transmit queue (not yet on the wire)."""
        return self._queued_bytes

    @property
    def queued_frames(self) -> int:
        """Frames waiting in the transmit queue."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while a frame is being serialized."""
        return self._busy

    @property
    def in_flight_frames(self) -> int:
        """Frames serialized but not yet delivered (on the wire)."""
        return len(self._in_flight)

    @property
    def serializer_occupancy(self) -> int:
        """Frames occupying the serializer right now (0 or 1, plus any
        stale pre-fail serializations still pending)."""
        occupied = 1 if self._ser_done != -1 else 0
        return occupied + len(self._ser_extra)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, payload: Any, size_bytes: int) -> None:
        """Enqueue ``payload`` for transmission.

        ``size_bytes`` is the on-wire size (including any framing the
        caller wants to account for).  Frames are serialized strictly in
        FIFO order.
        """
        if not self.up:
            raise LinkDown(f"link {self.name} is down")
        if size_bytes <= 0:
            raise ValueError(f"frame size must be positive, got {size_bytes}")
        if self._busy or self.on_transmit is not None or self._ser_done != -1:
            queue = self._queue
            queue.append((payload, size_bytes))
            queued = self._queued_bytes + size_bytes
            self._queued_bytes = queued
            if queued > self.peak_queue_bytes:
                self.peak_queue_bytes = queued
            depth = len(queue)
            if depth > self.peak_queue_frames:
                self.peak_queue_frames = depth
            if not self._busy:
                self._start_next()
            return
        # Idle link, no hook, no stale serialization (an idle link's
        # queue is empty): the frame would come straight back off the
        # queue, so start serializing it in place — leaving exactly the
        # state the append + _start_next above would.
        if size_bytes > self.peak_queue_bytes:
            self.peak_queue_bytes = size_bytes
        if not self.peak_queue_frames:
            self.peak_queue_frames = 1
        self._busy = True
        tx_time = self._tx_ns.get(size_bytes)
        if tx_time is None:
            tx_time = self._tx_ns[size_bytes] = time_ns_for_bytes(
                size_bytes, self.rate_bps
            )
        sim = self.sim
        done = sim._now + tx_time
        self._ser_payload = payload
        self._ser_size = size_bytes
        self._ser_done = done
        sim.rearm_at(done, self._tx_entry, TAG_TX)

    def _start_next(self) -> None:
        """Start (or continue) a serialization train with the next frame
        — the scalar path: a busy link's first frame, hooks, and the
        stale-serialization corner."""
        payload, size = self._queue.popleft()
        self._queued_bytes -= size
        self._busy = True
        if self.on_transmit is not None:
            self.on_transmit(payload)
        tx_time = self._tx_ns.get(size)
        if tx_time is None:
            tx_time = self._tx_ns[size] = time_ns_for_bytes(
                size, self.rate_bps
            )
        sim = self.sim
        done = sim._now + tx_time
        if self._ser_done != -1:
            # A stale pre-fail serialization is still pending: demote it
            # to the FIFO side queue so completion matching stays exact.
            self._ser_extra.append(
                (self._ser_payload, self._ser_size, self._ser_done)
            )
        self._ser_payload = payload
        self._ser_size = size
        self._ser_done = done
        entry = self._tx_entry
        if entry[2] is not None:
            # The stale serialization owns the train entry; orphan it
            # (its event still fires) and lay a fresh one.
            self._tx_entry = entry = [0, 0, None, self]
        sim.rearm_at(done, entry, TAG_TX)

    def _tx_done(self) -> None:
        """One serialization completion: the per-frame train step, called
        by the run loop for a ``TAG_TX`` entry.

        Arms where one fresh ``schedule_at`` per frame would: the
        delivery first, then the next cell's completion, so the
        delivery's sequence number is the smaller.
        """
        sim = self.sim
        now = sim._now
        if self._ser_extra:
            payload, size = self._take_serialized(now)
        else:
            payload = self._ser_payload
            size = self._ser_size
            self._ser_payload = None
            self._ser_done = -1
        self.tx_frames += 1
        self.tx_bytes += size
        if not self.up:
            # Serialization finished into a dead link: the frame is
            # lost, and it must be *counted* as lost, not silently
            # dropped (fault-injection accounting).
            self.dropped_frames += 1
            self.dropped_bytes += size
            self._busy = False
            if self.on_idle is not None and not self._queue:
                self.on_idle()
            return
        # Frame hits the wire; deliver after propagation.
        self._in_flight.append(payload)
        rx = self._rx_entry
        if rx[2] is not None:
            rx = [0, 0, None, self]
        sim.rearm_at(now + self.propagation_ns, rx, TAG_RX)

        queue = self._queue
        if not queue:
            self._busy = False
            if self.on_idle is not None:
                self.on_idle()
            return
        # Next frame of the train.  A transmit hook or a train entry
        # still owned by a stale serialization means the scalar path
        # owns this transition.
        entry = self._tx_entry
        if self.on_transmit is not None or entry[2] is not None:
            self._start_next()
            return
        payload, size = queue.popleft()
        self._queued_bytes -= size
        tx_time = self._tx_ns.get(size)
        if tx_time is None:
            tx_time = self._tx_ns[size] = time_ns_for_bytes(
                size, self.rate_bps
            )
        done = now + tx_time
        self._ser_payload = payload
        self._ser_size = size
        self._ser_done = done
        sim.rearm_at(done, entry, TAG_TX)

    def _take_serialized(self, now: int) -> tuple[Any, int]:
        """Match a completion to its frame when stale serializations from
        a fail/restore cycle coexist with the live train.

        Candidates are checked oldest-first (the side queue preserves
        start order; the scalars hold the newest), matching on the
        completion time — ties pop in start order, which is event
        sequence order.
        """
        extra = self._ser_extra
        for index, (payload, size, done) in enumerate(extra):
            if done == now:
                del extra[index]
                return payload, size
        payload = self._ser_payload
        size = self._ser_size
        self._ser_payload = None
        self._ser_done = -1
        return payload, size

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self) -> int:
        """Take the link down, dropping everything queued and in flight.

        Returns the number of frames lost from the transmit queue.
        Frames mid-serialization or mid-propagation are counted into
        :attr:`dropped_frames` when their events fire (still down) —
        this is also what splits an in-progress train: its queued
        remainder is dropped here, its in-flight head finishes into the
        dead link.
        """
        self.up = False
        self.sim.topology_epoch += 1
        self.failed_at_ns = self.sim.now
        lost = len(self._queue)
        self.dropped_frames += lost
        self.dropped_bytes += self._queued_bytes
        self._queue.clear()
        self._queued_bytes = 0
        return lost

    def restore(self) -> None:
        """Bring a failed link back up (queue starts empty).  No-op on a
        live link: clearing ``_busy`` mid-train would start a second one."""
        if self.up:
            return
        self.up = True
        self.sim.topology_epoch += 1
        self._busy = False

    def set_rate(self, rate_bps: int) -> None:
        """Change the serialization rate (degraded-operation intervals).

        Takes effect from the next frame to start serializing — an
        in-progress train splits here, because every step re-derives its
        serialization time from the (now swapped) memo table.
        """
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if rate_bps != self.rate_bps:
            self.rate_bps = rate_bps
            self._tx_ns = self.sim.tx_ns_by_rate.setdefault(rate_bps, {})
