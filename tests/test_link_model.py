"""``Link`` against a link with nothing clever in it.

:class:`ReferenceLink` is the link's contract written the slow way: one
fresh ``schedule_at`` per serialization, carrying its own frame in the
closure, and one per delivery — no train entry, no tagged entries, no
reusable delivery entry, no in-place start on an idle link, no memoized
serialization times.  Every frame it sends therefore costs two fresh
engine events at the sequence numbers the contract says: the delivery's
allocated at the completion, before the next frame's.

The property drives both through the same generated program — bursts of
mixed sizes, ``set_rate``, ``fail`` / ``restore`` (stale pre-fail
serializations beside fresh trains; ``restore`` on a link that is up,
mid-train, is a no-op), ``on_transmit`` / ``on_idle``
installed and removed mid-train, an ``on_idle`` that refills the link
from inside the completion, and propagation delays both equal to a
serialization time (a delivery and a completion tie on ``time_ns``, so
only ``seq`` orders them) and several times longer (more deliveries in
flight than the one reusable entry holds) — and after every step
compares everything observable: the ordered log of deliveries and hook
calls with the link's counters *as seen from inside each*, the counters
themselves, and the engine's ``events_fired`` / ``len(sim)`` / clock.
"""

from __future__ import annotations

from collections import deque

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.sim.link import Link, LinkDown
from repro.sim.units import gbps, time_ns_for_bytes


class ReferenceLink:
    """FIFO serialization + propagation, one fresh event per step."""

    def __init__(self, sim, src, dst, rate_bps, propagation_ns):
        self.sim, self.dst = sim, dst
        self.rate_bps, self.propagation_ns = rate_bps, propagation_ns
        self.up, self.busy = True, False
        self.queue, self.in_flight = deque(), deque()
        self.queued_bytes = self.serializing = 0
        self.tx_frames = self.tx_bytes = 0
        self.dropped_frames = self.dropped_bytes = 0
        self.peak_queue_bytes = self.peak_queue_frames = 0
        self.on_transmit = self.on_idle = None

    queued_frames = property(lambda self: len(self.queue))
    in_flight_frames = property(lambda self: len(self.in_flight))
    serializer_occupancy = property(lambda self: self.serializing)

    def send(self, payload, size):
        if not self.up:
            raise LinkDown("reference link is down")
        self.queue.append((payload, size))
        self.queued_bytes += size
        self.peak_queue_bytes = max(self.peak_queue_bytes, self.queued_bytes)
        self.peak_queue_frames = max(self.peak_queue_frames, len(self.queue))
        if not self.busy:
            self._start_next()

    def _start_next(self):
        payload, size = self.queue.popleft()
        self.queued_bytes -= size
        self.busy = True
        if self.on_transmit is not None:
            self.on_transmit(payload)
        self.serializing += 1
        self.sim.schedule_at(
            self.sim.now + time_ns_for_bytes(size, self.rate_bps),
            lambda: self._tx_done(payload, size),
        )

    def _tx_done(self, payload, size):
        self.serializing -= 1
        self.tx_frames += 1
        self.tx_bytes += size
        if self.up:
            self.in_flight.append(payload)
            self.sim.schedule_at(
                self.sim.now + self.propagation_ns, self._deliver
            )
            if self.queue:
                self._start_next()
                return
        else:  # finished into a dead link
            self.dropped_frames += 1
            self.dropped_bytes += size
        self.busy = False
        if self.on_idle is not None and not self.queue:
            self.on_idle()

    def _deliver(self):
        payload = self.in_flight.popleft()
        if self.up:
            self.dst.receive(payload, self)
        else:  # died while the frame was on the wire
            self.dropped_frames += 1

    def fail(self):
        self.up = False
        self.dropped_frames += len(self.queue)
        self.dropped_bytes += self.queued_bytes
        self.queue.clear()
        self.queued_bytes = 0

    def restore(self):
        if not self.up:  # a live link keeps serializing: nothing to reset
            self.up, self.busy = True, False

    def set_rate(self, rate_bps):
        self.rate_bps = rate_bps


# ----------------------------------------------------------------------
# Worlds and programs
# ----------------------------------------------------------------------

#: 200 / 400 / 800 / 1200 ns at 10G, twice that at 5G.
SIZES = [250, 500, 1000, 1500]
RATES = [gbps(10), gbps(5)]
#: Ties with a serialization time (200, 400, 800), shorter, and several
#: frames long (3000: up to fifteen deliveries in flight).
PROPAGATIONS = [0, 100, 200, 400, 800, 3000]
#: Frames an ``on_idle`` refill hook may add per world.
REFILLS = 6


class World(Entity):
    """One engine, one link of the class under test, and — as the link's
    destination — one ordered log of everything observable."""

    def __init__(self, link_cls, propagation_ns):
        super().__init__(Simulator(), "dst")
        self.log = []
        self.sent = 0
        self.refills = REFILLS
        self.link = link_cls(
            self.sim, Entity(self.sim, "src"), self, RATES[0], propagation_ns
        )

    def seen(self, what, payload=None):
        """Log an observation with the link's counters at that instant —
        what orders a delivery against a same-instant completion."""
        link = self.link
        self.log.append((
            self.sim.now, what, payload, link.tx_frames, link.queued_frames,
            link.in_flight_frames, link.busy, self.sim.events_fired,
        ))

    def receive(self, payload, link):
        assert link is self.link
        self.seen("rx", payload)

    def send(self, size):
        self.sent += 1
        self.link.send(self.sent, size)

    def refill(self):
        self.seen("idle")
        if self.refills and self.link.up:
            self.refills -= 1
            self.send(SIZES[self.refills % len(SIZES)])

    def apply(self, step):
        op, link = step[0], self.link
        if op == "burst":
            if link.up:
                for size in step[1]:
                    self.send(size)
        elif op == "advance":
            self.sim.run(until=self.sim.now + step[1])
        elif op == "fail":
            if link.up:
                link.fail()
        elif op == "restore":
            # On a live link too, mid-train included: it must change
            # nothing (it used to clear ``busy`` under the serializer,
            # and the next send started a second, concurrent one).
            link.restore()
        elif op == "flap":
            # An outage shorter than a frame: the serialization in
            # progress outlives it and goes stale beside the next train.
            self.apply(("fail",))
            self.apply(("advance", step[1]))
            self.apply(("restore",))
        elif op == "set_rate":
            link.set_rate(step[1])
        elif op == "on_transmit":
            link.on_transmit = (
                (lambda payload: self.seen("tx", payload)) if step[1] else None
            )
        else:
            link.on_idle = {
                "off": None, "log": lambda: self.seen("idle"),
                "refill": self.refill,
            }[step[1]]

    def state(self):
        link, sim = self.link, self.sim
        return (
            self.log, link.up, link.busy, link.queued_bytes,
            link.queued_frames, link.in_flight_frames,
            link.serializer_occupancy, link.tx_frames, link.tx_bytes,
            link.dropped_frames, link.dropped_bytes, link.peak_queue_bytes,
            link.peak_queue_frames, sim.now, sim.events_fired, len(sim),
        )


_steps = st.one_of(
    st.tuples(
        st.just("burst"),
        st.lists(st.sampled_from(SIZES), min_size=1, max_size=12),
    ),
    st.tuples(
        st.just("advance"),
        st.sampled_from([1, 150, 200, 400, 800, 1200, 5000]),
    ),
    st.tuples(st.just("fail")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("flap"), st.sampled_from([0, 1, 150, 400])),
    st.tuples(st.just("set_rate"), st.sampled_from(RATES)),
    st.tuples(st.just("on_transmit"), st.booleans()),
    st.tuples(st.just("on_idle"), st.sampled_from(["off", "log", "refill"])),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    propagation_ns=st.sampled_from(PROPAGATIONS),
    program=st.lists(_steps, min_size=1, max_size=40),
)
def test_link_matches_the_reference_link(propagation_ns, program):
    real = World(Link, propagation_ns)
    oracle = World(ReferenceLink, propagation_ns)
    for index, step in enumerate(program):
        real.apply(step)
        oracle.apply(step)
        assert real.state() == oracle.state(), (index, step)
    real.sim.run()
    oracle.sim.run()
    assert real.state() == oracle.state()
    # Conservation, on the real link: nothing vanishes or duplicates.
    delivered = sum(1 for entry in real.log if entry[1] == "rx")
    assert delivered + real.link.dropped_frames == real.sent
