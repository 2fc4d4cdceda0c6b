"""Unit tests for links: serialization, propagation, FIFO order, failure."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.sim.link import Link, LinkDown
from repro.sim.units import GBPS, gbps


class Sink(Entity):
    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def receive(self, payload, link):
        self.received.append((self.sim.now, payload))


def make_link(sim, rate_bps=GBPS, prop=0):
    src = Sink(sim, "src")
    dst = Sink(sim, "dst")
    return Link(sim, src, dst, rate_bps, prop), dst


def test_serialization_delay_is_size_over_rate():
    sim = Simulator()
    link, dst = make_link(sim, rate_bps=GBPS)  # 1 Gbps => 8 ns/byte
    link.send("x", 125)  # 1000 bits => 1000 ns
    sim.run()
    assert dst.received == [(1000, "x")]


def test_propagation_delay_added_after_serialization():
    sim = Simulator()
    link, dst = make_link(sim, rate_bps=GBPS, prop=500)
    link.send("x", 125)
    sim.run()
    assert dst.received == [(1500, "x")]


def test_frames_serialize_back_to_back_in_fifo_order():
    sim = Simulator()
    link, dst = make_link(sim, rate_bps=GBPS)
    link.send("a", 125)
    link.send("b", 125)
    sim.run()
    assert dst.received == [(1000, "a"), (2000, "b")]


def test_queue_accounting_and_peaks():
    sim = Simulator()
    link, _ = make_link(sim)
    link.send("a", 100)  # starts transmitting immediately
    link.send("b", 200)
    link.send("c", 300)
    assert link.queued_bytes == 500
    assert link.queued_frames == 2
    assert link.peak_queue_bytes == 500
    sim.run()
    assert link.queued_bytes == 0
    assert link.tx_frames == 3
    assert link.tx_bytes == 600


def test_on_transmit_hook_fires_at_serialization_start():
    sim = Simulator()
    link, _ = make_link(sim)
    starts = []
    link.on_transmit = lambda payload: starts.append((sim.now, payload))
    link.send("a", 125)
    link.send("b", 125)
    sim.run()
    assert starts == [(0, "a"), (1000, "b")]


def test_on_idle_fires_when_queue_drains():
    sim = Simulator()
    link, _ = make_link(sim)
    idles = []
    link.on_idle = lambda: idles.append(sim.now)
    link.send("a", 125)
    link.send("b", 125)
    sim.run()
    assert idles == [2000]


def test_fail_drops_queued_and_in_flight():
    sim = Simulator()
    link, dst = make_link(sim, rate_bps=GBPS, prop=1000)
    link.send("a", 125)
    link.send("b", 125)
    # Fail mid-serialization of "a".
    sim.schedule(500, link.fail)
    sim.run()
    assert dst.received == []


def test_send_on_down_link_raises():
    sim = Simulator()
    link, _ = make_link(sim)
    link.fail()
    with pytest.raises(LinkDown):
        link.send("x", 10)


def test_restore_allows_traffic_again():
    sim = Simulator()
    link, dst = make_link(sim)
    link.fail()
    link.restore()
    link.send("x", 125)
    sim.run()
    assert [p for _, p in dst.received] == ["x"]


def test_zero_size_frame_rejected():
    sim = Simulator()
    link, _ = make_link(sim)
    with pytest.raises(ValueError):
        link.send("x", 0)


def test_bad_rate_rejected():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    with pytest.raises(ValueError):
        Link(sim, a, b, 0)


def test_restore_mid_serialization_keeps_frame_pairing():
    # Regression: a frame serializing when the link fails leaves its
    # completion event pending.  If the link is restored and a smaller
    # frame is sent before that stale event fires, the *new* frame's
    # completion arrives first — each completion must process its own
    # frame, not whatever sits at the head of the FIFO.
    sim = Simulator()
    link, dst = make_link(sim, rate_bps=GBPS)  # 8 ns/byte
    link.send("BIG", 10_000)  # completes at t=80000
    sim.schedule(100, link.fail)
    sim.schedule(500, link.restore)
    sim.schedule(800, lambda: link.send("small", 100))  # completes t=1600
    sim.run()
    assert dst.received == [(1600, "small"), (80000, "BIG")]
    assert link.tx_frames == 2
    assert link.tx_bytes == 10_100


def test_50g_link_timing():
    sim = Simulator()
    link, dst = make_link(sim, rate_bps=gbps(50))
    link.send("cell", 256)  # 2048 bits at 50 Gbps => 41 ns (rounded up)
    sim.run()
    assert dst.received[0][0] == 41


class TestFailureLossAccounting:
    """Link.fail() must *count* every frame it kills — queued, being
    serialized, or propagating — not silently drop them (the fault
    subsystem's loss metrics are built from these counters)."""

    def test_fail_counts_queued_frames_and_bytes(self):
        sim = Simulator()
        link, dst = make_link(sim, rate_bps=GBPS)
        for i in range(4):
            link.send(f"f{i}", 1000)  # f0 serializing, f1-f3 queued
        lost = link.fail()
        assert lost == 3
        assert link.dropped_frames == 3
        assert link.dropped_bytes == 3000
        assert link.failed_at_ns == sim.now

    def test_fail_during_serialization_counts_the_inflight_frame(self):
        sim = Simulator()
        link, dst = make_link(sim, rate_bps=GBPS)  # 8 ns/byte
        link.send("dying", 1000)  # completes at t=8000
        sim.schedule(100, link.fail)
        sim.run()
        assert dst.received == []
        # Counted when the serialization event fired into a dead link.
        assert link.dropped_frames == 1
        assert link.dropped_bytes == 1000
        assert link.tx_frames == 1  # it *was* serialized...
        assert dst.received == []  # ...but never delivered

    def test_fail_during_propagation_counts_the_inflight_frame(self):
        sim = Simulator()
        link, dst = make_link(sim, rate_bps=GBPS, prop=5000)
        link.send("wire", 125)  # serialized at 1000, delivered at 6000
        sim.schedule(2000, link.fail)  # dies mid-propagation
        sim.run()
        assert dst.received == []
        assert link.dropped_frames == 1  # bytes unknown at delivery

    def test_restore_before_completion_still_delivers_uncounted(self):
        # The pre-fail frame whose completion fires after restore() is
        # delivered (existing semantics) and must NOT count as lost.
        sim = Simulator()
        link, dst = make_link(sim, rate_bps=GBPS)
        link.send("BIG", 10_000)  # completes at t=80000
        sim.schedule(100, link.fail)
        sim.schedule(500, link.restore)
        sim.run()
        assert [p for _, p in dst.received] == ["BIG"]
        assert link.dropped_frames == 0
        assert link.dropped_bytes == 0

    def test_loss_counters_survive_fail_restore_cycles(self):
        sim = Simulator()
        link, dst = make_link(sim, rate_bps=GBPS)
        link.send("a", 1000)
        link.fail()  # "a" mid-serialization: counted when event fires
        sim.run()
        link.restore()
        link.send("b", 500)
        sim.run()
        link.send("c", 500)
        link.send("d", 500)
        link.fail()  # "c" serializing (counted on event), "d" queued
        sim.run()
        assert [p for _, p in dst.received] == ["b"]
        assert link.dropped_frames == 3
        assert link.dropped_bytes == 2000


class TestDegradedRate:
    def test_set_rate_changes_future_serializations(self):
        sim = Simulator()
        link, dst = make_link(sim, rate_bps=GBPS)  # 8 ns/byte
        link.send("fast", 125)  # 1000 ns
        sim.run()
        link.set_rate(GBPS // 2)  # 16 ns/byte
        link.send("slow", 125)  # 2000 ns
        sim.run()
        assert dst.received == [(1000, "fast"), (3000, "slow")]

    def test_set_rate_rejects_nonpositive(self):
        sim = Simulator()
        link, _ = make_link(sim)
        with pytest.raises(ValueError):
            link.set_rate(0)

    def test_set_rate_same_value_keeps_memo(self):
        sim = Simulator()
        link, dst = make_link(sim, rate_bps=GBPS)
        link.send("x", 125)
        sim.run()
        memo = link._tx_ns
        link.set_rate(GBPS)
        assert link._tx_ns is memo  # unchanged rate: no memo rebuild
