"""Unit tests for transmit queues, stats primitives and units.

``TestFifoQueue`` keeps the names of the tests of a deleted
``repro.sim.queue.FifoQueue`` (the tier-1 floor list pins them).  Its
contracts live on in the two queues the simulator has: a
:class:`~repro.sim.link.Link`'s transmit queue (FIFO order, byte and
frame accounting, peak depth) and the drop-tail an
:class:`~repro.baselines.ethernet.EthernetSwitch` applies against
``port_buffer_bytes``.
"""

import pytest

from repro.baselines.ethernet import EthConfig, EthernetSwitch
from repro.net.addressing import PortAddress
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.sim.link import Link, LinkDown
from repro.sim.stats import (
    Histogram,
    RateMeter,
    percentile,
)
from repro.sim.units import (
    bits_to_time_ns,
    gbps,
    time_ns_for_bytes,
)


class Sink(Entity):
    """Records what a link delivers."""

    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def receive(self, payload, link):
        self.received.append(payload)


def make_link():
    sim = Simulator()
    sink = Sink(sim)
    return sim, Link(sim, Entity(sim, "src"), sink, gbps(10)), sink


def one_port_switch(port_buffer_bytes):
    """An Ethernet switch whose every packet leaves by one host port."""
    sim = Simulator()
    config = EthConfig(
        port_buffer_bytes=port_buffer_bytes, ecn_threshold_bytes=None
    )
    sw = EthernetSwitch(sim, config, 0, "sw")
    sink = Sink(sim)
    out = Link(sim, sw, sink, gbps(10))
    sw.add_port(out, "host", host_port_index=0)
    return sim, sw, out, sink


def packet(size_bytes):
    return Packet(size_bytes, PortAddress(1, 0), PortAddress(0, 0))


class TestFifoQueue:
    def test_fifo_order(self):
        sim, link, sink = make_link()
        frames = ["a", "b", "c", "d"]
        for frame in frames:
            link.send(frame, 100)
        sim.run()
        assert sink.received == frames

    def test_byte_accounting(self):
        sim, link, _ = make_link()
        link.send("a", 10)  # straight onto the serializer
        link.send("b", 20)
        link.send("c", 30)
        assert link.queued_bytes == 50
        assert link.queued_frames == 2
        sim.run(until=time_ns_for_bytes(10, gbps(10)))
        assert link.queued_bytes == 30
        assert link.queued_frames == 1
        sim.run()
        assert (link.queued_bytes, link.queued_frames) == (0, 0)
        assert (link.tx_frames, link.tx_bytes) == (3, 60)

    def test_drop_tail_on_capacity(self):
        sim, sw, out, sink = one_port_switch(25_000)
        for _ in range(40):
            sw.receive(packet(1500), None)
        wire = packet(1500).wire_bytes
        # One serializing, then as many as the buffer holds.
        assert sw.forwarded == 1 + 25_000 // wire
        assert sw.dropped == 40 - sw.forwarded
        assert out.queued_bytes <= 25_000
        sim.run()
        assert len(sink.received) == sw.forwarded

    def test_would_fit(self):
        wire = packet(1000).wire_bytes
        sim, sw, out, _ = one_port_switch(2 * wire)
        for _ in range(3):
            sw.receive(packet(1000), None)
        assert out.queued_bytes == 2 * wire  # exactly full still fits
        assert sw.dropped == 0
        sw.receive(packet(64), None)
        assert sw.dropped == 1

    def test_unbounded_never_drops(self):
        sim, link, sink = make_link()
        for i in range(1000):
            link.send(i, 1000)
        assert link.queued_frames == 999
        sim.run()
        assert sink.received == list(range(1000))
        assert link.dropped_frames == 0

    def test_peek_does_not_remove(self):
        sim, sw, out, _ = one_port_switch(10_000)
        sw.receive(packet(500), None)
        sw.receive(packet(500), None)
        before = (out.queued_bytes, out.queued_frames, sw.forwarded)
        assert sw.route(packet(500)).out is out
        assert (out.queued_bytes, out.queued_frames, sw.forwarded) == before

    def test_pop_empty_raises(self):
        sim, link, _ = make_link()
        link.fail()
        with pytest.raises(LinkDown):
            link.send("a", 10)

    def test_clear_counts_drops(self):
        sim, link, sink = make_link()
        for frame in ("a", "b", "c"):
            link.send(frame, 10)
        assert link.fail() == 2  # the queued two; "a" is serializing
        assert link.dropped_bytes == 20
        assert link.queued_bytes == 0
        sim.run()
        assert link.dropped_frames == 3  # "a" finished into a dead link
        assert sink.received == []

    def test_peak_tracking(self):
        sim, link, _ = make_link()
        link.send("a", 10)
        link.send("b", 30)
        link.send("c", 20)
        sim.run()
        assert link.queued_bytes == 0
        assert link.peak_queue_bytes == 50
        assert link.peak_queue_frames == 2

    def test_wire_bytes_preferred_for_sizing(self):
        sim, sw, out, _ = one_port_switch(10_000)
        first, second = packet(64), packet(64)
        sw.receive(first, None)
        sw.receive(second, None)
        assert second.wire_bytes > second.size_bytes
        assert out.queued_bytes == second.wire_bytes
        sim.run()
        assert out.tx_bytes == first.wire_bytes + second.wire_bytes

    def test_custom_size_of(self):
        # The sender states each frame's size; the payload is opaque.
        sim, link, sink = make_link()
        link.send("hello", 5)
        link.send(object(), 7)
        assert link.queued_bytes == 7
        sim.run()
        assert link.tx_bytes == 12
        assert sink.received[0] == "hello"

    def test_unsizable_item_raises(self):
        sim, link, _ = make_link()
        for size in (0, -1):
            with pytest.raises(ValueError):
                link.send("a", size)
        assert link.queued_frames == 0


class TestPercentile:
    def test_median_of_odd_set(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestHistogram:
    def test_summary_stats(self):
        h = Histogram()
        h.extend([1, 2, 3, 4])
        assert h.mean() == 2.5
        assert h.minimum() == 1
        assert h.maximum() == 4
        assert h.count == 4

    def test_distribution_bins(self):
        h = Histogram()
        h.extend([0.1, 0.2, 1.5, 2.7])
        dist = h.distribution(1.0)
        assert dist[0.0] == pytest.approx(0.5)
        assert dist[1.0] == pytest.approx(0.25)
        assert dist[2.0] == pytest.approx(0.25)

    def test_distribution_probabilities_sum_to_one(self):
        h = Histogram()
        h.extend(range(100))
        assert sum(h.distribution(7.0).values()) == pytest.approx(1.0)

    def test_ccdf_monotone_decreasing(self):
        h = Histogram()
        h.extend([1, 1, 2, 3, 3, 3])
        points = h.ccdf()
        probs = [p for _, p in points]
        assert probs == sorted(probs, reverse=True)
        assert points[0] == (1, 1.0)

    def test_mean_of_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().mean()

    def test_stdev(self):
        h = Histogram()
        h.extend([2, 4, 4, 4, 5, 5, 7, 9])
        assert h.stdev() == pytest.approx(2.138, abs=1e-3)

    def test_array_backing_stores_plain_floats(self):
        # The sample store is a packed array('d') (RSS: 8 bytes per
        # sample on 5M-event runs), but the visible samples must remain
        # ordinary floats with list-of-floats coercion semantics.
        h = Histogram()
        h.record(3)
        h.record(2.5)
        assert h.samples == [3.0, 2.5]
        assert all(type(s) is float for s in h.samples)
        other = Histogram()
        other.extend([1, 2])
        other.merge(h)
        assert other.samples == [1.0, 2.0, 3.0, 2.5]

    def test_digest_hash_pinned_across_storage_changes(self):
        # Regression pin: run digests hash Histogram samples via
        # values_hash; switching the backing store (list -> array('d'))
        # must never move a digest.  This literal was recorded from the
        # list-backed implementation.
        from repro.perf.digest import values_hash

        h = Histogram("pin")
        for value in (0, 1, 2.5, 3735.5, 10**9, 0.1 + 0.2):
            h.record(value)
        assert values_hash(h.samples) == "e9f68eb1a5d07a8c"


class TestRateMeter:
    def test_average_rate(self):
        m = RateMeter()
        m.record(0, 0)
        m.record(1000, 125)  # 1000 bits over 1000 ns = 1 Gbps
        assert m.rate_bps() == pytest.approx(1e9)

    def test_explicit_window(self):
        m = RateMeter()
        m.record(500, 125)
        assert m.rate_bps(window_ns=1000) == pytest.approx(1e9)

    def test_no_samples_is_zero(self):
        assert RateMeter().rate_bps() == 0.0


class TestUnits:
    def test_bits_to_time_rounds_up(self):
        assert bits_to_time_ns(1, gbps(1)) == 1
        assert bits_to_time_ns(3, gbps(2)) == 2  # 1.5 ns -> 2

    def test_bytes_timing_on_50g(self):
        # 256B = 2048 bits at 50 Gbps = 40.96 ns -> 41.
        assert time_ns_for_bytes(256, gbps(50)) == 41

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            bits_to_time_ns(8, 0)


class TestRateMeterWindow:
    """The deque-trimmed trailing window added for telemetry probes."""

    @staticmethod
    def naive_window_bytes(samples, last_ns, window_ns):
        cutoff = last_ns - window_ns
        return sum(nb for t, nb in samples if t > cutoff)

    def test_windowed_matches_naive_scan(self):
        m = RateMeter(retention_ns=10_000)
        samples = [(t, (t * 7) % 300 + 1) for t in range(0, 5000, 130)]
        for t, nb in samples:
            m.record(t, nb)
        for window_ns in (100, 1000, 2600, 9999):
            expected = self.naive_window_bytes(
                samples, samples[-1][0], window_ns
            )
            assert m.window_bytes(window_ns) == expected
            assert m.rate_bps(window_ns) == pytest.approx(
                expected * 8 * 1e9 / window_ns
            )

    def test_window_wider_than_span_uses_total(self):
        m = RateMeter(retention_ns=1000)
        m.record(100, 10)
        m.record(200, 20)
        # Span is 100ns; a 500ns window covers everything observed.
        assert m.window_bytes(500) == 30

    def test_window_wider_than_retention_raises(self):
        m = RateMeter(retention_ns=1000)
        for t in range(0, 5000, 100):
            m.record(t, 1)
        with pytest.raises(ValueError):
            m.window_bytes(2000)

    def test_retention_bounds_memory(self):
        m = RateMeter(retention_ns=1000)
        for t in range(0, 100_000, 10):
            m.record(t, 1)
        assert len(m._window) <= 101
        assert m.total_bytes == 10_000  # cumulative stats unaffected

    def test_nonpositive_window_is_zero(self):
        m = RateMeter()
        m.record(10, 5)
        assert m.window_bytes(0) == 0
        assert m.rate_bps(window_ns=0) == 0.0

    def test_invalid_retention_rejected(self):
        with pytest.raises(ValueError):
            RateMeter(retention_ns=0)
