"""Unit tests for FIFO queues, stats primitives and units."""

import pytest

from repro.sim.queue import FifoQueue
from repro.sim.stats import (
    Counter,
    Histogram,
    RateMeter,
    TimeWeightedMean,
    percentile,
)
from repro.sim.units import (
    bits_to_time_ns,
    gbps,
    time_ns_for_bytes,
)


class Item:
    def __init__(self, size):
        self.size_bytes = size


class TestFifoQueue:
    def test_fifo_order(self):
        q = FifoQueue()
        a, b = Item(10), Item(20)
        q.push(a)
        q.push(b)
        assert q.pop() is a
        assert q.pop() is b

    def test_byte_accounting(self):
        q = FifoQueue()
        q.push(Item(10))
        q.push(Item(20))
        assert q.bytes == 30
        assert q.frames == 2
        q.pop()
        assert q.bytes == 20

    def test_drop_tail_on_capacity(self):
        q = FifoQueue(capacity_bytes=25)
        assert q.push(Item(10))
        assert q.push(Item(15))
        assert not q.push(Item(1))
        assert q.stats.dropped_frames == 1
        assert q.bytes == 25

    def test_would_fit(self):
        q = FifoQueue(capacity_bytes=20)
        q.push(Item(15))
        assert q.would_fit(Item(5))
        assert not q.would_fit(Item(6))

    def test_unbounded_never_drops(self):
        q = FifoQueue()
        for _ in range(1000):
            assert q.push(Item(1000))
        assert q.stats.dropped_frames == 0

    def test_peek_does_not_remove(self):
        q = FifoQueue()
        item = Item(5)
        q.push(item)
        assert q.peek() is item
        assert q.frames == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FifoQueue().pop()

    def test_clear_counts_drops(self):
        q = FifoQueue()
        q.push(Item(10))
        q.push(Item(10))
        assert q.clear() == 2
        assert q.stats.dropped_frames == 2
        assert q.bytes == 0

    def test_peak_tracking(self):
        q = FifoQueue()
        q.push(Item(10))
        q.push(Item(30))
        q.pop()
        q.pop()
        assert q.stats.peak_bytes == 40
        assert q.stats.peak_frames == 2

    def test_wire_bytes_preferred_for_sizing(self):
        class Wired:
            wire_bytes = 84
            size_bytes = 64

        q = FifoQueue()
        q.push(Wired())
        assert q.bytes == 84

    def test_custom_size_of(self):
        q = FifoQueue(size_of=len)
        q.push("hello")
        assert q.bytes == 5

    def test_unsizable_item_raises(self):
        q = FifoQueue()
        with pytest.raises(TypeError):
            q.push(object())


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


class TestTimeWeightedMean:
    def test_constant_level(self):
        twm = TimeWeightedMean()
        twm.update(0, 5.0)
        assert twm.value(100) == pytest.approx(5.0)

    def test_step_function(self):
        twm = TimeWeightedMean()
        twm.update(0, 0.0)
        twm.update(50, 10.0)
        # Half the time at 0, half at 10.
        assert twm.value(100) == pytest.approx(5.0)

    def test_peak(self):
        twm = TimeWeightedMean()
        twm.update(10, 3.0)
        twm.update(20, 7.0)
        twm.update(30, 1.0)
        assert twm.peak == 7.0

    def test_backwards_time_raises(self):
        twm = TimeWeightedMean()
        twm.update(10, 1.0)
        with pytest.raises(ValueError):
            twm.update(5, 1.0)


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


class TestCounter:
    def test_add(self):
        c = Counter()
        c.add()
        c.add(5)
        assert c.value == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add(-1)


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
