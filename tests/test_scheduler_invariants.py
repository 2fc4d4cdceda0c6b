"""Invariants of the calendar-wheel scheduler and cell trains.

The engine replaced one global binary heap with a calendar wheel plus a
spill heap (see :mod:`repro.sim.engine`); every golden trace depends on
the merged structure still firing in the exact ``(time_ns, seq)`` total
order.  These tests pin that contract at its seams — same-timestamp
FIFO across bucket boundaries, wheel-horizon spills, cancellation
churn, ``run(until=...)`` at rotation edges — mirroring the
seeded-random style of ``tests/test_invariants.py``, plus the
link-level train-splitting guarantees under ``set_rate``/``fail()``.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import SimError, Simulator
from repro.sim.entity import Entity
from repro.sim.link import Link
from repro.sim.units import gbps
from tests.conftest import ENGINE_DRIVERS

SLOT = Simulator.WHEEL_SLOT_NS
HORIZON = Simulator.WHEEL_SLOT_NS * Simulator.WHEEL_SLOTS


@pytest.fixture(params=sorted(ENGINE_DRIVERS))
def sim_cls(request):
    """The engine, run whole and single-stepped (see ``ENGINE_DRIVERS``):
    every invariant here must hold — same timestamps, same counters —
    wherever ``run`` is stopped and resumed.  Ids: ``batch`` is the whole
    run, ``wheel`` the stepped one (names pinned by the floor list)."""
    return ENGINE_DRIVERS[request.param]


# ----------------------------------------------------------------------
# Total order across the wheel's seams
# ----------------------------------------------------------------------


def test_same_timestamp_fifo_across_bucket_boundaries(sim_cls):
    """Events at one instant fire in schedule order, wherever the
    instant falls relative to bucket edges."""
    for t in (SLOT - 1, SLOT, SLOT + 1, 5 * SLOT, 5 * SLOT + 7):
        sim = sim_cls()
        order = []
        for tag in range(6):
            # Alternate fast-path and handle-path scheduling: both
            # share one sequence space.
            if tag % 2:
                sim.schedule_at(t, lambda tag=tag: order.append(tag))
            else:
                sim.at(t, lambda tag=tag: order.append(tag))
        sim.run()
        assert order == list(range(6)), f"FIFO broken at t={t}"


def test_boundary_straddling_times_fire_in_time_order(sim_cls):
    sim = sim_cls()
    fired = []
    times = [SLOT + 1, SLOT - 1, SLOT, 2 * SLOT, 0, 3 * SLOT - 1]
    for t in times:
        sim.schedule_at(t, lambda t=t: fired.append(t))
    sim.run()
    assert fired == sorted(times)


def test_wheel_wrap_preserves_order(sim_cls):
    """Times one full rotation apart share a ring slot; the later one
    must wait for the next rotation, not jump the queue."""
    sim = sim_cls()
    fired = []
    sim.schedule_at(HORIZON + 5, lambda: fired.append("far"))  # spills
    sim.schedule_at(5, lambda: fired.append("near"))
    sim.schedule_at(HORIZON - 1, lambda: fired.append("edge"))
    sim.run()
    assert fired == ["near", "edge", "far"]


def test_seeded_random_schedule_storm_fires_in_total_order(sim_cls):
    """Randomized mix of both scheduling surfaces, near and far times,
    with random cancellations: survivors fire in exact (t, seq) order
    and the accounting conserves events."""
    rng = random.Random(11)
    sim = sim_cls()
    fired = []
    expected = []
    scheduled = cancelled = 0
    handles = []
    for seq in range(4000):
        # Bias toward the wheel but cross the horizon regularly.
        t = rng.randrange(0, HORIZON * 2 if seq % 5 == 0 else 3000)
        tag = (t, seq)
        scheduled += 1
        if rng.random() < 0.5:
            sim.schedule_at(t, lambda tag=tag: fired.append(tag))
            expected.append(tag)
        else:
            handles.append(
                (sim.at(t, lambda tag=tag: fired.append(tag)), tag)
            )
    for handle, tag in handles:
        if rng.random() < 0.6:
            handle.cancel()
            cancelled += 1
        else:
            expected.append(tag)
    sim.run()
    assert fired == sorted(expected)
    assert sim.events_fired == scheduled - cancelled
    assert sim.pending_events == 0


def test_events_scheduled_from_callbacks_interleave_exactly(sim_cls):
    """Sub-slot re-scheduling (the cell-train pattern) interleaves with
    already-queued same-bucket events in time order."""
    sim = sim_cls()
    fired = []

    def chain(n):
        fired.append(("chain", sim.now))
        if n:
            sim.call_later(7, lambda: chain(n - 1))

    for t in range(0, 200, 10):
        sim.schedule_at(t, lambda t=t: fired.append(("fixed", t)))
    sim.schedule_at(3, lambda: chain(20))
    sim.run()
    times = [t for _, t in fired]
    assert times == sorted(times)
    assert len(fired) == 20 + 21


# ----------------------------------------------------------------------
# Cancellation churn and compaction
# ----------------------------------------------------------------------


def test_cancel_then_compact_under_churn_keeps_order_and_counts(sim_cls):
    rng = random.Random(7)
    sim = sim_cls()
    fired = []
    expected = []
    live = []

    def churn():
        # Cancel from inside a callback, forcing compaction mid-run.
        for handle, _ in live:
            handle.cancel()

    for seq in range(3000):
        t = rng.randrange(10, 5000)
        tag = (t, seq)
        handle = sim.at(t, lambda tag=tag: fired.append(tag))
        if rng.random() < 0.8:
            live.append((handle, tag))
        else:
            expected.append((t, seq))
    sim.at(5, churn)
    sim.run()
    assert fired == sorted(expected)
    assert sim.pending_events == 0
    assert sim.pending <= Simulator.COMPACT_MIN_CANCELLED * 2


def test_compact_with_offsetting_pushes_mid_drain_keeps_order(sim_cls):
    """Regression (drain bound): a callback that cancels
    past ``COMPACT_MIN_CANCELLED`` (so compaction removes N corpses in
    place) and pushes an offsetting number of new spill entries leaves
    ``len(spill)`` unchanged while installing an *earlier* spill head.
    A drain bound watching only the heap's length then fires the rest
    of the bucket (67/68/70) before the earlier spill event (66),
    sending the clock non-monotonic."""
    sim = sim_cls()
    fired = []
    n = Simulator.COMPACT_MIN_CANCELLED + 1
    far = 1_000_000
    handles = [sim.at(far + i, lambda: None) for i in range(n + 4)]

    def storm():
        fired.append(sim.now)
        # Cancel enough to cross the compaction threshold: the corpses
        # are dropped from the spill heap in place...
        for handle in handles[:n]:
            handle.cancel()
        # ...and an equal number of pushes restores len(spill) exactly,
        # with the new head (t=66) earlier than the remainder of the
        # bucket currently being drained.
        sim.at(66, lambda: fired.append(sim.now))
        for i in range(n - 1):
            sim.at(2 * far + i, lambda: None)

    sim.schedule_at(64, lambda: fired.append(sim.now))
    sim.schedule_at(65, storm)
    for t in (67, 68, 70):
        sim.schedule_at(t, lambda: fired.append(sim.now))
    sim.run(until=100)
    assert fired == [64, 65, 66, 67, 68, 70]
    assert fired == sorted(fired), "sim clock went non-monotonic"


def _bound_at(sim, t, bound):
    """Run past ``t`` with the drain's bound starting exactly at ``t``:
    the horizon, or the next probe deadline minus one."""
    if bound == "until":
        sim.run(until=t)
    else:
        sim.set_probe(lambda now: None, t + 1)
        sim.run()


@pytest.mark.parametrize("bound", ["until", "probe"])
@pytest.mark.parametrize("t", [0, 5, SLOT, 3 * SLOT + 7])
def test_spill_head_tied_with_the_drain_bound_keeps_seq_order(
    t, bound, sim_cls
):
    """Regression (drain bound): a spill-heap entry due exactly at the
    horizon (or at ``probe_due - 1``) ties with wheel entries at that
    instant; the bound must stop one short of it so the tie is settled
    by the outer loop's (time, seq) compare.  With ``<`` for ``<=`` the
    drain fired a, c, b."""
    sim = sim_cls()
    order = []
    sim.schedule_at(t, lambda: order.append("a"))
    sim.at(t, lambda: order.append("b"))  # cancellable: spill heap
    sim.schedule_at(t, lambda: order.append("c"))
    _bound_at(sim, t, bound)
    assert order == ["a", "b", "c"]


@pytest.mark.parametrize("bound", ["until", "probe"])
def test_spill_head_installed_mid_drain_at_the_bound_keeps_seq_order(
    bound, sim_cls
):
    """The same tie, with the tied spill head pushed by a callback the
    drain itself fired (the bound's recompute, not its first value) —
    a timer armed for a phase boundary that ``run(until=...)`` stops
    at, with link events sharing the instant later in the bucket."""
    sim = sim_cls()
    order = []
    t = 2 * SLOT + 9

    def arm():
        order.append("arm")
        sim.at(t, lambda: order.append("timer"))
        sim.schedule_at(t, lambda: order.append("after"))

    sim.schedule_at(t - 2, lambda: order.append("first"))
    sim.schedule_at(t - 1, arm)  # fired by the drain
    sim.schedule_at(t, lambda: order.append("before"))
    _bound_at(sim, t, bound)
    assert order == ["first", "arm", "before", "timer", "after"]


def test_pending_events_excludes_corpses_exactly(sim_cls):
    """Regression (engine accounting): the raw structure length counts
    lazily-deleted corpses until compaction happens to run;
    ``pending_events`` / ``len(sim)`` must be exact regardless."""
    sim = sim_cls()
    keep = Simulator.COMPACT_MIN_CANCELLED // 2
    handles = [sim.at(100 + i, lambda: None) for i in range(2 * keep)]
    for handle in handles[keep:]:
        handle.cancel()
    # Below the compaction threshold: corpses are still in the heap.
    assert sim.pending == 2 * keep
    assert sim.pending_events == keep
    assert len(sim) == keep
    # Wheel events count too.
    sim.schedule_at(50, lambda: None)
    assert len(sim) == keep + 1
    sim.run()
    assert sim.pending == 0
    assert sim.pending_events == 0
    assert len(sim) == 0
    assert sim.events_fired == keep + 1


# ----------------------------------------------------------------------
# run(until=...) at rotation edges
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "until",
    [SLOT - 1, SLOT, SLOT + 1, HORIZON - 1, HORIZON, HORIZON + SLOT],
)
def test_run_until_at_bucket_edges_is_inclusive_and_resumable(until, sim_cls):
    sim = sim_cls()
    fired = []
    for t in (until - 1, until, until + 1, until + SLOT):
        sim.schedule_at(t, lambda t=t: fired.append(t))
    sim.run(until=until)
    assert fired == [until - 1, until]
    assert sim.now == until
    sim.run()
    assert fired == [until - 1, until, until + 1, until + SLOT]


def test_run_until_mid_bucket_leaves_same_bucket_remainder(sim_cls):
    """Two events share one bucket; the horizon splits them."""
    sim = sim_cls()
    fired = []
    base = 10 * SLOT
    sim.schedule_at(base + 10, lambda: fired.append("early"))
    sim.schedule_at(base + 20, lambda: fired.append("late"))
    sim.run(until=base + 10)
    assert fired == ["early"]
    # Scheduling into the partially drained bucket keeps order.
    sim.schedule_at(base + 15, lambda: fired.append("wedge"))
    sim.run()
    assert fired == ["early", "wedge", "late"]


def test_run_until_before_any_wheel_event_then_resume_across_wrap(sim_cls):
    sim = sim_cls()
    fired = []
    sim.schedule_at(HORIZON + 10, lambda: fired.append("beyond"))
    sim.run(until=HORIZON // 2)
    assert fired == []
    assert sim.now == HORIZON // 2
    # A new near event lands in the wheel after the clamp and fires
    # before the spilled far event.
    sim.schedule_at(HORIZON // 2 + 5, lambda: fired.append("near"))
    sim.run()
    assert fired == ["near", "beyond"]


def test_max_events_stop_resumes_in_order_across_buckets(sim_cls):
    sim = sim_cls()
    fired = []
    for i in range(20):
        sim.schedule_at(1 + i * (SLOT // 2), lambda i=i: fired.append(i))
    sim.run(max_events=7)
    assert fired == list(range(7))
    sim.run()
    assert fired == list(range(20))


# ----------------------------------------------------------------------
# rearm_at: the train primitive
# ----------------------------------------------------------------------


def test_rearm_at_orders_like_a_fresh_schedule(sim_cls):
    sim = sim_cls()
    order = []
    entry = [0, 0, None]

    def first():
        order.append("first")
        # Recycle the spent entry at the same instant: it must fire
        # after the already-queued same-time event (fresh, larger seq).
        sim.rearm_at(sim.now, entry, lambda: order.append("rearmed"))

    sim.schedule_at(10, first)
    sim.schedule_at(10, lambda: order.append("queued"))
    sim.run()
    assert order == ["first", "queued", "rearmed"]


def test_event_beyond_the_never_sentinel_still_fires(sim_cls):
    """Regression: the int "no horizon" sentinel must behave like the
    old float('inf') — an event at an absurdly large time is still live
    when run() has no `until`, not a crash or a lost event."""
    from repro.sim.engine import _NEVER

    far = _NEVER + 5
    sim = sim_cls()
    fired = []
    sim.schedule_at(far, lambda: fired.append("wheel-far"))
    sim.at(far + 1, lambda: fired.append("spill-far"))
    sim.run()
    assert fired == ["wheel-far", "spill-far"]
    assert sim.now == far + 1


def test_rearm_at_past_raises(sim_cls):
    sim = sim_cls()
    sim.schedule_at(10, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.rearm_at(5, [0, 0, None], lambda: None)


# ----------------------------------------------------------------------
# Cell trains: splitting under mid-train disturbances
# ----------------------------------------------------------------------


class _Recorder(Entity):
    def __init__(self, sim, name="rx"):
        super().__init__(sim, name)
        self.got = []

    def receive(self, payload, link):
        self.got.append((self.sim.now, payload))


def _link(sim, rate=gbps(10), prop=0):
    src = _Recorder(sim, "src")
    dst = _Recorder(sim, "dst")
    return Link(sim, src, dst, rate, propagation_ns=prop), dst


def test_train_delivers_back_to_back_frames_at_exact_times(sim_cls):
    sim = sim_cls()
    link, dst = _link(sim, rate=gbps(10), prop=100)
    for i in range(5):
        link.send(f"f{i}", 1000)  # 800ns each at 10G
    sim.run()
    assert [t for t, _ in dst.got] == [
        900, 1700, 2500, 3300, 4100
    ]
    assert [p for _, p in dst.got] == [f"f{i}" for i in range(5)]


def test_train_splits_on_mid_train_set_rate(sim_cls):
    """Frames serialized after a rate change take the new rate; the
    frame in flight finishes at the old rate."""
    sim = sim_cls()
    link, dst = _link(sim, rate=gbps(10))
    for i in range(4):
        link.send(f"f{i}", 1000)
    # Halve the rate mid-train, while frame 1 serializes.
    sim.at(1200, lambda: link.set_rate(gbps(5)))
    sim.run()
    # f0: 800, f1: 1600 (started before the change), f2/f3: 1600 each.
    assert [t for t, _ in dst.got] == [800, 1600, 3200, 4800]


def test_train_splits_on_mid_train_fail(sim_cls):
    sim = sim_cls()
    link, dst = _link(sim, rate=gbps(10))
    for i in range(6):
        link.send(f"f{i}", 1000)
    sim.at(900, link.fail)  # f1 serializing, f2..f5 queued
    sim.run()
    assert [p for _, p in dst.got] == ["f0"]
    # f1 finished into the dead link, f2..f5 were dropped queued.
    assert link.dropped_frames == 5
    assert link.dropped_bytes == 5000
    assert link.tx_frames == 2  # f0 and f1 left the serializer


def test_train_restarts_cleanly_after_restore(sim_cls):
    """A post-restore train lays a fresh entry while the stale pre-fail
    completion is pending, and both frames resolve correctly."""
    sim = sim_cls()
    link, dst = _link(sim, rate=gbps(10))
    link.send("old", 1000)  # completes at 800
    sim.at(100, link.fail)
    sim.at(200, link.restore)
    sim.at(300, lambda: link.send("new", 500))  # completes at 700
    sim.run()
    # "new" serialized into the live link and was delivered; "old"
    # finished later into... the link is up again, so it delivers too.
    assert [p for _, p in dst.got] == ["new", "old"]
    assert link.tx_frames == 2
    conserved = len(dst.got) + link.dropped_frames + link.queued_frames
    assert conserved == 2


def test_train_conservation_under_seeded_fault_storm(sim_cls):
    """Seeded random sends, fails, restores and rate changes: every
    frame is delivered, dropped, queued or in flight — none vanish,
    none duplicate (the scheduler-churn mirror of the fabric
    conservation tests in test_invariants.py)."""
    rng = random.Random(23)
    sim = sim_cls()
    link, dst = _link(sim, rate=gbps(10), prop=50)
    sent = 0

    def maybe_send():
        nonlocal sent
        if link.up and rng.random() < 0.8:
            link.send(object(), rng.choice([256, 512, 1000]))
            sent += 1

    for t in range(0, 20_000, 100):
        sim.at(t, maybe_send)
        if rng.random() < 0.08:
            sim.at(t + rng.randrange(1, 90), lambda: link.up and link.fail())
        if rng.random() < 0.08:
            sim.at(
                t + rng.randrange(1, 90),
                lambda: link.up or link.restore(),
            )
        if rng.random() < 0.05:
            sim.at(
                t + rng.randrange(1, 90),
                lambda: link.set_rate(rng.choice([gbps(5), gbps(10)])),
            )
    sim.run()
    serializing = (0 if link._ser_done == -1 else 1) + len(link._ser_extra)
    accounted = (
        len(dst.got)
        + link.dropped_frames
        + link.queued_frames
        + len(link._in_flight)
        + serializing
    )
    assert accounted == sent
    assert len(dst.got) > 0
    assert link.dropped_frames > 0
