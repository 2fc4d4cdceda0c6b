"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.sim.engine import PeriodicTask, SimError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, lambda: order.append("c"))
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(100, lambda t=tag: order.append(t))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_run_until_stops_and_resumes():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(10))
    sim.schedule(50, lambda: fired.append(50))
    sim.run(until=20)
    assert fired == [10]
    assert sim.now == 20
    sim.run()
    assert fired == [10, 50]


def test_run_until_inclusive_of_boundary_event():
    sim = Simulator()
    fired = []
    sim.schedule(20, lambda: fired.append(20))
    sim.run(until=20)
    assert fired == [20]


def test_run_advances_clock_to_horizon_when_queue_drains():
    sim = Simulator()
    sim.run(until=1000)
    assert sim.now == 1000


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, lambda: fired.append("no"))
    event.cancel()
    sim.schedule(20, lambda: fired.append("yes"))
    sim.run()
    assert fired == ["yes"]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.at(5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.schedule(-1, lambda: None)


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(5, lambda: order.append("second"))

    sim.schedule(10, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 15


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    times = []

    def outer():
        sim.call_soon(lambda: times.append(sim.now))

    sim.schedule(7, outer)
    sim.run()
    assert times == [7]


def test_events_fired_counter():
    sim = Simulator()
    for i in range(10):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_fired == 10


def test_max_events_limits_run():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(i + 1, lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


class TestFastSchedulingPath:
    """call_later / schedule_at: no Event handle, same total order."""

    def test_fast_and_slow_paths_share_one_sequence_space(self):
        sim = Simulator()
        order = []
        sim.schedule(10, lambda: order.append("a"))
        sim.call_later(10, lambda: order.append("b"))
        sim.schedule_at(10, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("d"))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_call_later_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.call_later(-1, lambda: None)

    def test_schedule_at_past_raises(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.schedule_at(5, lambda: None)

    def test_fast_path_returns_no_handle(self):
        sim = Simulator()
        assert sim.call_later(5, lambda: None) is None
        assert sim.schedule_at(5, lambda: None) is None


class TestLazyDeletionAccounting:
    """Cancel/reschedule churn: no inflated counters, no leaked heap."""

    def test_set_period_churn_never_inflates_events_fired(self):
        # A DCQCN-style rate-update storm: hundreds of set_period calls,
        # each shortening cancels the pending tick and re-arms it.  Only
        # callbacks that actually executed may count.
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1000, lambda: ticks.append(sim.now))

        def churn():
            for step in range(400):
                task.set_period(1000 - step)  # always shorter: re-arms

        sim.schedule(5, churn)
        sim.run(until=5000)
        assert sim.events_fired == len(ticks) + 1  # ticks + churn driver
        task.stop()

    def test_cancelled_events_do_not_leak_past_run_until(self):
        sim = Simulator()
        for i in range(10):
            sim.at(10_000 + i, lambda: None)
        doomed = [sim.at(50_000 + i, lambda: None) for i in range(5000)]
        for event in doomed:
            event.cancel()
        sim.run(until=100)
        # The corpses were compacted away, not retained until t=50000.
        assert sim.pending_live == 10
        assert sim.pending <= 10 + 2 * Simulator.COMPACT_MIN_CANCELLED
        assert sim.events_fired == 0

    def test_heap_compacts_when_cancelled_events_dominate(self):
        sim = Simulator()
        keep = Simulator.COMPACT_MIN_CANCELLED
        events = [sim.at(100 + i, lambda: None) for i in range(4 * keep)]
        for event in events[keep:]:
            event.cancel()
        # More than half the heap was cancelled -> compaction ran.
        assert sim.pending < len(events)
        assert sim.pending_live == keep
        sim.run()
        assert sim.events_fired == keep

    def test_compaction_preserves_total_firing_order(self):
        rng = random.Random(3)
        sim = Simulator()
        fired = []
        expected = []
        events = []
        for seq in range(2000):
            t = rng.randrange(0, 200)
            tag = (t, seq)
            events.append((sim.at(t, lambda tag=tag: fired.append(tag)), tag))
        for event, tag in events:
            if rng.random() < 0.7:
                event.cancel()
            else:
                expected.append(tag)
        sim.run()
        assert fired == sorted(expected)
        assert sim.events_fired == len(expected)
        assert sim.pending == 0

    def test_cancel_is_idempotent_in_the_accounting(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        survivor = sim.schedule(20, lambda: None)
        for _ in range(5):
            event.cancel()
        assert sim.pending_live == 1
        sim.run()
        assert sim.events_fired == 1
        assert survivor.time_ns == 20

    def test_cancelling_a_fired_event_is_free(self):
        # Stale handles (RTO guards kept past their firing) must not be
        # booked as heap corpses when finally cancelled.
        sim = Simulator()
        events = [sim.schedule(i + 1, lambda: None) for i in range(8)]
        sim.run()
        for event in events:
            event.cancel()
        assert sim.pending == 0
        assert sim.pending_live == 0
        assert sim.events_fired == 8

    def test_max_events_stop_does_not_lose_the_boundary_event(self):
        # Regression: the old loop popped the (max_events+1)-th event
        # before noticing the budget was spent, silently dropping it.
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(i + 1, lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]
        sim.run()
        assert fired == list(range(10))


class TestEventRearm:
    """``Event.rearm_at``: the key of cancel + ``at``, without the churn."""

    def test_later_rearms_add_no_spill_entry_and_fire_once_at_the_last(self):
        sim = Simulator()
        fired = []
        handle = sim.at(100, lambda: fired.append(sim.now))
        for step in range(1000):
            handle.rearm_at(101 + step)
            assert sim.spill_occupancy == 1
        assert (handle.time_ns, sim.pending_events) == (1100, 1)
        sim.run()
        assert fired == [1100]
        assert sim.events_fired == 1
        assert sim.spill_occupancy == 0

    def test_rearm_draws_the_seq_a_fresh_at_would(self):
        sim = Simulator()
        handle = sim.at(50, lambda: None)
        sim.at(60, lambda: None)
        handle.rearm_at(60)  # equal time, fresh seq: behind the other
        assert (handle.time_ns, handle.seq) == (60, 2)
        assert sim.at(70, lambda: None).seq == 3

    def test_rearm_at_the_stale_key_time_defers(self):
        sim = Simulator()
        order = []
        first = sim.at(40, lambda: order.append("first"))
        first.rearm_at(80)
        sim.at(40, lambda: order.append("other"))
        first.rearm_at(40)  # earlier than live, equal to the heap key
        assert sim.spill_occupancy == 2 and sim.corpse_count == 0
        sim.run()
        assert order == ["other", "first"]

    def test_earlier_rearm_leaves_a_corpse(self):
        sim = Simulator()
        fired = []
        handle = sim.at(500, lambda: fired.append(sim.now))
        handle.rearm_at(200)
        assert sim.corpse_count == 1 and sim.pending_events == 1
        sim.run()
        assert fired == [200]

    def test_rearm_after_fire_and_after_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.at(10, lambda: fired.append(sim.now))
        sim.run()
        handle.rearm_at(30)
        assert not handle.cancelled
        handle.cancel()
        handle.rearm_at(40)
        sim.run()
        assert fired == [10, 40]
        with pytest.raises(SimError):
            handle.rearm_at(39)

    def test_rekey_is_not_a_fire(self):
        # The stale key sits at the horizon, the budget boundary and a
        # probe deadline: none of them may see it.
        sim = Simulator()
        samples = []
        handle = sim.at(100, lambda: None)
        handle.rearm_at(300)
        sim.set_probe(samples.append, 100)
        sim.run(until=100)
        sim.run(max_events=0)
        assert (sim.events_fired, samples) == (0, [])
        assert sim.spill_occupancy == 1 and handle.time_ns == 300
        sim.run()
        assert (sim.events_fired, samples, sim.now) == (1, [300], 300)

    def test_compaction_keeps_deferred_entries(self):
        sim = Simulator()
        fired = []
        deferred = sim.at(10, lambda: fired.append(sim.now))
        deferred.rearm_at(5000)
        doomed = [sim.at(20 + i, lambda: None) for i in range(200)]
        for handle in doomed:
            handle.cancel()
        assert sim.spill_occupancy < len(doomed)  # compaction ran
        assert sim.pending_events == 1  # and kept the deferred entry
        assert deferred.time_ns == 5000
        sim.run()
        assert fired == [5000] and sim.events_fired == 1


class TestPeriodicTask:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        PeriodicTask(sim, 100, lambda: ticks.append(sim.now))
        sim.run(until=450)
        assert ticks == [100, 200, 300, 400]

    def test_phase_controls_first_firing(self):
        sim = Simulator()
        ticks = []
        PeriodicTask(sim, 100, lambda: ticks.append(sim.now), phase_ns=10)
        sim.run(until=250)
        assert ticks == [10, 110, 210]

    def test_stop_halts_future_ticks(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 50, lambda: ticks.append(sim.now))
        sim.schedule(120, task.stop)
        sim.run(until=500)
        assert ticks == [50, 100]

    def test_set_period_takes_effect_next_rearm(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 100, lambda: ticks.append(sim.now))
        sim.schedule(150, lambda: task.set_period(200))
        sim.run(until=700)
        assert ticks == [100, 200, 400, 600]

    def test_set_period_shorter_rearms_pending_tick(self):
        # Shortening must apply to the tick already in flight, not one
        # stale period later: armed at t=100 for t=200, shortened to 30
        # at t=150 -> due time 100+30=130 is past, so it fires now.
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 100, lambda: ticks.append(sim.now))
        sim.schedule(150, lambda: task.set_period(30))
        sim.run(until=250)
        assert ticks == [100, 150, 180, 210, 240]

    def test_set_period_shorter_before_elapsed_moves_tick_up(self):
        # Shortened before the new period has elapsed: the pending tick
        # moves from armed_at+old to armed_at+new, not to "now".
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 100, lambda: ticks.append(sim.now))
        sim.schedule(120, lambda: task.set_period(50))
        sim.run(until=300)
        assert ticks == [100, 150, 200, 250, 300]

    def test_set_period_from_within_callback(self):
        # Changing the period inside the callback affects the re-arm
        # without double-scheduling.
        sim = Simulator()
        ticks = []
        task = None

        def fire():
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.set_period(25)

        task = PeriodicTask(sim, 100, fire)
        sim.run(until=300)
        assert ticks == [100, 200, 225, 250, 275, 300]

    def test_zero_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimError):
            PeriodicTask(sim, 0, lambda: None)
