"""The scheduler contract, checked against a sorted-list oracle.

:class:`ReferenceSimulator` is the engine's whole contract in thirty
lines: one list kept sorted by ``(time_ns, seq)``, a cancel that removes
the entry on the spot, a run loop that pops the head.  No wheel, no
spill heap, no corpses, no batched drain — nothing to get wrong.

:class:`SchedulerMachine` drives it and the real
:class:`~repro.sim.engine.Simulator` through the same generated program
— every scheduling surface, cancellation past the compaction threshold,
spent-entry re-arms, handle re-arms (``Event.rearm_at``: later than,
equal to or earlier than the pending entry, after a fire, after a
cancel), ``PeriodicTask.set_period``, probes armed and cleared,
callbacks that do all of that again from inside the run loop, and
``run`` stopped by horizon or budget — and after every step asserts
the two fired the same ``(time_ns, label)`` stream with the same
``len(sim)`` and ``events_fired`` seen from inside every callback, the
same probe samples, the same handle keys, and the same clock.  The
oracle's re-arm is a cancel plus a fresh ``at``; the engine defers the
entry in place and re-keys it when its stale key surfaces, and that
re-key must be invisible: no fire, no budget, no probe sample.

The delay and storm distributions are shaped so that the seams the real
engine has and the oracle does not are hit often: sub-slot delays (the
bucket being drained), slot and horizon edges, and cancel storms that
compact the spill heap and push it back to the same length from inside
a drained bucket.
"""

from __future__ import annotations

from bisect import insort

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.sim.engine import PeriodicTask, SimError, Simulator

SLOT = Simulator.WHEEL_SLOT_NS
HORIZON = SLOT * Simulator.WHEEL_SLOTS
COMPACT = Simulator.COMPACT_MIN_CANCELLED
#: How far ahead storm fodder lives: past anything run(until=...) reaches.
FAR = 1 << 40


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


class ReferenceEvent:
    """Cancellable handle of the oracle (mirrors ``engine.Event``)."""

    def __init__(self, sim, entry):
        self._sim, self._entry, self._fn = sim, entry, entry[2]

    time_ns = property(lambda self: self._entry[0])
    seq = property(lambda self: self._entry[1])
    cancelled = property(lambda self: self._entry[2] is None)

    def cancel(self):
        if self._entry[2] is not None:
            self._entry[2] = None
            self._sim._queue.remove(self._entry)

    def rearm_at(self, time_ns):
        """Cancel, then a fresh ``at`` — under the same handle."""
        if time_ns < self._sim.now:
            raise SimError(f"t={time_ns}ns is in the past")
        self.cancel()
        self._entry = self._sim._arm(time_ns, [0, 0, None], self._fn)


class ReferenceSimulator:
    """Sorted-list engine: the scheduling API's meaning, nothing else."""

    def __init__(self):
        self.now = self.events_fired = self._seq = 0
        self._queue = []  # live [time_ns, seq, fn] entries, ascending
        self._probe, self._interval, self._due = None, 0, None

    def __len__(self):
        return len(self._queue)

    def _arm(self, time_ns, entry, fn):
        if time_ns < self.now:
            raise SimError(f"t={time_ns}ns is in the past")
        entry[:] = time_ns, self._seq, fn
        self._seq += 1
        insort(self._queue, entry)  # seq is unique: fn never compares
        return entry

    def at(self, time_ns, fn):
        return ReferenceEvent(self, self._arm(time_ns, [0, 0, None], fn))

    def schedule(self, delay_ns, fn):
        if delay_ns < 0:
            raise SimError(f"negative delay {delay_ns}")
        return self.at(self.now + delay_ns, fn)

    def schedule_at(self, time_ns, fn):
        self._arm(time_ns, [0, 0, None], fn)

    def call_later(self, delay_ns, fn):
        self.schedule(delay_ns, fn)

    def rearm_at(self, time_ns, entry, fn):
        assert entry[2] is None, "rearm of a live entry"
        self._arm(time_ns, entry, fn)

    def set_probe(self, fn, interval_ns):
        self._probe, self._interval = fn, interval_ns
        self._due = -(-self.now // interval_ns) * interval_ns

    def clear_probe(self):
        self._probe = None

    def run(self, until=None, max_events=None):
        fired = 0
        while self._queue and (until is None or self._queue[0][0] <= until):
            if max_events is not None and fired >= max_events:
                return self.now
            entry = self._queue.pop(0)
            self.now, fn, entry[2] = entry[0], entry[2], None
            if self._probe is not None and self.now >= self._due:
                self._probe(self.now)
                self._due = (self.now // self._interval + 1) * self._interval
            fn()
            self.events_fired += 1
            fired += 1
        if until is not None and until > self.now:
            self.now = until
        return self.now


# ----------------------------------------------------------------------
# Programs: plain data, so both engines execute the same one
# ----------------------------------------------------------------------

_delays = st.one_of(
    st.integers(0, 24),  # sub-slot: lands in the bucket being drained
    st.integers(0, 3 * SLOT),
    st.sampled_from(
        [SLOT - 1, SLOT, SLOT + 1, HORIZON - SLOT, HORIZON - 1, HORIZON,
         HORIZON + 1, HORIZON + SLOT]
    ),
    st.integers(0, 3 * HORIZON),
)
_surfaces = st.sampled_from(
    ["schedule", "at", "schedule_at", "call_later", "rearm_at"]
)
_train_surfaces = st.sampled_from(
    ["schedule_at", "call_later", "rearm_at"] * 2 + ["at"]
)
_storm_sizes = st.sampled_from([3, COMPACT + 1, COMPACT + 6])
_storms = st.tuples(
    st.just("storm"),
    _storm_sizes,  # handles to cancel
    # Pushes: COMPACT + 1 is what the first compaction of a storm takes
    # out, so that many leave the spill heap exactly as long as before.
    st.sampled_from([1, COMPACT + 1, COMPACT + 1]),
    st.integers(1, 6),  # the first push lands this close
)


#: Where a re-arm moves a handle, relative to its live deadline: the
#: same instant (a fresh seq behind the pending one), later (deferred in
#: place), or earlier (a corpse plus a fresh push).  A spent handle is
#: re-armed ``abs(shift)`` from now.
_shifts = st.one_of(
    st.just(0),
    st.integers(1, 3 * SLOT),
    st.integers(-3 * SLOT, -1),
    st.sampled_from([SLOT, -SLOT, HORIZON, -HORIZON, 3 * HORIZON]),
)
#: Re-arm storms: defer ``count`` live handles, then pull every
#: ``every``-th of them (0: none) in close — past the compaction
#: threshold with deferred entries sitting in the heap.
_rearm_storms = st.tuples(
    st.just("rearm_storm"),
    _storm_sizes,
    st.integers(0, 3 * HORIZON),
    st.sampled_from([0, 1, 2]),
    st.integers(0, 6),
)


#: Long enough that a run to the far horizon stays a few thousand ticks.
_periods = st.integers(SLOT // 2, 4 * SLOT)


def _ops(scripts):
    return st.one_of(
        st.tuples(st.just("arm"), _surfaces, _delays, scripts),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("rearm"), st.integers(0, 200), _shifts),
        _storms,
        _rearm_storms,
    )


#: What a callback does when it fires: up to three more ops, nested at
#: most two deep (a callback arming a callback that arms or cancels).
_scripts = st.recursive(
    st.just(()),
    lambda inner: st.lists(_ops(inner), max_size=3).map(tuple),
    max_leaves=6,
)


class Driver:
    """Executes program ops against one engine and logs what it saw."""

    def __init__(self, sim):
        self.sim = sim
        self.fired = []  # (now, label, len(sim), events_fired)
        self.samples = []  # probe: (now, len(sim), events_fired)
        self.handles = []
        self.entries = []  # every entry handed to rearm_at
        self.tasks = []
        self.labels = 0
        #: A callback may re-arm its own (spent) handle, so re-arms are
        #: rationed: past this many the op does nothing, and every run
        #: still ends.
        self.rearms_left = 60
        for i in range(COMPACT + 6):  # a storm always has handles to cancel
            self.handles.append(sim.at(FAR + i, self._callback(())))

    def _callback(self, script):
        label = self.labels
        self.labels += 1

        def fire():
            sim = self.sim
            assert not self.fired or self.fired[-1][0] <= sim.now, "clock"
            self.fired.append((sim.now, label, len(sim), sim.events_fired))
            for op in script:
                self.apply(op)

        return fire

    def apply(self, op):
        getattr(self, "_" + op[0])(*op[1:])

    def _arm(self, surface, delay, script):
        sim, fn = self.sim, self._callback(script)
        if surface == "schedule":
            self.handles.append(sim.schedule(delay, fn))
        elif surface == "at":
            self.handles.append(sim.at(sim.now + delay, fn))
        elif surface == "schedule_at":
            sim.schedule_at(sim.now + delay, fn)
        elif surface == "call_later":
            sim.call_later(delay, fn)
        else:
            spent = [e for e in self.entries if e[2] is None]
            if not spent:
                spent = [[0, 0, None]]
                self.entries.append(spent[0])
            sim.rearm_at(sim.now + delay, spent[0], fn)

    def _cancel(self, index):
        if self.handles:
            self.handles[index % len(self.handles)].cancel()

    def _rearm(self, index, shift):
        if not self.handles or not self.rearms_left:
            return
        self.rearms_left -= 1
        handle = self.handles[index % len(self.handles)]
        now = self.sim.now
        if handle.cancelled:
            handle.rearm_at(now + abs(shift))
        else:
            handle.rearm_at(max(now, handle.time_ns + shift))

    def _rearm_storm(self, count, later, every, near):
        if not self.rearms_left:
            return
        self.rearms_left -= 1
        sim = self.sim
        live = [h for h in self.handles if not h.cancelled][-count:]
        for handle in live:
            handle.rearm_at(handle.time_ns + later)
        for handle in live[::every] if every else ():
            handle.rearm_at(sim.now + near)

    def _storm(self, cancels, pushes, near):
        sim = self.sim
        live = [h for h in self.handles if not h.cancelled]
        for handle in live[-cancels:]:
            handle.cancel()
        for i in range(pushes):
            when = sim.now + (near if i == 0 else 2 * FAR + i)
            self.handles.append(sim.at(when, self._callback(())))

    def _periodic(self, period, phase):
        self.tasks.append(
            PeriodicTask(self.sim, period, self._callback(()), phase)
        )

    def _set_period(self, index, period):
        self.tasks[index % len(self.tasks)].set_period(period)

    def _stop(self, index):
        self.tasks[index % len(self.tasks)].stop()

    def _probe(self, interval):
        sim = self.sim
        sim.set_probe(
            lambda now: self.samples.append((now, len(sim), sim.events_fired)),
            interval,
        )

    def _clear_probe(self):
        self.sim.clear_probe()

    def _run(self, until_delta, max_events):
        until = None if until_delta is None else self.sim.now + until_delta
        self.sim.run(until=until, max_events=max_events)

    def mark(self):
        return len(self.fired), len(self.samples)

    def observed(self, since):
        """State now, plus what the (append-only) logs gained ``since``."""
        sim = self.sim
        fired, samples = since
        return (
            sim.now, len(sim), sim.events_fired,
            self.fired[fired:], self.samples[samples:],
            [(h.time_ns, h.seq, h.cancelled) for h in self.handles],
        )


class SchedulerMachine(RuleBasedStateMachine):
    """Lock-step the engine with the oracle."""

    def __init__(self):
        super().__init__()
        self.drivers = [Driver(Simulator()), Driver(ReferenceSimulator())]
        self.checked = (0, 0)

    def both(self, *op):
        for driver in self.drivers:
            driver.apply(op)

    @rule(surface=_surfaces, delay=_delays, script=_scripts)
    def arm(self, surface, delay, script):
        self.both("arm", surface, delay, script)

    @rule(
        base=st.integers(0, 3 * SLOT),
        burst=st.lists(
            st.tuples(_train_surfaces, st.integers(0, SLOT - 1), _scripts),
            min_size=3, max_size=6,
        ),
        storm=_storms,
        storm_in=st.integers(0, 5),
        run_past=st.none() | st.integers(0, 4 * SLOT),
    )
    def stormy_burst(self, base, burst, storm, storm_in, run_past):
        """Several events inside one slot's span, mostly on the no-handle
        surfaces — a train's shape — one of which raises a storm; then,
        perhaps, a run over them."""
        for i, (surface, offset, script) in enumerate(burst):
            if i == storm_in % len(burst):
                script += (storm,)
            self.both("arm", surface, base + offset, script)
        if run_past is not None:
            self.both("run", base + run_past, None)

    @rule(index=st.integers(0, 200))
    def cancel(self, index):
        self.both("cancel", index)

    @rule(storm=_storms)
    def storm(self, storm):
        self.both(*storm)

    @rule(index=st.integers(0, 200), shift=_shifts)
    def rearm(self, index, shift):
        self.both("rearm", index, shift)

    @rule(storm=_rearm_storms)
    def rearm_storm(self, storm):
        self.both(*storm)

    @rule(
        delay=_delays,
        later=st.integers(0, 3 * SLOT) | st.sampled_from([HORIZON]),
        bound=st.sampled_from(["until", "budget", "probe", "probe-1"]),
        budget=st.integers(0, 3),
    )
    def deferred_head(self, delay, later, bound, budget):
        """A handle armed, then re-armed no earlier: its stale key waits
        in the spill heap.  A run whose horizon, budget or probe deadline
        sits exactly at that stale key must re-key it without a fire, a
        budget charge or a probe sample."""
        self.both("arm", "at", delay, ())
        self.both("rearm", -1, later)
        now = self.drivers[0].sim.now
        if bound == "until":
            self.both("run", delay, None)
        elif bound == "budget":
            self.both("run", None, budget)
        else:
            interval = now + delay + (bound == "probe-1")
            if interval > 0:
                self.both("probe", interval)
            self.both("run", delay + SLOT, None)

    @rule(period=_periods, phase=st.none() | _delays)
    def periodic(self, period, phase):
        self.both("periodic", period, phase)

    @precondition(lambda self: self.drivers[0].tasks)
    @rule(index=st.integers(0, 8), period=_periods)
    def set_period(self, index, period):
        self.both("set_period", index, period)

    @precondition(lambda self: self.drivers[0].tasks)
    @rule(index=st.integers(0, 8))
    def stop(self, index):
        self.both("stop", index)

    @rule(interval=st.sampled_from([7, SLOT, 5 * SLOT, HORIZON, 3 * HORIZON]))
    def probe(self, interval):
        self.both("probe", interval)

    @rule()
    def clear_probe(self):
        self.both("clear_probe")

    @rule(
        until_delta=_delays,
        tie=st.none() | st.integers(0, 200),
        max_events=st.none() | st.integers(0, 40),
    )
    def run_until(self, until_delta, tie, max_events):
        """Half the time the horizon is exactly a pending handle's time:
        a spill-heap entry due *at* ``until`` is a tie the drain's bound
        must hand back to the outer loop."""
        sim = self.drivers[0].sim
        near = [
            h for h in self.drivers[0].handles
            if not h.cancelled and h.time_ns < FAR
        ]
        if tie is not None and near:
            until_delta = near[tie % len(near)].time_ns - sim.now
        self.both("run", until_delta, max_events)

    @rule(
        delay=_delays,
        burst=st.lists(_surfaces, min_size=3, max_size=6),
        bound=st.sampled_from(["until", "probe"]),
    )
    def tied_burst(self, delay, burst, bound):
        """Several events at one instant across the wheel and the spill
        heap, then a run whose horizon — or whose next probe deadline
        minus one — is that instant: the two values the drain's bound
        starts from."""
        for surface in burst:
            self.both("arm", surface, delay, ())
        if bound == "until":
            self.both("run", delay, None)
        else:
            self.both("probe", self.drivers[0].sim.now + delay + 1)
            self.both("run", delay + SLOT, None)

    @rule(max_events=st.integers(0, 40))
    def run_budget(self, max_events):
        self.both("run", None, max_events)

    @invariant()
    def engines_agree(self):
        real, oracle = (d.observed(self.checked) for d in self.drivers)
        assert real == oracle
        self.checked = self.drivers[0].mark()

    def teardown(self):
        # Drain to the end (periodic tasks would never let run() return).
        for driver in self.drivers:
            for task in driver.tasks:
                task.stop()
            driver.sim.run()
        self.engines_agree()
        real, oracle = ([h.cancelled for h in d.handles] for d in self.drivers)
        assert real == oracle
        assert len(self.drivers[0].sim) == 0


SchedulerMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None,
    database=None, derandomize=True,
)
TestSchedulerModel = SchedulerMachine.TestCase
