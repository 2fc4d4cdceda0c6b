"""The discrete-event engine.

A :class:`Simulator` owns a scheduler of callbacks keyed by
``(time_ns, sequence)``.  The sequence number makes scheduling order a
total order, so two events at the same instant always fire in the order
they were scheduled — determinism we rely on for reproducible benchmarks.

Typical use::

    sim = Simulator()
    sim.schedule(100, lambda: print("at t=100ns"))
    sim.run(until=1_000_000)

Hot-path design
---------------

Entries are plain ``[time_ns, seq, fn]`` lists, not objects: list
comparison is a single C call that short-circuits on ``time_ns`` then
``seq`` (``seq`` is unique, so ``fn`` never participates).

The scheduler is a *calendar wheel* plus a *spill heap*, replacing the
earlier single global binary heap:

* The wheel is :data:`~Simulator.WHEEL_SLOTS` time buckets of
  :data:`~Simulator.WHEEL_SLOT_NS` nanoseconds each.  The fast paths
  :meth:`Simulator.call_later` / :meth:`Simulator.rearm_at` append
  into the bucket for ``time_ns >> WHEEL_SHIFT`` in O(1) — the dominant
  case, because link serialization and propagation events land
  nanoseconds-to-microseconds ahead.  A bucket is sorted once, when the
  clock enters it, and drained from the tail; inserts that land in the
  bucket currently being drained (delays shorter than one slot) keep it
  ordered via binary insort.
* The spill heap takes everything else: events beyond the wheel horizon
  and *every cancellable event* (:meth:`Simulator.at` /
  :meth:`Simulator.schedule`).  Quarantining cancellables matters as
  much as the O(1) inserts — an RTO-guard storm used to bloat the one
  global heap past 10k entries, so every link event paid O(log n) on a
  heap that was mostly corpses.  Now the corpses sit in the spill heap
  (compacted in place when they dominate it) and the wheel stays dense
  with live work.
* A handle that keeps moving — an RTO guard re-armed on every ACK —
  costs the heap nothing per move.  :meth:`Event.rearm_at` to a time no
  earlier than the entry's heap key leaves the entry where it is and
  records the live key on the handle (the entry is *deferred*); when
  the stale key reaches the spill head, the run loop re-keys the entry
  and pushes it back.  The re-key is not a fire: it is not counted in
  ``events_fired``, charged to a ``max_events`` budget or shown to the
  probe, and the event still fires at exactly the ``(time_ns, seq)``
  of a cancel plus a fresh :meth:`Simulator.at`.  Compaction keeps
  deferred entries.

No wheel entry fires without being compared against the spill head
(directly, or through the drain's bound), so the merged firing order is
exactly the ``(time_ns, seq)`` total order of the old
single heap — golden traces recorded against the heap engine stay
byte-identical.

:meth:`Simulator.rearm_at` re-inserts a *spent* entry (one whose event
already fired) with a fresh sequence number and no allocation.  This is
the primitive cell trains ride on: a link serializing k back-to-back
cells steps one reusable entry through the wheel instead of allocating
and heap-pushing k fresh ones (see :mod:`repro.sim.link`).

The run loop
------------

Nearly every event of a run is a link's serialization completion or
delivery, so :meth:`Simulator.run` is built around those two:

* **Tagged link entries.**  A link arms its train and delivery events
  as ``[time_ns, seq, TAG, link]`` with ``TAG`` a small int
  (:data:`TAG_TX` / :data:`TAG_RX`) in the callback's place.  The loop
  dispatches on the tag: a completion is one ``Link._tx_done`` frame,
  a delivery is the destination's ``receive`` and nothing else.  Every
  other entry's third element is a callable and is simply called.
* **Two fire sites, so two copies of that dispatch.**  The *exact* site
  takes whichever of wheel head and spill head is earlier in
  ``(time_ns, seq)`` under every check (corpse, deferred entry,
  horizon, budget, probe),
  pops it from the structure that held it, and after a spill fire goes
  round again because the cursor may now sit on an unsorted bucket.
  The *drained* site is the same dispatch with the checks folded into
  one bound; sharing a helper would put a Python call on every event.
  The wheel-or-spill insert likewise exists twice, once per caller
  shape: :meth:`Simulator.call_later` (fresh entry, relative delay) and
  :meth:`Simulator.rearm_at` (recycled entry, absolute time).
* **Batched bucket drain.**  Once the cursor's bucket is sorted, an
  inner loop drains it against a single precomputed bound (the minimum
  of horizon, next probe deadline and spill-head time) and re-reads the
  spill head only when a callback installed a different head *object*
  — pushes, pops and compaction all swap the head, and only the outer
  loop mutates an in-heap key (the deferred head's re-key, pushed back
  at once), so a key the drain read stays put; a deferred entry's stale
  key is never later than its live one, so a bound drawn from it is
  merely conservative — and merging with the spill heap costs two int
  compares and an identity check per event.  Every boundary
  case goes back to the outer loop, which re-derives state exactly.
* **GC deferral.**  The loop disables the cyclic garbage collector
  while it owns the process and restores it on exit.  A run allocates
  heavily but acyclically (cells, frames, list entries), so reference
  counting already reclaims it; generation-0 passes were close to half
  the wall time of a permutation cell.  Order, counters and results are
  unaffected; a collection simply happens later (:func:`deferred_gc`;
  ``run_spec`` holds one around a whole cell and this one nests in it).

Counters stay eager: ``events_fired`` and the occupancy meta-metrics
are exact at every callback and probe.

Telemetry probe hook
--------------------

:meth:`Simulator.set_probe` installs an observation callback invoked
from the run loop on a time cadence — *between* events, never as one.
The probe schedules nothing, so ``events_fired``, event ordering and
the simulation outcome are bit-identical with or without it (golden
traces stay byte-identical either way).  The deadline is a sentinel no
run reaches while no probe is installed: one int compare per event on
the outer loop, nothing in the drain (it is part of the drain's bound).
The probe fires
at most once per ``interval_ns``, at the first event on or past each
deadline — sampling rides the event stream, so an idle simulation is
(correctly) not sampled.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, Dict, Iterator, List, Optional, Union

#: "No horizon/budget" sentinel — a time/count no simulation reaches,
#: kept as an int so the hot loop's compares stay int-vs-int.
_NEVER = 1 << 62

#: ``entry[2]`` of a link-armed ``[time_ns, seq, TAG, link]`` entry.
#: Ints, so the run loop dispatches on the class of ``entry[2]`` — and a
#: *fired* entry still reads ``entry[2] is None`` like every other spent
#: entry, which is what the link's re-arm guards check.
TAG_TX = 1
TAG_RX = 2

#: What a request for a named engine kernel is answered with (stored
#: specs and old command lines may still carry one).
KERNEL_GONE = "no engine kernel {!r}: PR 21 left one run loop (results never differed)"

#: Calendar-wheel geometry — the single source of truth; the class
#: mirrors these as documented attributes.  The hot paths load these
#: module globals (cheaper than class-attribute lookups), so changing
#: the wheel means changing exactly this pair.
_WHEEL_SHIFT = 6
_WHEEL_SLOTS = 1024
_WHEEL_MASK = _WHEEL_SLOTS - 1


def _insort_desc(bucket: list, entry: list) -> None:
    """Insert ``entry`` into a descending-sorted bucket, keeping order.

    The drain loop pops from the tail, so the bucket is kept largest
    first; among equal times the fresh entry has the largest sequence
    number and lands closest to the head (fires last).  Binary search +
    one C-level ``insert`` beats re-sorting the bucket when sub-slot
    delays (self-rescheduling tickers) insert into the slot currently
    being drained on every event.
    """
    lo = 0
    hi = len(bucket)
    while lo < hi:
        mid = (lo + hi) >> 1
        if bucket[mid] > entry:
            lo = mid + 1
        else:
            hi = mid
    bucket.insert(lo, entry)


@contextmanager
def deferred_gc() -> Iterator[bool]:
    """Switch the cyclic collector off for the block, back on however it
    exits.  Yields whether this call switched it: nested in another
    deferral, or under a caller who runs with it off, it does nothing."""
    owned = gc.isenabled()
    if owned:
        gc.disable()
    try:
        yield owned
    finally:
        if owned:
            gc.enable()


class SimError(RuntimeError):
    """Raised for scheduling misuse (past events, negative delays...)."""


class Event:
    """Handle for a scheduled callback that may need cancelling or moving.

    Wraps the engine's ``[time_ns, seq, fn]`` spill-heap entry;
    cancelled events stay in the heap (lazy deletion) but the simulator
    counts them and compacts when they dominate.

    :meth:`rearm_at` moves the callback with the key a cancel plus a
    fresh :meth:`Simulator.at` would give it.  When the new time is no
    earlier than the entry's heap key, the heap is not touched: the
    handle records the live key and takes the entry's ``fn`` slot,
    marking it *deferred*.  The run loop re-keys a deferred entry when
    its stale key reaches the spill head and pushes it back — a re-key,
    not a fire.  An owner that re-arms on every packet (an RTO guard)
    so keeps one entry and one handle, and the heap sees a push only
    when a stale key surfaces.
    """

    __slots__ = ("_sim", "_entry", "_fn", "_time", "_seq")

    def __init__(self, sim: "Simulator", entry: list) -> None:
        self._sim = sim
        self._entry = entry
        self._fn = entry[2]
        #: The live key — the entry's own, unless it is deferred.
        self._time = entry[0]
        self._seq = entry[1]

    @property
    def time_ns(self) -> int:
        """Absolute firing time (the live deadline, also when deferred)."""
        return self._time

    @property
    def seq(self) -> int:
        """Scheduling sequence number (ties broken by this)."""
        return self._seq

    @property
    def cancelled(self) -> bool:
        """Whether this event is spent: cancelled or already fired."""
        return self._entry[2] is None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        entry = self._entry
        if entry[2] is not None:
            entry[2] = None
            self._sim._note_cancelled()

    def rearm_at(self, time_ns: int) -> None:
        """Fire at absolute ``time_ns`` instead: pending, fired or
        cancelled, the event then fires exactly as if :meth:`cancel`
        and a fresh ``sim.at(time_ns, fn)`` had been called — the same
        fresh sequence number, the same ``(time_ns, seq)`` key.
        """
        sim = self._sim
        if time_ns < sim._now:
            raise SimError(
                f"cannot schedule at t={time_ns}ns, now is {sim._now}ns"
            )
        seq = sim._seq
        sim._seq = seq + 1
        self._time = time_ns
        self._seq = seq
        entry = self._entry
        if entry[2] is not None:
            if time_ns >= entry[0]:
                # The heap key is no later than the new one: defer.
                entry[2] = self
                return
            entry[2] = None
            sim._note_cancelled()
        # Spent entries may still sit in the heap as corpses: take a
        # fresh one.
        entry = self._entry = [time_ns, seq, self._fn]
        heappush(sim._spill, entry)


class Simulator:
    """Integer-nanosecond discrete event scheduler."""

    __slots__ = (
        "_buckets", "_cursor", "_wheel_live", "_sorted_slot", "_spill",
        "_now", "_seq", "_events_fired", "_cancelled", "_running",
        "_probe", "_probe_interval", "_probe_due", "topology_epoch",
        "tx_ns_by_rate",
    )

    #: Width of one calendar-wheel bucket.  64ns means any delay of at
    #: least one slot can never land in the bucket currently being
    #: drained, so mid-drain re-sorts only happen for sub-slot delays —
    #: which imply near-empty buckets.  Derived from the module-level
    #: ``_WHEEL_SHIFT``/``_WHEEL_SLOTS`` pair, which is what the hot
    #: paths read — tune the wheel there, not here.
    WHEEL_SLOT_NS = 1 << _WHEEL_SHIFT
    WHEEL_SHIFT = _WHEEL_SHIFT
    #: Number of wheel buckets (a power of two).  1024 x 64ns ≈ 65us of
    #: horizon: link serialization, propagation and credit self-clock
    #: gaps all land inside; reassembly/report timers and RTO guards
    #: spill.
    WHEEL_SLOTS = _WHEEL_SLOTS

    #: Compaction only kicks in past this many corpses — tiny heaps are
    #: cheaper to drain than to rebuild.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self._buckets: List[list] = [[] for _ in range(_WHEEL_SLOTS)]
        #: Absolute slot index (time >> WHEEL_SHIFT) being drained.
        #: Invariant: no live wheel entry sits in a slot before it, and
        #: it never exceeds ``now >> WHEEL_SHIFT`` while user code runs.
        self._cursor = 0
        #: Live (unfired) entries in the wheel.
        self._wheel_live = 0
        #: Absolute index of the (unique) slot whose bucket is known to
        #: be descending-sorted — the slot being drained.  Inserts into
        #: it keep order via binary insort; the drain loop sorts any
        #: bucket the cursor enters before trusting its tail.
        self._sorted_slot = -1
        #: Far-future and cancellable events (plus lazy-deleted corpses).
        self._spill: List[list] = []
        self._now: int = 0
        self._seq: int = 0
        self._events_fired: int = 0
        self._cancelled: int = 0
        self._running = False
        #: Telemetry probe: a callback sampled from the run loop on a
        #: time cadence (see :meth:`set_probe`).  ``_probe_due`` is the
        #: next sampling deadline — the ``_NEVER`` sentinel while no
        #: probe is installed, so the hot loop pays one int compare.
        self._probe: Optional[Callable[[int], None]] = None
        self._probe_interval: int = 0
        self._probe_due: int = _NEVER
        #: Bumped whenever link liveness or learned reachability changes
        #: anywhere in the simulation.  Devices key their eligible-link
        #: caches on it: unchanged epoch means the cached spray target
        #: lists are exact, so the per-cell forwarding path skips the
        #: list rebuild it used to pay on every hop.
        self.topology_epoch: int = 0
        #: Rate -> (frame size -> serialization time): a pure function
        #: of both, so the thousands of same-rate links of a fabric
        #: share one memo instead of carrying a dict each.
        self.tx_ns_by_rate: Dict[int, Dict[int, int]] = {}

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of callbacks executed so far (for sanity checks).

        Cancelled events never count: popping a corpse is bookkeeping,
        not work performed.
        """
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still queued (including not-yet-compacted
        cancelled ones; see :attr:`pending_events` for the exact count)."""
        return self._wheel_live + len(self._spill)

    @property
    def pending_events(self) -> int:
        """Number of queued events that will actually fire.

        Unlike :attr:`pending` this excludes cancelled corpses awaiting
        compaction, so it is exact regardless of compaction timing —
        the raw structure length overcounts until a compaction pass
        happens to run.  Also available as ``len(sim)``.
        """
        return self._wheel_live + len(self._spill) - self._cancelled

    @property
    def wheel_occupancy(self) -> int:
        """Live entries currently in the calendar wheel (meta-metric)."""
        return self._wheel_live

    @property
    def spill_occupancy(self) -> int:
        """Entries in the spill heap, corpses included (meta-metric)."""
        return len(self._spill)

    @property
    def corpse_count(self) -> int:
        """Cancelled entries awaiting compaction (meta-metric)."""
        return self._cancelled

    def __len__(self) -> int:
        """Exact count of events still due to fire (no corpses)."""
        return self._wheel_live + len(self._spill) - self._cancelled

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time_ns: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute time ``time_ns``; cancellable.

        Cancellable events always go to the spill heap, whatever their
        firing time: lazy-deleted corpses then accumulate (and compact)
        there, never between the wheel's live link events.
        """
        if time_ns < self._now:
            raise SimError(
                f"cannot schedule at t={time_ns}ns, now is {self._now}ns"
            )
        entry = [time_ns, self._seq, fn]
        self._seq += 1
        heappush(self._spill, entry)
        return Event(self, entry)

    def schedule(self, delay_ns: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay_ns`` from now; cancellable."""
        if delay_ns < 0:
            raise SimError(f"negative delay {delay_ns}")
        return self.at(self._now + delay_ns, fn)

    def schedule_at(self, time_ns: int, fn: Callable[[], None]) -> None:
        """Schedule at absolute ``time_ns``, no Event handle: near-future
        times are one bucket append.  Not cancellable.

        :meth:`rearm_at` on a fresh entry — nothing on a hot path calls
        this (links re-arm their own entries, timers use
        :meth:`call_later`), so it carries no insert copy of its own.
        """
        self.rearm_at(time_ns, [time_ns, 0, None], fn)

    def call_later(self, delay_ns: int, fn: Callable[[], None]) -> None:
        """Fast path: schedule ``delay_ns`` from now, no Event handle."""
        if delay_ns < 0:
            raise SimError(f"negative delay {delay_ns}")
        time_ns = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        slot = time_ns >> _WHEEL_SHIFT
        if slot - self._cursor >= _WHEEL_SLOTS:
            heappush(self._spill, [time_ns, seq, fn])
        else:
            bucket = self._buckets[slot & _WHEEL_MASK]
            if slot == self._sorted_slot:
                _insort_desc(bucket, [time_ns, seq, fn])
            else:
                bucket.append([time_ns, seq, fn])
            self._wheel_live += 1

    def rearm_at(
        self, time_ns: int, entry: list, fn: Union[Callable[[], None], int]
    ) -> None:
        """Fast path: re-insert a *spent* entry at ``time_ns``.

        ``entry`` must be a ``[time_ns, seq, fn]`` list whose event has
        already fired (the engine neutralizes fired entries, so callers
        check ``entry[2] is None``).  The entry is re-keyed with a fresh
        sequence number — exactly the ordering a fresh ``schedule_at``
        would get — without allocating a new list.  This is the cell
        train primitive: one link serialization entry stepping through a
        back-to-back run of cells; a link's ``[time_ns, seq, TAG, link]``
        entries pass their tag as ``fn``.  Not cancellable.
        """
        if time_ns < self._now:
            raise SimError(
                f"cannot schedule at t={time_ns}ns, now is {self._now}ns"
            )
        seq = self._seq
        self._seq = seq + 1
        entry[0] = time_ns
        entry[1] = seq
        entry[2] = fn
        slot = time_ns >> _WHEEL_SHIFT
        if slot - self._cursor >= _WHEEL_SLOTS:
            heappush(self._spill, entry)
        else:
            bucket = self._buckets[slot & _WHEEL_MASK]
            if slot == self._sorted_slot:
                _insort_desc(bucket, entry)
            else:
                bucket.append(entry)
            self._wheel_live += 1

    # ------------------------------------------------------------------
    # Telemetry probe
    # ------------------------------------------------------------------
    def set_probe(
        self, fn: Callable[[int], None], interval_ns: int
    ) -> None:
        """Install ``fn(now_ns)`` as the run loop's observation probe.

        The probe is called at most once per ``interval_ns`` of
        simulation time, immediately before the first event fired on or
        past each deadline.  It must only *read* simulation state —
        scheduling from a probe is scheduling from inside the hot loop
        and is not supported.  Takes effect from the next :meth:`run`
        call; replaces any previously installed probe.
        """
        if interval_ns <= 0:
            raise SimError(f"probe interval must be positive, got {interval_ns}")
        self._probe = fn
        self._probe_interval = interval_ns
        # First deadline: the next interval boundary at or after now.
        self._probe_due = (self._now // interval_ns) * interval_ns
        if self._probe_due < self._now:
            self._probe_due += interval_ns

    def clear_probe(self) -> None:
        """Remove the probe; the hot loop reverts to the sentinel check."""
        self._probe = None
        self._probe_interval = 0
        self._probe_due = _NEVER

    def _probe_fire(self, time_ns: int) -> int:
        """Invoke the probe and advance the deadline past ``time_ns``.

        Returns the new deadline so the run loop can refresh its local
        mirror.  One sample per crossing, however far the event stream
        jumped — probes observe state, they don't backfill history.
        """
        probe = self._probe
        if probe is not None:
            probe(time_ns)
            interval = self._probe_interval
            due = (time_ns // interval + 1) * interval
        else:  # cleared mid-run from a callback
            due = _NEVER
        self._probe_due = due
        return due

    # ------------------------------------------------------------------
    # Cancellation accounting
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled > self.COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._spill)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the spill heap and re-heapify,
        in place.

        In place matters: ``run`` holds a local reference to the spill
        list, so compaction (triggered by a cancel inside a callback)
        must mutate the same object.  Rebuilding preserves pop order
        because ``(time_ns, seq)`` is a total order.  The wheel never
        holds corpses — only the spill heap takes cancellable events.
        """
        spill = self._spill
        spill[:] = [entry for entry in spill if entry[2] is not None]
        heapify(spill)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have fired.

        Returns the simulation time when the run stopped.  Events exactly
        at ``until`` are executed; later ones stay queued so the run can
        be resumed — as is the first event past a ``max_events`` stop.

        The outer loop selects and fires the next entry exactly (wheel
        head against spill head, horizon, budget, probe deadline); after
        each wheel event it fires, the inner loop keeps draining the
        now-sorted bucket while one precomputed bound proves the next
        entry is safe, and falls back to the outer loop for every
        boundary case (spill head due or tied, probe deadline, horizon,
        budget).
        """
        if self._running:
            raise SimError("simulator is not re-entrant")
        self._running = True
        # Local bindings shave an attribute lookup per event on the
        # hottest loop in the codebase; the bucket lists and the spill
        # list are never rebound (inserts/compaction mutate in place) so
        # locals stay valid across callbacks that schedule more work.
        # The per-event counters (`_events_fired`, `_wheel_live`) update
        # eagerly so `events_fired`/`pending_events` stay exact even
        # when read from inside a callback or a probe.  The int
        # sentinels keep the horizon/budget compares int-vs-int.
        buckets = self._buckets
        spill = self._spill
        shift = _WHEEL_SHIFT
        mask = _WHEEL_MASK
        nslots = _WHEEL_SLOTS
        horizon = _NEVER if until is None else until
        limit = _NEVER if max_events is None else max_events
        fired = 0
        # Probe deadline mirror: _NEVER when no probe is installed, so
        # the telemetry hook costs the outer loop one int compare and
        # the drain nothing (it is folded into the drain bound).
        probe_due = self._probe_due
        cursor = self._cursor
        # Only this loop ever writes _sorted_slot (inserts just read it
        # for the insort decision), so a local mirror is safe.
        sorted_slot = self._sorted_slot
        due = buckets[cursor & mask]
        # Defer cyclic GC while the loop owns the process (restored on
        # exit, even via exceptions); see the module docstring.
        with deferred_gc():
            try:
                while True:
                    # ---- wheel candidate: head of the cursor's bucket ----
                    if due:
                        if sorted_slot != cursor:
                            # First look at this bucket (or appends landed
                            # while it was not the drain target): establish
                            # descending order once, then trust the tail —
                            # pops and insorts both preserve it.
                            due.sort(reverse=True)
                            sorted_slot = self._sorted_slot = cursor
                        wheel_entry = due[-1]
                    elif self._wheel_live:
                        # Scan forward for the next non-empty bucket, but
                        # never past the spill head's slot (firing it must
                        # not strand the cursor ahead of insert targets).
                        bound = spill[0][0] >> shift if spill else cursor + nslots
                        if bound > cursor + nslots:
                            bound = cursor + nslots
                        scan = cursor + 1
                        while scan < bound and not buckets[scan & mask]:
                            scan += 1
                        cursor = self._cursor = scan
                        due = buckets[scan & mask]
                        if due:
                            due.sort(reverse=True)
                            sorted_slot = self._sorted_slot = scan
                            wheel_entry = due[-1]
                        else:
                            wheel_entry = None
                    else:
                        wheel_entry = None

                    # ---- merge with the spill heap, skipping corpses ----
                    if spill:
                        entry = spill[0]
                        if wheel_entry is None or entry < wheel_entry:
                            fn = entry[2]
                            if fn is None:
                                # Lazy-deleted corpse: drop it without
                                # charging events_fired or the budget.
                                heappop(spill)
                                self._cancelled -= 1
                                continue
                            if fn.__class__ is Event:
                                # Deferred: its handle was re-armed later.
                                # Re-key it to the live deadline and push it
                                # back — not a fire, so no count, no budget,
                                # no probe.
                                entry[0] = fn._time
                                entry[1] = fn._seq
                                entry[2] = fn._fn
                                heapreplace(spill, entry)
                                continue
                        else:
                            entry = wheel_entry
                    elif wheel_entry is None:
                        # Both structures drained: advance the clock to the
                        # horizon if one was given.
                        if until is not None and until > self._now:
                            self._now = until
                        cursor = self._now >> shift
                        break
                    else:
                        entry = wheel_entry

                    # ---- fire the earlier candidate (full edge checks) ----
                    time_ns = entry[0]
                    if time_ns > horizon and until is not None:
                        # (`horizon` may be the _NEVER sentinel; an event
                        # beyond even that is still live and fires when no
                        # horizon was requested.)
                        self._now = until
                        cursor = until >> shift
                        break
                    if fired >= limit:
                        cursor = self._now >> shift
                        break
                    if entry is wheel_entry:
                        due.pop()
                        self._wheel_live -= 1
                    else:
                        heappop(spill)
                        slot = time_ns >> shift
                        if slot != cursor:
                            cursor = self._cursor = slot
                            due = buckets[slot & mask]
                    fn = entry[2]
                    # Neutralize before firing: cancelling an already-fired
                    # event's handle (stale RTO guards do this) must not be
                    # booked as a corpse — and spent entries are what
                    # ``rearm_at`` callers recycle.
                    entry[2] = None
                    self._now = time_ns
                    if time_ns >= probe_due:
                        probe_due = self._probe_fire(time_ns)
                    if fn.__class__ is int:
                        link = entry[3]
                        if fn == TAG_TX:
                            link._tx_done()
                        elif link.up:
                            link._dst_receive(link._in_flight.pop(0), link)
                        else:
                            link._in_flight.pop(0)
                            link.dropped_frames += 1
                    else:
                        fn()
                    self._events_fired += 1
                    fired += 1
                    if entry is not wheel_entry:
                        # A spill fire may have moved the cursor to a bucket
                        # nobody sorted yet; the top of the loop re-derives.
                        continue

                    # ---- batched drain of the rest of this bucket ----
                    # Bound: the drain may fire any entry strictly before
                    # the next probe deadline, at or before the horizon, and
                    # strictly before the spill head (ties go to the outer
                    # loop's exact (time, seq) compare).  The spill head
                    # *entry* is cached and the bound recomputed whenever a
                    # callback installed a different head object — watching
                    # ``len`` is not enough, because a compaction (removing
                    # N corpses) plus N pushes leaves the length unchanged
                    # while the new head may be earlier.  Identity is exact:
                    # pushes, pops and compaction all swap the head object,
                    # and no callback mutates an in-heap entry's (time, seq)
                    # key (``Simulator.rearm_at`` takes a popped, spent
                    # entry; ``Event.rearm_at`` defers, and only the outer
                    # loop re-keys).  A cancellation nulls head[2] in place
                    # but keeps its key, and a deferral keeps a key earlier
                    # than the live one, so the stale bound is merely
                    # conservative and the outer loop handles the head.
                    # ``<=``, not ``<``: a spill head *at* the horizon/probe
                    # bound is still a tie the drain must not jump.
                    lim = probe_due - 1
                    if horizon < lim:
                        lim = horizon
                    head = spill[0] if spill else None
                    if head is not None and head[0] <= lim:
                        lim = head[0] - 1
                    while due:
                        e = due[-1]
                        time_ns = e[0]
                        if time_ns > lim or fired >= limit:
                            break
                        due.pop()
                        self._wheel_live -= 1
                        fn = e[2]
                        e[2] = None
                        self._now = time_ns
                        if fn.__class__ is int:
                            link = e[3]
                            if fn == TAG_TX:
                                link._tx_done()
                            elif link.up:
                                link._dst_receive(link._in_flight.pop(0), link)
                            else:
                                link._in_flight.pop(0)
                                link.dropped_frames += 1
                        else:
                            fn()
                        self._events_fired += 1
                        fired += 1
                        h = spill[0] if spill else None
                        if h is not head:
                            head = h
                            lim = probe_due - 1
                            if horizon < lim:
                                lim = horizon
                            if h is not None and h[0] <= lim:
                                lim = h[0] - 1
            finally:
                self._cursor = cursor
                self._running = False
        return self._now

    def run_for(self, duration_ns: int) -> int:
        """Run for ``duration_ns`` beyond the current time."""
        return self.run(until=self._now + duration_ns)


class PeriodicTask:
    """Re-arms a callback every ``period_ns`` until stopped.

    Used for credit generation, reachability message emission and rate
    meters.  The first firing happens after ``phase_ns`` (defaults to one
    full period) so several periodic tasks can be de-synchronized.  One
    :class:`Event` handle serves the task's whole life.
    """

    __slots__ = ("_sim", "_period", "_fn", "_stopped", "_event", "_armed_at")

    def __init__(
        self,
        sim: Simulator,
        period_ns: int,
        fn: Callable[[], None],
        phase_ns: Optional[int] = None,
    ) -> None:
        if period_ns <= 0:
            raise SimError(f"period must be positive, got {period_ns}")
        self._sim = sim
        self._period = period_ns
        self._fn = fn
        self._stopped = False
        #: When the pending tick was armed (its period is measured from
        #: here) — lets ``set_period`` re-derive the pending fire time.
        self._armed_at = sim.now
        first = period_ns if phase_ns is None else phase_ns
        self._event = sim.schedule(first, self._tick)

    @property
    def period_ns(self) -> int:
        """Current re-arm period."""
        return self._period

    def set_period(self, period_ns: int) -> None:
        """Change the period.

        Lengthening takes effect from the next re-arm (the pending tick
        fires as scheduled).  Shortening also pulls the pending tick
        forward to ``armed_at + period_ns`` (clamped to now), so a
        faster rate applies immediately instead of one stale period
        later.
        """
        if period_ns <= 0:
            raise SimError(f"period must be positive, got {period_ns}")
        self._period = period_ns
        if self._stopped:
            return
        target = max(self._sim.now, self._armed_at + period_ns)
        if target < self._event.time_ns:
            self._event.rearm_at(target)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._fn()
        if not self._stopped:
            self._armed_at = now = self._sim.now
            self._event.rearm_at(now + self._period)

    def stop(self) -> None:
        """Stop firing (cancels the pending tick)."""
        self._stopped = True
        self._event.cancel()
