"""Distributed egress scheduling: the credit machinery (§3.3, §4.1).

Every egress port of every Fabric Adapter runs an :class:`EgressScheduler`.
Ingress VOQs anywhere in the data center report their demand (cumulative
enqueued bytes — idempotent under loss or reordering of reports); the
scheduler grants credits round-robin across VOQs with outstanding
demand, strict-priority across traffic classes.

Grants are *self-clocked*: after granting ``g`` bytes the next grant is
scheduled ``g x 8 / credit_rate`` later, so the total credit rate tracks
the port rate times (1 + credit speedup) regardless of grant sizes —
a 64-byte grant to an ACK VOQ consumes 64 bytes of port bandwidth, not
a whole credit slot.  A grant never exceeds the VOQ's outstanding
demand, which is how the paper's scheduler can have "a view of all of
the VOQs toward its ports".

The scheduler pauses while the egress buffer is above its high
watermark and stretches its grant gaps while FCI-marked cells arrive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.cell import VoqId
from repro.core.config import FCI_DECAY_NS, StardustConfig
from repro.net.addressing import DeviceId
from repro.sim.engine import Simulator
from repro.sim.units import SECOND

#: A VOQ as the scheduler sees it: who holds it and which VOQ it is.
RemoteVoq = Tuple[DeviceId, VoqId]

#: Delivers a credit grant back to the ingress FA:
#: (ingress_fa, voq, credit_bytes) -> None.  A Fabric Adapter passes its
#: control plane's ``grant`` with itself bound as the source: no hop.
GrantFn = Callable[[DeviceId, VoqId, int], None]


@dataclass(slots=True, eq=False)
class _Demand:
    """One remote VOQ's demand book (cumulative counters, drift-free).

    The rings hold these books rather than :data:`RemoteVoq` keys, so a
    pump reads and charges demand without hashing the VOQ's identity.
    """

    ingress_fa: DeviceId
    voq: VoqId
    enqueued: int = 0
    granted: int = 0
    in_ring: bool = False


class EgressScheduler:
    """Demand-aware credit generator for one egress port."""

    __slots__ = (
        "sim", "config", "name", "port_rate_bps", "_grant_fn",
        "_credit_bytes", "_credit_rate_bps", "_books", "_rings", "_active",
        "_armed", "_stopped", "_paused", "_throttled_until_ns",
        "_wrr_cursor", "_wrr_cached",
        "credits_granted", "fci_marks_seen",
    )

    def __init__(
        self,
        sim: Simulator,
        config: StardustConfig,
        port_rate_bps: int,
        grant_fn: GrantFn,
        name: str = "egress-sched",
    ) -> None:
        self.sim = sim
        self.config = config
        self.name = name
        self.port_rate_bps = port_rate_bps
        self._grant_fn = grant_fn
        self._credit_bytes = config.credit_size_bytes

        #: Credit issue rate in bits/sec (slightly above port rate).
        self._credit_rate_bps = port_rate_bps * (1.0 + config.credit_speedup)

        # Demand bookkeeping, one book per remote VOQ ever reported.
        self._books: Dict[RemoteVoq, _Demand] = {}

        # One FIFO ring of VOQs with outstanding demand per traffic
        # class (strict priority: class 0 first); ``_active`` counts
        # the books in them.
        self._rings: List[Deque[_Demand]] = [
            deque() for _ in range(config.traffic_classes)
        ]
        self._active = 0

        # Self-clocking pump: at most one ``_pump`` event pending
        # (``_armed``), laid without a handle — a paused or stopped
        # pump lets it fire and return, so nothing ever cancels it.
        self._armed = False
        self._stopped = False
        self._paused = False
        self._throttled_until_ns = -1

        # Weighted round-robin state (non-strict mode).
        self._wrr_cursor = 0
        self._wrr_cached: Optional[List[int]] = None

        # Accounting.
        self.credits_granted = 0
        self.fci_marks_seen = 0

    # ------------------------------------------------------------------
    # Demand reports
    # ------------------------------------------------------------------
    def report(
        self, ingress_fa: DeviceId, voq: VoqId, enqueued_bytes: int
    ) -> None:
        """A remote VOQ reports its cumulative enqueued byte count."""
        book = self._books.get((ingress_fa, voq)) or self._book(ingress_fa, voq)
        if enqueued_bytes > book.enqueued:
            book.enqueued = enqueued_bytes
        if not book.in_ring and book.enqueued > book.granted:
            self._rings[min(voq.priority, len(self._rings) - 1)].append(book)
            book.in_ring = True
            self._active += 1
        self._kick()

    def _book(self, ingress_fa: DeviceId, voq: VoqId) -> _Demand:
        key = (ingress_fa, voq)
        book = self._books.get(key)
        if book is None:
            book = self._books[key] = _Demand(ingress_fa, voq)
        return book

    # Back-compat alias used by a few tests/tools: a bare request is a
    # report of at least one credit's worth of demand.
    def request(self, ingress_fa: DeviceId, voq: VoqId) -> None:
        """Back-compat demand report: ask for effectively unlimited credits."""
        book = self._book(ingress_fa, voq)
        self.report(
            ingress_fa, voq, book.granted + self.config.credit_size_bytes * 2**20
        )

    def withdraw(self, ingress_fa: DeviceId, voq: VoqId) -> None:
        """Cancel a VOQ's outstanding demand (drained / torn down)."""
        book = self._book(ingress_fa, voq)
        book.enqueued = book.granted

    @property
    def active_voqs(self) -> int:
        """VOQs currently holding outstanding demand."""
        return self._active

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Stop granting (egress buffer above high watermark)."""
        self._paused = True

    def resume(self) -> None:
        """Restart granting after a pause, if work is waiting."""
        if self._paused:
            self._paused = False
            self._kick()

    @property
    def paused(self) -> bool:
        """True while the egress buffer holds off credits."""
        return self._paused

    def fci_mark(self) -> None:
        """An FCI-marked cell reached this port: stretch the grant gaps
        until marks stop arriving (§4.2)."""
        self.fci_marks_seen += 1
        self._throttled_until_ns = self.sim.now + FCI_DECAY_NS

    # ------------------------------------------------------------------
    # The pump
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        if not self._armed and not self._paused and self._active:
            self._armed = True
            self.sim.call_later(0, self._pump)

    def _pump(self) -> None:
        """Grant one credit to the next VOQ in round-robin order.

        A VOQ goes back to the tail of its ring after every grant, even
        when that grant covered all of its demand: the pump does not
        look at the demand left.  Unless a report refills it first, its
        next turn finds nothing to grant, drops it from the ring and
        re-kicks — one counted no-op ``_pump`` event per exhausted VOQ.
        On the ``cells_uniform`` benchmark (seed 7) that is 10 284 of
        22 010 pumps for 11 726 grants, 3.9 % of its 265 100 events.
        Dropping the VOQ at its last grant would save them, but moves
        ``events_fired`` and the round-robin order the goldens pin.
        """
        if self._stopped:
            return  # still armed, so nothing lays another event
        self._armed = False
        if self._paused:
            return
        ring = self._next_ring()
        if ring is None:
            return
        book = ring.popleft()
        demand = book.enqueued - book.granted
        if demand <= 0:
            book.in_ring = False
            self._active -= 1
            self._kick()
            return
        ring.append(book)  # back to the tail, even if this grant empties it
        grant = self._credit_bytes if demand > self._credit_bytes else demand
        book.granted += grant
        self.credits_granted += 1
        self._grant_fn(book.ingress_fa, book.voq, grant)
        # Self-clock: the gap paid is proportional to the bytes granted.
        # The credit rate carries the fractional speedup (1.02x port
        # rate), so the gap is float math by construction; IEEE-754
        # double rounding is platform-deterministic, and moving to
        # scaled-integer math would shift every committed golden trace.
        gap_ns = max(1, int(grant * 8 * SECOND / self._credit_rate_bps))  # repro-lint: allow=DET005 -- credit speedup is fractional; f64 rounding is deterministic and golden-pinned
        if self.sim.now <= self._throttled_until_ns:
            gap_ns = int(gap_ns * self.config.fci_throttle_factor)  # repro-lint: allow=DET005 -- FCI throttle factor is fractional by design; same f64 determinism argument
        self._armed = True
        self.sim.call_later(gap_ns, self._pump)

    def _next_ring(self) -> Optional[Deque[_Demand]]:
        """Next traffic-class ring: strict priority or WRR (§4.1)."""
        if self.config.strict_priority:
            for ring in self._rings:
                if ring:
                    return ring
            return None
        # Weighted round-robin: walk a precomputed interleaved pattern
        # of class indices, skipping empty rings.
        pattern = self._wrr_pattern()
        for _ in range(len(pattern)):
            tc = pattern[self._wrr_cursor % len(pattern)]
            self._wrr_cursor += 1
            if self._rings[tc]:
                return self._rings[tc]
        return None

    def _wrr_pattern(self) -> List[int]:
        if self._wrr_cached is None:
            n = self.config.traffic_classes
            weights = list(self.config.class_weights[:n])
            weights += [1] * (n - len(weights))
            # Interleave classes proportionally (largest-remainder walk)
            # so weight (3,1) yields 0,0,1,0 rather than 0,0,0,1.
            pattern: List[int] = []
            credit = [0.0] * n
            for _ in range(sum(weights)):
                for tc in range(n):
                    credit[tc] += weights[tc]
                best = max(range(n), key=lambda tc: credit[tc])
                credit[best] -= sum(weights)
                pattern.append(best)
            self._wrr_cached = pattern
        return self._wrr_cached

    def stop(self) -> None:
        """Stop the grant pump permanently (teardown)."""
        self._stopped = True
        self._paused = True
