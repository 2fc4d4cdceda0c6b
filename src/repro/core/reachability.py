"""The self-healing reachability protocol (§4.2, §5.8, §5.9).

Every fabric device periodically advertises, on every link, the set of
Fabric Adapters it can reach.  Receivers track per-link health: a link
with no advertisement for ``miss_threshold`` periods is declared down
and its learned reachability purged; a link must deliver
``up_threshold`` consecutive advertisements to be trusted again.

The same machinery runs in Fabric Adapters (to learn which uplinks
reach which destination) and Fabric Elements (to build forwarding
tables), so it lives here as a reusable component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet

from repro.net.addressing import DeviceId
from repro.sim.engine import PeriodicTask, Simulator


@dataclass(slots=True)
class LinkHealth:
    """Receiver-side health state for one incoming link."""

    last_rx_ns: int = -1
    good_count: int = 0
    alive: bool = False
    reachable: FrozenSet[DeviceId] = frozenset()


class ReachabilityMonitor:
    """Tracks advertisement freshness and learned sets per in-link.

    ``on_change`` fires whenever a link's liveness or advertised set
    changes, letting the owning device rebuild its forwarding view.
    """

    __slots__ = (
        "sim", "period_ns", "up_threshold", "miss_threshold",
        "_on_change", "_links", "_watchdog",
        "links_declared_down", "links_declared_up",
    )

    def __init__(
        self,
        sim: Simulator,
        period_ns: int,
        up_threshold: int,
        miss_threshold: int,
        on_change: Callable[[], None],
    ) -> None:
        if period_ns <= 0:
            raise ValueError("period must be positive")
        if up_threshold < 1 or miss_threshold < 1:
            raise ValueError("thresholds must be >= 1")
        self.sim = sim
        self.period_ns = period_ns
        self.up_threshold = up_threshold
        self.miss_threshold = miss_threshold
        self._on_change = on_change
        self._links: Dict[int, LinkHealth] = {}
        # Watchdog sweeps at the advertisement period.
        self._watchdog = PeriodicTask(sim, period_ns, self._sweep)
        self.links_declared_down = 0
        self.links_declared_up = 0

    def track(self, key: int) -> None:
        """Start monitoring in-link ``key`` (any hashable id)."""
        if key not in self._links:
            self._links[key] = LinkHealth()

    def heard(self, key: int, reachable: FrozenSet[DeviceId]) -> None:
        """An advertisement arrived on ``key``."""
        health = self._links.get(key)
        if health is None:
            health = LinkHealth()
            self._links[key] = health
        health.last_rx_ns = self.sim.now
        health.good_count += 1
        changed = False
        if not health.alive and health.good_count >= self.up_threshold:
            health.alive = True
            self.links_declared_up += 1
            changed = True
        # Senders re-advertise one cached set object until their view
        # moves, so identity settles the steady state without comparing
        # the sets element by element.
        if (
            health.alive
            and health.reachable is not reachable
            and health.reachable != reachable
        ):
            health.reachable = reachable
            changed = True
        if changed:
            self._on_change()

    def _sweep(self) -> None:
        deadline = self.miss_threshold * self.period_ns
        changed = False
        for health in self._links.values():
            if not health.alive:
                continue
            if self.sim.now - health.last_rx_ns > deadline:
                health.alive = False
                health.good_count = 0
                health.reachable = frozenset()
                self.links_declared_down += 1
                changed = True
        if changed:
            self._on_change()

    def alive(self, key: int) -> bool:
        """Whether in-link ``key`` is currently considered up."""
        health = self._links.get(key)
        return bool(health and health.alive)

    def reachable_via(self, key: int) -> FrozenSet[DeviceId]:
        """FA set advertised on ``key`` (empty if the link is down)."""
        health = self._links.get(key)
        if health is None or not health.alive:
            return frozenset()
        return health.reachable

    def stop(self) -> None:
        """Stop the watchdog (teardown)."""
        self._watchdog.stop()
