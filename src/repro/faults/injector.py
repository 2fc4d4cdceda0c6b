"""Compile a :class:`FaultPlan` into engine-scheduled fault events.

The injector resolves the plan's topology coordinates against a built
:class:`~repro.fabrics.base.FabricNetwork` through its fault surface
(``edge_devices`` / ``fabric_devices`` / ``edge_uplinks`` /
``fabric_links``, every device a :class:`~repro.sim.entity.Device`),
schedules each action on the simulation engine, and measures
resilience through the same contract:

* a periodic delivered-bytes sampler (faulted runs only — an unfaulted
  run schedules *nothing* extra, keeping golden traces bit-identical);
* loss accounting over every link and device the faults touched;
* recovery detection against the pre-fault throughput baseline,
  reported next to the network's own Appendix E expectation
  (:meth:`~repro.fabrics.base.FabricNetwork.analytical_recovery_ns`).

Determinism: actions are scheduled in sorted ``(at_ns, plan-order)``
order at arm time, storms expand through a dedicated ``random.Random``
seeded from the plan, and the sampler period is part of the plan — so
the same spec produces the same digest, run after run, shard after
shard.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.faults.metrics import ResilienceMetrics
from repro.faults.plan import DISRUPTIVE_KINDS, FaultEvent, FaultPlan
from repro.sim.engine import PeriodicTask
from repro.sim.entity import Device
from repro.sim.link import Link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabrics.base import FabricNetwork


class FaultTargetError(ValueError):
    """A plan names a target the built network does not have."""


class FaultInjector:
    """Arms one plan against one built network (single use)."""

    def __init__(self, plan: FaultPlan, net: FabricNetwork) -> None:
        self.plan = plan
        self.net = net
        self.sim = net.sim
        self._armed = False
        #: Simulation time at arm: plan times are relative to this, so
        #: a network that pre-ran (protocol convergence) keeps fault
        #: times aligned with the workload timeline.
        self._t0 = 0
        #: Applied actions, for reporting: (time_ns, kind, detail).
        self.applied: List[Tuple[int, str, str]] = []
        self.faults_applied = 0
        #: Links a fault touched (failed or degraded).  Keyed by the
        #: Link object itself (identity hash, insertion order), so the
        #: drop-count sum walks links in the order faults touched them.
        self._touched: Dict[Link, None] = {}
        self._orig_rates: Dict[Link, int] = {}
        #: (time_ns, delivered_bytes, protocol_downs) samples for
        #: recovery/detection measurement.
        self._samples: List[Tuple[int, int, int]] = []
        self._sampler: Optional[PeriodicTask] = None

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Schedule every plan event on the engine (idempotent no)."""
        if self._armed:
            raise RuntimeError("fault injector is single-use; already armed")
        self._armed = True
        self._t0 = self.sim.now
        actions: List[Tuple[int, FaultEvent]] = []
        for event in self.plan.events:
            if event.kind == "random_storm":
                actions.extend(self._expand_storm(event))
            else:
                actions.append((event.at_ns, event))
                if event.kind == "degrade":
                    actions.append(
                        (event.until_ns, self._undegrade_event(event))
                    )
        # Stable sort: same-instant actions keep plan order, and the
        # engine's seq numbers then make firing order total.  Plan
        # times are relative to arm time (t0).
        actions.sort(key=lambda pair: pair[0])
        for at_ns, event in actions:
            self._validate_target(event)
            self.sim.at(self._t0 + at_ns, lambda e=event: self._apply(e))
        self._sampler = PeriodicTask(
            self.sim, self.plan.sample_period_ns, self._sample
        )
        return self

    def _undegrade_event(self, event: FaultEvent) -> FaultEvent:
        """The synthetic restore ending a degrade interval."""
        return FaultEvent(
            "link_up", event.until_ns, edge=event.edge, uplink=event.uplink
        )

    def _expand_storm(
        self, storm: FaultEvent
    ) -> List[Tuple[int, FaultEvent]]:
        """Deterministically expand a storm into link_down/up pairs."""
        rng = random.Random(storm.seed)
        universe = [
            (edge, uplink)
            for edge in range(len(self.net.edge_devices()))
            for uplink in range(len(self.net.edge_uplinks(edge)))
        ]
        if not universe:
            raise FaultTargetError("network has no edge uplinks to storm")
        count = storm.count
        if count <= len(universe):
            targets = rng.sample(universe, count)
        else:  # more failures than links: repeats allowed
            targets = [rng.choice(universe) for _ in range(count)]
        window = max(1, storm.until_ns - storm.at_ns)
        actions = []
        for edge, uplink in targets:
            t_down = storm.at_ns + rng.randrange(window)
            actions.append(
                (t_down, FaultEvent(
                    "link_down", t_down, edge=edge, uplink=uplink
                ))
            )
            t_up = t_down + storm.downtime_ns
            actions.append(
                (t_up, FaultEvent(
                    "link_up", t_up, edge=edge, uplink=uplink
                ))
            )
        return actions

    # ------------------------------------------------------------------
    # Target resolution (topology coordinates -> live objects)
    # ------------------------------------------------------------------
    def _validate_target(self, event: FaultEvent) -> None:
        """Resolve the event's target now: bad plans fail at arm time,
        not halfway through a long simulation."""
        if event.edge is not None and event.uplink is not None:
            self._uplink_pair(event.edge, event.uplink)
        elif event.element is not None:
            self._device("element", event.element)
        elif event.edge is not None:
            self._device("edge", event.edge)

    def _uplink_pair(self, edge: int, uplink: int) -> List[Link]:
        """Both simplex directions of one edge uplink."""
        try:
            ups = self.net.edge_uplinks(edge)
        except IndexError:
            raise FaultTargetError(f"no edge device {edge}") from None
        if not 0 <= uplink < len(ups):
            raise FaultTargetError(
                f"edge {edge} has {len(ups)} uplinks, no uplink {uplink}"
            )
        up = ups[uplink]
        # The reverse direction lives with the upper device.  Parallel
        # links between the same pair are matched by ordinal, so
        # (edge, uplink) always names one physical duplex link.
        parallel = [l for l in ups if l.src is up.src and l.dst is up.dst]
        reverses = [
            l for l in self.net.fabric_links()
            if l.src is up.dst and l.dst is up.src
        ]
        pair = [up]
        ordinal = parallel.index(up)
        if ordinal < len(reverses):
            pair.append(reverses[ordinal])
        return pair

    def _device(self, kind: str, index: int) -> Device:
        devices = (
            self.net.fabric_devices() if kind == "element"
            else self.net.edge_devices()
        )
        if not 0 <= index < len(devices):
            raise FaultTargetError(
                f"no {kind} {index} (network has {len(devices)})"
            )
        return devices[index]

    def _inbound_links(self, device: Device) -> List[Link]:
        return [l for l in self.net.fabric_links() if l.dst is device]

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_do_{event.kind}")
        handler(event)

    def _record(self, event: FaultEvent, detail: str) -> None:
        self.applied.append((self.sim.now, event.kind, detail))
        if event.kind in DISRUPTIVE_KINDS:
            self.faults_applied += 1

    def _touch(self, link: Link) -> None:
        self._touched[link] = None

    def _do_link_down(self, event: FaultEvent) -> None:
        for link in self._uplink_pair(event.edge, event.uplink):
            self._touch(link)
            link.fail()
        self._record(event, f"edge{event.edge}.uplink{event.uplink}")

    def _do_link_up(self, event: FaultEvent) -> None:
        for link in self._uplink_pair(event.edge, event.uplink):
            orig = self._orig_rates.pop(link, None)
            if orig is not None:
                link.set_rate(orig)
            # Only genuinely-down links get restore(): ending a degrade
            # interval must not reset a live link's serializer state.
            if not link.up:
                link.restore()
        self._record(event, f"edge{event.edge}.uplink{event.uplink}")

    def _do_degrade(self, event: FaultEvent) -> None:
        for link in self._uplink_pair(event.edge, event.uplink):
            self._touch(link)
            self._orig_rates.setdefault(link, link.rate_bps)
            link.set_rate(max(1, int(link.rate_bps * event.factor)))
        self._record(
            event,
            f"edge{event.edge}.uplink{event.uplink} x{event.factor}",
        )

    def _device_down(self, device: Device, event: FaultEvent) -> None:
        """Full device death: its own links via device.fail(), plus
        every fabric link *into* it (those belong to its neighbors)."""
        for link in device.out_links():
            self._touch(link)
        for link in self._inbound_links(device):
            self._touch(link)
            link.fail()
        device.fail()
        self._record(event, device.name)

    def _device_up(self, device: Device, event: FaultEvent) -> None:
        device.restore()
        for link in self._inbound_links(device):
            link.restore()
        self._record(event, device.name)

    def _do_element_down(self, event: FaultEvent) -> None:
        self._device_down(self._device("element", event.element), event)

    def _do_element_up(self, event: FaultEvent) -> None:
        self._device_up(self._device("element", event.element), event)

    def _do_edge_down(self, event: FaultEvent) -> None:
        self._device_down(self._device("edge", event.edge), event)

    def _do_edge_up(self, event: FaultEvent) -> None:
        self._device_up(self._device("edge", event.edge), event)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _sample(self) -> None:
        self._samples.append((
            self.sim.now,
            self.net.delivered_bytes(),
            self.net.protocol_links_down(),
        ))

    def _protocol_detect_ns(self) -> Optional[int]:
        """Sample-quantized time from first fault to first down
        declaration (None: no monitors, or never detected)."""
        samples = self._samples
        if not samples or samples[-1][2] == 0:
            return None
        t_fault = self._t0 + self.plan.first_fault_ns()
        before = 0
        for t, _, downs in samples:
            if t <= t_fault:
                before = downs
                continue
            if downs > before:
                return t - t_fault
        return None

    def _recovery(self) -> Tuple[int, float, int, float]:
        """(time_to_recover_ns, dip_depth, dip_duration_ns, baseline_gbps).

        Rates are per-sample-period deltas of delivered bytes; the
        baseline is the mean of the last ``baseline_samples`` pre-fault
        rates.  Recovery is the last post-fault instant the rate sat
        below ``recovery_fraction`` x baseline (-1 when the run ended
        still below it; 0 when there was no measurable dip).
        """
        period = self.plan.sample_period_ns
        samples = self._samples
        if len(samples) < 2:
            return 0, 0.0, 0, 0.0
        t_fault = self._t0 + self.plan.first_fault_ns()
        rates = [
            (samples[i][0], samples[i][1] - samples[i - 1][1])
            for i in range(1, len(samples))
        ]
        pre = [r for t, r in rates if t <= t_fault]
        pre = pre[-self.plan.baseline_samples:]
        baseline = sum(pre) / len(pre) if pre else 0.0
        baseline_gbps = baseline * 8 / period
        if baseline <= 0:
            return 0, 0.0, 0, 0.0
        threshold = self.plan.recovery_fraction * baseline
        post = [(t, r) for t, r in rates if t > t_fault]
        below = [(t, r) for t, r in post if r < threshold]
        if not post or not below:
            return 0, 0.0, 0, baseline_gbps
        depth = max(0.0, 1.0 - min(r for _, r in below) / baseline)
        duration = len(below) * period
        if below[-1][0] == post[-1][0]:
            return -1, depth, duration, baseline_gbps  # never recovered
        return below[-1][0] - t_fault, depth, duration, baseline_gbps

    def resilience_metrics(self) -> ResilienceMetrics:
        """Snapshot the resilience section (cumulative since t=0)."""
        recover_ns, depth, duration, baseline = self._recovery()
        net = self.net
        blackholed_packets, blackholed_flows = net.blackholed()
        return ResilienceMetrics(
            faults_injected=self.faults_applied,
            frames_lost_in_transit=sum(
                link.dropped_frames for link in self._touched
            ),
            dead_device_drops=sum(
                device.dead_drops
                for device in (*net.edge_devices(), *net.fabric_devices())
            ),
            blackholed_flows=blackholed_flows,
            blackholed_packets=blackholed_packets,
            time_to_recover_ns=recover_ns,
            dip_depth=depth,
            dip_duration_ns=duration,
            baseline_gbps=baseline,
            protocol_detect_ns=self._protocol_detect_ns(),
            analytical_recovery_ns=net.analytical_recovery_ns(),
        )

    def stop(self) -> None:
        """Stop the throughput sampler (teardown)."""
        if self._sampler is not None:
            self._sampler.stop()


def attach_plan(plan: FaultPlan, net: FabricNetwork) -> FaultInjector:
    """Create, register and arm an injector for ``plan`` on ``net``."""
    injector = FaultInjector(plan, net)
    net.attach_faults(injector)
    injector.arm()
    return injector
