"""The Fabric Adapter: the edge of a Stardust network (§4.1).

Ingress: parse arriving host packets, queue them in VOQs against the
deep shared buffer, announce non-empty VOQs to the destination port's
egress scheduler, and on each credit dequeue a burst, pack it into
cells and spray the cells across all uplinks that reach the
destination Fabric Adapter.

Egress: resequence and reassemble arriving cells into packets, buffer
them shallowly per port, drain each port at line rate toward the host,
pace the port's credit generation, throttle it when FCI-marked cells
arrive and pause it when the shallow buffer fills.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple, ValuesView

from repro.core.cell import Cell, CellKind, VoqId
from repro.core.config import (
    REACHABILITY_CELL_BYTES,
    SPRAY_SEED,
    VOQ_REPORT_FLUSH_NS,
    VOQ_REPORT_THRESHOLD_BYTES,
    StardustConfig,
)
from repro.core.control import ControlPlane
from repro.core.credit import EgressScheduler
from repro.core.packing import pack_burst
from repro.core.reachability import ReachabilityMonitor
from repro.core.reassembly import ReassemblyEngine
from repro.core.spray import SprayArbiter
from repro.core.voq import SharedBufferPool, Voq
from repro.net.addressing import DeviceId, PortAddress
from repro.net.packet import Packet, PauseFrame
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.entity import Device
from repro.sim.link import Link
from repro.sim.stats import Histogram, RateMeter


@dataclass(slots=True)
class EgressPort:
    """One host-facing port: shallow buffer + credit scheduler."""

    index: int
    link: Link
    scheduler: EgressScheduler
    delivered: RateMeter
    drops: int = 0


class FabricAdapter(Device):
    """A Stardust edge device (ToR role)."""

    __slots__ = (
        "config", "fa_id", "control", "buffer_pool", "_voqs", "_flush_fns",
        "_report_flush_pending", "_uplinks",
        "_static_reach", "_elig_cache", "_elig_epoch", "_live_uplinks",
        "_spray", "egress_ports", "reassembly", "_monitor", "_advertiser",
        "_self_reach", "_inbound_index", "cell_latency", "packet_latency",
        "cells_sent", "cells_received", "packets_in", "packets_out",
        "ingress_drops",
        "local_switched", "low_latency_cells", "hosts_paused",
        "pause_frames_sent",
    )

    def __init__(
        self,
        sim: Simulator,
        config: StardustConfig,
        fa_id: DeviceId,
        name: str,
        control: ControlPlane,
    ) -> None:
        super().__init__(sim, name)
        self.config = config
        self.fa_id = fa_id
        self.control = control
        control.register(fa_id, self)

        self.buffer_pool = SharedBufferPool(config.ingress_buffer_bytes)
        #: VOQs by (destination, class) — what a packet carries, so
        #: ingress builds no VoqId; each Voq holds its interned one.
        self._voqs: Dict[Tuple[PortAddress, int], Voq] = {}
        #: Each VOQ's deferred report flush, bound once at creation, and
        #: the VOQs with one pending (both keyed by the VOQ object).
        self._flush_fns: Dict[Voq, partial] = {}
        self._report_flush_pending: set[Voq] = set()

        # Fabric side.
        self._uplinks: List[Link] = []
        self._static_reach = True
        # Eligible-uplink lists memoized per destination on the
        # simulator's topology epoch (see FabricElement._elig_cache):
        # the static view is destination-independent, so it shares one
        # list across all destinations.
        self._elig_cache: Dict[DeviceId, List[Link]] = {}
        self._elig_epoch = -1
        self._live_uplinks: Optional[List[Link]] = None

        self._spray = SprayArbiter(
            random.Random(SPRAY_SEED ^ (0xADA9 + fa_id)),
            mode=config.spray_mode,
        )

        # Host side.
        self.egress_ports: List[EgressPort] = []

        # Egress machinery.
        self.reassembly = ReassemblyEngine(
            sim, self._deliver_to_port, config.reassembly_timeout_ns
        )

        # Reachability protocol (dynamic mode).
        self._monitor: Optional[ReachabilityMonitor] = None
        self._advertiser: Optional[PeriodicTask] = None
        #: What this FA advertises, every tick, on every uplink: itself.
        self._self_reach = frozenset({fa_id})
        #: Inbound fabric link -> its uplink's attachment index.  The
        #: index doubles as the reachability monitor's key: stable
        #: across runs, unlike object identities.
        self._inbound_index: Dict[Link, int] = {}

        # Instrumentation.
        self.cell_latency = Histogram(f"{name}.cell_latency_ns")
        self.packet_latency = Histogram(f"{name}.packet_latency_ns")
        self.cells_sent = 0
        self.cells_received = 0
        self.packets_in = 0
        self.packets_out = 0
        self.ingress_drops = 0
        self.local_switched = 0
        self.low_latency_cells = 0
        #: Host flow-control state (§5.4): True while PAUSE is asserted.
        self.hosts_paused = False
        self.pause_frames_sent = 0

    # ------------------------------------------------------------------
    # Wiring (builder API)
    # ------------------------------------------------------------------
    def add_uplink(self, out: Link, inbound: Link) -> None:
        """Attach a fabric uplink (out) and its reverse (inbound)."""
        self._inbound_index[inbound] = len(self._uplinks)
        self._uplinks.append(out)
        self.sim.topology_epoch += 1

    def add_host_port(self, link: Link) -> EgressPort:
        """Attach a host-facing downlink; creates its egress scheduler."""
        index = len(self.egress_ports)
        scheduler = EgressScheduler(
            self.sim,
            self.config,
            link.rate_bps,
            grant_fn=partial(self.control.grant, self.fa_id),
            name=f"{self.name}.p{index}.sched",
        )
        port = EgressPort(
            index=index,
            link=link,
            scheduler=scheduler,
            delivered=RateMeter(f"{self.name}.p{index}.delivered"),
        )
        self.egress_ports.append(port)
        link.on_transmit = partial(self._egress_drained, port)
        return port

    @property
    def uplinks(self) -> List[Link]:
        """The fabric-facing links, in attachment order."""
        return list(self._uplinks)

    def out_links(self) -> List[Link]:
        """A dying FA takes its uplinks with it (host links stay up)."""
        return self._uplinks

    def set_static_reachability(self) -> None:
        """All live uplinks reach every destination (healthy fat-tree)."""
        self._static_reach = True

    def enable_protocol(self) -> ReachabilityMonitor:
        """Learn uplink reachability from FE advertisements.

        Returns the monitor, whose counters the network reports."""
        self._static_reach = False
        self._monitor = ReachabilityMonitor(
            self.sim,
            self.config.reachability_period_ns,
            self.config.reachability_up_threshold,
            self.config.reachability_miss_threshold,
            on_change=self._reach_changed,
        )
        for index in range(len(self._uplinks)):
            self._monitor.track(index)
        self._advertiser = PeriodicTask(
            self.sim,
            self.config.reachability_period_ns,
            self._advertise,
            phase_ns=(self.fa_id % 5 + 1)
            * (self.config.reachability_period_ns // 8 + 1),
        )
        return self._monitor

    def _advertise(self) -> None:
        size = REACHABILITY_CELL_BYTES
        for up in self._uplinks:
            if up.up:
                up.send(Cell.reach(self.fa_id, size, self._self_reach), size)

    def _reach_changed(self) -> None:
        """The learned reachability view moved: spoil eligible caches."""
        self.sim.topology_epoch += 1

    def eligible_uplinks(self, dst_fa: DeviceId) -> List[Link]:
        """Live uplinks that reach ``dst_fa`` (reachability view).

        Memoized on the topology epoch; between liveness/reachability
        changes every call returns the same list object (the spray
        arbiter keys its walk state on that identity).
        """
        epoch = self.sim.topology_epoch
        if epoch != self._elig_epoch:
            self._elig_cache.clear()
            self._live_uplinks = None
            self._elig_epoch = epoch
        if self._static_reach:
            live = self._live_uplinks
            if live is None:
                live = self._live_uplinks = [
                    u for u in self._uplinks if u.up
                ]
            return live
        result = self._elig_cache.get(dst_fa)
        if result is not None:
            return result
        assert self._monitor is not None
        result = []
        for index, up in enumerate(self._uplinks):
            if not up.up:
                continue
            if dst_fa in self._monitor.reachable_via(index):
                result.append(up)
        self._elig_cache[dst_fa] = result
        return result

    # ------------------------------------------------------------------
    # Receive: cells from the fabric (egress), packets from hosts (ingress)
    # ------------------------------------------------------------------
    def receive(self, payload: Any, link: Link) -> None:
        """Dispatch arriving packets (host side) and cells (fabric side)."""
        if not self.alive:
            self.dead_drops += 1
            return
        # Cells first: an FA receives roughly one cell per ~payload-size
        # bytes but only one packet per MTU, so this is the hot branch.
        if isinstance(payload, Cell):
            if payload.kind is CellKind.REACHABILITY:
                if self._monitor is not None:
                    assert payload.reachable is not None
                    index = self._inbound_index.get(link)
                    if index is not None:
                        self._monitor.heard(index, payload.reachable)
                return
            # Egress: a data cell in, toward resequencing.
            self.cells_received += 1
            self.cell_latency.record(self.sim.now - payload.created_ns)
            if payload.fci and payload.voq is not None:
                self.egress_ports[payload.voq.dst.port].scheduler.fci_mark()
            self.reassembly.receive(payload)
        elif isinstance(payload, Packet):
            self.ingress_packet(payload)
        else:  # pragma: no cover - wiring error
            raise TypeError(f"unexpected payload {type(payload).__name__}")

    def ingress_packet(self, packet: Packet) -> None:
        """Accept a packet from a host (or injector)."""
        self.packets_in += 1
        if packet.dst.fa == self.fa_id:
            # Local switching: same-ToR traffic never enters the fabric.
            self.local_switched += 1
            self._deliver_to_port(packet)
            return
        tc = min(packet.priority, self.config.traffic_classes - 1)
        voq = self._voqs.get((packet.dst, tc))
        if voq is None:
            voq = self._new_voq(packet.dst, tc)
        if not voq.push(packet):
            self.ingress_drops += 1
            return
        if self.config.host_pause_threshold is not None:
            self._check_host_pause()
        if tc in self.config.low_latency_classes:
            # §5.6: low-latency VOQs transmit immediately, without
            # waiting a credit round-trip.  (Their aggregate bandwidth
            # is assumed small; nothing throttles them.)
            burst = voq.grant(packet.size_bytes)
            if burst:
                self._emit_burst(voq, burst)
                self.low_latency_cells += 1
            return
        self._maybe_report(voq)

    def _new_voq(self, dst: PortAddress, tc: int) -> Voq:
        voq = self._voqs[dst, tc] = Voq(VoqId(dst, tc), self.buffer_pool)
        self._flush_fns[voq] = partial(self._flush_report, voq)
        return voq

    # ------------------------------------------------------------------
    # Host flow control (§5.4)
    # ------------------------------------------------------------------
    def _check_host_pause(self) -> None:
        """Callers skip this when host flow control is off (no threshold)."""
        threshold = self.config.host_pause_threshold
        occupancy = self.buffer_pool.occupancy
        if not self.hosts_paused and occupancy > threshold:
            self._signal_hosts(pause=True)
        elif (
            self.hosts_paused
            and occupancy < self.config.host_resume_threshold
        ):
            self._signal_hosts(pause=False)

    def _signal_hosts(self, pause: bool) -> None:
        self.hosts_paused = pause
        frame = PauseFrame(pause=pause)
        for port in self.egress_ports:
            if port.link.up:
                self.pause_frames_sent += 1
                port.link.send(frame, frame.size_bytes)

    def _maybe_report(self, voq: Voq) -> None:
        """Demand reporting: immediately past the threshold, otherwise a
        deferred flush so sub-threshold tails are reported too."""
        unreported = voq.enqueued_bytes - voq.last_reported_bytes
        if unreported <= 0:
            return
        if unreported >= VOQ_REPORT_THRESHOLD_BYTES:
            self._report_now(voq)
        elif voq not in self._report_flush_pending:
            self._report_flush_pending.add(voq)
            self.sim.call_later(VOQ_REPORT_FLUSH_NS, self._flush_fns[voq])

    def _flush_report(self, voq: Voq) -> None:
        self._report_flush_pending.discard(voq)
        if voq.enqueued_bytes > voq.last_reported_bytes:
            self._report_now(voq)

    def _report_now(self, voq: Voq) -> None:
        voq.last_reported_bytes = voq.enqueued_bytes
        voq_id = voq.id
        self.control.status(
            self.fa_id, voq_id.dst.fa, voq_id, voq.enqueued_bytes
        )

    @property
    def voq_count(self) -> int:
        """Number of VOQs ever instantiated (empty ones cost nothing)."""
        return len(self._voqs)

    def total_queued_bytes(self) -> int:
        """Bytes currently queued across all VOQs."""
        return sum(v.bytes for v in self._voqs.values())

    def total_credit_balance(self) -> int:
        """Net credit balance across all VOQs (surpluses minus
        deficits) — the telemetry probes' credit-loop health signal."""
        return sum(v.credit_balance for v in self._voqs.values())

    def voqs(self) -> ValuesView[Voq]:
        """Live VOQs (each carries its ``id``), for per-VOQ telemetry.

        VOQs appear lazily (first packet toward a destination), so
        per-VOQ samplers re-enumerate each tick rather than binding a
        fixed list at attach time.
        """
        return self._voqs.values()

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def on_status(
        self, ingress_fa: DeviceId, voq: VoqId, enqueued_bytes: int
    ) -> None:
        """A remote VOQ's demand report, for its port's scheduler."""
        self.egress_ports[voq.dst.port].scheduler.report(
            ingress_fa, voq, enqueued_bytes
        )

    def _apply_grant(self, voq_id: VoqId, credit_bytes: int) -> None:
        voq = self._voqs.get((voq_id.dst, voq_id.priority))
        if voq is None:
            return
        burst = voq.grant(credit_bytes)
        if self.config.host_pause_threshold is not None:
            self._check_host_pause()  # pool drained: maybe resume hosts
        if not burst:
            return
        self._emit_burst(voq, burst)

    #: The control plane's grant handler (:class:`ControlEndpoint`).
    on_grant = _apply_grant

    def _emit_burst(self, voq: Voq, burst: List[Packet]) -> None:
        """Chop a dequeued burst into cells and spray them (§3.4)."""
        voq_id = voq.id
        cells = pack_burst(
            burst,
            payload_bytes=self.config.cell_payload_bytes,
            header_bytes=self.config.cell_header_bytes,
            dst_fa=voq_id.dst.fa,
            src_fa=self.fa_id,
            voq=voq_id,
            first_seq=voq.next_seq,
            created_ns=self.sim.now,
            packing=self.config.packet_packing,
        )
        voq.take_seq(len(cells))
        self._spray_cells(voq_id.dst.fa, cells)

    def _spray_cells(self, dst_fa: DeviceId, cells: List[Cell]) -> None:
        links = self.eligible_uplinks(dst_fa)
        if not links:
            # Destination unreachable right now; the burst is lost the
            # way a real FA would lose it (reassembly timeout covers
            # whatever partially arrived).
            self.ingress_drops += len(cells)
            return
        self.cells_sent += len(cells)
        pick = self._spray.pick
        for cell in cells:
            pick(dst_fa, links).send(cell, cell.size_bytes)

    # ------------------------------------------------------------------
    # Egress: packets out (cells arrive through ``receive``)
    # ------------------------------------------------------------------
    def _deliver_to_port(self, packet: Packet) -> None:
        port = self.egress_ports[packet.dst.port]
        cap = self.config.egress_buffer_bytes
        if port.link.queued_bytes + packet.size_bytes > cap:
            port.drops += 1
            return
        self.packets_out += 1
        self.packet_latency.record(self.sim.now - packet.created_ns)
        port.delivered.record(self.sim.now, packet.size_bytes)
        port.link.send(packet, packet.wire_bytes)
        if port.link.queued_bytes > cap * self.config.egress_high_watermark:
            port.scheduler.pause()

    def _egress_drained(self, port: EgressPort, _packet: Packet) -> None:
        """``on_transmit`` hook of a host link, bound to its port."""
        cap = self.config.egress_buffer_bytes
        if (
            port.scheduler.paused
            and port.link.queued_bytes <= cap * self.config.egress_low_watermark
        ):
            port.scheduler.resume()

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop schedulers and protocol tasks (teardown)."""
        for port in self.egress_ports:
            port.scheduler.stop()
        if self._advertiser is not None:
            self._advertiser.stop()
        if self._monitor is not None:
            self._monitor.stop()
