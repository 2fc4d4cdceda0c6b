"""The "push" data center fabric: the §5.2 strawman, fully built.

Same topologies as :class:`repro.fabrics.stardust.StardustNetwork`
(one/two/three-tier, via the shared wiring plan), same link rates and
propagation (:mod:`repro.fabrics.wiring`'s constants) — but every node
is an autonomous Ethernet packet switch that pushes packets toward the
destination with ECMP and drops on local congestion.  Host experiments
run unchanged against either network, so Fig 7, Fig 10 and Fig 12
compare mechanism against mechanism.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.baselines.ethernet import EthConfig, EthernetSwitch, EthPort
from repro.fabrics.base import FabricMetrics, FabricNetwork
from repro.fabrics.wiring import EDGE, EdgeNode, ElementNode, WiringPlan
from repro.net.addressing import DeviceId, PortAddress
from repro.sim.link import Link
from repro.sim.stats import Histogram

#: Fabric switch ids start here so they never collide with ToR ids.
_FABRIC_ID_BASE = 10_000


def _lost(switches: List[EthernetSwitch]) -> int:
    """Packets a row of switches lost: queue drops, plus blackholed
    ECMP paths and dead-device drops (the latter two only under faults)."""
    return sum(s.dropped + s.blackholed + s.dead_drops for s in switches)


class PushFabricNetwork(FabricNetwork):
    """Ethernet ECMP strawman: push packets, drop on congestion.

    Ethernet switches wired like a Stardust topology.
    """

    fabric_name = "push"
    config_cls = EthConfig

    # ------------------------------------------------------------------
    # Topology construction (plan replay)
    # ------------------------------------------------------------------
    def _build(self, plan: WiringPlan) -> None:
        self.tors: List[EthernetSwitch] = []
        self.fabric: List[EthernetSwitch] = []
        self._switch_by_element: Dict[int, EthernetSwitch] = {}
        for op in plan.ops:
            if isinstance(op, EdgeNode):
                self.tors.append(
                    self._new_switch(op.edge_id, f"tor{op.edge_id}", 0)
                )
            elif isinstance(op, ElementNode):
                self._new_fabric_switch(plan, op)
            else:
                lower = (
                    self.tors[op.lower[1]]
                    if op.lower[0] == EDGE
                    else self._switch_by_element[op.lower[1]]
                )
                self._connect(lower, self._switch_by_element[op.upper[1]])
        self._install_routes(plan)

    def _new_switch(self, sid: int, name: str, tier: int) -> EthernetSwitch:
        return EthernetSwitch(self.sim, self.config, sid, name, tier=tier)

    def _new_fabric_switch(self, plan: WiringPlan, node: ElementNode) -> None:
        # Two-plus-tier fabrics name their top row "spine"; a one-tier
        # fabric's single row keeps the historical "agg" name.
        role = "spine" if plan.tiers > 1 and node.tier == plan.tiers else "agg"
        sw = self._new_switch(
            _FABRIC_ID_BASE + node.element_id,
            f"{role}{node.element_id}",
            node.tier,
        )
        sw.sample_queues = node.sample_queues
        self.fabric.append(sw)
        self._switch_by_element[node.element_id] = sw

    def _connect(self, lower: EthernetSwitch, upper: EthernetSwitch) -> None:
        """Full-duplex fabric link between two switches."""
        up, down = self._duplex_links(lower, upper)
        lower.add_port(up, "up", neighbor=upper.switch_id)
        upper.add_port(down, "down", neighbor=lower.switch_id)

    def _install_routes(self, plan: WiringPlan) -> None:
        """Install down-routes from the plan's route descriptions.

        An element reaches an edge through every down port whose
        neighbor is named in the route's via-set; destinations without
        a down route fall back to the up ports at forwarding time
        (:meth:`EthernetSwitch.route`), so the plan's
        ``up_reaches_everything`` flag needs no explicit state here.
        """
        for node in plan.elements:
            sw = self._switch_by_element[node.element_id]
            by_neighbor: Dict[DeviceId, List[EthPort]] = {}
            for port in sw.eth_ports:
                if port.direction == "down":
                    by_neighbor.setdefault(port.neighbor, []).append(port)
            for edge_id, vias in plan.routes[node.element_id].down:
                for kind, neighbor_id in vias:
                    sid = (
                        neighbor_id if kind == EDGE
                        else _FABRIC_ID_BASE + neighbor_id
                    )
                    for port in by_neighbor[sid]:
                        sw.add_down_route(edge_id, port)

    # ------------------------------------------------------------------
    # Hosts
    # ------------------------------------------------------------------
    def _edge_device(self, index: int) -> EthernetSwitch:
        return self.tors[index]

    def _register_host_port(
        self, tor: EthernetSwitch, to_host: Link, address: PortAddress
    ) -> None:
        tor.add_port(to_host, "host", host_port_index=address.port)

    # ------------------------------------------------------------------
    # Fault surface (see repro.faults)
    # ------------------------------------------------------------------
    def edge_devices(self) -> List[EthernetSwitch]:
        """ToR switches, in edge-id order."""
        return list(self.tors)

    def fabric_devices(self) -> List[EthernetSwitch]:
        """Fabric switches in wiring-plan order (tier 1 first)."""
        return list(self.fabric)

    def edge_uplinks(self, index: int) -> List[Link]:
        """ToR ``index``'s uplinks toward the first fabric tier."""
        return [p.out for p in self.tors[index].up_ports]

    def fabric_links(self) -> List[Link]:
        """Every fabric-side simplex link (host ports excluded)."""
        return [
            p.out
            for sw in (*self.tors, *self.fabric)
            for p in sw.eth_ports
            if p.direction != "host"
        ]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _collect_metrics(self) -> FabricMetrics:
        """The unified metrics snapshot (queue depths are in bytes).

        The push fabric stamps no cells, so the latency histograms stay
        empty — flow completion times live with the transport trackers.
        """
        queue_depth = Histogram("push.queue_bytes")
        for sw in self.fabric:
            queue_depth.merge(sw.queue_depth)
        return FabricMetrics(
            fabric=self.fabric_name,
            cell_latency_ns=Histogram("push.cell_latency_ns"),
            packet_latency_ns=Histogram("push.packet_latency_ns"),
            queue_depth=queue_depth,
            queue_depth_unit="bytes",
            ingress_drops=_lost(self.tors),
            fabric_drops=self.fabric_drop_count(),
            delivered_bytes=self.delivered_bytes(),
        )

    def fabric_drop_count(self) -> int:
        """Packets lost in the fabric proper (§5.2's complaint)."""
        return _lost(self.fabric)

    def delivered_bytes(self) -> int:
        """Payload bytes handed to hosts across all ToR host ports.

        Counted in payload bytes (not wire bytes), matching the
        Stardust fabric's accounting so cross-fabric
        ``FabricMetrics.delivered_bytes`` comparisons are
        apples-to-apples.
        """
        return sum(tor.delivered_host_bytes for tor in self.tors)

    # ------------------------------------------------------------------
    # Resilience surface
    # ------------------------------------------------------------------
    def blackholed(self) -> Tuple[int, int]:
        """Packets ECMP hashed onto a dead path during the rehash
        window, and the distinct flows they belonged to."""
        switches = (*self.tors, *self.fabric)
        flows: Set[int] = set()
        for sw in switches:
            flows |= sw.blackholed_flow_ids
        return sum(sw.blackholed for sw in switches), len(flows)

    # ------------------------------------------------------------------
    # Telemetry surface (see repro.telemetry)
    # ------------------------------------------------------------------
    def _register_fabric_probes(self, collector) -> None:
        """Push-fabric probes: output-queue bytes (the congestion signal
        this fabric drops on), cumulative drops, in-flight frames."""
        switches = [*self.tors, *self.fabric]
        # Port lists are walked at sample time: host-facing ToR ports
        # are attached *after* probe registration.
        collector.add_probe(
            "push.queued_bytes",
            lambda: sum(
                p.out.queued_bytes for sw in switches for p in sw.eth_ports
            ),
            unit="bytes",
        )
        collector.add_probe(
            "push.inflight_frames",
            lambda: sum(
                p.out.in_flight_frames
                for sw in switches
                for p in sw.eth_ports
            ),
            unit="frames",
        )
        collector.add_probe(
            "push.dropped_frames",
            lambda: sum(sw.dropped for sw in switches),
            unit="frames",
        )
        if collector.config.per_link:
            fabric_ports = [
                p.out
                for sw in switches
                for p in sw.eth_ports
                if p.direction != "host"
            ]
            collector.add_dynamic_probe(
                "link",
                lambda: {
                    port.name: port.queued_bytes for port in fabric_ports
                },
                unit="bytes",
            )
