"""The Stardust cell fabric: the ``"stardust"`` row of ``FABRICS``.

Wires Fabric Adapters and Fabric Elements by replaying the shared
:class:`~repro.fabrics.wiring.WiringPlan`, so one/two/three-tier
construction has no per-tier special cases here; static forwarding
tables are installed straight from the plan's route descriptions.
``StardustConfig.reachability='static'`` installs those tables
directly; ``'dynamic'`` runs the live protocol so failure experiments
can watch the fabric heal itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.resilience import ReachabilityParams, recovery_time_ns
from repro.core.config import CONTROL_HOP_NS, REACHABILITY_CELL_BYTES, StardustConfig
from repro.core.control import ControlPlane
from repro.core.fabric_adapter import FabricAdapter
from repro.core.fabric_element import FabricElement, FabricPort
from repro.core.reachability import ReachabilityMonitor
from repro.fabrics.base import FabricMetrics, FabricNetwork
from repro.fabrics.wiring import (
    EDGE,
    FABRIC_PROPAGATION_NS,
    EdgeNode,
    ElementNode,
    WiringPlan,
)
from repro.net.addressing import DeviceId, PortAddress
from repro.sim.link import Link
from repro.sim.stats import Histogram
from repro.sim.units import gbps


class StardustNetwork(FabricNetwork):
    """The paper's pull fabric: cells, credits, spray (lossless).

    A fully wired Stardust fabric plus host attachment points.
    """

    fabric_name = "stardust"
    config_cls = StardustConfig
    #: 512B cells / 4KB credits (the config default) follow the paper's
    #: own htsim shortcut ("intended to reduce simulation time",
    #: Appendix G).
    experiment_defaults = {"cell_size_bytes": 512}

    @classmethod
    def for_experiment(
        cls,
        topology,
        rate: int = gbps(10),
        **config_overrides,
    ) -> "StardustNetwork":
        """A Stardust fabric at benchmark scale.

        ``reachability='dynamic'`` runs the live protocol — failure
        scenarios use it so the fabric heals itself at protocol speed.
        Dynamic mode pre-runs the simulation for 10 advertisement
        periods so experiments start on a *converged* fabric —
        workloads measure failure response, not boot transients.
        """
        net = super().for_experiment(topology, rate, **config_overrides)
        if net.config.reachability == "dynamic":
            net.sim.run_for(10 * net.config.reachability_period_ns)
        return net

    # ------------------------------------------------------------------
    # Topology construction (plan replay)
    # ------------------------------------------------------------------
    def _build(self, plan: WiringPlan) -> None:
        self.fas: List[FabricAdapter] = []
        self.fes: List[FabricElement] = []
        self._fes_by_id: Dict[DeviceId, FabricElement] = {}
        #: Every device's reachability monitor (dynamic mode; else empty).
        self._monitors: List[ReachabilityMonitor] = []
        self.control = ControlPlane(self.sim, self._control_delay)
        for op in plan.ops:
            if isinstance(op, EdgeNode):
                self._new_fa(op)
            elif isinstance(op, ElementNode):
                self._new_fe(op)
            elif op.lower[0] == EDGE:
                self._connect_fa_fe(
                    self.fas[op.lower[1]], self._fes_by_id[op.upper[1]]
                )
            else:
                self._connect_fe_fe(
                    self._fes_by_id[op.lower[1]], self._fes_by_id[op.upper[1]]
                )
        if self.config.reachability == "dynamic":
            self._monitors = [
                device.enable_protocol() for device in (*self.fas, *self.fes)
            ]
        else:
            self._install_static_routes(plan)
            for fa in self.fas:
                fa.set_static_reachability()

    def _control_delay(self, src: DeviceId, dst: DeviceId) -> int:
        if src == dst:
            return CONTROL_HOP_NS
        hops = 2 * self.plan.tiers
        return hops * (CONTROL_HOP_NS + FABRIC_PROPAGATION_NS)

    def _new_fa(self, node: EdgeNode) -> None:
        fa = FabricAdapter(
            self.sim,
            self.config,
            node.edge_id,
            f"fa{node.edge_id}",
            self.control,
        )
        self.fas.append(fa)

    def _new_fe(self, node: ElementNode) -> None:
        fe = FabricElement(
            self.sim,
            self.config,
            node.element_id,
            node.tier,
            f"fe{node.tier}.{node.element_id}",
        )
        fe.sample_down_queues = node.sample_queues
        if node.pod is not None:
            fe.pod = node.pod
        self.fes.append(fe)
        self._fes_by_id[node.element_id] = fe

    def _connect_fa_fe(self, fa: FabricAdapter, fe: FabricElement) -> None:
        up, down = self._duplex_links(fa, fe)
        fa.add_uplink(up, down)
        fe.add_port(fa.fa_id, down, up, direction="down")

    def _connect_fe_fe(self, lower: FabricElement, upper: FabricElement) -> None:
        up, down = self._duplex_links(lower, upper)
        lower.add_port(upper.fe_id, up, down, direction="up")
        upper.add_port(lower.fe_id, down, up, direction="down")

    def _install_static_routes(self, plan: WiringPlan) -> None:
        """Turn the plan's route descriptions into forwarding tables.

        Ports are indexed by neighbor once per element — O(ports), not
        the O(elements x ports) neighbor scans the per-tier builders
        used to do.
        """
        for node in plan.elements:
            fe = self._fes_by_id[node.element_id]
            routes = plan.routes[node.element_id]
            by_neighbor: Dict[DeviceId, List[FabricPort]] = {}
            for port in fe.down_ports:
                by_neighbor.setdefault(port.neighbor, []).append(port)
            # Edges of one pod share a via-set; expand each set once and
            # share the list (set_static_reachability copies per entry).
            expanded: Dict[tuple, List[FabricPort]] = {}
            down_map: Dict[DeviceId, List[FabricPort]] = {}
            for edge_id, vias in routes.down:
                ports = expanded.get(vias)
                if ports is None:
                    ports = []
                    for _kind, neighbor_id in vias:
                        ports.extend(by_neighbor[neighbor_id])
                    expanded[vias] = ports
                down_map[edge_id] = ports
            fe.set_static_reachability(
                down_map,
                up_reaches_everything=routes.up_reaches_everything,
            )

    # ------------------------------------------------------------------
    # Hosts
    # ------------------------------------------------------------------
    def _edge_device(self, index: int) -> FabricAdapter:
        return self.fas[index]

    def _check_host_attach(self, fa: FabricAdapter, address: PortAddress) -> None:
        if address.port != len(fa.egress_ports):
            raise ValueError(
                f"attach ports in order: expected port "
                f"{len(fa.egress_ports)}, got {address.port}"
            )

    def _register_host_port(
        self, fa: FabricAdapter, to_host: Link, address: PortAddress
    ) -> None:
        fa.add_host_port(to_host)

    # ------------------------------------------------------------------
    # Running & metrics
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop all periodic device tasks (teardown)."""
        for fa in self.fas:
            fa.stop()
        for fe in self.fes:
            fe.stop()

    # ------------------------------------------------------------------
    # Fault surface (see repro.faults)
    # ------------------------------------------------------------------
    def edge_devices(self) -> List[FabricAdapter]:
        """Fabric Adapters, in edge-id order."""
        return list(self.fas)

    def fabric_devices(self) -> List[FabricElement]:
        """Fabric Elements in wiring-plan order (tier 1 first)."""
        return list(self.fes)

    def edge_uplinks(self, index: int) -> List[Link]:
        """FA ``index``'s uplinks toward the first FE tier."""
        return self.fas[index].uplinks

    def fabric_links(self) -> List[Link]:
        """Every fabric-side simplex link: FA->FE plus all FE ports
        (which covers FE->FA and both FE<->FE directions); an FA's
        ``out_links`` leave its host links out."""
        return [
            link
            for device in (*self.fas, *self.fes)
            for link in device.out_links()
        ]

    def _collect_metrics(self) -> FabricMetrics:
        """The unified metrics snapshot (queue depths are in cells)."""
        cell_latency = Histogram("fabric.cell_latency_ns")
        packet_latency = Histogram("fabric.packet_latency_ns")
        for fa in self.fas:
            cell_latency.merge(fa.cell_latency)
            packet_latency.merge(fa.packet_latency)
        # Depths seen at last-stage down-links (Fig 9).
        queue_depth = Histogram("fabric.down_queue_cells")
        for fe in self.fes:
            queue_depth.merge(fe.down_queue_depth)
        return FabricMetrics(
            fabric=self.fabric_name,
            cell_latency_ns=cell_latency,
            packet_latency_ns=packet_latency,
            queue_depth=queue_depth,
            queue_depth_unit="cells",
            ingress_drops=sum(fa.ingress_drops for fa in self.fas),
            fabric_drops=self.fabric_drop_count(),
            delivered_bytes=self.delivered_bytes(),
        )

    def fabric_drop_count(self) -> int:
        """Cells lost inside the fabric (must be zero: lossless, §5.5 —
        except under injected element death, which is honest loss)."""
        return sum(fe.no_route_drops + fe.dead_drops for fe in self.fes)

    def delivered_bytes(self) -> int:
        """Bytes delivered to hosts across all egress ports."""
        return sum(
            port.delivered.total_bytes
            for fa in self.fas
            for port in fa.egress_ports
        )

    # ------------------------------------------------------------------
    # Resilience surface
    # ------------------------------------------------------------------
    def protocol_links_down(self) -> int:
        """Links the reachability monitors have declared down."""
        return sum(m.links_declared_down for m in self._monitors)

    def analytical_recovery_ns(self) -> Optional[float]:
        """Appendix E recovery time for the live protocol's parameters
        (``None`` under static reachability: nothing to predict)."""
        if self.config.reachability != "dynamic":
            return None
        cfg = self.config
        hosts = max(1, self.host_count)
        tiers = self.plan.tiers
        return recovery_time_ns(ReachabilityParams(
            # t' = c / f: pick f = 1GHz so cycles map 1:1 onto ns.
            core_frequency_hz=1_000_000_000,
            cycles_between_messages=cfg.reachability_period_ns,
            message_bytes=REACHABILITY_CELL_BYTES,
            hosts_per_fa=max(1, hosts // len(self.fas)),
            total_hosts=hosts,
            tiers=tiers,
            confirm_threshold=cfg.reachability_miss_threshold,
            link_rate_bps=self.link_rate_bps,
            propagation_ns=(FABRIC_PROPAGATION_NS,) * (2 * tiers - 1),
        ))

    # ------------------------------------------------------------------
    # Telemetry surface (see repro.telemetry)
    # ------------------------------------------------------------------
    def _register_fabric_probes(self, collector) -> None:
        """Stardust's probe set: VOQ/buffer occupancy, credit balances,
        in-flight cells, serializer occupancy.

        Aggregates are always on; ``per_link`` / ``per_voq`` detail
        series are gated by the telemetry config (per-VOQ series appear
        lazily, as the VOQs themselves do).
        """
        fas = self.fas
        collector.add_probe(
            "stardust.voq_bytes",
            lambda: sum(fa.total_queued_bytes() for fa in fas),
            unit="bytes",
        )
        collector.add_probe(
            "stardust.buffer_used_bytes",
            lambda: sum(fa.buffer_pool.used_bytes for fa in fas),
            unit="bytes",
        )
        collector.add_probe(
            "stardust.credit_balance_bytes",
            lambda: sum(fa.total_credit_balance() for fa in fas),
            unit="bytes",
        )
        links = self.fabric_links()
        collector.add_probe(
            "stardust.inflight_cells",
            lambda: sum(link.in_flight_frames for link in links),
            unit="cells",
        )
        collector.add_probe(
            "stardust.serializer_occupancy",
            lambda: sum(link.serializer_occupancy for link in links),
            unit="cells",
        )
        collector.add_probe(
            "stardust.fabric_queued_bytes",
            lambda: sum(link.queued_bytes for link in links),
            unit="bytes",
        )
        collector.add_probe(
            "stardust.egress_queued_bytes",
            lambda: sum(
                port.link.queued_bytes
                for fa in fas
                for port in fa.egress_ports
            ),
            unit="bytes",
        )
        if collector.config.per_link:
            collector.add_dynamic_probe(
                "link",
                lambda: {
                    link.name: link.queued_bytes for link in links
                },
                unit="bytes",
            )
        if collector.config.per_voq:
            def _voq_depths() -> dict:
                out = {}
                for fa in fas:
                    for voq in fa.voqs():
                        nbytes, _packets, credit = voq.snapshot()
                        key = f"fa{fa.fa_id}.{voq.id}"
                        out[f"{key}.bytes"] = nbytes
                        out[f"{key}.credit"] = credit
                return out

            collector.add_dynamic_probe("voq", _voq_depths, unit="bytes")
