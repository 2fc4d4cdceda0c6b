"""The fabric contract: :class:`FabricNetwork` + :class:`FabricMetrics`.

Both fabric backends — the Stardust cell fabric and the push/ECMP
baseline — satisfy the same contract:

* construction from ``(topology_spec, config, link_rate_bps)`` — a
  ``config_cls`` instance, one rate for every link — with the wiring
  derived from a shared :class:`~repro.fabrics.wiring.WiringPlan`;
* host attachment (:meth:`FabricNetwork.attach_host` /
  :meth:`FabricNetwork.host_at`) and run control
  (:meth:`FabricNetwork.run` / :meth:`FabricNetwork.stop`);
* one typed metrics surface, :meth:`FabricNetwork.collect_metrics`,
  returning a :class:`FabricMetrics` with explicit units, plus the two
  counters cheap enough to poll (:meth:`FabricNetwork.delivered_bytes`,
  :meth:`FabricNetwork.fabric_drop_count`);
* the fault surface (devices and links by topology coordinate, every
  device a :class:`~repro.sim.entity.Device`) and the resilience
  surface (:meth:`FabricNetwork.protocol_links_down`,
  :meth:`FabricNetwork.blackholed`,
  :meth:`FabricNetwork.analytical_recovery_ns`).

Consumers — ``repro.faults``, ``repro.workloads``, ``repro.telemetry``,
``repro.experiments``, the benchmarks — talk to nothing else: no
per-fabric method sets, nothing to sniff with ``hasattr``
(``tests/test_fabrics_conformance.py`` keeps it that way).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    List,
    Optional,
    Self,
    Sequence,
    Tuple,
)

from repro.fabrics.wiring import (
    FABRIC_PROPAGATION_NS,
    HOST_PROPAGATION_NS,
    AnyTopologySpec,
    WiringPlan,
    build_wiring_plan,
)
from repro.net.addressing import PortAddress
from repro.sim.engine import Simulator
from repro.sim.entity import Device, Entity
from repro.sim.link import Link
from repro.sim.stats import Histogram
from repro.sim.units import gbps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.metrics import ResilienceMetrics
    from repro.telemetry.collector import TelemetryCollector


@dataclass
class FabricMetrics:
    """Everything a run wants to know about a fabric, with units.

    Histograms may be empty when a fabric does not produce the signal
    (the push baseline stamps no cells, so ``cell_latency_ns`` stays
    empty there); counters are always meaningful.
    """

    #: Registry name of the fabric that produced these metrics.
    fabric: str
    #: Fabric-traversal latency of individual cells, in nanoseconds.
    cell_latency_ns: Histogram
    #: Host-to-host packet latency, in nanoseconds.
    packet_latency_ns: Histogram
    #: Queue depths observed at last-stage fabric down-links.
    queue_depth: Histogram
    #: Unit of ``queue_depth`` samples: ``"cells"`` or ``"bytes"``.
    queue_depth_unit: str
    #: Loss at the fabric edge (FA ingress buffers / ToR queues).
    ingress_drops: int
    #: Loss inside the fabric proper (§5.2's complaint about push;
    #: must stay zero for Stardust, §5.5).
    fabric_drops: int
    #: Bytes handed to hosts across all edge egress ports.
    delivered_bytes: int
    #: Resilience section: filled in only when a fault injector is
    #: attached to the network (see :mod:`repro.faults`); ``None`` on
    #: unfaulted runs, so the historical metrics shape is untouched.
    resilience: Optional["ResilienceMetrics"] = field(default=None)

    @property
    def total_drops(self) -> int:
        """All loss inside the network, wherever it happened."""
        return self.ingress_drops + self.fabric_drops

    def queue_summary(self) -> Dict[str, float]:
        """Mean/p99 queue depth keyed with the unit, or {} if unsampled."""
        if self.queue_depth.count == 0:
            return {}
        unit = self.queue_depth_unit
        return {
            f"queue_mean_{unit}": self.queue_depth.mean(),
            f"queue_p99_{unit}": self.queue_depth.pct(99),
        }

    def resilience_summary(self) -> Dict[str, float]:
        """Flat resilience entries for result metrics ({} if unfaulted)."""
        if self.resilience is None:
            return {}
        return self.resilience.summary()


class FabricNetwork(ABC):
    """A fully wired fabric plus host attachment points.

    Subclasses name their config dataclass in ``config_cls`` and
    implement :meth:`_build` (replay the wiring plan with their own
    device types), the small host-attachment hooks, and
    :meth:`collect_metrics`.  A row of :data:`repro.fabrics.FABRICS`
    makes it constructible by name from scenario specs.
    """

    #: The class's key in :data:`repro.fabrics.FABRICS`.
    fabric_name: ClassVar[str] = ""
    #: The fabric's config dataclass; ``config=None`` means its defaults.
    config_cls: ClassVar[type]
    #: Config fields :meth:`for_experiment` sets before the overrides.
    experiment_defaults: ClassVar[Dict[str, object]] = {}

    def __init__(
        self,
        spec: AnyTopologySpec,
        config: Any = None,
        link_rate_bps: int = gbps(50),
    ) -> None:
        self.spec = spec
        self.config = self.config_cls() if config is None else config
        #: Rate of every link, fabric and host: the fabrics compared in
        #: Figs 7, 10 and 12 differ in mechanism, never in wires.
        self.link_rate_bps = link_rate_bps
        self.sim = Simulator()
        self.plan: WiringPlan = build_wiring_plan(spec)
        self._host_sinks: Dict[PortAddress, Entity] = {}
        #: Set by :meth:`attach_faults`; ``None`` on unfaulted runs.
        self.fault_injector: Optional["FaultInjector"] = None
        #: Set by :func:`repro.telemetry.collector.attach_collector`;
        #: ``None`` on uninstrumented runs.
        self.telemetry: Optional["TelemetryCollector"] = None
        self._build(self.plan)

    # ------------------------------------------------------------------
    # Construction contract
    # ------------------------------------------------------------------
    @abstractmethod
    def _build(self, plan: WiringPlan) -> None:
        """Create devices and links by replaying ``plan.ops`` in order."""

    @classmethod
    def for_experiment(
        cls,
        topology: AnyTopologySpec,
        rate: int = gbps(10),
        **config_overrides: object,
    ) -> Self:
        """Build this fabric at experiment scale.

        ``rate`` is every link's rate; ``config_overrides`` are fields
        of ``config_cls`` and win over ``experiment_defaults``.  This is
        the constructor scenario specs resolve to.
        """
        config = cls.config_cls(**{**cls.experiment_defaults, **config_overrides})
        return cls(topology, config=config, link_rate_bps=rate)

    # ------------------------------------------------------------------
    # Host attachment (shared; subclasses fill in the edge hooks)
    # ------------------------------------------------------------------
    @abstractmethod
    def _edge_device(self, index: int) -> Entity:
        """The edge device (FA / ToR) with edge id ``index``."""

    def host_link(self) -> Tuple[int, int]:
        """``(rate_bps, propagation_ns)`` of host attachment links."""
        return self.link_rate_bps, HOST_PROPAGATION_NS

    @abstractmethod
    def _register_host_port(
        self, device: Entity, to_host: Link, address: PortAddress
    ) -> None:
        """Record ``to_host`` as ``device``'s port for ``address``."""

    def _check_host_attach(
        self, device: Entity, address: PortAddress
    ) -> None:
        """Fabric-specific attach validation (default: none)."""

    def _duplex_links(
        self, lower: Entity, upper: Entity,
        propagation_ns: int = FABRIC_PROPAGATION_NS,
    ) -> Tuple[Link, Link]:
        """The two simplex links of one full-duplex link, named
        ``lower->upper`` / ``upper->lower`` (up first, then down)."""
        up = Link(
            self.sim, lower, upper, self.link_rate_bps, propagation_ns,
            name=f"{lower.name}->{upper.name}",
        )
        down = Link(
            self.sim, upper, lower, self.link_rate_bps, propagation_ns,
            name=f"{upper.name}->{lower.name}",
        )
        return up, down

    def attach_host(
        self, address: PortAddress, host: Entity
    ) -> Tuple[Link, Link]:
        """Attach ``host`` at ``address``; returns (to_fabric, to_host).

        The host sends packets on the first returned link; the edge
        device delivers reassembled packets on the second.
        """
        if address in self._host_sinks:
            raise ValueError(f"host already attached at {address}")
        device = self._edge_device(address.fa)
        self._check_host_attach(device, address)
        to_fabric, to_host = self._duplex_links(
            host, device, HOST_PROPAGATION_NS
        )
        host.attach_port(to_fabric)
        self._register_host_port(device, to_host, address)
        self._host_sinks[address] = host
        return to_fabric, to_host

    def host_at(self, address: PortAddress) -> Entity:
        """The host entity attached at ``address``."""
        return self._host_sinks[address]

    @property
    def host_count(self) -> int:
        """Number of attached hosts."""
        return len(self._host_sinks)

    # ------------------------------------------------------------------
    # Running & metrics
    # ------------------------------------------------------------------
    def run(self, duration_ns: int) -> None:
        """Advance the simulation by ``duration_ns``."""
        self.sim.run_for(duration_ns)

    def stop(self) -> None:
        """Stop all periodic device tasks (teardown; default: none)."""

    def collect_metrics(self) -> FabricMetrics:
        """The fabric's typed metrics snapshot (cumulative since t=0).

        Subclasses implement :meth:`_collect_metrics`; when a fault
        injector is attached its resilience section is stamped onto the
        snapshot here, fabric-agnostically.
        """
        metrics = self._collect_metrics()
        if self.fault_injector is not None:
            metrics.resilience = self.fault_injector.resilience_metrics()
        return metrics

    @abstractmethod
    def _collect_metrics(self) -> FabricMetrics:
        """Build the fabric-specific :class:`FabricMetrics` snapshot."""

    # ------------------------------------------------------------------
    # Fault surface (see repro.faults)
    # ------------------------------------------------------------------
    def attach_faults(self, injector: "FaultInjector") -> None:
        """Register the fault injector whose resilience metrics ride
        this network's :meth:`collect_metrics` snapshots."""
        if self.fault_injector is not None:
            raise ValueError("a fault injector is already attached")
        self.fault_injector = injector

    @abstractmethod
    def edge_devices(self) -> Sequence[Device]:
        """Edge devices (FAs / ToRs) in edge-id order."""

    @abstractmethod
    def fabric_devices(self) -> Sequence[Device]:
        """Fabric elements/switches in wiring-plan (tier-major) order."""

    @abstractmethod
    def edge_uplinks(self, index: int) -> List[Link]:
        """Edge device ``index``'s fabric-facing links, in wiring order."""

    @abstractmethod
    def fabric_links(self) -> List[Link]:
        """Every fabric-side simplex link (host links excluded)."""

    # ------------------------------------------------------------------
    # Cheap counters: what samplers and probes poll mid-run
    # ------------------------------------------------------------------
    @abstractmethod
    def fabric_drop_count(self) -> int:
        """``collect_metrics().fabric_drops`` as a direct counter sum."""

    @abstractmethod
    def delivered_bytes(self) -> int:
        """``collect_metrics().delivered_bytes`` as a direct counter sum."""

    # ------------------------------------------------------------------
    # Resilience surface: a fabric without the mechanism answers 0 / None
    # ------------------------------------------------------------------
    def protocol_links_down(self) -> int:
        """Links a reachability protocol has declared down, cumulative."""
        return 0

    def blackholed(self) -> Tuple[int, int]:
        """``(packets, distinct flows)`` forwarded onto a dead path
        before routing caught up with a failure."""
        return 0, 0

    def analytical_recovery_ns(self) -> Optional[float]:
        """Appendix E recovery time for this fabric's protocol
        parameters (``None``: no self-healing protocol to predict)."""
        return None

    # ------------------------------------------------------------------
    # Telemetry surface (see repro.telemetry)
    # ------------------------------------------------------------------
    def register_probes(self, collector: "TelemetryCollector") -> None:
        """Register this fabric's time-series probes on ``collector``.

        The shared part covers what every fabric has — drop counters
        and delivered bytes; fabric-specific signals (VOQ depths,
        credit balances, link occupancy) come from
        :meth:`_register_fabric_probes` overrides.
        """
        collector.add_probe(
            "fabric.drops", self.fabric_drop_count, unit="frames"
        )
        self._register_fabric_probes(collector)

    def _register_fabric_probes(self, collector: "TelemetryCollector") -> None:
        """Fabric-specific probes (default: none)."""

    def telemetry_hints(self) -> Dict[str, int]:
        """Constants the FCT breakdown needs: ``link_rate_bps`` (edge
        link speed) and ``propagation_ns`` (a host-to-host estimate:
        two host links and an up-and-down traversal of every tier)."""
        rate_bps, host_propagation_ns = self.host_link()
        return {
            "link_rate_bps": rate_bps,
            "propagation_ns": (
                2 * host_propagation_ns
                + 2 * self.plan.tiers * FABRIC_PROPAGATION_NS
            ),
        }
