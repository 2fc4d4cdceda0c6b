"""Fabric-agnostic topology specs and the wiring plan they compile to.

The topology dataclasses (:class:`OneTierSpec`, :class:`TwoTierSpec`,
:class:`ThreeTierSpec`) describe the *shape* of a fabric — counts of
edge devices, fabric elements per tier, pods, spines.  They say nothing
about the switching mechanism, which is exactly why both the Stardust
cell fabric and the push/ECMP baseline can be built from the same spec
(the paper's mechanism-vs-mechanism comparisons of Figs 7/10/12 depend
on that).

:func:`build_wiring_plan` compiles a spec into an explicit
:class:`WiringPlan`: an ordered sequence of node and duplex-link
operations plus per-element down-route descriptions.  Concrete fabrics
replay the operations with their own device types and install routes
from the plan instead of re-deriving the topology with per-tier special
cases.  There are two planners, because there are two op orders: the
single row (:func:`_plan_one_tier`) and pods under a spine row
(:func:`_plan_pods`, which two- and three-tier specs feed with their
per-pod rows as data).  The operation order is part of the contract —
replaying it
reproduces the historical construction order bit for bit, which keeps
seeded runs identical across refactors.

Every physical link is an independent serial link (link bundle of one,
the paper's core scaling argument), and every fabric wires it with the
same propagation delay: :data:`FABRIC_PROPAGATION_NS` between fabric
nodes, :data:`HOST_PROPAGATION_NS` to a host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

#: Node-reference kinds used inside a plan.  A :data:`NodeRef` is a
#: ``(kind, id)`` pair; ids are dense per kind (edge 0..N-1, element
#: 0..M-1 in creation order).
EDGE = "edge"
ELEMENT = "element"

NodeRef = Tuple[str, int]

#: Fiber propagation delay of every fabric link (edge<->element and
#: element<->element), on every fabric: the paper's comparisons hold
#: the links fixed and vary only the switching mechanism.
FABRIC_PROPAGATION_NS = 100
#: Propagation delay of every host attachment link.
HOST_PROPAGATION_NS = 50


# ----------------------------------------------------------------------
# Topology specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OneTierSpec:
    """FAs directly attached to a single row of Fabric Elements."""

    num_fas: int
    uplinks_per_fa: int
    hosts_per_fa: int
    num_fes: Optional[int] = None  # default: one uplink per FE

    def __post_init__(self) -> None:
        if self.num_fas < 2:
            raise ValueError("need at least two Fabric Adapters")
        if self.uplinks_per_fa < 1 or self.hosts_per_fa < 1:
            raise ValueError("links per device must be positive")
        fes = self.num_fes if self.num_fes is not None else self.uplinks_per_fa
        if fes < 1 or self.uplinks_per_fa % fes != 0:
            raise ValueError("uplinks_per_fa must be a multiple of num_fes")

    @property
    def tiers(self) -> int:
        """Number of fabric tiers in this topology."""
        return 1

    @property
    def fe_count(self) -> int:
        """Number of Fabric Elements in the single tier."""
        return self.num_fes if self.num_fes is not None else self.uplinks_per_fa


@dataclass(frozen=True)
class TwoTierSpec:
    """Pods of (FAs x tier-1 FEs) under a spine row of tier-2 FEs.

    Within a pod every FA has one link to every tier-1 FE; every tier-1
    FE has one uplink to every spine.  This mirrors the §6.2 setup
    (256 FAs, t=32, 128 tier-1 FEs, 64 spines) at configurable scale.
    """

    pods: int
    fas_per_pod: int
    fes_per_pod: int
    spines: int
    hosts_per_fa: int

    def __post_init__(self) -> None:
        if self.pods < 1:
            raise ValueError("need at least one pod")
        if min(self.fas_per_pod, self.fes_per_pod, self.spines) < 1:
            raise ValueError("pod shape must be positive")
        if self.hosts_per_fa < 1:
            raise ValueError("hosts_per_fa must be positive")

    @property
    def tiers(self) -> int:
        """Number of fabric tiers in this topology."""
        return 2

    @property
    def num_fas(self) -> int:
        """Total Fabric Adapters across all pods."""
        return self.pods * self.fas_per_pod

    @property
    def uplinks_per_fa(self) -> int:
        """Fabric uplinks per Fabric Adapter."""
        return self.fes_per_pod


@dataclass(frozen=True)
class ThreeTierSpec:
    """Pods of (FAs x tier-1 x tier-2) under a global tier-3 spine row.

    Within a pod: every FA connects once to every tier-1 FE, every
    tier-1 FE once to every tier-2 FE.  Globally: every tier-2 FE
    connects once to every tier-3 spine.  §5.1: each added tier
    multiplies reach by another factor of the radix — with unbundled
    links, by the full radix.
    """

    pods: int
    fas_per_pod: int
    fes1_per_pod: int
    fes2_per_pod: int
    spines: int
    hosts_per_fa: int

    def __post_init__(self) -> None:
        if self.pods < 1:
            raise ValueError("need at least one pod")
        if min(
            self.fas_per_pod, self.fes1_per_pod,
            self.fes2_per_pod, self.spines,
        ) < 1:
            raise ValueError("pod shape must be positive")
        if self.hosts_per_fa < 1:
            raise ValueError("hosts_per_fa must be positive")

    @property
    def tiers(self) -> int:
        """Number of fabric tiers in this topology."""
        return 3

    @property
    def num_fas(self) -> int:
        """Total Fabric Adapters across all pods."""
        return self.pods * self.fas_per_pod

    @property
    def uplinks_per_fa(self) -> int:
        """Fabric uplinks per Fabric Adapter."""
        return self.fes1_per_pod


#: Any of the topology spec shapes :func:`build_wiring_plan` accepts.
#: (Named to avoid clashing with the serializable scenario-level
#: ``repro.experiments.spec.TopologySpec``.)
AnyTopologySpec = Union[OneTierSpec, TwoTierSpec, ThreeTierSpec]


# ----------------------------------------------------------------------
# Wiring plan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeNode:
    """One edge device (Fabric Adapter / ToR role)."""

    edge_id: int
    pod: Optional[int] = None


@dataclass(frozen=True)
class ElementNode:
    """One fabric-interior device (Fabric Element / fabric switch).

    ``sample_queues`` marks last-stage down-links whose queue depths
    feed the Fig 9 instrumentation.
    """

    element_id: int
    tier: int
    pod: Optional[int] = None
    sample_queues: bool = False


@dataclass(frozen=True)
class LinkPair:
    """One full-duplex link between two already-created nodes."""

    lower: NodeRef
    upper: NodeRef


@dataclass(frozen=True)
class ElementRoutes:
    """Down-route description for one element.

    ``down`` lists ``(edge_id, via)`` pairs: the element reaches
    ``edge_id`` through every one of its ports whose neighbor is in
    ``via`` (port order preserved).  ``up_reaches_everything`` is the
    static-reachability escape hatch: any destination without a down
    route is reachable through every up port.
    """

    up_reaches_everything: bool
    down: Tuple[Tuple[int, Tuple[NodeRef, ...]], ...]


Op = Union[EdgeNode, ElementNode, LinkPair]


@dataclass
class WiringPlan:
    """A topology compiled to explicit build operations and routes."""

    spec: object
    tiers: int
    hosts_per_edge: int
    edges: List[EdgeNode] = field(default_factory=list)
    elements: List[ElementNode] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)
    #: element_id -> its routing description.
    routes: Dict[int, ElementRoutes] = field(default_factory=dict)

    def _add_edge(self, node: EdgeNode) -> None:
        self.edges.append(node)
        self.ops.append(node)

    def _add_element(self, node: ElementNode) -> None:
        self.elements.append(node)
        self.ops.append(node)

    def _link(self, lower: NodeRef, upper: NodeRef) -> None:
        self.ops.append(LinkPair(lower, upper))


def _plan_one_tier(spec: OneTierSpec) -> WiringPlan:
    plan = WiringPlan(spec, tiers=1, hosts_per_edge=spec.hosts_per_fa)
    for fa in range(spec.num_fas):
        plan._add_edge(EdgeNode(fa))
    direct = tuple(
        (fa, ((EDGE, fa),)) for fa in range(spec.num_fas)
    )
    links_per_fe = spec.uplinks_per_fa // spec.fe_count
    for fe in range(spec.fe_count):
        plan._add_element(ElementNode(fe, tier=1, sample_queues=True))
        for fa in range(spec.num_fas):
            for _ in range(links_per_fe):
                plan._link((EDGE, fa), (ELEMENT, fe))
        plan.routes[fe] = ElementRoutes(
            up_reaches_everything=False, down=direct
        )
    return plan


def _plan_pods(
    spec: Union[TwoTierSpec, ThreeTierSpec], rows: Tuple[int, ...]
) -> WiringPlan:
    """Pods under one global spine row; ``rows`` is the per-pod element
    count of each tier below the spines, bottom-up.

    Within a pod every node of a row links once to every element of the
    row above (edges are row zero); every top-row element links once to
    every spine.  A pod element reaches its own pod's edges through the
    whole row below it and everything else through its up ports; a
    spine reaches an edge through every top-row element of its pod.
    """
    plan = WiringPlan(
        spec, tiers=len(rows) + 1, hosts_per_edge=spec.hosts_per_fa
    )
    for fa in range(spec.num_fas):
        plan._add_edge(EdgeNode(fa, pod=fa // spec.fas_per_pod))
    element_id = 0
    top_by_pod: List[Tuple[NodeRef, ...]] = []
    for pod in range(spec.pods):
        pod_edges = range(
            pod * spec.fas_per_pod, (pod + 1) * spec.fas_per_pod
        )
        below: Tuple[NodeRef, ...] = tuple((EDGE, fa) for fa in pod_edges)
        down = tuple((fa, ((EDGE, fa),)) for fa in pod_edges)
        for tier, size in enumerate(rows, start=1):
            row = tuple(
                (ELEMENT, element_id + i) for i in range(size)
            )
            for upper in row:
                plan._add_element(ElementNode(
                    upper[1], tier=tier, pod=pod, sample_queues=tier == 1
                ))
                for lower in below:
                    plan._link(lower, upper)
                plan.routes[upper[1]] = ElementRoutes(
                    up_reaches_everything=True, down=down
                )
            element_id += size
            below = row
            down = tuple((fa, row) for fa in pod_edges)
        top_by_pod.append(below)
    spines = range(element_id, element_id + spec.spines)
    for spine in spines:
        plan._add_element(ElementNode(spine, tier=plan.tiers))
    for top in top_by_pod:
        for lower in top:
            for spine in spines:
                plan._link(lower, (ELEMENT, spine))
    spine_down = tuple(
        (edge.edge_id, top_by_pod[edge.pod]) for edge in plan.edges
    )
    for spine in spines:
        plan.routes[spine] = ElementRoutes(
            up_reaches_everything=False, down=spine_down
        )
    return plan


_PLANNERS = {
    OneTierSpec: _plan_one_tier,
    TwoTierSpec: lambda spec: _plan_pods(spec, (spec.fes_per_pod,)),
    ThreeTierSpec: lambda spec: _plan_pods(
        spec, (spec.fes1_per_pod, spec.fes2_per_pod)
    ),
}


def build_wiring_plan(spec: AnyTopologySpec) -> WiringPlan:
    """Compile a topology spec into its :class:`WiringPlan`."""
    try:
        planner = _PLANNERS[type(spec)]
    except KeyError:
        known = ", ".join(sorted(cls.__name__ for cls in _PLANNERS))
        raise TypeError(
            f"unknown topology spec {type(spec).__name__}; known: {known}"
        ) from None
    return planner(spec)
