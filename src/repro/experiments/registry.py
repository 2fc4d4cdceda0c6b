"""Named, parameterized scenario families.

A *scenario* is a factory that turns keyword parameters into a concrete
:class:`~repro.experiments.spec.ScenarioSpec`.  Registering one::

    @scenario("permutation", description="one long flow per host")
    def permutation(kind="stardust", seed=7, **params) -> ScenarioSpec:
        ...

and building one::

    spec = build_scenario("permutation", kind="dctcp", seed=3)

Every factory accepts at least ``kind`` (a
:data:`~repro.experiments.spec.KIND_PRESETS` shorthand selecting fabric
and transport) and ``seed``.  The pre-seeded families below cover the
paper's evaluation workloads plus a mixed web/storage flow mix built on
:mod:`repro.workloads.distributions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments.spec import ScenarioSpec, TopologySpec, resolve_kind
from repro.faults.plan import (
    FaultPlan,
    element_down,
    element_up,
    link_down,
    link_up,
    random_storm,
)
from repro.sim.engine import KERNEL_GONE
from repro.sim.units import KB, MB, MICROSECOND, MILLISECOND, gbps


class UnknownScenarioError(KeyError):
    """Raised when a scenario name is not in the registry."""

    def __init__(self, name: str, known: List[str]) -> None:
        super().__init__(name)
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return (
            f"unknown scenario {self.name!r}; "
            f"registered: {', '.join(self.known) or '(none)'}"
        )


@dataclass
class ScenarioEntry:
    """One registered scenario factory."""

    name: str
    factory: Callable[..., ScenarioSpec]
    description: str = ""


_REGISTRY: Dict[str, ScenarioEntry] = {}


def scenario(name: str, description: str = ""):
    """Class of decorators registering a factory under ``name``."""

    def register(factory: Callable[..., ScenarioSpec]):
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioEntry(
            name, factory, description or (factory.__doc__ or "").strip()
        )
        return factory

    return register


def get_scenario(name: str) -> ScenarioEntry:
    """The registry entry for ``name`` (UnknownScenarioError if absent)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name, sorted(_REGISTRY)) from None


def build_scenario(name: str, kernel=None, **params) -> ScenarioSpec:
    """Build a concrete spec from the named scenario family.

    ``kernel`` is a remnant ``bench/`` still passes (always ``None``);
    the next benchmark change removes it.
    """
    if kernel is not None:
        raise ValueError(KERNEL_GONE.format(kernel))
    return get_scenario(name).factory(**params)


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Pre-seeded scenario families
# ----------------------------------------------------------------------

#: The standard scaled-down 2-tier fabric used by host-level benches:
#: 8 FAs x 4 hosts at 10G, full bisection (4x10G uplinks per FA).
PERM_TOPOLOGY = TopologySpec(
    "two_tier",
    dict(pods=2, fas_per_pod=4, fes_per_pod=4, spines=4, hosts_per_fa=4),
)


@scenario("permutation", "every host sends one long flow to a distinct host")
def permutation(
    kind: str = "stardust",
    seed: int = 7,
    topology: TopologySpec = PERM_TOPOLOGY,
    warmup_ns: int = 2 * MILLISECOND,
    measure_ns: int = 6 * MILLISECOND,
    rate_bps: int = gbps(10),
    mptcp_subflows: int = 8,
    **overrides,
) -> ScenarioSpec:
    fabric, transport = resolve_kind(kind)
    workload = {"kind": "permutation"}
    if transport == "mptcp":
        workload["mptcp_subflows"] = mptcp_subflows
    return ScenarioSpec(
        scenario="permutation",
        topology=topology,
        fabric=fabric,
        transport=transport,
        workload=workload,
        seed=seed,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        link_rate_bps=rate_bps,
        config_overrides=overrides,
    )


#: A compact three-tier fabric (§5.1: every added tier multiplies
#: reach by the radix) — small enough for smoke benchmarks, deep
#: enough that cross-pod traffic crosses the global spine row.
THREE_TIER_TOPOLOGY = TopologySpec(
    "three_tier",
    dict(
        pods=2, fas_per_pod=2, fes1_per_pod=2, fes2_per_pod=2,
        spines=2, hosts_per_fa=2,
    ),
)


@scenario(
    "permutation_three_tier",
    "permutation throughput on a three-tier fabric (any registered fabric)",
)
def permutation_three_tier(
    kind: str = "stardust",
    seed: int = 7,
    topology: TopologySpec = THREE_TIER_TOPOLOGY,
    **params,
) -> ScenarioSpec:
    spec = permutation(kind=kind, seed=seed, topology=topology, **params)
    return spec.with_updates(scenario="permutation_three_tier")


#: The cells-at-scale three-tier fabric (§5.1 writ large): 4 pods of
#: 8 FAs under two FE tiers and a global spine row, non-blocking end to
#: end (FA: 4x10G up for 4x10G of hosts; FE1: 80G down / 80G up;
#: FE2: 40G / 40G), 32 FAs and 128 hosts total — roughly 20x the event
#: rate of the default two-tier scenario.  Runs this size only became
#: registrable once the calendar-queue engine and cell trains landed.
THREE_TIER_LARGE_TOPOLOGY = TopologySpec(
    "three_tier",
    dict(
        pods=4, fas_per_pod=8, fes1_per_pod=4, fes2_per_pod=8,
        spines=4, hosts_per_fa=4,
    ),
)


@scenario(
    "permutation_three_tier_large",
    "permutation at scale: 128 hosts across a non-blocking three-tier fabric",
)
def permutation_three_tier_large(
    kind: str = "stardust",
    seed: int = 7,
    topology: TopologySpec = THREE_TIER_LARGE_TOPOLOGY,
    warmup_ns: int = 500 * MICROSECOND,
    measure_ns: int = 1500 * MICROSECOND,
    **params,
) -> ScenarioSpec:
    spec = permutation(
        kind=kind, seed=seed, topology=topology,
        warmup_ns=warmup_ns, measure_ns=measure_ns, **params,
    )
    return spec.with_updates(scenario="permutation_three_tier_large")


@scenario(
    "mixed_three_tier_large",
    "web + storage Poisson flow mix at scale on the large three-tier fabric",
)
def mixed_three_tier_large(
    kind: str = "stardust",
    seed: int = 1,
    load: float = 0.4,
    topology: TopologySpec = THREE_TIER_LARGE_TOPOLOGY,
    warmup_ns: int = 500 * MICROSECOND,
    measure_ns: int = 2 * MILLISECOND,
    **params,
) -> ScenarioSpec:
    spec = mixed(
        kind=kind, seed=seed, load=load, topology=topology,
        warmup_ns=warmup_ns, measure_ns=measure_ns, **params,
    )
    return spec.with_updates(scenario="mixed_three_tier_large")


# ----------------------------------------------------------------------
# Failure scenarios (§5.9, §5.10): the resilience claims as experiments
# ----------------------------------------------------------------------


def _fault_overrides(spec: ScenarioSpec, rehash_ns: int) -> dict:
    """Fabric-appropriate failure-model overrides for ``spec``.

    Stardust runs the live reachability protocol so recovery happens at
    protocol speed (and can be compared with Appendix E); the push
    baseline gets a non-zero ECMP rehash delay so flows hashed onto a
    dead path blackhole until routing converges — the §5.10 contrast.
    """
    overrides = dict(spec.config_overrides)
    if spec.fabric == "stardust":
        overrides.setdefault("reachability", "dynamic")
    else:
        overrides.setdefault("ecmp_rehash_ns", rehash_ns)
    return overrides


@scenario(
    "permutation_link_failure",
    "permutation throughput with a mid-run edge-uplink failure + repair",
)
def permutation_link_failure(
    kind: str = "stardust",
    seed: int = 7,
    edge: int = 0,
    uplink: int = 0,
    fail_at_ns: int = 0,  # 0 = one quarter into the measure window
    downtime_ns: int = 0,  # 0 = a quarter of the measure window
    ecmp_rehash_ns: int = 500 * MICROSECOND,
    **params,
) -> ScenarioSpec:
    spec = permutation(kind=kind, seed=seed, **params)
    fail_at = fail_at_ns or spec.warmup_ns + spec.measure_ns // 4
    downtime = downtime_ns or spec.measure_ns // 4
    # 0.8: fault-touched TCP flows re-ramp slowly after repair (their
    # RTOs inflate during the outage), so 80% of the saturated pre-fault
    # baseline is the meaningful "service restored" line for aggregate
    # throughput; fabric-level recovery is reported separately
    # (protocol_detect_ns vs analytical_recovery_ns).
    plan = FaultPlan(
        events=[
            link_down(fail_at, edge, uplink),
            link_up(fail_at + downtime, edge, uplink),
        ],
        recovery_fraction=0.8,
    )
    return spec.with_updates(
        scenario="permutation_link_failure",
        faults=plan.to_dict(),
        config_overrides=_fault_overrides(spec, ecmp_rehash_ns),
    )


@scenario(
    "incast_element_failure",
    "incast absorption while a fabric element dies and comes back",
)
def incast_element_failure(
    kind: str = "stardust",
    seed: int = 1,
    element: int = 0,
    fail_at_ns: int = 100 * MICROSECOND,
    downtime_ns: int = 500 * MICROSECOND,
    ecmp_rehash_ns: int = 200 * MICROSECOND,
    **params,
) -> ScenarioSpec:
    spec = incast(kind=kind, seed=seed, **params)
    plan = FaultPlan(
        events=[
            element_down(fail_at_ns, element),
            element_up(fail_at_ns + downtime_ns, element),
        ],
    )
    overrides = dict(spec.config_overrides)
    if spec.fabric != "stardust":
        overrides.setdefault("ecmp_rehash_ns", ecmp_rehash_ns)
    # Element death is pure spray-eligibility reaction (link.up checks):
    # static reachability shows the local, zero-protocol response.
    return spec.with_updates(
        scenario="incast_element_failure",
        faults=plan.to_dict(),
        config_overrides=overrides,
    )


@scenario(
    "random_fault_storm",
    "permutation under a seeded storm of random short link outages",
)
def random_fault_storm(
    kind: str = "stardust",
    seed: int = 7,
    storm_seed: int = 11,
    count: int = 6,
    downtime_ns: int = 300 * MICROSECOND,
    ecmp_rehash_ns: int = 300 * MICROSECOND,
    **params,
) -> ScenarioSpec:
    spec = permutation(kind=kind, seed=seed, **params)
    start = spec.warmup_ns
    end = spec.warmup_ns + (spec.measure_ns * 3) // 4
    plan = FaultPlan(
        events=[random_storm(start, end, storm_seed, count, downtime_ns)],
        recovery_fraction=0.8,
    )
    return spec.with_updates(
        scenario="random_fault_storm",
        faults=plan.to_dict(),
        config_overrides=_fault_overrides(spec, ecmp_rehash_ns),
    )


@scenario("incast", "all backends answer one frontend at the same instant")
def incast(
    kind: str = "stardust",
    seed: int = 1,
    n_backends: int = 8,
    response_bytes: int = 200 * KB,
    uplinks_per_fa: int = 4,
    timeout_ns: int = 500 * MILLISECOND,
    rate_bps: int = gbps(10),
    mss: int = 1460,
    **overrides,
) -> ScenarioSpec:
    fabric, transport = resolve_kind(kind)
    topology = TopologySpec(
        "one_tier",
        dict(
            num_fas=n_backends + 1,
            uplinks_per_fa=uplinks_per_fa,
            hosts_per_fa=1,
        ),
    )
    # Defaults mirror examples/incast_absorption.py's historical setup:
    # paper-default 256B cells, standard-MTU senders, a deep 32MB
    # distributed ingress buffer vs a shallow drop-tail ToR.
    if fabric == "stardust":
        overrides.setdefault("cell_size_bytes", 256)
        overrides.setdefault("ingress_buffer_bytes", 32 * MB)
    else:
        overrides.setdefault("port_buffer_bytes", 150_000)
        overrides.setdefault("ecn_threshold_bytes", None)
    return ScenarioSpec(
        scenario="incast",
        topology=topology,
        fabric=fabric,
        transport=transport,
        workload={
            "kind": "incast",
            "n_backends": n_backends,
            "response_bytes": response_bytes,
        },
        seed=seed,
        warmup_ns=0,
        measure_ns=timeout_ns,
        link_rate_bps=rate_bps,
        mss=mss,
        config_overrides=overrides,
    )


@scenario("many_to_many", "every host sends a sized flow to every other rack")
def many_to_many(
    kind: str = "stardust",
    seed: int = 1,
    num_fas: int = 4,
    hosts_per_fa: int = 2,
    uplinks_per_fa: int = 4,
    flow_bytes: int = 200 * KB,
    timeout_ns: int = 200 * MILLISECOND,
    rate_bps: int = gbps(10),
    **overrides,
) -> ScenarioSpec:
    fabric, transport = resolve_kind(kind)
    topology = TopologySpec(
        "one_tier",
        dict(
            num_fas=num_fas,
            uplinks_per_fa=uplinks_per_fa,
            hosts_per_fa=hosts_per_fa,
        ),
    )
    return ScenarioSpec(
        scenario="many_to_many",
        topology=topology,
        fabric=fabric,
        transport=transport,
        workload={"kind": "many_to_many", "flow_bytes": flow_bytes},
        seed=seed,
        warmup_ns=0,
        measure_ns=timeout_ns,
        link_rate_bps=rate_bps,
        config_overrides=overrides,
    )


@scenario("uniform_random", "open-loop Poisson traffic to random hosts (Fig 9)")
def uniform_random(
    kind: str = "stardust",
    seed: int = 1,
    utilization: float = 0.7,
    packet_bytes: int = 1000,
    packet_mix: str = "",
    topology: TopologySpec = PERM_TOPOLOGY,
    warmup_ns: int = 1 * MILLISECOND,
    measure_ns: int = 4 * MILLISECOND,
    drain_ns: int = 0,
    rate_bps: int = gbps(10),
    **overrides,
) -> ScenarioSpec:
    fabric, _ = resolve_kind(kind)
    workload = {
        "kind": "uniform_random",
        "utilization": utilization,
        "packet_bytes": packet_bytes,
    }
    if packet_mix:
        workload["packet_mix"] = packet_mix
    if drain_ns:  # run after the injectors stop; counts include it
        workload["drain_ns"] = drain_ns
    return ScenarioSpec(
        scenario="uniform_random",
        topology=topology,
        fabric=fabric,
        transport="none",
        workload=workload,
        seed=seed,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        link_rate_bps=rate_bps,
        config_overrides=overrides,
    )


@scenario("mixed", "Poisson arrivals of web + storage flows (FCT study)")
def mixed(
    kind: str = "stardust",
    seed: int = 1,
    load: float = 0.4,
    web_fraction: float = 0.7,
    storage_workload: str = "hadoop",
    max_flows_per_host: int = 200,
    topology: TopologySpec = PERM_TOPOLOGY,
    warmup_ns: int = 1 * MILLISECOND,
    measure_ns: int = 8 * MILLISECOND,
    rate_bps: int = gbps(10),
    **overrides,
) -> ScenarioSpec:
    fabric, transport = resolve_kind(kind)
    return ScenarioSpec(
        scenario="mixed",
        topology=topology,
        fabric=fabric,
        transport=transport,
        workload={
            "kind": "mixed",
            "load": load,
            "web_fraction": web_fraction,
            "storage_workload": storage_workload,
            "max_flows_per_host": max_flows_per_host,
        },
        seed=seed,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        link_rate_bps=rate_bps,
        config_overrides=overrides,
    )


# ----------------------------------------------------------------------
# Paper figures: each simulated figure's cells, one factory per figure
# ----------------------------------------------------------------------
#
# A figure factory returns a family's spec (or, for the two figure-only
# shapes, a ``blast`` / ``probes`` spec) with the figure's topology,
# windows, seed and overrides, and takes only what the figure varies.
# ``benchmarks/`` runs these cells and asserts the paper's claims.

#: The paper's cell size, which every figure but Fig 10(b) runs at.
FIGURE_CELL_BYTES = 256


@scenario("fig7_push_vs_pull", "Fig 7: an oversubscribed port beside an innocent one")
def fig7_push_vs_pull(
    kind: str = "stardust", seed: int = 1, classes: int = 1
) -> ScenarioSpec:
    """Two sources load port A 2:1 while one loads port B at line rate.

    With ``classes=2`` (Fig 12) A's blasts are class 0 and B's class 1.
    Every blast pre-queues 3 ms of line-rate frames; the run is 6 ms.
    """
    fabric, _ = resolve_kind(kind)
    port_a, port_b = [2, 0], [2, 1]
    if fabric == "stardust":
        overrides = dict(
            cell_size_bytes=FIGURE_CELL_BYTES, traffic_classes=classes
        )
    else:
        overrides = dict(port_buffer_bytes=30_000, ecn_threshold_bytes=None)
    blasts = [
        {"src": [0, 0], "dst": port_a, "flow_ids": list(range(10, 18)),
         "class": 0},
        {"src": [0, 1], "dst": port_b, "flow_ids": [2], "class": classes - 1},
        {"src": [1, 0], "dst": port_a, "flow_ids": list(range(30, 38)),
         "class": 0},
    ]
    return ScenarioSpec(
        scenario="fig7_push_vs_pull",
        topology=TopologySpec(
            "one_tier", dict(num_fas=3, uplinks_per_fa=2, hosts_per_fa=2)
        ),
        fabric=fabric,
        transport="none",
        workload={"kind": "blast", "burst_ns": 3 * MILLISECOND, "blasts": blasts},
        seed=seed,
        warmup_ns=0,
        measure_ns=6 * MILLISECOND,
        link_rate_bps=gbps(10),
        config_overrides=overrides,
    )


@scenario("fig12_traffic_classes", "Fig 12: Fig 7 with A high class, B low")
def fig12_traffic_classes(kind: str = "stardust", seed: int = 1) -> ScenarioSpec:
    spec = fig7_push_vs_pull(kind=kind, seed=seed, classes=2)
    return spec.with_updates(scenario="fig12_traffic_classes")


@scenario("fig9_queueing", "Fig 9: latency and queues under Poisson load")
def fig9_queueing(
    kind: str = "stardust",
    seed: int = 13,
    load: float = 0.66,
    hosts_per_fa: int = 4,
) -> ScenarioSpec:
    """``load`` is the fabric's target wire utilization (§6.2).  The
    injector paces host-wire bytes (1020B per 1000B packet) and the
    fabric carries 240B of payload per 256B cell, so the injection knob
    is scaled by both ratios.  ``hosts_per_fa=5`` puts 5 hosts on 4
    uplinks: 1.25x oversubscribed."""
    topology = TopologySpec(
        "two_tier",
        dict(pods=2, fas_per_pod=4, fes_per_pod=4, spines=4,
             hosts_per_fa=hosts_per_fa),
    )
    spec = uniform_random(
        kind=kind, seed=seed,
        utilization=load * ((256 - 16) / 256 * 1020 / 1000),
        topology=topology, warmup_ns=0, measure_ns=2 * MILLISECOND,
        cell_size_bytes=FIGURE_CELL_BYTES,
    )
    return spec.with_updates(scenario="fig9_queueing")


@scenario("fig10b_fct", "Fig 10(b): Web-flow FCTs under background load")
def fig10b_fct(kind: str = "stardust", seed: int = 3) -> ScenarioSpec:
    """30 sequential Web-size probes between two hosts of a 4-FA fabric
    while the other 14 run long flows; probes start 100us in."""
    fabric, transport = resolve_kind(kind)
    return ScenarioSpec(
        scenario="fig10b_fct",
        topology=TopologySpec(
            "two_tier",
            dict(pods=2, fas_per_pod=2, fes_per_pod=4, spines=4,
                 hosts_per_fa=4),
        ),
        fabric=fabric,
        transport=transport,
        workload={"kind": "probes", "probes": 30},
        seed=seed,
        warmup_ns=100 * MICROSECOND,
        measure_ns=200 * MILLISECOND,
        link_rate_bps=gbps(10),
    )


@scenario("fig10c_incast", "Fig 10(c): incast completion vs backend count")
def fig10c_incast(
    kind: str = "stardust", seed: int = 1, n_backends: int = 4
) -> ScenarioSpec:
    fabric, transport = resolve_kind(kind)
    if fabric == "stardust":
        overrides = dict(ingress_buffer_bytes=32 * MB)
    else:
        overrides = dict(
            port_buffer_bytes=150_000,
            ecn_threshold_bytes=30_000 if transport == "dctcp" else None,
        )
    spec = incast(
        kind=kind, seed=seed, n_backends=n_backends,
        response_bytes=150 * KB, timeout_ns=400 * MILLISECOND, **overrides,
    )
    return spec.with_updates(scenario="fig10c_incast")


@scenario("sec59_self_healing", "§5.9: the live protocol heals a link failure")
def sec59_self_healing(kind: str = "stardust", seed: int = 7) -> ScenarioSpec:
    """One FA uplink down 500us under a 25G permutation on a 4-FA
    one-tier fabric, with the protocol at 10us periods and thresholds
    of 3; the run ends 1ms after the repair."""
    spec = permutation_link_failure(
        kind=kind, seed=seed,
        topology=TopologySpec(
            "one_tier", dict(num_fas=4, uplinks_per_fa=4, hosts_per_fa=1)
        ),
        warmup_ns=500 * MICROSECOND, measure_ns=2 * MILLISECOND,
        rate_bps=gbps(25),
        cell_size_bytes=FIGURE_CELL_BYTES,
        reachability="dynamic",
        reachability_period_ns=10 * MICROSECOND,
        reachability_miss_threshold=3,
        reachability_up_threshold=3,
    )
    return spec.with_updates(scenario="sec59_self_healing")


@scenario("sec612_single_tier", "§6.1.2: one-tier line rate and latency")
def sec612_single_tier(
    kind: str = "stardust", seed: int = 23, packet_bytes: int = 1000
) -> ScenarioSpec:
    spec = uniform_random(
        kind=kind, seed=seed, utilization=0.95, packet_bytes=packet_bytes,
        topology=TopologySpec(
            "one_tier", dict(num_fas=8, uplinks_per_fa=4, hosts_per_fa=4)
        ),
        warmup_ns=0, measure_ns=1 * MILLISECOND, drain_ns=MILLISECOND // 4,
        cell_size_bytes=FIGURE_CELL_BYTES,
    )
    return spec.with_updates(scenario="sec612_single_tier")


@scenario("ablation_packing", "§3.4 ablation: packet packing on vs off")
def ablation_packing(
    kind: str = "stardust",
    seed: int = 41,
    packet_mix: str = "web",
    packet_packing: bool = True,
) -> ScenarioSpec:
    spec = uniform_random(
        kind=kind, seed=seed, utilization=0.5, packet_mix=packet_mix,
        topology=TopologySpec(
            "one_tier", dict(num_fas=6, uplinks_per_fa=4, hosts_per_fa=2)
        ),
        warmup_ns=0, measure_ns=2 * MILLISECOND, drain_ns=MILLISECOND // 2,
        cell_size_bytes=FIGURE_CELL_BYTES, packet_packing=packet_packing,
    )
    return spec.with_updates(scenario="ablation_packing")


@scenario("ablation_speedup", "§4.1 ablation: credit speedup 0 / 2 / 5 %")
def ablation_speedup(
    kind: str = "stardust", seed: int = 53, credit_speedup: float = 0.02
) -> ScenarioSpec:
    spec = uniform_random(
        kind=kind, seed=seed, utilization=0.92 * 240 / 256,
        topology=TopologySpec(
            "one_tier", dict(num_fas=6, uplinks_per_fa=4, hosts_per_fa=4)
        ),
        warmup_ns=0, measure_ns=2 * MILLISECOND, drain_ns=MILLISECOND,
        cell_size_bytes=FIGURE_CELL_BYTES, credit_speedup=credit_speedup,
    )
    return spec.with_updates(scenario="ablation_speedup")


@scenario("ablation_spray", "§5.3 ablation: permutation vs random vs static spray")
def ablation_spray(
    kind: str = "stardust", seed: int = 31, spray_mode: str = "permutation"
) -> ScenarioSpec:
    spec = uniform_random(
        kind=kind, seed=seed, utilization=0.85 * 240 / 256,
        warmup_ns=0, measure_ns=2 * MILLISECOND,
        cell_size_bytes=FIGURE_CELL_BYTES, spray_mode=spray_mode,
    )
    return spec.with_updates(scenario="ablation_spray")

