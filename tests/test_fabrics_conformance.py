"""Conformance suite for the fabric contract (repro.fabrics).

Every registered fabric runs through the same topology x workload
matrix and must satisfy the same contract: build through the registry,
attach hosts, run, and report a well-formed
:class:`~repro.fabrics.base.FabricMetrics`.  Stardust additionally
must stay lossless inside the fabric, and every fabric must be
deterministic in-process (hermetic runs of the same spec are
bit-identical).  The contract's own surfaces — device liveness, the
two cheap counters, the resilience answers — are checked per
registered fabric, and an AST walk keeps consumers from growing
``hasattr`` probes back.  Every fabric is built by the one contract
constructor and wires the same links, a spec reaches every config
field, and a census keeps config fields that nothing sets from coming
back.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from repro.baselines.ethernet import EthConfig
from repro.core.config import StardustConfig
from repro.experiments.builders import build_network
from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec
from repro.experiments.spec import ScenarioSpec, TopologySpec
from repro.fabrics import (
    FabricMetrics,
    FabricNetwork,
    PushFabricNetwork,
    StardustNetwork,
    UnknownFabricError,
    fabric_names,
    get_fabric,
)
from repro.fabrics.wiring import FABRIC_PROPAGATION_NS, HOST_PROPAGATION_NS
from repro.net.addressing import PortAddress
from repro.sim.entity import Device
from repro.sim.stats import Histogram
from repro.sim.units import gbps

TOPOLOGIES = {
    "one_tier": TopologySpec(
        "one_tier", dict(num_fas=4, uplinks_per_fa=4, hosts_per_fa=2)
    ),
    "two_tier": TopologySpec(
        "two_tier",
        dict(pods=2, fas_per_pod=2, fes_per_pod=2, spines=2, hosts_per_fa=2),
    ),
    "three_tier": TopologySpec(
        "three_tier",
        dict(
            pods=2, fas_per_pod=2, fes1_per_pod=2, fes2_per_pod=2,
            spines=2, hosts_per_fa=1,
        ),
    ),
}

WORKLOADS = {
    "permutation": {"kind": "permutation"},
    "uniform_random": {"kind": "uniform_random", "utilization": 0.5,
                       "packet_bytes": 1000},
}


def _spec(fabric: str, topo_name: str, workload_name: str) -> ScenarioSpec:
    return ScenarioSpec(
        scenario=f"conformance-{topo_name}-{workload_name}",
        topology=TOPOLOGIES[topo_name],
        fabric=fabric,
        transport="tcp" if workload_name == "permutation" else "none",
        workload=WORKLOADS[workload_name],
        seed=3,
        warmup_ns=50_000,
        measure_ns=150_000,
    )


def _assert_metrics_schema(metrics: FabricMetrics, fabric: str) -> None:
    assert metrics.fabric == get_fabric(fabric).name
    assert isinstance(metrics.cell_latency_ns, Histogram)
    assert isinstance(metrics.packet_latency_ns, Histogram)
    assert isinstance(metrics.queue_depth, Histogram)
    assert metrics.queue_depth_unit in ("cells", "bytes")
    assert isinstance(metrics.ingress_drops, int) and metrics.ingress_drops >= 0
    assert isinstance(metrics.fabric_drops, int) and metrics.fabric_drops >= 0
    assert isinstance(metrics.delivered_bytes, int)
    assert metrics.total_drops == metrics.ingress_drops + metrics.fabric_drops
    summary = metrics.queue_summary()
    if metrics.queue_depth.count:
        unit = metrics.queue_depth_unit
        assert set(summary) == {f"queue_mean_{unit}", f"queue_p99_{unit}"}
    else:
        assert summary == {}


class TestRegistry:
    def test_both_fabrics_registered(self):
        assert fabric_names() == ["push", "stardust"]
        assert get_fabric("stardust").cls is StardustNetwork
        assert get_fabric("push").cls is PushFabricNetwork

    def test_alias_resolves_to_canonical_entry(self):
        assert get_fabric("ethernet") is get_fabric("push")

    def test_unknown_name_lists_known(self):
        with pytest.raises(UnknownFabricError) as excinfo:
            get_fabric("infiniband")
        message = str(excinfo.value)
        assert "infiniband" in message
        assert "stardust" in message and "push" in message

    @pytest.mark.parametrize("name", ["stardust", "push", "ethernet"])
    def test_instantiates_through_registry(self, name):
        net = get_fabric(name).cls(TOPOLOGIES["two_tier"].build())
        assert isinstance(net, FabricNetwork)
        assert net.plan.tiers == 2
        _assert_metrics_schema(net.collect_metrics(), name)

    def test_register_without_docstring_gets_empty_description(self):
        from repro.fabrics import registry as fabric_registry

        @fabric_registry.fabric("tmp-nodoc")
        class NoDoc:
            pass

        try:
            entry = fabric_registry.get_fabric("tmp-nodoc")
            assert entry.cls is NoDoc
            assert entry.description == ""
        finally:
            del fabric_registry._REGISTRY["tmp-nodoc"]

    def test_runner_has_no_fabric_sniffing(self):
        # The acceptance criterion in ISSUE 2: executors must use the
        # typed metrics surface, never duck-type the fabric.
        from repro.experiments import runner

        assert "hasattr" not in inspect.getsource(runner)


class TestConformanceMatrix:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("fabric", fabric_names())
    def test_fabric_runs_and_reports(self, fabric, topo, workload):
        spec = _spec(fabric, topo, workload)
        result = run_spec(spec)  # hermetic: resets flow ids first
        assert result.delivered_bytes > 0
        assert result.sim_time_ns == spec.warmup_ns + spec.measure_ns

        # Build the same fabric directly and check the metrics schema.
        net = get_fabric(fabric).cls(spec.topology.build())
        _assert_metrics_schema(net.collect_metrics(), fabric)

    @pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("fabric", fabric_names())
    def test_in_process_determinism(self, fabric, topo):
        spec = _spec(fabric, topo, "permutation")
        first = run_spec(spec).to_dict()
        second = run_spec(spec).to_dict()
        assert first == second

    def test_push_delivered_bytes_counts_payload(self):
        # delivered_bytes must be payload handed to hosts (Stardust
        # semantics), not wire bytes — cross-fabric comparisons depend
        # on the two fabrics agreeing on the unit.
        from repro.net.addressing import PortAddress
        from tests.conftest import RecordingHost

        net = PushFabricNetwork(TOPOLOGIES["one_tier"].build())
        hosts = {}
        for fa in range(4):
            for port in range(2):
                addr = PortAddress(fa, port)
                host = RecordingHost(net.sim, f"h{fa}.{port}", addr)
                net.attach_host(addr, host)
                hosts[addr] = host
        hosts[PortAddress(0, 0)].send_to(PortAddress(2, 1), 3000)
        net.run(1_000_000)
        assert len(hosts[PortAddress(2, 1)].received) == 1
        assert net.collect_metrics().delivered_bytes == 3000
        assert net.fabric_drop_count() == 0

    @pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
    def test_stardust_fabric_stays_lossless(self, topo):
        # §5.5: the pull fabric never drops a cell; loss, if any, is
        # at the ingress buffers and accounted separately.
        import random

        from repro.experiments.builders import build_network
        from repro.net.flow import reset_flow_ids
        from repro.transport.host import make_hosts
        from repro.workloads.permutation import (
            host_permutation,
            start_permutation_flows,
        )

        reset_flow_ids()
        spec = _spec("stardust", topo, "permutation")
        net = build_network(spec)
        addrs = spec.topology.addresses()
        hosts, _tracker = make_hosts(net, addrs)
        mapping = host_permutation(addrs, random.Random(3))
        start_permutation_flows(hosts, mapping)
        net.run(200_000)
        metrics = net.collect_metrics()
        assert metrics.fabric_drops == 0
        assert metrics.queue_depth_unit == "cells"


def _net_with_hosts(fabric: str, topo: str = "two_tier"):
    """A built fabric with a recording host at every address, plus
    every simplex link in it (fabric links and both host directions)."""
    from tests.conftest import RecordingHost

    spec = TOPOLOGIES[topo]
    net = get_fabric(fabric).cls(spec.build())
    links = list(net.fabric_links())
    for addr in spec.addresses():
        host = RecordingHost(net.sim, f"h{addr.fa}.{addr.port}", addr)
        links.extend(net.attach_host(addr, host))
    return net, links


class TestContractSurfaces:
    @pytest.mark.parametrize("fabric", fabric_names())
    def test_fail_takes_down_exactly_out_links_and_restore_undoes_it(
        self, fabric
    ):
        net, links = _net_with_hosts(fabric)
        devices = [*net.edge_devices(), *net.fabric_devices()]
        assert devices and all(isinstance(d, Device) for d in devices)
        for device in devices:
            owned = device.out_links()
            assert owned, f"{device.name} owns no links"
            assert all(link.src is device for link in owned)
            assert device.alive and device.dead_drops == 0
            device.fail()
            assert not device.alive
            down = [link for link in links if not link.up]
            assert sorted(map(id, down)) == sorted(map(id, owned))
            device.restore()
            assert device.alive
            assert all(link.up for link in links)

    @pytest.mark.parametrize("fabric", fabric_names())
    def test_edge_out_links_cover_the_edge_uplinks(self, fabric):
        net, _links = _net_with_hosts(fabric)
        for index, device in enumerate(net.edge_devices()):
            owned = set(map(id, device.out_links()))
            assert set(map(id, net.edge_uplinks(index))) <= owned

    def test_liveness_is_defined_once(self):
        classes = set()
        for fabric in fabric_names():
            net, _links = _net_with_hosts(fabric)
            classes.update(
                type(d) for d in (*net.edge_devices(), *net.fabric_devices())
            )
        assert len(classes) >= 3
        liveness = {"alive", "dead_drops", "fail", "restore"}
        for cls in classes:
            for klass in cls.__mro__:
                if klass is Device:
                    continue
                defined = set(vars(klass)) | set(
                    vars(klass).get("__slots__", ())
                )
                assert not liveness & defined, (
                    f"{klass.__name__} redefines {liveness & defined}"
                )

    @pytest.mark.parametrize("fabric", fabric_names())
    def test_cheap_counters_equal_the_snapshot_fields(self, fabric):
        net, _links = _net_with_hosts(fabric)
        # Kill one element without telling its neighbors (no injector):
        # they keep sending into it, so in-fabric loss is non-zero on
        # either fabric and neither counter is trivially 0.
        net.fabric_devices()[0].fail()
        addrs = TOPOLOGIES["two_tier"].addresses()
        for src in addrs:
            for dst in addrs:
                if dst.fa != src.fa:
                    net.host_at(src).send_to(dst, 1500)
        net.run(500_000)
        metrics = net.collect_metrics()
        assert metrics.delivered_bytes > 0
        assert metrics.fabric_drops > 0
        assert net.delivered_bytes() == metrics.delivered_bytes
        assert net.fabric_drop_count() == metrics.fabric_drops

    @pytest.mark.parametrize("fabric", fabric_names())
    def test_no_mechanism_answers_zero_or_none(self, fabric):
        # Static Stardust runs no protocol; push has none to run.
        net, _links = _net_with_hosts(fabric)
        src = net.host_at(PortAddress(0, 0))
        src.send_to(PortAddress(3, 1), 4000)
        net.run(200_000)
        assert net.delivered_bytes() == 4000
        assert net.protocol_links_down() == 0
        assert net.blackholed() == (0, 0)
        assert net.analytical_recovery_ns() is None

    def test_host_link_is_what_hosts_attach_at(self):
        for fabric in fabric_names():
            net, links = _net_with_hosts(fabric)
            rate, propagation = net.host_link()
            to_fabric, to_host = links[-2:]
            assert (to_fabric.rate_bps, to_host.rate_bps) == (rate, rate)
            assert to_host.propagation_ns == propagation


class TestWireParity:
    """Figs 7/10/12 compare mechanisms over identical links: every
    fabric built for an experiment wires the same rates and delays."""

    RATE = gbps(25)  # not a constructor default, so it must thread through

    @pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
    def test_every_fabric_wires_the_same_links(self, topo):
        from tests.conftest import RecordingHost

        spec = TOPOLOGIES[topo]
        hints = {}
        for fabric in fabric_names():
            net = get_fabric(fabric).cls.for_experiment(spec.build(), self.RATE)
            wires = {(link.rate_bps, link.propagation_ns)
                     for link in net.fabric_links()}
            assert wires == {(self.RATE, FABRIC_PROPAGATION_NS)}, fabric
            host_links = []
            for addr in spec.addresses():
                host = RecordingHost(net.sim, f"h{addr.fa}.{addr.port}", addr)
                host_links.extend(net.attach_host(addr, host))
            wires = {(link.rate_bps, link.propagation_ns)
                     for link in host_links}
            assert wires == {(self.RATE, HOST_PROPAGATION_NS)}, fabric
            hints[fabric] = net.telemetry_hints()
        first = hints[fabric_names()[0]]
        assert first and all(h == first for h in hints.values()), hints

    def test_a_spec_reaches_every_fabric_knob(self):
        # Spray mode is a config field like any other: a scenario
        # override reaches every arbiter, FA and FE alike.
        spec = build_scenario(
            "uniform_random", kind="stardust", spray_mode="random"
        )
        net = build_network(spec)
        devices = (*net.fas, *net.fes)
        assert {device._spray.mode for device in devices} == {"random"}


# ----------------------------------------------------------------------
# Consumers do not sniff: an AST walk over everything downstream
# ----------------------------------------------------------------------

_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
_CONSUMERS = ("faults", "workloads", "experiments", "telemetry")

#: (file, enclosing function, getattr's literal name or None) — every
#: dynamic attribute read the consumer packages are allowed, spelled
#: out.  None is a computed name (a dispatch or a field walk over the
#: module's *own* dataclass, not a probe of someone else's object).
_ALLOWED = {
    # FaultInjector dispatches `_do_<kind>` on itself.
    ("faults/injector.py", "_apply", None),
    # FaultEvent walks its own coordinate fields.
    ("faults/plan.py", "__post_init__", None),
    ("faults/plan.py", "to_dict", None),
    # field_table walks the spec dataclasses' own fields.
    ("experiments/spec.py", "plain_fields", None),
    # argparse namespaces: sub-commands share one parser helper.
    ("experiments/__main__.py", "_build_matrix", "fabric"),
    # Hosts are not part of the fabric contract; open-loop injectors
    # carry no flow tracker.
    ("telemetry/collector.py", "attach_host", "tracker"),
}


def _dynamic_reads(path: Path):
    """(function, literal-or-None, lineno) for each hasattr/getattr."""
    tree = ast.parse(path.read_text())
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("hasattr", "getattr")
        ):
            continue
        scope = node
        while scope in parents and not isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            scope = parents[scope]
        function = getattr(scope, "name", "<module>")
        name = node.args[1] if len(node.args) > 1 else None
        literal = name.value if isinstance(name, ast.Constant) else None
        yield node.func.id, function, literal, node.lineno


def test_consumers_do_not_sniff_fabrics_or_devices():
    offenders = []
    seen = set()
    for package in _CONSUMERS:
        for path in sorted((_SRC / package).rglob("*.py")):
            rel = path.relative_to(_SRC).as_posix()
            for call, function, literal, lineno in _dynamic_reads(path):
                key = (rel, function, literal)
                if call == "getattr" and key in _ALLOWED:
                    seen.add(key)
                else:
                    offenders.append(f"{rel}:{lineno} {call}(..., {literal!r})")
    assert offenders == [], "consumer-side attribute probes: " + "; ".join(
        offenders
    )
    assert seen == _ALLOWED, f"stale allow-list entries: {_ALLOWED - seen}"


@pytest.mark.parametrize("fabric", fabric_names())
def test_fabrics_construct_through_the_contract(fabric):
    """One constructor: a fabric names its ``config_cls`` and writes
    ``_build``; construction, host links and ``for_experiment`` are the
    contract's."""
    cls = get_fabric(fabric).cls
    assert cls.__init__ is FabricNetwork.__init__
    assert cls.host_link is FabricNetwork.host_link
    net = cls(TOPOLOGIES["one_tier"].build())
    assert type(net.config) is cls.config_cls


def test_for_experiment_is_written_once():
    contract = FabricNetwork.for_experiment.__func__
    assert PushFabricNetwork.for_experiment.__func__ is contract
    # Stardust's override adds only the dynamic-mode convergence
    # pre-run: static builds start at t=0 with the contract's config.
    topology = TOPOLOGIES["one_tier"].build()
    static = StardustNetwork.for_experiment(topology, cell_size_bytes=384)
    assert static.sim.now == 0
    assert static.config == contract(
        StardustNetwork, topology, cell_size_bytes=384
    ).config
    dynamic = StardustNetwork.for_experiment(topology, reachability="dynamic")
    assert dynamic.sim.now == 10 * dynamic.config.reachability_period_ns


# ----------------------------------------------------------------------
# Options census: a config field nothing sets is a constant in disguise
# ----------------------------------------------------------------------

_REPO = _SRC.parent.parent
_CENSUS_ROOTS = ("src", "tests", "benchmarks", "examples")


def _names_set(path: Path):
    """Names ``path`` sets as a keyword argument or a literal dict key
    (in a dict display, a subscript assignment or ``setdefault``)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.keyword):
            if node.arg:  # None for a ``**mapping`` splat
                yield node.arg
            continue
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Store
        ):
            keys = [node.slice]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setdefault"
            and node.args
        ):
            keys = node.args[:1]
        else:
            continue
        for key in keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield key.value


@pytest.mark.parametrize("config_cls", [StardustConfig, EthConfig])
def test_every_config_field_is_set_somewhere(config_cls):
    """A field must be set outside its defining module; one that never
    is belongs in the module's fixed values, not in the config.  The
    match is by name, so a same-named keyword anywhere counts."""
    defining = Path(inspect.getsourcefile(config_cls)).resolve()
    set_names = set()
    for root in _CENSUS_ROOTS:
        for path in sorted((_REPO / root).rglob("*.py")):
            if path.resolve() != defining:
                set_names.update(_names_set(path))
    unset = [f.name for f in fields(config_cls) if f.name not in set_names]
    assert unset == [], f"{config_cls.__name__} fields nothing sets: {unset}"
