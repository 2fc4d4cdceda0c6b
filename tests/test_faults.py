"""The fault-injection subsystem: plans, injector, resilience metrics.

Covers plan validation/serialization, spec integration (hash
stability), injector actions on both fabrics (link/element/edge death,
degraded rate, seeded storms), the push baseline's ECMP rehash
blackholing model, and the zero-cost guarantee for unfaulted runs.
"""

from __future__ import annotations

import pytest

from repro.fabrics import OneTierSpec
from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec, run_spec_with_network
from repro.experiments.spec import ScenarioSpec, TopologySpec, resolve_kind
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultTargetError,
    attach_plan,
    degrade,
    element_down,
    element_up,
    link_down,
    link_up,
)
from repro.fabrics.push import PushFabricNetwork
from repro.fabrics import UnknownFabricError
from repro.fabrics.stardust import StardustNetwork
from repro.net.addressing import PortAddress
from repro.perf.digest import run_digest
from repro.sim.units import MICROSECOND, MILLISECOND, gbps

from tests.conftest import RecordingHost, build_network

ONE_TIER = OneTierSpec(num_fas=4, uplinks_per_fa=4, hosts_per_fa=1)
SMALL_TOPO = TopologySpec(
    "one_tier", dict(num_fas=4, uplinks_per_fa=4, hosts_per_fa=1)
)


def attach_push_hosts(net, spec):
    hosts = {}
    for fa in range(spec.num_fas):
        for port in range(spec.hosts_per_fa):
            addr = PortAddress(fa, port)
            host = RecordingHost(net.sim, f"h{fa}.{port}", addr)
            net.attach_host(addr, host)
            hosts[addr] = host
    return hosts


# ----------------------------------------------------------------------
# FaultPlan / FaultEvent validation and serialization
# ----------------------------------------------------------------------


class TestPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meteor_strike", 0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="at_ns"):
            FaultEvent("link_down", -1, edge=0, uplink=0)

    def test_missing_required_fields_listed(self):
        with pytest.raises(ValueError, match="edge, uplink"):
            FaultEvent("link_down", 0)

    def test_negative_coordinates_rejected(self):
        # Negative indices would silently resolve onto the wrong
        # device via Python negative indexing.
        with pytest.raises(ValueError, match="edge must be >= 0"):
            link_down(0, edge=-1, uplink=0)
        with pytest.raises(ValueError, match="uplink must be >= 0"):
            link_down(0, edge=0, uplink=-2)
        with pytest.raises(ValueError, match="element must be >= 0"):
            element_down(0, element=-1)

    def test_degrade_needs_valid_factor_and_interval(self):
        with pytest.raises(ValueError, match="factor"):
            degrade(0, 10, edge=0, uplink=0, factor=1.5)
        with pytest.raises(ValueError, match="until_ns"):
            degrade(10, 10, edge=0, uplink=0, factor=0.5)

    def test_storm_validates_count_and_downtime(self):
        with pytest.raises(ValueError, match="count"):
            FaultEvent(
                "random_storm", 0, until_ns=10, seed=1, count=0,
                downtime_ns=5,
            )
        with pytest.raises(ValueError, match="downtime"):
            FaultEvent(
                "random_storm", 0, until_ns=10, seed=1, count=1,
                downtime_ns=0,
            )

    def test_plan_needs_a_disruptive_event(self):
        with pytest.raises(ValueError, match="at least one event"):
            FaultPlan(events=[])
        with pytest.raises(ValueError, match="disruptive"):
            FaultPlan(events=[link_up(5, 0, 0)])

    def test_plan_knob_validation(self):
        events = [link_down(5, 0, 0)]
        with pytest.raises(ValueError, match="sample_period"):
            FaultPlan(events=events, sample_period_ns=0)
        with pytest.raises(ValueError, match="recovery_fraction"):
            FaultPlan(events=events, recovery_fraction=1.5)
        with pytest.raises(ValueError, match="baseline_samples"):
            FaultPlan(events=events, baseline_samples=0)


class TestPlanSerialization:
    def test_event_round_trip_drops_none_fields(self):
        event = link_down(100, 2, 3)
        data = event.to_dict()
        assert data == {
            "kind": "link_down", "at_ns": 100, "edge": 2, "uplink": 3
        }
        assert FaultEvent.from_dict(data) == event

    def test_plan_round_trip(self):
        plan = FaultPlan(
            events=[
                link_down(100, 0, 1),
                link_up(200, 0, 1),
                degrade(300, 400, edge=1, uplink=0, factor=0.25),
            ],
            sample_period_ns=10_000,
        )
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt.to_dict() == plan.to_dict()
        assert rebuilt.first_fault_ns() == 100

    def test_plan_accepts_event_dicts(self):
        plan = FaultPlan(
            events=[{"kind": "element_down", "at_ns": 50, "element": 1}]
        )
        assert plan.events[0] == element_down(50, 1)


# ----------------------------------------------------------------------
# ScenarioSpec integration: hash stability is the cache/golden contract
# ----------------------------------------------------------------------


class TestSpecIntegration:
    def test_unfaulted_spec_omits_faults_key(self):
        spec = ScenarioSpec(scenario="s", topology=SMALL_TOPO)
        assert "faults" not in spec.to_dict()

    def test_unfaulted_hash_is_unchanged_by_field_existing(self):
        # The exact pre-fault-subsystem content hash of this spec; if
        # this drifts, every cached result and golden trace is orphaned.
        spec = ScenarioSpec(scenario="s", topology=SMALL_TOPO, seed=3)
        data = spec.to_dict()
        rebuilt = ScenarioSpec.from_dict(data)
        assert rebuilt.content_hash() == spec.content_hash()
        assert "faults" not in spec.to_json()

    def test_faulted_spec_hashes_differently_and_round_trips(self):
        base = ScenarioSpec(scenario="s", topology=SMALL_TOPO)
        plan = FaultPlan(events=[link_down(10, 0, 0)])
        faulted = base.with_updates(faults=plan.to_dict())
        assert faulted.content_hash() != base.content_hash()
        again = ScenarioSpec.from_json(faulted.to_json())
        assert again.content_hash() == faulted.content_hash()

    def test_spec_accepts_plan_instance_and_validates(self):
        plan = FaultPlan(events=[link_down(10, 0, 0)])
        spec = ScenarioSpec(scenario="s", topology=SMALL_TOPO, faults=plan)
        assert spec.faults == plan.to_dict()
        with pytest.raises(ValueError, match="unknown fault kind"):
            ScenarioSpec(
                scenario="s", topology=SMALL_TOPO,
                faults={"events": [{"kind": "nope", "at_ns": 0}]},
            )

    def test_kind_for_fabric_resolves_aliases(self):
        # Each fabric under plain TCP is one kind; no kind or fabric
        # name is an alias of another.
        assert resolve_kind("stardust") == ("stardust", "tcp")
        assert resolve_kind("tcp") == ("push", "tcp")
        with pytest.raises(ValueError, match="unknown kind"):
            resolve_kind("ethernet")
        for fabric in ("ethernet", "warp-drive"):
            with pytest.raises(UnknownFabricError):
                ScenarioSpec(scenario="s", topology=SMALL_TOPO, fabric=fabric)


# ----------------------------------------------------------------------
# Injector actions on the Stardust fabric
# ----------------------------------------------------------------------


class TestStardustInjection:
    def test_link_down_counts_losses_and_traffic_survives(self):
        net, hosts = build_network(ONE_TIER)
        plan = FaultPlan(
            events=[
                link_down(5 * MICROSECOND, 0, 0),
                link_up(2 * MILLISECOND, 0, 0),
            ]
        )
        injector = attach_plan(plan, net)
        src, dst = hosts[PortAddress(0, 0)], PortAddress(2, 0)
        for _ in range(40):
            src.send_to(dst, 1400)
        net.run(5 * MILLISECOND)
        metrics = net.collect_metrics()
        assert metrics.resilience is not None
        assert metrics.resilience.faults_injected == 1
        # Both directions failed; queued/in-flight cells were counted.
        assert metrics.resilience.frames_lost_in_transit > 0
        # The stream kept flowing over the three surviving links.
        assert len(hosts[dst].received) >= 35
        # The pair is back up after the repair event.
        up_link = net.fas[0].uplinks[0]
        assert up_link.up
        assert injector.faults_applied == 1

    def test_element_death_and_revival(self):
        net, hosts = build_network(ONE_TIER)
        plan = FaultPlan(
            events=[
                element_down(5 * MICROSECOND, 0),
                element_up(1 * MILLISECOND, 0),
            ]
        )
        attach_plan(plan, net)
        src, dst = hosts[PortAddress(0, 0)], PortAddress(3, 0)
        for _ in range(40):
            src.send_to(dst, 1200)
        net.run(4 * MILLISECOND)
        fe0 = net.fes[0]
        assert fe0.alive  # revived
        assert all(p.out.up for p in fe0.fabric_ports)
        assert len(hosts[dst].received) == 40  # lossless spray healing
        # During death every inbound link was down too.
        assert all(
            up.up for fa in net.fas for up in fa.uplinks
        )

    def test_dead_element_counts_arrivals(self):
        net, hosts = build_network(ONE_TIER)
        fe0 = net.fes[0]
        fe0.fail()  # out-links die, but inbound links stay up
        src, dst = hosts[PortAddress(0, 0)], PortAddress(2, 0)
        for _ in range(30):
            src.send_to(dst, 1400)
        net.run(3 * MILLISECOND)
        # The FA still sprays onto the (alive) link toward the dead FE,
        # and the dead FE counts what it swallows.
        assert fe0.dead_drops > 0
        assert net.fabric_drop_count() >= fe0.dead_drops

    def test_edge_death_cuts_its_hosts_only(self):
        net, hosts = build_network(ONE_TIER)
        plan = FaultPlan(
            events=[FaultEvent("edge_down", 5 * MICROSECOND, edge=3)]
        )
        attach_plan(plan, net)
        src, cut = hosts[PortAddress(0, 0)], PortAddress(3, 0)
        alive = PortAddress(2, 0)
        for _ in range(20):
            src.send_to(cut, 1000)
            src.send_to(alive, 1000)
        net.run(4 * MILLISECOND)
        assert len(hosts[alive].received) == 20
        assert len(hosts[cut].received) < 20
        assert not net.fas[3].alive

    def test_degrade_interval_slows_then_restores(self):
        net, _hosts = build_network(ONE_TIER)
        plan = FaultPlan(
            events=[
                degrade(
                    10 * MICROSECOND, 500 * MICROSECOND,
                    edge=0, uplink=0, factor=0.1,
                )
            ]
        )
        attach_plan(plan, net)
        up = net.fas[0].uplinks[0]
        original = up.rate_bps
        net.sim.run(until=20 * MICROSECOND)
        assert up.rate_bps == original // 10
        assert up.up  # degraded, not down
        net.run(1 * MILLISECOND)
        assert up.rate_bps == original
        metrics = net.collect_metrics()
        assert metrics.resilience.faults_injected == 1

    def test_bad_targets_raise(self):
        net, _ = build_network(ONE_TIER)
        with pytest.raises(FaultTargetError, match="no edge device"):
            attach_plan(FaultPlan(events=[link_down(0, 99, 0)]), net)
        net2, _ = build_network(ONE_TIER)
        with pytest.raises(FaultTargetError, match="uplinks"):
            attach_plan(FaultPlan(events=[link_down(0, 0, 99)]), net2)
        net3, _ = build_network(ONE_TIER)
        with pytest.raises(FaultTargetError, match="no element"):
            attach_plan(FaultPlan(events=[element_down(0, 42)]), net3)

    def test_injector_is_single_use_and_single_attach(self):
        net, _ = build_network(ONE_TIER)
        plan = FaultPlan(events=[link_down(10, 0, 0)])
        injector = attach_plan(plan, net)
        with pytest.raises(RuntimeError, match="single-use"):
            injector.arm()
        with pytest.raises(ValueError, match="already attached"):
            net.attach_faults(FaultInjector(plan, net))


# ----------------------------------------------------------------------
# Push baseline: ECMP rehash blackholing + device death
# ----------------------------------------------------------------------


class TestPushInjection:
    def _net(self, rehash_ns):
        from repro.baselines.ethernet import EthConfig

        net = PushFabricNetwork(
            ONE_TIER,
            config=EthConfig(ecmp_rehash_ns=rehash_ns),
            link_rate_bps=gbps(10),
        )
        return net, attach_push_hosts(net, ONE_TIER)

    def test_blackholing_until_rehash_then_reroute(self):
        net, hosts = self._net(rehash_ns=300 * MICROSECOND)
        plan = FaultPlan(events=[link_down(10 * MICROSECOND, 0, 0)])
        attach_plan(plan, net)
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(2, 0)
        net.sim.run(until=20 * MICROSECOND)  # fault applied
        tor0 = net.tors[0]
        # Find a flow id ECMP hashes onto the dead port and keep
        # sending it: blackholed during the window, delivered after.
        down_port = tor0.up_ports[0]
        assert not down_port.out.up
        for flow_id in range(200):
            probe = src.send_to(dst, 1000, flow_id=flow_id)
            chosen = tor0.route(probe)
            if chosen is down_port:
                victim = flow_id
                break
        else:
            pytest.fail("no flow hashes onto the dead port")
        net.run(50 * MICROSECOND)
        assert tor0.blackholed > 0
        assert victim in tor0.blackholed_flow_ids
        before = len(hosts[dst].received)
        # After the rehash interval the dead port leaves the ECMP set.
        net.sim.run(until=400 * MICROSECOND)
        src.send_to(dst, 1000, flow_id=victim)
        net.run(2 * MILLISECOND)
        assert len(hosts[dst].received) > before
        resilience = net.collect_metrics().resilience
        assert resilience.blackholed_flows >= 1
        assert resilience.blackholed_packets == sum(
            s.blackholed for s in (*net.tors, *net.fabric)
        )

    def test_instant_rehash_keeps_historical_behavior(self):
        net, hosts = self._net(rehash_ns=0)
        plan = FaultPlan(events=[link_down(10 * MICROSECOND, 0, 0)])
        attach_plan(plan, net)
        src, dst = hosts[PortAddress(0, 0)], PortAddress(2, 0)
        for i in range(40):
            src.send_to(dst, 1000, flow_id=i)
        net.run(3 * MILLISECOND)
        assert net.tors[0].blackholed == 0
        assert len(hosts[dst].received) == 40

    def test_element_death_drops_then_heals(self):
        net, hosts = self._net(rehash_ns=0)
        plan = FaultPlan(
            events=[
                element_down(10 * MICROSECOND, 0),
                element_up(500 * MICROSECOND, 0),
            ]
        )
        attach_plan(plan, net)
        src, dst = hosts[PortAddress(0, 0)], PortAddress(2, 0)
        for i in range(40):
            src.send_to(dst, 1000, flow_id=i)
        net.run(3 * MILLISECOND)
        sw = net.fabric[0]
        assert sw.alive
        assert all(p.out.up for p in sw.eth_ports)
        # ECMP rerouted around the dead switch: everything arrived.
        assert len(hosts[dst].received) == 40


# ----------------------------------------------------------------------
# Storms: seeded, deterministic
# ----------------------------------------------------------------------


class TestStorms:
    def _applied(self, storm_seed):
        net, hosts = build_network(ONE_TIER)
        plan = FaultPlan(
            events=[
                FaultEvent(
                    "random_storm", 10 * MICROSECOND,
                    until_ns=2 * MILLISECOND, seed=storm_seed,
                    count=5, downtime_ns=100 * MICROSECOND,
                )
            ]
        )
        injector = attach_plan(plan, net)
        src, dst = hosts[PortAddress(0, 0)], PortAddress(2, 0)
        for _ in range(30):
            src.send_to(dst, 1200)
        net.run(4 * MILLISECOND)
        return injector, net, hosts[dst]

    def test_storm_is_deterministic_per_seed(self):
        first, _, _ = self._applied(11)
        second, _, _ = self._applied(11)
        assert first.applied == second.applied
        assert first.faults_applied == 5
        other, _, _ = self._applied(12)
        assert other.applied != first.applied

    def test_storm_links_all_restored_and_traffic_survives(self):
        injector, net, dst_host = self._applied(11)
        assert all(
            up.up for fa in net.fas for up in fa.uplinks
        )
        assert len(dst_host.received) >= 25

    def test_storm_with_more_failures_than_links(self):
        net, _ = build_network(
            OneTierSpec(num_fas=2, uplinks_per_fa=2, hosts_per_fa=1)
        )
        plan = FaultPlan(
            events=[
                FaultEvent(
                    "random_storm", 0, until_ns=1 * MILLISECOND, seed=3,
                    count=10, downtime_ns=50 * MICROSECOND,
                )
            ]
        )
        injector = attach_plan(plan, net)
        net.run(2 * MILLISECOND)
        assert injector.faults_applied == 10


# ----------------------------------------------------------------------
# Zero cost when unfaulted + scenario-level determinism
# ----------------------------------------------------------------------


class TestZeroCostAndDeterminism:
    def test_unfaulted_network_has_no_injector_and_empty_summary(self):
        net, _ = build_network(ONE_TIER)
        net.run(100 * MICROSECOND)
        assert net.fault_injector is None
        metrics = net.collect_metrics()
        assert metrics.resilience is None
        assert metrics.resilience_summary() == {}

    def test_faulted_scenarios_are_digest_stable(self):
        spec = build_scenario(
            "permutation_link_failure", kind="stardust",
            topology=SMALL_TOPO,
            warmup_ns=100 * MICROSECOND, measure_ns=300 * MICROSECOND,
            fail_at_ns=150 * MICROSECOND, downtime_ns=100 * MICROSECOND,
        )
        first = run_digest(*run_spec_with_network(spec))
        second = run_digest(*run_spec_with_network(spec))
        assert first == second

    def test_fault_scenarios_registered_with_resilience_metrics(self):
        spec = build_scenario(
            "permutation_link_failure", kind="tcp", topology=SMALL_TOPO,
            warmup_ns=100 * MICROSECOND, measure_ns=300 * MICROSECOND,
            fail_at_ns=150 * MICROSECOND, downtime_ns=100 * MICROSECOND,
        )
        result = run_spec(spec)
        assert result.metrics["faults_injected"] == 1
        assert "measured_recovery_ns" in result.metrics
        assert "frames_lost_in_transit" in result.metrics

    def test_stardust_reports_measured_next_to_analytical(self):
        spec = build_scenario(
            "permutation_link_failure", kind="stardust",
            topology=SMALL_TOPO,
            warmup_ns=200 * MICROSECOND, measure_ns=400 * MICROSECOND,
            fail_at_ns=300 * MICROSECOND, downtime_ns=100 * MICROSECOND,
        )
        result = run_spec(spec)
        assert "analytical_recovery_ns" in result.metrics
        assert result.metrics["analytical_recovery_ns"] > 0
        assert "measured_recovery_ns" in result.metrics

    def test_incast_element_failure_and_storm_registered(self):
        for name in ("incast_element_failure", "random_fault_storm"):
            spec = build_scenario(name, kind="stardust")
            assert spec.faults is not None
            assert spec.scenario == name


class TestDynamicProtocolDetection:
    def test_protocol_detect_reported_under_dynamic_reachability(self):
        net = StardustNetwork.for_experiment(
            ONE_TIER, rate=gbps(10), reachability="dynamic"
        )
        hosts = {}
        for fa in range(ONE_TIER.num_fas):
            addr = PortAddress(fa, 0)
            host = RecordingHost(net.sim, f"h{fa}", addr)
            net.attach_host(addr, host)
            hosts[addr] = host
        plan = FaultPlan(
            events=[
                link_down(50 * MICROSECOND, 0, 0),
                link_up(1 * MILLISECOND, 0, 0),
            ],
            sample_period_ns=10_000,
        )
        attach_plan(plan, net)
        src, dst = hosts[PortAddress(0, 0)], PortAddress(2, 0)
        for _ in range(50):
            src.send_to(dst, 1000)
        net.run(3 * MILLISECOND)
        resilience = net.collect_metrics().resilience
        assert resilience.protocol_detect_ns is not None
        # Detection takes miss_threshold periods of silence, give or
        # take sampling quantization — never instantaneous.
        assert resilience.protocol_detect_ns >= 10_000
        assert resilience.analytical_recovery_ns is not None
        assert len(hosts[dst].received) == 50
