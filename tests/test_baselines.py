"""Unit/integration tests for the Ethernet switch and push fabric."""

import pytest

from repro.baselines.ethernet import EthConfig
from repro.fabrics import OneTierSpec, PushFabricNetwork, TwoTierSpec
from repro.net.addressing import PortAddress
from repro.sim.units import MICROSECOND, MILLISECOND, gbps

from tests.conftest import RecordingHost


def build_push(spec, config=None, **kw):
    net = PushFabricNetwork(spec, config=config, **kw)
    hosts = {}
    for t in range(len(net.tors)):
        for p in range(spec.hosts_per_fa):
            addr = PortAddress(t, p)
            host = RecordingHost(net.sim, f"h{t}.{p}", addr)
            net.attach_host(addr, host)
            hosts[addr] = host
    return net, hosts


class TestEthConfig:
    def test_invalid_buffer(self):
        with pytest.raises(ValueError):
            EthConfig(port_buffer_bytes=0)

    def test_invalid_lb_mode(self):
        with pytest.raises(ValueError):
            EthConfig(load_balance="flows")


class TestPushFabricDelivery:
    def test_single_packet_one_tier(self):
        spec = OneTierSpec(num_fas=4, uplinks_per_fa=4, hosts_per_fa=2)
        net, hosts = build_push(spec)
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(2, 1)
        src.send_to(dst, 1000)
        net.run(100 * MICROSECOND)
        assert len(hosts[dst].received) == 1

    def test_single_packet_two_tier_cross_pod(self):
        spec = TwoTierSpec(
            pods=2, fas_per_pod=2, fes_per_pod=2, spines=2, hosts_per_fa=1
        )
        net, hosts = build_push(spec)
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(3, 0)
        src.send_to(dst, 1500)
        net.run(100 * MICROSECOND)
        assert len(hosts[dst].received) == 1

    def test_local_switching_within_tor(self):
        spec = OneTierSpec(num_fas=2, uplinks_per_fa=2, hosts_per_fa=2)
        net, hosts = build_push(spec)
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(0, 1)
        src.send_to(dst, 800)
        net.run(100 * MICROSECOND)
        assert len(hosts[dst].received) == 1
        # Fabric saw nothing.
        assert all(s.forwarded == 0 for s in net.fabric)

    def test_flow_pinned_to_one_path(self):
        spec = OneTierSpec(num_fas=2, uplinks_per_fa=4, hosts_per_fa=1)
        net, hosts = build_push(spec)
        src = hosts[PortAddress(0, 0)]
        for _ in range(50):
            src.send_to(PortAddress(1, 0), 1000, flow_id=77)
        net.run(1 * MILLISECOND)
        used = [up.out.tx_frames for up in net.tors[0].up_ports]
        assert sorted(used, reverse=True)[0] == 50  # all on one uplink
        assert sum(1 for u in used if u) == 1

    def test_packet_spray_mode_spreads(self):
        spec = OneTierSpec(num_fas=2, uplinks_per_fa=4, hosts_per_fa=1)
        cfg = EthConfig(load_balance="packet")
        net, hosts = build_push(spec, config=cfg)
        src = hosts[PortAddress(0, 0)]
        for _ in range(40):
            src.send_to(PortAddress(1, 0), 1000, flow_id=77)
        net.run(1 * MILLISECOND)
        used = [up.out.tx_frames for up in net.tors[0].up_ports]
        assert min(used) >= 5  # spread across all four uplinks


class TestDropTailAndEcn:
    def test_oversubscribed_port_drops(self):
        # Two hosts blast one destination port: 2:1 oversubscription at
        # the destination ToR's host port must drop roughly half.
        spec = OneTierSpec(num_fas=3, uplinks_per_fa=4, hosts_per_fa=1)
        cfg = EthConfig(port_buffer_bytes=20_000, ecn_threshold_bytes=None)
        net, hosts = build_push(spec, config=cfg)
        dst = PortAddress(2, 0)
        for src_fa in (0, 1):
            src = hosts[PortAddress(src_fa, 0)]
            for _ in range(200):
                src.send_to(dst, 1500, flow_id=src_fa)
        net.run(5 * MILLISECOND)
        got = len(hosts[dst].received)
        assert net.collect_metrics().total_drops > 0
        assert got < 400

    def test_ecn_marks_above_threshold(self):
        spec = OneTierSpec(num_fas=3, uplinks_per_fa=1, hosts_per_fa=1)
        cfg = EthConfig(port_buffer_bytes=10**9, ecn_threshold_bytes=10_000)
        net, hosts = build_push(spec, config=cfg)
        dst = PortAddress(2, 0)
        for src_fa in (0, 1):
            for _ in range(100):
                hosts[PortAddress(src_fa, 0)].send_to(dst, 1500, flow_id=src_fa)
        net.run(5 * MILLISECOND)
        marked = [p for _, p in hosts[dst].received if p.ecn]
        assert marked  # congestion was signalled
        assert net.fabric[0].ecn_marked > 0

    def test_no_marks_when_uncongested(self):
        spec = OneTierSpec(num_fas=2, uplinks_per_fa=2, hosts_per_fa=1)
        net, hosts = build_push(spec)
        hosts[PortAddress(0, 0)].send_to(PortAddress(1, 0), 1000)
        net.run(1 * MILLISECOND)
        assert all(not p.ecn for _, p in hosts[PortAddress(1, 0)].received)


class TestFig7Scenario:
    """§5.2: congested port A must not hurt uncongested port B."""

    def _run(self, network_kind):
        # Ports A and B on the destination device; A is 2:1
        # oversubscribed, B is cleanly loaded at line rate.
        spec = OneTierSpec(num_fas=3, uplinks_per_fa=2, hosts_per_fa=2)
        if network_kind == "push":
            cfg = EthConfig(port_buffer_bytes=30_000,
                            ecn_threshold_bytes=None)
            net, hosts = build_push(
                spec, config=cfg, link_rate_bps=gbps(10)
            )
        else:
            from tests.conftest import build_network

            net, hosts = build_network(spec, link_rate_bps=gbps(10))
        a = PortAddress(2, 0)
        b = PortAddress(2, 1)
        # A is oversubscribed 2:1 by many flows from two sources (so
        # ECMP puts A-traffic on every fabric path); B is cleanly
        # loaded at line rate by one flow.
        duration = 2 * MILLISECOND

        def blast(src, dst, flow_ids):
            n = int(gbps(10) / 8 * (duration / 1e9) / 1520) + 50
            for i in range(n):
                hosts[src].send_to(
                    dst, 1500, flow_id=flow_ids[i % len(flow_ids)]
                )

        blast(PortAddress(0, 0), a, list(range(10, 18)))
        blast(PortAddress(0, 1), b, [2])
        blast(PortAddress(1, 0), a, list(range(30, 38)))
        net.run(2 * duration)
        got_b = sum(
            p.size_bytes for _, p in hosts[b].received
        ) * 8 / (2 * duration / 1e9)
        got_a = sum(
            p.size_bytes for _, p in hosts[a].received
        ) * 8 / (2 * duration / 1e9)
        return got_a, got_b

    def test_stardust_protects_victim_port(self):
        got_a, got_b = self._run("stardust")
        # B gets (nearly) everything it asked for; A is bounded by its
        # port rate.
        assert got_b > 0.85 * gbps(5)  # half window of full rate
        assert got_a <= gbps(10) * 1.02

    def test_push_fabric_hurts_victim_port(self):
        got_a_push, got_b_push = self._run("push")
        _, got_b_star = self._run("stardust")
        # The pushed fabric delivers measurably less of B's traffic
        # than Stardust does (Fig 7's 66% vs 100%).
        assert got_b_push < 0.9 * got_b_star
