"""Integration tests: packets through whole Stardust fabrics."""


from repro.core.config import StardustConfig
from repro.fabrics import OneTierSpec
from repro.net.addressing import PortAddress
from repro.sim.units import MICROSECOND, MILLISECOND

from tests.conftest import build_network


class TestOneTier:
    def test_single_packet_delivery(self, small_one_tier):
        net, hosts = small_one_tier
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(2, 1)
        sent = src.send_to(dst, 1000)
        net.run(200 * MICROSECOND)
        received = hosts[dst].received
        assert len(received) == 1
        assert received[0][1].pkt_id == sent.pkt_id

    def test_many_packets_arrive_exactly_once_in_order(self, small_one_tier):
        net, hosts = small_one_tier
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(3, 0)
        sent = [src.send_to(dst, 500 + i) for i in range(50)]
        net.run(2 * MILLISECOND)
        got = [p.pkt_id for _, p in hosts[dst].received]
        assert got == [p.pkt_id for p in sent]

    def test_fabric_is_lossless(self, small_one_tier):
        net, hosts = small_one_tier
        for (addr, host) in hosts.items():
            for other in hosts:
                if other != addr:
                    host.send_to(other, 1200)
        net.run(2 * MILLISECOND)
        assert net.fabric_drop_count() == 0
        total = sum(len(h.received) for h in hosts.values())
        assert total == len(hosts) * (len(hosts) - 1)

    def test_local_traffic_bypasses_fabric(self, small_one_tier):
        net, hosts = small_one_tier
        src = hosts[PortAddress(1, 0)]
        dst = PortAddress(1, 1)  # same Fabric Adapter
        src.send_to(dst, 800)
        net.run(100 * MICROSECOND)
        assert len(hosts[dst].received) == 1
        assert net.fas[1].local_switched == 1
        assert net.fas[1].cells_sent == 0

    def test_cells_spread_across_all_uplinks(self, small_one_tier):
        net, hosts = small_one_tier
        src_addr = PortAddress(0, 0)
        src = hosts[src_addr]
        for _ in range(40):
            src.send_to(PortAddress(2, 0), 1500)
        net.run(2 * MILLISECOND)
        fa = net.fas[0]
        counts = [up.tx_frames for up in fa.uplinks]
        assert min(counts) > 0
        # Near-perfect balance: spread within one cell of each other
        # is ideal; allow small slack for burst boundaries.
        assert max(counts) - min(counts) <= 3

    def test_voq_created_per_destination_port(self, small_one_tier):
        net, hosts = small_one_tier
        src = hosts[PortAddress(0, 0)]
        src.send_to(PortAddress(1, 0), 100)
        src.send_to(PortAddress(1, 1), 100)
        src.send_to(PortAddress(2, 0), 100)
        net.run(10 * MICROSECOND)  # let the packets reach the FA
        assert net.fas[0].voq_count == 3


class TestTwoTier:
    def test_cross_pod_delivery(self, small_two_tier):
        net, hosts = small_two_tier
        src = hosts[PortAddress(0, 0)]  # pod 0
        dst = PortAddress(7, 1)  # pod 1
        src.send_to(dst, 4000)
        net.run(500 * MICROSECOND)
        assert len(hosts[dst].received) == 1

    def test_same_pod_stays_in_pod(self, small_two_tier):
        net, hosts = small_two_tier
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(1, 0)  # same pod (fas 0-3 are pod 0)
        for _ in range(10):
            src.send_to(dst, 1000)
        net.run(500 * MICROSECOND)
        assert len(hosts[dst].received) == 10
        # Spines only carry cross-pod traffic: tier-2 FEs saw nothing.
        spine_cells = sum(
            fe.cells_forwarded for fe in net.fes if fe.tier == 2
        )
        assert spine_cells == 0

    def test_all_to_all_lossless(self, small_two_tier):
        net, hosts = small_two_tier
        for addr, host in hosts.items():
            for other in hosts:
                if other.fa != addr.fa:
                    host.send_to(other, 900)
        net.run(3 * MILLISECOND)
        assert net.fabric_drop_count() == 0
        expected = sum(
            1
            for a in hosts
            for b in hosts
            if a.fa != b.fa
        )
        assert sum(len(h.received) for h in hosts.values()) == expected

    def test_cell_latency_recorded(self, small_two_tier):
        net, hosts = small_two_tier
        hosts[PortAddress(0, 0)].send_to(PortAddress(7, 0), 2000)
        net.run(500 * MICROSECOND)
        lat = net.collect_metrics().cell_latency_ns
        assert lat.count > 0
        # 4 fabric hops with 100ns propagation: latency must exceed
        # the bare propagation and stay well under a millisecond when idle.
        assert lat.minimum() > 400
        assert lat.maximum() < 100 * MICROSECOND


class TestDynamicReachability:
    def test_dynamic_mode_converges_then_delivers(self):
        spec = OneTierSpec(num_fas=3, uplinks_per_fa=3, hosts_per_fa=1)
        net, hosts = build_network(spec, reachability="dynamic")
        net.run(300 * MICROSECOND)  # let reachability converge
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(2, 0)
        src.send_to(dst, 1500)
        net.run(500 * MICROSECOND)
        assert len(hosts[dst].received) == 1

    def test_link_failure_heals_and_traffic_flows(self):
        spec = OneTierSpec(num_fas=3, uplinks_per_fa=3, hosts_per_fa=1)
        net, hosts = build_network(spec, reachability="dynamic")
        net.run(300 * MICROSECOND)
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(2, 0)
        # Kill one of the source FA's uplinks (both directions).
        fa = net.fas[0]
        dead = fa.uplinks[0]
        dead.fail()
        # Also kill the reverse direction (FE -> FA).
        fe0 = dead.dst
        for port in fe0.fabric_ports:
            if port.out.dst is fa:
                port.out.fail()
        # Wait for the monitors to notice.
        net.run(500 * MICROSECOND)
        for _ in range(20):
            src.send_to(dst, 1000)
        net.run(2 * MILLISECOND)
        assert len(hosts[dst].received) == 20
        # Failed uplink carried no data cells after the failure.
        assert dead.tx_frames == 0 or not dead.up

    def test_failed_uplink_excluded_from_spray(self):
        spec = OneTierSpec(num_fas=3, uplinks_per_fa=3, hosts_per_fa=1)
        net, hosts = build_network(spec, reachability="dynamic")
        net.run(300 * MICROSECOND)
        fa = net.fas[0]
        dead = fa.uplinks[1]
        dead.fail()
        fe = dead.dst
        for port in fe.fabric_ports:
            if port.out.dst is fa:
                port.out.fail()
        net.run(500 * MICROSECOND)
        eligible = fa.eligible_uplinks(2)
        assert dead not in eligible
        assert len(eligible) == 2


class TestConfigVariants:
    def test_unpacked_cells_need_more_cells(self):
        spec = OneTierSpec(num_fas=2, uplinks_per_fa=2, hosts_per_fa=1)
        results = {}
        for packing in (True, False):
            cfg = StardustConfig(packet_packing=packing)
            net, hosts = build_network(spec, config=cfg)
            src = hosts[PortAddress(0, 0)]
            for _ in range(20):
                src.send_to(PortAddress(1, 0), 250)  # just over one payload
            net.run(2 * MILLISECOND)
            assert len(hosts[PortAddress(1, 0)].received) == 20
            results[packing] = sum(fa.cells_sent for fa in net.fas)
        assert results[False] > results[True]

    def test_multiple_traffic_classes_deliver(self):
        spec = OneTierSpec(num_fas=2, uplinks_per_fa=2, hosts_per_fa=1)
        cfg = StardustConfig(traffic_classes=2)
        net, hosts = build_network(spec, config=cfg)
        src = hosts[PortAddress(0, 0)]
        src.send_to(PortAddress(1, 0), 700, priority=0)
        src.send_to(PortAddress(1, 0), 700, priority=1)
        net.run(1 * MILLISECOND)
        assert len(hosts[PortAddress(1, 0)].received) == 2
        assert net.fas[0].voq_count == 2  # one VOQ per class

    def test_jumbo_packets(self, small_one_tier):
        net, hosts = small_one_tier
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(1, 0)
        src.send_to(dst, 9000)
        net.run(1 * MILLISECOND)
        assert len(hosts[dst].received) == 1
