"""Integration tests for the three-tier fabric (§5.1)."""

import pytest

from repro.fabrics import ThreeTierSpec
from repro.net.addressing import PortAddress
from repro.sim.units import MICROSECOND, MILLISECOND

from tests.conftest import build_network

SPEC = ThreeTierSpec(
    pods=2, fas_per_pod=2, fes1_per_pod=2, fes2_per_pod=2,
    spines=2, hosts_per_fa=2,
)


@pytest.fixture
def three_tier():
    return build_network(SPEC)


class TestThreeTierStructure:
    def test_device_counts(self, three_tier):
        net, _hosts = three_tier
        assert len(net.fas) == 4
        tiers = [fe.tier for fe in net.fes]
        assert tiers.count(1) == 4
        assert tiers.count(2) == 4
        assert tiers.count(3) == 2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ThreeTierSpec(
                pods=0, fas_per_pod=1, fes1_per_pod=1, fes2_per_pod=1,
                spines=1, hosts_per_fa=1,
            )
        with pytest.raises(ValueError):
            ThreeTierSpec(
                pods=1, fas_per_pod=1, fes1_per_pod=0, fes2_per_pod=1,
                spines=1, hosts_per_fa=1,
            )

    def test_tiers_property(self):
        assert SPEC.tiers == 3
        assert SPEC.num_fas == 4


class TestThreeTierDataPath:
    def test_cross_pod_delivery(self, three_tier):
        net, hosts = three_tier
        src = hosts[PortAddress(0, 0)]  # pod 0
        dst = PortAddress(3, 1)  # pod 1
        src.send_to(dst, 3000)
        net.run(500 * MICROSECOND)
        assert len(hosts[dst].received) == 1

    def test_cross_pod_traffic_crosses_spines(self, three_tier):
        net, hosts = three_tier
        src = hosts[PortAddress(0, 0)]
        for _ in range(10):
            src.send_to(PortAddress(2, 0), 1000)
        net.run(1 * MILLISECOND)
        spine_cells = sum(
            fe.cells_forwarded for fe in net.fes if fe.tier == 3
        )
        assert spine_cells > 0

    def test_same_pod_traffic_stays_below_spines(self, three_tier):
        net, hosts = three_tier
        src = hosts[PortAddress(0, 0)]
        for _ in range(10):
            src.send_to(PortAddress(1, 0), 1000)  # same pod
        net.run(1 * MILLISECOND)
        spine_cells = sum(
            fe.cells_forwarded for fe in net.fes if fe.tier == 3
        )
        assert spine_cells == 0
        assert len(hosts[PortAddress(1, 0)].received) == 10

    def test_all_to_all_lossless(self, three_tier):
        net, hosts = three_tier
        for src_addr, host in hosts.items():
            for dst_addr in hosts:
                if dst_addr.fa != src_addr.fa:
                    host.send_to(dst_addr, 800)
        net.run(5 * MILLISECOND)
        expected = sum(
            1 for a in hosts for b in hosts if a.fa != b.fa
        )
        assert sum(len(h.received) for h in hosts.values()) == expected
        assert net.fabric_drop_count() == 0

    def test_spray_uses_all_spine_paths(self, three_tier):
        net, hosts = three_tier
        src = hosts[PortAddress(0, 0)]
        for _ in range(60):
            src.send_to(PortAddress(2, 0), 1500)
        net.run(2 * MILLISECOND)
        spines = [fe for fe in net.fes if fe.tier == 3]
        assert all(s.cells_forwarded > 0 for s in spines)

    def test_in_order_delivery(self, three_tier):
        net, hosts = three_tier
        src = hosts[PortAddress(0, 1)]
        dst = PortAddress(3, 0)
        sent = [src.send_to(dst, 700 + i) for i in range(30)]
        net.run(3 * MILLISECOND)
        got = [p.pkt_id for _, p in hosts[dst].received]
        assert got == [p.pkt_id for p in sent]
