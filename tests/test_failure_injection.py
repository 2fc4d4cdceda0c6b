"""Failure injection: the fabric under partial damage.

§5.10: link errors, device death, reassembly-timeout cleanup, buffer
exhaustion, and degraded-but-alive operation.
"""


from repro.core.config import StardustConfig
from repro.fabrics import OneTierSpec, TwoTierSpec
from repro.net.addressing import PortAddress
from repro.sim.units import KB, MICROSECOND, MILLISECOND, gbps

from tests.conftest import build_network


def kill_fa_uplink(net, fa, index):
    """Fail uplink ``index`` of ``fa`` in both directions."""
    dead = fa.uplinks[index]
    dead.fail()
    fe = dead.dst
    for port in fe.fabric_ports:
        if port.out.dst is fa:
            port.out.fail()
    return dead, fe


class TestLinkLoss:
    def test_cells_in_flight_lost_then_stream_recovers(self):
        spec = OneTierSpec(num_fas=3, uplinks_per_fa=3, hosts_per_fa=1)
        cfg = StardustConfig(
            reassembly_timeout_ns=50 * MICROSECOND,
        )
        net, hosts = build_network(spec, config=cfg)
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(2, 0)

        # Launch a stream and kill a link mid-flight (static
        # reachability: the FA stops using it only via link.up).
        for _ in range(30):
            src.send_to(dst, 1400)
        net.sim.run(until=5 * MICROSECOND)
        net.fas[0].uplinks[0].fail()
        net.run(5 * MILLISECOND)

        fa2 = net.fas[2]
        # Some packets may have died with the link, but the stream
        # resumed: late packets delivered, timeouts cleaned up state.
        delivered = len(hosts[dst].received)
        assert delivered >= 25
        assert delivered + fa2.reassembly.packets_discarded >= 30

    def test_reassembly_timeout_bounds_stall(self):
        spec = OneTierSpec(num_fas=3, uplinks_per_fa=3, hosts_per_fa=1)
        cfg = StardustConfig(reassembly_timeout_ns=20 * MICROSECOND)
        net, hosts = build_network(spec, config=cfg)
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(2, 0)
        for _ in range(10):
            src.send_to(dst, 1400)
        net.sim.run(until=3 * MICROSECOND)
        net.fas[0].uplinks[1].fail()
        net.run(2 * MILLISECOND)
        # Later packets still arrive even if earlier cells were lost.
        assert len(hosts[dst].received) >= 8


class TestDeviceDeath:
    def test_fe_death_heals_in_dynamic_mode(self):
        spec = OneTierSpec(num_fas=3, uplinks_per_fa=3, hosts_per_fa=1)
        net, hosts = build_network(spec, reachability="dynamic")
        net.run(400 * MICROSECOND)  # converge
        # Kill every link of FE 0 (device death: it goes silent).
        fe = net.fes[0]
        for port in fe.fabric_ports:
            port.out.fail()
        for fa in net.fas:
            for up in fa.uplinks:
                if up.dst is fe:
                    up.fail()
        net.run(500 * MICROSECOND)  # detection
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(2, 0)
        for _ in range(50):
            src.send_to(dst, 1000)
        net.run(3 * MILLISECOND)
        assert len(hosts[dst].received) == 50
        # The survivors carried everything.
        assert net.fas[0].eligible_uplinks(2) != []

    def test_degraded_capacity_still_lossless(self):
        spec = TwoTierSpec(
            pods=2, fas_per_pod=2, fes_per_pod=2, spines=2, hosts_per_fa=1
        )
        net, hosts = build_network(spec, reachability="dynamic")
        net.run(400 * MICROSECOND)
        # Remove one spine entirely.
        spine = [fe for fe in net.fes if fe.tier == 2][0]
        for port in spine.fabric_ports:
            port.out.fail()
        for fe in net.fes:
            for port in fe.fabric_ports:
                if port.out.dst is spine:
                    port.out.fail()
        net.run(500 * MICROSECOND)
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(3, 0)  # cross-pod: must cross a spine
        for _ in range(40):
            src.send_to(dst, 1000)
        net.run(3 * MILLISECOND)
        assert len(hosts[dst].received) == 40
        assert net.fabric_drop_count() == 0


class TestBufferExhaustion:
    def test_ingress_drops_on_persistent_oversubscription(self):
        # §3.1: "Long-term over-subscription from the hosts ... packets
        # will be dropped in the Fabric Adapter."
        spec = OneTierSpec(num_fas=3, uplinks_per_fa=2, hosts_per_fa=2)
        cfg = StardustConfig(ingress_buffer_bytes=20 * KB)
        net, hosts = build_network(spec, config=cfg, link_rate_bps=gbps(10))
        dst = PortAddress(2, 0)  # one 10G port...
        for fa in (0, 1):
            for p in range(2):
                src = hosts[PortAddress(fa, p)]
                for _ in range(300):  # ...offered 40G for a while
                    src.send_to(dst, 1400)
        net.run(5 * MILLISECOND)
        assert net.collect_metrics().ingress_drops > 0
        assert net.fabric_drop_count() == 0  # the fabric itself: never

    def test_empty_voqs_use_no_buffer(self):
        spec = OneTierSpec(num_fas=2, uplinks_per_fa=2, hosts_per_fa=1)
        net, hosts = build_network(spec)
        hosts[PortAddress(0, 0)].send_to(PortAddress(1, 0), 1000)
        net.run(2 * MILLISECOND)
        # Everything delivered: the shared pool is fully released.
        assert net.fas[0].buffer_pool.used_bytes == 0
