"""Fig 7 / Fig 12 (§5.2, Appendix F): push fabric vs pull fabric.

Two 10G ports A and B on one destination device.  A is oversubscribed
2:1 from two sources; B is cleanly loaded at line rate.  The Ethernet
push fabric drops B's traffic at fabric links shared with A's excess;
Stardust's egress schedulers admit exactly port rate per port, so B is
untouched.  The traffic-class variant (Fig 12) loads A with a high
class and B with a low class: the pushed fabric still destroys B, and
Stardust still delivers both.
"""

from harness import print_series

from repro.fabrics import OneTierSpec, PushFabricNetwork, StardustNetwork
from repro.net.addressing import PortAddress
from repro.net.packet import Packet
from repro.sim.entity import Entity
from repro.sim.units import MILLISECOND, gbps

SPEC = OneTierSpec(num_fas=3, uplinks_per_fa=2, hosts_per_fa=2)
RATE = gbps(10)
DURATION = 3 * MILLISECOND


class BlastHost(Entity):
    """Saturates its NIC with pre-queued packets; counts deliveries."""

    def __init__(self, sim, name, address):
        super().__init__(sim, name)
        self.address = address
        self.received_bytes = 0

    def receive(self, packet, link):
        self.received_bytes += packet.size_bytes

    def blast(self, dst, flow_ids, priority=0):
        n = int(RATE / 8 * (DURATION / 1e9) / 1520) + 100
        for i in range(n):
            packet = Packet(
                size_bytes=1500, src=self.address, dst=dst,
                flow_id=flow_ids[i % len(flow_ids)], priority=priority,
                created_ns=self.sim.now,
            )
            self.ports[0].send(packet, packet.wire_bytes)


def scenario(kind: str, with_classes: bool):
    if kind == "stardust":
        net = StardustNetwork.for_experiment(
            SPEC, RATE, cell_size_bytes=256,
            traffic_classes=2 if with_classes else 1,
        )
    else:
        net = PushFabricNetwork.for_experiment(
            SPEC, RATE, port_buffer_bytes=30_000, ecn_threshold_bytes=None
        )
    hosts = {}
    for fa in range(SPEC.num_fas):
        for p in range(SPEC.hosts_per_fa):
            addr = PortAddress(fa, p)
            host = BlastHost(net.sim, f"h{fa}.{p}", addr)
            net.attach_host(addr, host)
            hosts[addr] = host

    port_a = PortAddress(2, 0)
    port_b = PortAddress(2, 1)
    hi = 0  # high priority class (strict priority class 0)
    lo = 1 if with_classes else 0
    hosts[PortAddress(0, 0)].blast(port_a, list(range(10, 18)), priority=hi)
    hosts[PortAddress(0, 1)].blast(port_b, [2], priority=lo)
    hosts[PortAddress(1, 0)].blast(port_a, list(range(30, 38)), priority=hi)
    net.run(2 * DURATION)

    def gbps_of(host):
        return host.received_bytes * 8 / (2 * DURATION / 1e9) / 1e9

    return gbps_of(hosts[port_a]), gbps_of(hosts[port_b])


def test_fig7_push_vs_pull(benchmark):
    def run():
        return {
            "stardust": scenario("stardust", with_classes=False),
            "push": scenario("push", with_classes=False),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("fabric", "port A [Gbps]", "port B [Gbps]")]
    for kind, (a, b) in results.items():
        rows.append((kind, f"{a:.2f}", f"{b:.2f}"))
    print_series("Fig 7: oversubscribed port A vs innocent port B", rows)

    star_a, star_b = results["stardust"]
    push_a, push_b = results["push"]
    # Stardust: B unharmed (full sending window's worth), A at port rate.
    assert star_b > 0.85 * (RATE / 1e9) / 2  # half the 2x window
    assert star_a <= (RATE / 1e9) * 1.05
    # Push fabric: B loses a chunk of its traffic (paper: 66% delivered).
    assert push_b < 0.9 * star_b


def test_fig12_traffic_classes(benchmark):
    def run():
        return {
            "stardust": scenario("stardust", with_classes=True),
            "push": scenario("push", with_classes=True),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("fabric", "port A (high TC)", "port B (low TC)")]
    for kind, (a, b) in results.items():
        rows.append((kind, f"{a:.2f}", f"{b:.2f}"))
    print_series("Fig 12: same scenario with traffic classes", rows)

    star_a, star_b = results["stardust"]
    push_a, push_b = results["push"]
    # Stardust total is roughly twice the push fabric's (Appendix F).
    assert star_a + star_b > 1.5 * (push_a + push_b) * 0.75
    assert push_b < star_b
