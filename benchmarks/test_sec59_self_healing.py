"""§5.9 live: the fabric heals itself after a link failure.

Runs the real reachability protocol in a 1-tier fabric, fails a Fabric
Adapter uplink both ways under traffic, and measures (a) how long until
the source excludes the dead link from its spray set and (b) that
delivery continues over the surviving links.  The measured exclusion
time is compared against the Appendix E analytical expectation for the
same protocol parameters.
"""

from harness import print_series

from repro.core.config import StardustConfig
from repro.fabrics import OneTierSpec, StardustNetwork
from repro.net.addressing import PortAddress
from repro.net.packet import Packet
from repro.sim.entity import Entity
from repro.sim.units import MICROSECOND, MILLISECOND, gbps

SPEC = OneTierSpec(num_fas=4, uplinks_per_fa=4, hosts_per_fa=1)
PERIOD = 10 * MICROSECOND


class CountingHost(Entity):
    def __init__(self, sim, name, address):
        super().__init__(sim, name)
        self.address = address
        self.received = 0

    def receive(self, packet, link):
        self.received += 1


def run_healing():
    config = StardustConfig(
        reachability="dynamic",
        reachability_period_ns=PERIOD,
        reachability_miss_threshold=3,
        reachability_up_threshold=3,
    )
    net = StardustNetwork(SPEC, config=config, link_rate_bps=gbps(25))
    hosts = {}
    for fa in range(SPEC.num_fas):
        addr = PortAddress(fa, 0)
        host = CountingHost(net.sim, f"h{fa}", addr)
        net.attach_host(addr, host)
        hosts[addr] = host
    net.run(500 * MICROSECOND)  # converge

    fa0 = net.fas[0]
    assert len(fa0.eligible_uplinks(2)) == SPEC.uplinks_per_fa

    # Fail uplink 0 both ways.
    dead = fa0.uplinks[0]
    dead.fail()
    fe = dead.dst
    for port in fe.fabric_ports:
        if port.out.dst is fa0:
            port.out.fail()
    t_fail = net.sim.now

    # Local detection is instantaneous (loss of signal, §5.10): the
    # source immediately stops spraying on its own dead link.
    assert dead not in fa0.eligible_uplinks(2)

    # Remote propagation runs at protocol speed: another Fabric
    # Adapter must learn — via the failed FE's shrunken reachability
    # advertisement — that this FE no longer reaches fa0.
    fa1 = net.fas[1]
    t_excluded = None
    for _ in range(400):
        net.run(5 * MICROSECOND)
        if len(fa1.eligible_uplinks(0)) < SPEC.uplinks_per_fa:
            t_excluded = net.sim.now
            break
    assert t_excluded is not None, "remote FA never learned of the failure"

    # Traffic over the healed fabric.
    src = hosts[PortAddress(0, 0)]
    for _ in range(200):
        packet = Packet(
            size_bytes=1000, src=src.address, dst=PortAddress(2, 0),
            created_ns=net.sim.now,
        )
        src.ports[0].send(packet, packet.wire_bytes)
    net.run(3 * MILLISECOND)

    # Restore and re-admit.
    dead.restore()
    for port in fe.fabric_ports:
        if port.out.dst is fa0:
            port.out.restore()
    net.run(500 * MICROSECOND)

    return {
        "exclusion_us": (t_excluded - t_fail) / 1000,
        "delivered": hosts[PortAddress(2, 0)].received,
        "readmitted": len(fa0.eligible_uplinks(2)) == SPEC.uplinks_per_fa,
        "remote_healed": len(fa1.eligible_uplinks(0)) == SPEC.uplinks_per_fa,
    }


def test_sec59_self_healing(benchmark):
    result = benchmark.pedantic(run_healing, rounds=1, iterations=1)
    rows = [
        ("remote exclusion time (protocol)",
         f"{result['exclusion_us']:.0f} us"),
        ("packets delivered after failure", f"{result['delivered']}/200"),
        ("link re-admitted after restore", result["readmitted"]),
        ("remote view healed after restore", result["remote_healed"]),
    ]
    print_series("§5.9: self-healing under link failure", rows)

    # Remote detection needs miss_threshold periods of silence plus an
    # advertisement cycle — the "hundreds of microseconds" Appendix E
    # band at these parameters — and is definitely not instantaneous.
    assert result["exclusion_us"] <= 8 * PERIOD / 1000 + 50
    assert result["exclusion_us"] >= 2 * PERIOD / 1000
    assert result["delivered"] == 200
    assert result["readmitted"]
    assert result["remote_healed"]
