#!/usr/bin/env python3
"""Self-healing fabric (§5.9): declare a failure, watch traffic heal.

Failure is an *experiment input* here: a declarative FaultPlan (fail
one Fabric Adapter uplink both ways, repair it later) is compiled into
engine-scheduled events against a live dynamic-reachability Stardust
network, and the injector reports the resilience metrics — protocol
detection time next to the Appendix E analytical recovery time,
throughput dip, frames lost in transit.

Run:  python examples/failure_recovery.py
"""

from repro.core.config import StardustConfig
from repro.fabrics import OneTierSpec, StardustNetwork
from repro.faults import FaultPlan, attach_plan, link_down, link_up
from repro.net.addressing import PortAddress
from repro.net.packet import Packet
from repro.sim.entity import Entity
from repro.sim.units import MICROSECOND, MILLISECOND, gbps


class CountingHost(Entity):
    def __init__(self, sim, name, address):
        super().__init__(sim, name)
        self.address = address
        self.received = 0

    def receive(self, packet, link):
        self.received += 1

    def send_to(self, dst, size):
        packet = Packet(
            size_bytes=size, src=self.address, dst=dst,
            created_ns=self.sim.now,
        )
        self.ports[0].send(packet, packet.wire_bytes)


def main() -> None:
    spec = OneTierSpec(num_fas=4, uplinks_per_fa=4, hosts_per_fa=1)
    config = StardustConfig(
        reachability="dynamic", reachability_period_ns=10 * MICROSECOND
    )
    network = StardustNetwork(spec, config=config, link_rate_bps=gbps(25))

    hosts = {}
    for fa in range(spec.num_fas):
        addr = PortAddress(fa, 0)
        host = CountingHost(network.sim, f"h{fa}", addr)
        network.attach_host(addr, host)
        hosts[addr] = host

    # Let the reachability protocol converge before the experiment.
    network.run(500 * MICROSECOND)

    # The failure, declared: uplink 0 of FA 0 dies at t=+1ms (both
    # directions) and is repaired at t=+3ms.  The same plan would run
    # unchanged against the push/ECMP baseline.
    plan = FaultPlan(
        events=[
            link_down(1 * MILLISECOND, edge=0, uplink=0),
            link_up(3 * MILLISECOND, edge=0, uplink=0),
        ],
        sample_period_ns=20 * MICROSECOND,
    )
    attach_plan(plan, network)

    fa0 = network.fas[0]
    print(f"eligible uplinks toward fa2 before failure: "
          f"{len(fa0.eligible_uplinks(2))}")

    # Steady traffic across the failure window: one packet every 40us
    # for 4ms, spanning the outage at [+1ms, +3ms].
    src, dst = hosts[PortAddress(0, 0)], PortAddress(2, 0)
    for burst_at_us in range(0, 4000, 40):
        network.sim.schedule(
            burst_at_us * MICROSECOND,
            lambda: src.send_to(dst, 1200),
        )
    network.run(1_500 * MICROSECOND)  # mid-outage
    eligible = fa0.eligible_uplinks(2)
    dead = fa0.uplinks[0]
    print(f"mid-outage eligible uplinks: {len(eligible)} "
          f"(dead link excluded: {dead not in eligible})")

    network.run(2_500 * MICROSECOND)  # through repair + re-admission
    print(f"after repair: {len(fa0.eligible_uplinks(2))} uplinks eligible")

    resilience = network.collect_metrics().resilience
    print(f"\ndelivered: {hosts[dst].received}/100 packets")
    print(f"faults injected:        {resilience.faults_injected}")
    print(f"frames lost in transit: {resilience.frames_lost_in_transit}")
    print(f"protocol detection:     {resilience.protocol_detect_ns} ns")
    print(f"analytical (App. E):    "
          f"{resilience.analytical_recovery_ns:.0f} ns")

    assert dead not in eligible
    assert hosts[dst].received == 100
    assert len(fa0.eligible_uplinks(2)) == spec.uplinks_per_fa
    assert resilience.protocol_detect_ns is not None
    print("\nOK: the fabric healed itself, no operator involved")


if __name__ == "__main__":
    main()
