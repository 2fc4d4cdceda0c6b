#!/usr/bin/env python3
"""§8's future data center: no packet switches anywhere.

Builds a network whose only devices are Fabric Elements and
Fabric-Adapter-NICs at the hosts, runs traffic across it, and shows
the §8 reductions: host-scale buffers, a reachability table that
shrinks with uplink count (and vanishes for single-homed NICs).

Run:  python examples/nic_edge.py
"""

from repro.core.config import StardustConfig
from repro.core.nic import build_nic_edge_network
from repro.net.addressing import PortAddress
from repro.net.flow import Flow
from repro.sim.units import KB, MILLISECOND
from repro.transport.host import make_hosts


def main() -> None:
    net = build_nic_edge_network(n_nics=8, uplinks_per_nic=4)
    addrs = [PortAddress(i, 0) for i in range(8)]
    hosts, tracker = make_hosts(net, addrs)

    print("=== §8: the NIC-edge data center ===")
    nic = net.fas[0]
    tor_cfg = StardustConfig()
    print(f"devices: {len(net.fas)} NICs + {len(net.fes)} Fabric Elements "
          "(zero packet switches)")
    print(f"NIC ingress buffer: {nic.config.ingress_buffer_bytes // 2**20} MB "
          f"(ToR-class FA: {tor_cfg.ingress_buffer_bytes // 2**20} MB)")
    print(f"NIC reachability entries: {nic.reachability_entries()} "
          f"(single-homed NICs need none)")

    flows = []
    for i in range(8):
        flow = Flow(
            src=addrs[i], dst=addrs[(i + 3) % 8], size_bytes=200 * KB
        )
        hosts[addrs[i]].start_flow(flow)
        flows.append(flow)
    net.run(30 * MILLISECOND)

    done = sum(
        1 for f in flows if tracker.get(f.flow_id).completed_ns is not None
    )
    print(f"\ntransfers completed: {done}/8; "
          f"fabric cell drops: {net.fabric_drop_count()}")
    assert done == 8
    assert net.fabric_drop_count() == 0
    print("OK: the all-cell-switch network behaves exactly like the "
          "ToR-based one — which is §8's entire argument")


if __name__ == "__main__":
    main()
