#!/usr/bin/env python3
"""Quickstart: build a small Stardust fabric and push traffic through it.

Builds a two-tier fabric (2 pods x 4 Fabric Adapters, 4 tier-1 Fabric
Elements per pod, 4 spines), attaches TCP hosts, runs a few transfers,
and prints what the fabric did: delivery, losslessness, cell spray
balance and latency.

Run:  python examples/quickstart.py
"""

from repro.fabrics import StardustNetwork, TwoTierSpec
from repro.net.addressing import PortAddress
from repro.net.flow import Flow
from repro.sim.units import KB, MILLISECOND, gbps
from repro.transport.host import make_hosts


def main() -> None:
    # 1. Describe the fabric.  Every link is an independent 25G serial
    #    lane — Stardust never bundles links.
    spec = TwoTierSpec(
        pods=2, fas_per_pod=4, fes_per_pod=4, spines=4, hosts_per_fa=2
    )
    network = StardustNetwork.for_experiment(
        spec,
        gbps(25),
        cell_size_bytes=256,
        credit_size_bytes=4 * KB,
        credit_speedup=0.02,
    )

    # 2. Attach one TCP host per Fabric Adapter port.
    addresses = [
        PortAddress(fa, port)
        for fa in range(spec.num_fas)
        for port in range(spec.hosts_per_fa)
    ]
    hosts, tracker = make_hosts(network, addresses)

    # 3. Start a handful of cross-pod transfers.
    flows = []
    for i in range(4):
        src = PortAddress(i, 0)  # pod 0
        dst = PortAddress(spec.num_fas - 1 - i, 1)  # pod 1
        flow = Flow(src=src, dst=dst, size_bytes=500 * KB)
        hosts[src].start_flow(flow)
        flows.append(flow)

    # 4. Run.
    network.run(20 * MILLISECOND)

    # 5. Report.
    print("=== Stardust quickstart ===")
    print(f"fabric: {len(network.fas)} Fabric Adapters, "
          f"{len(network.fes)} Fabric Elements, "
          f"{network.host_count} hosts")
    for flow in flows:
        stats = tracker.get(flow.flow_id)
        fct_ms = stats.fct_ns / 1e6 if stats.fct_ns else float("nan")
        print(f"  flow {flow.src} -> {flow.dst}: "
              f"{stats.bytes_delivered} B in {fct_ms:.2f} ms "
              f"({stats.goodput_bps() / 1e9:.2f} Gbps)")

    # The unified fabric metrics surface (same shape for every fabric).
    metrics = network.collect_metrics()
    print(f"cells sprayed: {sum(fa.cells_sent for fa in network.fas)}")
    print(f"fabric cell drops: {metrics.fabric_drops} (lossless)")
    lat = metrics.cell_latency_ns
    print(f"cell latency: min {lat.minimum() / 1000:.2f} us, "
          f"p99 {lat.pct(99) / 1000:.2f} us")

    # Spray balance: every uplink of a loaded Fabric Adapter carried
    # nearly the same number of cells.
    fa0 = network.fas[0]
    counts = [up.tx_frames for up in fa0.uplinks]
    print(f"fa0 per-uplink cells: min {min(counts)}, max {max(counts)} "
          f"(near-perfect balance)")

    assert metrics.fabric_drops == 0
    assert all(tracker.get(f.flow_id).completed_ns is not None for f in flows)
    print("OK")


if __name__ == "__main__":
    main()
