"""Ablation (§3.4): packet packing at the fabric level.

The same trace-shaped traffic through the same fabric with packing on
vs off: unpacked mode needs more cells (every packet's tail cell is
short) and therefore more fabric bytes per delivered payload byte —
Fig 8's silicon argument visible at the network level.
"""

from harness import print_series

from repro.fabrics import OneTierSpec, StardustNetwork
from repro.net.addressing import PortAddress
from repro.sim.units import MILLISECOND, gbps
from repro.workloads.distributions import packet_size_distribution
from repro.workloads.generator import UniformRandomTraffic

import pytest

# Minutes-scale simulation: the fast gate skips it (-m 'not slow');
# CI runs the slow marks on main.
pytestmark = pytest.mark.slow

SPEC = OneTierSpec(num_fas=6, uplinks_per_fa=4, hosts_per_fa=2)
RATE = gbps(10)
ADDRS = [
    PortAddress(fa, p)
    for fa in range(SPEC.num_fas)
    for p in range(SPEC.hosts_per_fa)
]


def run_packing(packing: bool, workload: str):
    net = StardustNetwork.for_experiment(
        SPEC, RATE, cell_size_bytes=256, packet_packing=packing
    )
    traffic = UniformRandomTraffic(
        net, ADDRS, utilization=0.5,
        size_dist=packet_size_distribution(workload), seed=41,
    )
    traffic.start()
    net.run(2 * MILLISECOND)
    traffic.stop()
    net.run(MILLISECOND // 2)

    cells = sum(fa.cells_sent for fa in net.fas)
    payload = sum(i.bytes_sent for i in traffic.injectors)
    fabric_bytes = cells and sum(
        up.tx_bytes for fa in net.fas for up in fa.uplinks
    )
    return {
        "cells": cells,
        "payload_bytes": payload,
        "fabric_bytes": fabric_bytes,
        "overhead": fabric_bytes / payload if payload else 0.0,
        "delivered": traffic.total_received(),
        "sent": traffic.total_sent(),
    }


def test_ablation_packet_packing(benchmark):
    def run():
        return {
            workload: {
                packing: run_packing(packing, workload)
                for packing in (True, False)
            }
            for workload in ("web", "hadoop", "db")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("workload", "packed cells", "unpacked cells",
             "packed overhead", "unpacked overhead")]
    for workload, by_mode in results.items():
        rows.append(
            (workload,
             by_mode[True]["cells"], by_mode[False]["cells"],
             f"{(by_mode[True]['overhead'] - 1) * 100:.1f}%",
             f"{(by_mode[False]['overhead'] - 1) * 100:.1f}%")
        )
    print_series("Ablation: packet packing (§3.4) — fabric overhead", rows)

    for by_mode in results.values():
        packed, unpacked = by_mode[True], by_mode[False]
        # Same offered traffic, everything delivered either way...
        assert packed["delivered"] > 0.95 * packed["sent"]
        assert unpacked["delivered"] > 0.95 * unpacked["sent"]
        # ...but unpacked mode needs strictly more cells and more
        # fabric bytes per payload byte.
        assert unpacked["cells"] > packed["cells"]
        assert unpacked["overhead"] > packed["overhead"]
    # Small-packet workloads suffer the most from disabling packing.
    web_penalty = (
        results["web"][False]["overhead"] / results["web"][True]["overhead"]
    )
    hadoop_penalty = (
        results["hadoop"][False]["overhead"]
        / results["hadoop"][True]["overhead"]
    )
    assert web_penalty > hadoop_penalty
