"""Ablation (§3.4): packet packing at the fabric level.

The same trace-shaped traffic through the same fabric with packing on
vs off: unpacked mode needs more cells (every packet's tail cell is
short) and therefore more fabric bytes per delivered payload byte —
Fig 8's silicon argument visible at the network level.
"""

from harness import print_series

from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec_with_network

import pytest

# Minutes-scale simulation: the fast gate skips it (-m 'not slow');
# CI runs the slow marks on main.
pytestmark = pytest.mark.slow


def run_packing(packing: bool, workload: str):
    """One ``ablation_packing`` cell: 2 ms at 50% load, 0.5 ms drain."""
    spec = build_scenario(
        "ablation_packing", packet_mix=workload, packet_packing=packing
    )
    result, net = run_spec_with_network(spec)
    cells = sum(fa.cells_sent for fa in net.fas)
    payload = sum(
        net.host_at(a).bytes_sent for a in spec.topology.addresses()
    )
    fabric_bytes = cells and sum(
        up.tx_bytes for fa in net.fas for up in fa.uplinks
    )
    return {
        "cells": cells,
        "payload_bytes": payload,
        "fabric_bytes": fabric_bytes,
        "overhead": fabric_bytes / payload if payload else 0.0,
        "delivered": result.metrics["packets_received"],
        "sent": result.metrics["packets_sent"],
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
