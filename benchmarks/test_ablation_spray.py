"""Ablation (§5.3): spray arbitration policy.

The paper's choice — round-robin over a periodically reshuffled random
permutation — against two alternatives: pure random pick per cell, and
a static per-destination link (ECMP-at-cell-granularity).  Permutation
spray gives perfectly even link loads; random spray is close but
noisier (bigger queue tails); static pinning collapses to flow-hashing
behaviour and congests.
"""

from harness import print_series

from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec_with_network

import pytest

# Minutes-scale simulation: the fast gate skips it (-m 'not slow');
# CI runs the slow marks on main.
pytestmark = pytest.mark.slow


def run_mode(mode: str):
    """One ``ablation_spray`` cell: 2 ms at 85% load."""
    result, net = run_spec_with_network(
        build_scenario("ablation_spray", spray_mode=mode)
    )
    # Per-uplink imbalance at one loaded Fabric Adapter.
    counts = [up.tx_frames for up in net.fas[0].uplinks]
    imbalance = (max(counts) - min(counts)) / max(max(counts), 1)
    metrics = net.collect_metrics()
    queues = metrics.queue_depth
    return {
        "imbalance": imbalance,
        "queue_p99": queues.pct(99),
        "queue_max": queues.maximum(),
        "latency_p99_us": metrics.cell_latency_ns.pct(99) / 1000,
        "delivered": result.metrics["packets_received"],
    }


def test_ablation_spray_modes(benchmark):
    results = benchmark.pedantic(
        lambda: {m: run_mode(m) for m in ("permutation", "random", "static")},
        rounds=1, iterations=1,
    )
    rows = [("spray mode", "uplink imbalance", "queue p99", "queue max",
             "latency p99 [us]")]
    for mode, r in results.items():
        rows.append(
            (mode, f"{r['imbalance'] * 100:.1f}%", f"{r['queue_p99']:.0f}",
             f"{r['queue_max']:.0f}", f"{r['latency_p99_us']:.1f}")
        )
    print_series("Ablation: spray arbitration (§5.3)", rows)

    perm, rand, static = (
        results["permutation"], results["random"], results["static"],
    )
    # Permutation spray: near-perfect balance (<2%).
    assert perm["imbalance"] < 0.02
    # Random: same long-run balance ballpark, but worse than permutation.
    assert perm["imbalance"] <= rand["imbalance"]
    # Static pinning is catastrophically imbalanced and queues blow up.
    assert static["imbalance"] > 5 * max(rand["imbalance"], 0.01)
    assert static["queue_max"] > 2 * perm["queue_max"]
    # Latency tail ordering follows.
    assert perm["latency_p99_us"] <= static["latency_p99_us"]
