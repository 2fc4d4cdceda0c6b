"""Ablation (§4.1, footnote 4): credit speedup.

Credit rate slightly above port rate keeps the egress buffer fed
(throughput); more speedup means more in-flight data and deeper fabric
queues (latency).  Sweep 0% / 2% / 5% and show the trade-off the paper
tunes around 2%.
"""

from harness import print_series

from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec_with_network
from repro.sim.units import MILLISECOND

import pytest

# Minutes-scale simulation: the fast gate skips it (-m 'not slow');
# CI runs the slow marks on main.
pytestmark = pytest.mark.slow

DURATION = 2 * MILLISECOND


def run_speedup(speedup: float):
    """One ``ablation_speedup`` cell: injection for ``DURATION``, then a
    ``DURATION / 2`` drain; delivery is averaged over both."""
    result, net = run_spec_with_network(
        build_scenario("ablation_speedup", credit_speedup=speedup)
    )
    delivered_bps = result.delivered_bytes * 8 / (1.5 * DURATION / 1e9)
    metrics = net.collect_metrics()
    return {
        "delivered_gbps": delivered_bps / 1e9,
        "latency_p99_us": metrics.cell_latency_ns.pct(99) / 1000,
        "queue_p99": metrics.queue_depth.pct(99),
        "drops": metrics.fabric_drops,
    }


def test_ablation_credit_speedup(benchmark):
    speedups = [0.0, 0.02, 0.05]
    results = benchmark.pedantic(
        lambda: {s: run_speedup(s) for s in speedups},
        rounds=1, iterations=1,
    )
    rows = [("speedup", "delivered [Gbps]", "latency p99 [us]",
             "queue p99 [cells]", "drops")]
    for s, r in results.items():
        rows.append(
            (f"{s * 100:.0f}%", f"{r['delivered_gbps']:.2f}",
             f"{r['latency_p99_us']:.1f}", f"{r['queue_p99']:.0f}",
             r["drops"])
        )
    print_series("Ablation: credit speedup (§4.1)", rows)

    # Lossless at every setting.
    assert all(r["drops"] == 0 for r in results.values())
    # Throughput: speedup must at least hold delivery (it exists to
    # keep egress buffers from starving on credit-loop jitter).
    assert results[0.02]["delivered_gbps"] >= 0.98 * results[0.0][
        "delivered_gbps"
    ]
    # Latency/queue cost grows with speedup at high load.
    assert (
        results[0.05]["queue_p99"] >= results[0.0]["queue_p99"]
    )
