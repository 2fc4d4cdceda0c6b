"""§6.1.2: throughput and latency of a single-tier Stardust system.

The paper measured an Arista 7500E (24 Fabric Adapters, 12 Fabric
Elements): full line rate on all ports for all packet sizes, no loss in
the fabric, minimum latency nearly independent of packet size, average
and maximum latency growing with packet size (store-and-forward), and
nanosecond-scale latency variance.  We reproduce the behaviours on a
scaled 8-FA / 4-FE single-tier system at 10G.
"""

from harness import print_series

from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec_with_network

import pytest

# Minutes-scale simulation: the fast gate skips it (-m 'not slow');
# CI runs the slow marks on main.
pytestmark = pytest.mark.slow

SIZES = [64, 256, 384, 512, 1024, 1500]


def run_size(packet_bytes: int):
    """One ``sec612_single_tier`` cell: 1 ms at 95% load, then a 250 us
    drain; returns metrics."""
    result, net = run_spec_with_network(
        build_scenario("sec612_single_tier", packet_bytes=packet_bytes)
    )
    metrics = net.collect_metrics()
    lat = metrics.packet_latency_ns
    return {
        "delivered_frac": result.metrics["delivery_ratio"],
        "lat_min_us": lat.minimum() / 1000,
        "lat_avg_us": lat.mean() / 1000,
        "lat_max_us": lat.maximum() / 1000,
        "lat_stdev_us": lat.stdev() / 1000,
        "fabric_drops": metrics.fabric_drops,
        "ingress_drops": metrics.ingress_drops,
    }


def test_sec612_line_rate_and_latency(benchmark):
    results = benchmark.pedantic(
        lambda: {s: run_size(s) for s in SIZES}, rounds=1, iterations=1
    )
    rows = [("pkt", "delivered", "min [us]", "avg [us]", "max [us]",
             "stdev [us]", "drops")]
    for size, r in results.items():
        rows.append(
            (f"{size}B", f"{r['delivered_frac'] * 100:.1f}%",
             f"{r['lat_min_us']:.2f}", f"{r['lat_avg_us']:.2f}",
             f"{r['lat_max_us']:.2f}", f"{r['lat_stdev_us']:.2f}",
             r["fabric_drops"] + r["ingress_drops"])
        )
    print_series("§6.1.2: single-tier system at 95% load", rows)

    for size, r in results.items():
        # Full line rate for all packet sizes, no loss anywhere.
        assert r["delivered_frac"] > 0.97, f"{size}B not at line rate"
        assert r["fabric_drops"] == 0
        assert r["ingress_drops"] == 0

    # Minimum latency nearly independent of packet size: at 10G links
    # store-and-forward adds ~1.2us for a 1500B packet, so the spread
    # of minima stays within ~3us while avg/max spread is far larger.
    minima = [r["lat_min_us"] for r in results.values()]
    assert max(minima) - min(minima) < 3.0
    avg_spread = (
        results[1500]["lat_avg_us"] - results[64]["lat_avg_us"]
    )
    assert avg_spread > 3 * (max(minima) - min(minima))

    # Average and maximum latency increase with packet size
    # (store-and-forward at the Fabric Adapter).
    avgs = [results[s]["lat_avg_us"] for s in SIZES]
    assert avgs[-1] > avgs[0]
    assert results[1500]["lat_max_us"] > results[64]["lat_max_us"]
