"""§5.9 live: the fabric heals itself after a link failure.

Runs the real reachability protocol in a 1-tier fabric, fails a Fabric
Adapter uplink both ways under a permutation of TCP flows, and measures
(a) how long until the protocol declares the dead link down and (b)
that delivery continues over the surviving links, then (c) that the
link is re-admitted after repair.  The cell is the registry's
``sec59_self_healing``, a ``permutation_link_failure`` cell; its fault
injector reports the detection time next to the Appendix E
expectation for the same protocol parameters.
"""

from harness import print_series

from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec_with_network
from repro.sim.units import MICROSECOND

PERIOD = 10 * MICROSECOND
UPLINKS = 4


def run_healing():
    result, net = run_spec_with_network(build_scenario("sec59_self_healing"))
    metrics = result.metrics
    return {
        # Sample-quantized (20 us) time from the failure to the first
        # down declaration by any reachability monitor.
        "exclusion_us": metrics["protocol_detect_ns"] / 1000,
        "analytical_us": metrics["analytical_recovery_ns"] / 1000,
        "flows_delivering": sum(r > 0 for r in result.flow_rates_gbps),
        "flows": len(result.flow_rates_gbps),
        "dip_depth": metrics["dip_depth"],
        "fabric_drops": result.drops,
        # Source FA 0 sprays on every uplink again, and remote FA 1
        # again reaches FA 0 through every element.
        "readmitted": len(net.fas[0].eligible_uplinks(2)) == UPLINKS,
        "remote_healed": len(net.fas[1].eligible_uplinks(0)) == UPLINKS,
    }


def test_sec59_self_healing(benchmark):
    result = benchmark.pedantic(run_healing, rounds=1, iterations=1)
    rows = [
        ("protocol detection time",
         f"{result['exclusion_us']:.0f} us "
         f"(Appendix E: {result['analytical_us']:.1f} us)"),
        ("flows delivering through the failure",
         f"{result['flows_delivering']}/{result['flows']}"),
        ("deepest throughput dip", f"{result['dip_depth']:.0%}"),
        ("cells dropped by the fabric", result["fabric_drops"]),
        ("link re-admitted after restore", result["readmitted"]),
        ("remote view healed after restore", result["remote_healed"]),
    ]
    print_series("§5.9: self-healing under link failure", rows)

    # Detection needs miss_threshold periods of silence plus an
    # advertisement cycle — the "hundreds of microseconds" Appendix E
    # band at these parameters — and is definitely not instantaneous.
    assert result["exclusion_us"] <= 8 * PERIOD / 1000 + 50
    assert result["exclusion_us"] >= 2 * PERIOD / 1000
    # Delivery continues over the surviving links: every flow delivers
    # and aggregate delivery never stops.
    assert result["flows_delivering"] == result["flows"]
    assert result["dip_depth"] < 1.0
    assert result["readmitted"]
    assert result["remote_healed"]
