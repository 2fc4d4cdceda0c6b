"""Fig 7 / Fig 12 (§5.2, Appendix F): push fabric vs pull fabric.

Two 10G ports A and B on one destination device.  A is oversubscribed
2:1 from two sources; B is cleanly loaded at line rate.  The Ethernet
push fabric drops B's traffic at fabric links shared with A's excess;
Stardust's egress schedulers admit exactly port rate per port, so B is
untouched.  The traffic-class variant (Fig 12) loads A with a high
class and B with a low class: the pushed fabric still destroys B, and
Stardust still delivers both.  The cells are the registry's
``fig7_push_vs_pull`` and ``fig12_traffic_classes`` (``blast`` kind).
"""

from harness import print_series

from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec

RATE_GBPS = 10


def scenario(name: str, kind: str):
    """(port A, port B) goodput in Gbps over the 6 ms run."""
    metrics = run_spec(build_scenario(name, kind=kind)).metrics
    return metrics["rx_gbps_2_0"], metrics["rx_gbps_2_1"]


def test_fig7_push_vs_pull(benchmark):
    def run():
        return {
            "stardust": scenario("fig7_push_vs_pull", "stardust"),
            "push": scenario("fig7_push_vs_pull", "tcp"),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("fabric", "port A [Gbps]", "port B [Gbps]")]
    for kind, (a, b) in results.items():
        rows.append((kind, f"{a:.2f}", f"{b:.2f}"))
    print_series("Fig 7: oversubscribed port A vs innocent port B", rows)

    star_a, star_b = results["stardust"]
    push_a, push_b = results["push"]
    # Stardust: B unharmed (full sending window's worth), A at port rate.
    assert star_b > 0.85 * RATE_GBPS / 2  # half the 2x window
    assert star_a <= RATE_GBPS * 1.05
    # Push fabric: B loses a chunk of its traffic (paper: 66% delivered).
    assert push_b < 0.9 * star_b


def test_fig12_traffic_classes(benchmark):
    def run():
        return {
            "stardust": scenario("fig12_traffic_classes", "stardust"),
            "push": scenario("fig12_traffic_classes", "tcp"),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("fabric", "port A (high TC)", "port B (low TC)")]
    for kind, (a, b) in results.items():
        rows.append((kind, f"{a:.2f}", f"{b:.2f}"))
    print_series("Fig 12: same scenario with traffic classes", rows)

    star_a, star_b = results["stardust"]
    push_a, push_b = results["push"]
    # Stardust total is roughly twice the push fabric's (Appendix F).
    assert star_a + star_b > 1.5 * (push_a + push_b) * 0.75
    assert push_b < star_b
