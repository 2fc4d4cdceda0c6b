"""Fig 9 (§6.2): latency and queue-size distributions in a 2-tier fabric.

A scaled-down version of the paper's 256-FA / 192-FE simulation:
8 FAs x 4 hosts at 10G over a full-bisection 2-tier fabric, open-loop
Poisson traffic to uniformly random remote FAs at fabric utilizations
0.66 / 0.8 / 0.92 / 0.95, plus an intentionally oversubscribed 1.2 run
where FCI throttles the credit rate.  Queue depths are sampled at
last-stage (FE -> FA) links in cells, as in the paper, and compared
against the M/D/1 model of §4.2.1.
"""

import functools

from harness import print_series

from repro.analysis.mdq import md1_tail_probability
from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec_with_network

import pytest

# Minutes-scale simulation: the fast gate skips it (-m 'not slow');
# CI runs the slow marks on main.
pytestmark = pytest.mark.slow

LOADS = [0.66, 0.8, 0.92, 0.95]


@functools.cache
def run_load(load: float, oversubscribed: bool = False):
    """One ``fig9_queueing`` cell; returns (latency_hist, queue_hist,
    network).

    Memoised for the module: both figures read the same five
    simulations (the latency and the queue side of one run), so each is
    simulated once.  Every cell is hermetic, so a second run would
    reproduce the first.
    """
    if oversubscribed:
        # 5 hosts x 10G feed 4x10G of uplinks: 1.25x oversubscription
        # at 96% wire injection = 1.2 offered fabric load.
        spec = build_scenario("fig9_queueing", load=0.96, hosts_per_fa=5)
    else:
        spec = build_scenario("fig9_queueing", load=load)
    _result, net = run_spec_with_network(spec)
    metrics = net.collect_metrics()
    return metrics.cell_latency_ns, metrics.queue_depth, net


@pytest.fixture(scope="module", autouse=True)
def _release_runs():
    """Drop the five memoised networks (~200 MiB) when the module ends."""
    yield
    run_load.cache_clear()


def test_fig9_latency_distribution(benchmark):
    def run():
        results = {}
        for load in LOADS:
            lat, _q, net = run_load(load)
            results[load] = {
                "p50": lat.pct(50) / 1000,
                "p99": lat.pct(99) / 1000,
                "max": lat.maximum() / 1000,
                "drops": net.fabric_drop_count(),
            }
        lat, _q, net = run_load(1.2, oversubscribed=True)
        results[1.2] = {
            "p50": lat.pct(50) / 1000,
            "p99": lat.pct(99) / 1000,
            "max": lat.maximum() / 1000,
            "drops": net.fabric_drop_count(),
        }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("load", "p50 [us]", "p99 [us]", "max [us]", "cell drops")]
    for load, r in results.items():
        rows.append(
            (load, f"{r['p50']:.2f}", f"{r['p99']:.2f}",
             f"{r['max']:.2f}", r["drops"])
        )
    print_series("Fig 9 (left): fabric traversal latency", rows)

    # Latency distribution is tight and grows with load.
    p99s = [results[l]["p99"] for l in LOADS]
    assert p99s == sorted(p99s)
    # Even at 95% the tail stays bounded (paper: <13us at its scale).
    assert results[0.95]["max"] < 100.0
    # Lossless at every load, including 120% with FCI.
    assert all(r["drops"] == 0 for r in results.values())


def test_fig9_queue_distribution(benchmark):
    def run():
        results = {}
        for load in LOADS:
            _lat, queues, net = run_load(load)
            tail10 = sum(1 for s in queues.samples if s >= 10) / queues.count
            tail25 = sum(1 for s in queues.samples if s >= 25) / queues.count
            results[load] = {
                "mean": queues.mean(),
                "p99": queues.pct(99),
                "max": queues.maximum(),
                "tail10": tail10,
                "tail25": tail25,
                "md1_tail10": md1_tail_probability(load, 10),
                "fci": sum(fe.cells_fci_marked for fe in net.fes),
            }
        _lat, queues, net = run_load(1.2, oversubscribed=True)
        results[1.2] = {
            "mean": queues.mean(),
            "p99": queues.pct(99),
            "max": queues.maximum(),
            "tail10": sum(1 for s in queues.samples if s >= 10)
            / queues.count,
            "tail25": sum(1 for s in queues.samples if s >= 25)
            / queues.count,
            "md1_tail10": float("nan"),
            "fci": sum(fe.cells_fci_marked for fe in net.fes),
        }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ("load", "mean [cells]", "p99", "max",
         "P[Q>=10]", "M/D/1 P[Q>=10]", "FCI marks")
    ]
    for load, r in results.items():
        rows.append(
            (load, f"{r['mean']:.2f}", f"{r['p99']:.0f}", f"{r['max']:.0f}",
             f"{r['tail10']:.2e}", f"{r['md1_tail10']:.2e}", r["fci"])
        )
    print_series("Fig 9 (right): last-stage queue size [cells]", rows)

    # Queue tails grow with utilization (exponential in load).
    tails = [results[l]["tail10"] for l in LOADS]
    assert tails == sorted(tails)
    # The M/D/1 model upper-bounds the sprayed fabric (it assumes the
    # worst-case arrival process, §4.2.1/§5.7).
    for load in LOADS:
        assert results[load]["tail10"] <= 3 * max(
            results[load]["md1_tail10"], 1e-6
        )
    # Oversubscription run: FCI engaged, queues bounded (they stop
    # growing once the throttle bites) and, critically, lossless.
    assert results[1.2]["fci"] > 0
    assert results[1.2]["max"] < 600
