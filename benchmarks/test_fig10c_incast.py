"""Fig 10(c): incast completion time vs number of backend servers.

A frontend collects a fixed-size response (450KB in the paper; scaled
here) from N backends simultaneously.  The paper's claims: Stardust's
*last* FCT matches DCTCP's, its *first-to-last spread* (fairness) is
far better, and no packets drop inside the Stardust fabric.
"""

from harness import print_series

from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec

BACKEND_COUNTS = [4, 8, 16, 23]


def run_one(kind: str, n_backends: int):
    """One ``fig10c_incast`` cell: 150KB from each backend at once.

    Its drops are all in-network loss: an incast's bottleneck is the
    frontend's edge device, which the push fabric books as edge loss.
    """
    return run_spec(
        build_scenario("fig10c_incast", kind=kind, n_backends=n_backends)
    )


def test_fig10c_incast(benchmark):
    def run():
        return {
            kind: [run_one(kind, n) for n in BACKEND_COUNTS]
            for kind in ("stardust", "dctcp", "tcp")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("scheme", "backends", "first [ms]", "last [ms]",
             "spread", "done", "drops")]
    for kind, runs in results.items():
        for n, r in zip(BACKEND_COUNTS, runs):
            m = r.metrics
            rows.append(
                (kind, n,
                 f"{m['first_fct_ns'] / 1e6:.2f}" if m["first_fct_ns"] else "-",
                 f"{m['last_fct_ns'] / 1e6:.2f}" if m["last_fct_ns"] else "-",
                 f"{m['fairness_spread']:.2f}" if m["fairness_spread"] else "-",
                 f"{m['completed']}/{n}", r.drops)
            )
    print_series("Fig 10(c): incast completion vs backend count", rows)

    for i in range(len(BACKEND_COUNTS)):
        star_run = results["stardust"][i]
        star, dctcp = star_run.metrics, results["dctcp"][i].metrics
        # Everything completes, and the Stardust fabric never drops.
        assert star["all_completed"]
        assert star_run.drops == 0
        # Last FCT comparable to DCTCP (within 1.5x either way).
        if dctcp["last_fct_ns"] and star["last_fct_ns"]:
            assert star["last_fct_ns"] < 1.5 * dctcp["last_fct_ns"]
        # Fairness: Stardust's first-to-last spread is far tighter.
        if star["fairness_spread"] and dctcp["fairness_spread"]:
            assert star["fairness_spread"] < dctcp["fairness_spread"]

    # Last FCT grows with incast degree (the port is the bottleneck).
    lasts = [r.metrics["last_fct_ns"] for r in results["stardust"]]
    assert lasts == sorted(lasts)
