"""Fig 10(b): flow completion times of Web-workload flows under load.

A pair of hosts exchanges flows drawn from the (synthetic) Facebook Web
flow-size distribution while every other host runs long-lived
background traffic — the paper's "testing the effect of queuing within
the network on short flows".  Stardust's scheduled fabric keeps short
flows out of deep queues: the paper's CDF shows even 1MB flows
finishing in under a millisecond, far ahead of DCTCP/DCQCN/MPTCP.

Each cell is the registry's ``fig10b_fct`` (``probes`` kind): 30
sequential probes over one background permutation draw.  One draw is
too few for a median claim, so the claims are judged on the pooled
FCTs of seeds 1-5 per scheme, and the file also prints on how many of
the five seeds each claim holds alone.
"""

from harness import print_series

from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_matrix

import pytest

# Minutes-scale simulation: the fast gate skips it (-m 'not slow');
# CI runs the slow marks on main.
pytestmark = pytest.mark.slow

KINDS = ("stardust", "tcp", "dctcp")
SEEDS = (1, 2, 3, 4, 5)
N_PROBE_FLOWS = 30


def pct(fcts, q):
    return fcts[min(len(fcts) - 1, int(q * len(fcts)))]


def stats(fcts):
    """(p50, p90, p99) of sorted FCTs in ms."""
    return pct(fcts, 0.5), pct(fcts, 0.9), pct(fcts, 0.99)


def claims(fcts, probes):
    """Each claim of the figure on sorted FCTs (ms) per scheme -> holds?"""
    star = fcts["stardust"]
    s50, _, s99 = stats(star)
    held = {
        "every stardust probe done": len(star) == probes,
        # "Even flows of 1MB have a FCT of less than a millisecond" —
        # the largest probe is 1MB; allow 2ms at our 10G scale.
        "stardust max < 2 ms": star[-1] < 2.0,
    }
    # Stardust's distribution beats both competitors at the median and
    # the tail (Fig 10(b)'s CDF dominance).
    for kind in ("tcp", "dctcp"):
        o50, _, o99 = stats(fcts[kind])
        held[f"p99 <= {kind} p99"] = s99 <= o99
        held[f"p50 <= 1.2 x {kind} p50"] = s50 <= o50 * 1.2
    return held


def test_fig10b_web_fct(benchmark):
    def run():
        specs = [
            build_scenario("fig10b_fct", kind=kind, seed=seed)
            for kind in KINDS
            for seed in SEEDS
        ]
        results = iter(run_matrix(specs))
        return {
            kind: {seed: [f / 1e6 for f in next(results).fcts_ns]
                   for seed in SEEDS}
            for kind in KINDS
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    pooled = {
        kind: sorted(f for fcts in by_seed.values() for f in fcts)
        for kind, by_seed in results.items()
    }
    rows = [("scheme", "seed", "done", "p50 [ms]", "p90 [ms]", "p99 [ms]")]
    for kind in KINDS:
        cells = [(seed, results[kind][seed]) for seed in SEEDS]
        cells.append(("all", pooled[kind]))
        for seed, fcts in cells:
            runs = len(SEEDS) if seed == "all" else 1
            rows.append(
                (kind, seed, f"{len(fcts)}/{runs * N_PROBE_FLOWS}",
                 *(f"{v:.3f}" for v in stats(fcts)))
            )
    print_series("Fig 10(b): Web-workload FCT under background load", rows)

    per_seed = [
        claims({k: results[k][seed] for k in KINDS}, N_PROBE_FLOWS)
        for seed in SEEDS
    ]
    held = claims(pooled, len(SEEDS) * N_PROBE_FLOWS)
    print_series(
        "Fig 10(b): claims, pooled and per seed",
        [("claim", "pooled", "holds on")] + [
            (claim, ok, f"{sum(c[claim] for c in per_seed)}/{len(SEEDS)}")
            for claim, ok in held.items()
        ],
    )
    assert all(held.values()), held
