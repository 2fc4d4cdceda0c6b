"""Deterministic synthetic sweeps: store-scale data without sim time.

The store's scale story (10^4–10^6 cells) cannot be exercised by
actually simulating that many cells in CI.  This module fabricates
sweeps that are *shaped* like real ones — valid :class:`ScenarioSpec`
grids, plausible :class:`RunResult` payloads, content-hash keys — from
a seed, so the nightly job and the scale tests push realistic volume
through the real put/flush/index/query path in seconds.

Everything derives from ``random.Random(seed)``: the same seed always
synthesizes byte-identical records.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.experiments.runner import RunResult
    from repro.experiments.spec import ScenarioSpec

_SCENARIOS = (
    ("permutation", "permutation"),
    ("incast", "incast"),
    ("many_to_many", "many_to_many"),
    ("uniform_random", "uniform_random"),
    ("mixed", "mixed"),
)
_FABRIC_KINDS = (("stardust", "tcp"), ("push", "tcp"), ("push", "dctcp"))


def synthetic_cells(
    n: int, seed: int = 1
) -> "Iterator[Tuple[ScenarioSpec, RunResult]]":
    """``n`` deterministic (spec, result) cells, seed axis outermost.

    The grid walks (scenario x fabric/transport) per seed, so any
    prefix selector (``scenario=incast``, ``fabric=push``) matches a
    predictable fraction of the sweep.
    """
    from repro.experiments.runner import RunResult
    from repro.experiments.spec import ScenarioSpec, TopologySpec

    produced = 0
    run_seed = seed
    while produced < n:
        for scenario, workload_kind in _SCENARIOS:
            for fabric, transport in _FABRIC_KINDS:
                if produced >= n:
                    return
                spec = ScenarioSpec(
                    scenario=scenario,
                    topology=TopologySpec(
                        kind="two_tier",
                        params={"num_fas": 4, "hosts_per_fa": 8},
                    ),
                    fabric=fabric,
                    transport=transport,
                    workload={"kind": workload_kind},
                    seed=run_seed,
                )
                yield spec, _synthetic_result(spec, RunResult)
                produced += 1
        run_seed += 1


def _synthetic_result(
    spec: "ScenarioSpec", result_cls: "Callable[..., RunResult]"
) -> "RunResult":
    """A plausible result payload, derived entirely from the spec."""
    rng = random.Random(f"{spec.content_hash()}/synth")
    n_flows = 32
    base = 9.2 if spec.fabric == "stardust" else 6.5
    rates = sorted(
        round(max(0.1, rng.gauss(base, 0.8)), 4) for _ in range(n_flows)
    )
    fcts: List[int] = []
    if spec.workload["kind"] in ("incast", "many_to_many", "mixed"):
        fcts = sorted(
            int(rng.lognormvariate(13.0, 0.6)) for _ in range(n_flows)
        )
    drops = rng.randrange(50) if spec.fabric == "push" else 0
    horizon = spec.warmup_ns + spec.measure_ns
    return result_cls(
        spec_hash=spec.content_hash(),
        scenario=spec.scenario,
        fabric=spec.fabric,
        transport=spec.transport,
        seed=spec.seed,
        flow_rates_gbps=rates,
        fcts_ns=fcts,
        delivered_bytes=int(sum(rates) / 8 * spec.measure_ns / 1e9 * 1e9),
        drops=drops,
        sim_time_ns=horizon,
        events_fired=rng.randrange(1_000_000, 2_000_000),
        metrics={
            "mean_gbps": sum(rates) / len(rates),
            "min_gbps": rates[0],
            "max_gbps": rates[-1],
            "max_voq_depth_cells": rng.randrange(4, 64),
        },
    )


def fill_store(
    store: object,
    n: int,
    seed: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> int:
    """Put ``n`` synthetic cells into any store speaking ``put()`` /
    ``flush()``."""
    count = 0
    for spec, result in synthetic_cells(n, seed=seed):
        store.put(spec, result)  # type: ignore[attr-defined]
        count += 1
        if progress is not None and count % 1000 == 0:
            progress(f"{count}/{n} synthetic cells stored")
    store.flush()  # type: ignore[attr-defined]
    return count
