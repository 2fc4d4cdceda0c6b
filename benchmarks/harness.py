"""Shared experiment harnesses for the benchmark suite.

Each benchmark regenerates one table or figure of the paper.  The
simulations are scaled-down versions of the paper's setups (documented
per benchmark); the *shape* of each result — who wins, by what rough
factor, where crossovers sit — is asserted, not absolute numbers.

What is left here is what the figures share: the standard
permutation topology, one Fig 10(a) run through
:func:`repro.experiments.runner.run_spec` (so benchmarks and
declarative sweeps share one implementation), and the table printer.
Figures that need a network build it with the fabric class's own
``for_experiment`` — ``StardustNetwork.for_experiment(PERM_SPEC,
PERM_RATE, ...)`` — the constructor scenario specs resolve to.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.registry import PERM_TOPOLOGY
from repro.experiments.runner import run_spec
from repro.experiments.spec import ScenarioSpec, TopologySpec, resolve_kind
from repro.net.addressing import PortAddress
from repro.sim.units import MILLISECOND, gbps

#: The standard scaled-down 2-tier fabric used by host-level benches —
#: one definition, shared with the experiment registry's "permutation"
#: scenario so the two can never silently diverge.
PERM_SPEC = PERM_TOPOLOGY.build()
PERM_ADDRS = [
    PortAddress(fa, p)
    for fa in range(PERM_SPEC.num_fas)
    for p in range(PERM_SPEC.hosts_per_fa)
]
PERM_RATE = gbps(10)


def permutation_throughput(
    kind: str,
    seed: int = 7,
    warmup_ns: int = 2 * MILLISECOND,
    window_ns: int = 6 * MILLISECOND,
    spec=PERM_SPEC,
    addrs: Optional[Sequence[PortAddress]] = None,
) -> List[float]:
    """One Fig 10(a) run; returns sorted per-flow Gbps."""
    fabric, transport = resolve_kind(kind)
    workload = {"kind": "permutation"}
    if transport == "mptcp":
        workload["mptcp_subflows"] = 8
    if addrs is not None:
        workload["addrs"] = [[a.fa, a.port] for a in addrs]
    scenario = ScenarioSpec(
        scenario="permutation",
        topology=TopologySpec.of(spec),
        fabric=fabric,
        transport=transport,
        workload=workload,
        seed=seed,
        warmup_ns=warmup_ns,
        measure_ns=window_ns,
        link_rate_bps=PERM_RATE,
    )
    # hermetic=False keeps the historical in-process flow-id sequence,
    # so existing benchmark outputs are reproduced bit for bit.
    return run_spec(scenario, hermetic=False).flow_rates_gbps


def print_series(title: str, rows: Sequence[tuple]) -> None:
    """Uniform table printer for benchmark output."""
    print(f"\n### {title}")
    for row in rows:
        print("   " + "  ".join(str(c) for c in row))
