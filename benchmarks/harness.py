"""Shared experiment harnesses for the benchmark suite.

Each benchmark regenerates one table or figure of the paper.  The
simulations are scaled-down versions of the paper's setups (documented
per benchmark); the *shape* of each result — who wins, by what rough
factor, where crossovers sit — is asserted, not absolute numbers.

Every simulated figure is a scenario of :mod:`repro.experiments.registry`
run through :mod:`repro.experiments.runner`, so a figure's cells are
the cells a sweep stores and queries.  What is left here is the Fig
10(a) run of the "permutation" scenario and the table printer.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec
from repro.sim.units import gbps

PERM_RATE = gbps(10)


def permutation_throughput(kind: str) -> List[float]:
    """One Fig 10(a) run; returns sorted per-flow Gbps."""
    return run_spec(build_scenario("permutation", kind=kind)).flow_rates_gbps


def print_series(title: str, rows: Sequence[tuple]) -> None:
    """Uniform table printer for benchmark output."""
    print(f"\n### {title}")
    for row in rows:
        print("   " + "  ".join(str(c) for c in row))
