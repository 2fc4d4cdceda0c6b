"""Declarative experiments: scenario specs, a registry, and a runner.

This package is the front door for running evaluations at scale.  A
:class:`~repro.experiments.spec.ScenarioSpec` declares *what* to run
(topology, fabric kind, transport, workload, seed, measurement window,
config overrides) as a JSON-serializable value; the
:mod:`~repro.experiments.registry` names parameterized families of
specs; the :mod:`~repro.experiments.runner` executes spec matrices with
``multiprocessing`` fan-out, caching results by spec content hash in a
:class:`~repro.store.RecordStore` so repeated sweeps only pay for new
cells.

Quickstart::

    from repro.experiments import build_scenario, run_spec

    spec = build_scenario("permutation", kind="stardust", seed=7)
    result = run_spec(spec)
    print(result.flow_rates_gbps)

or from the command line::

    python -m repro.experiments run permutation \
        --kinds stardust,dctcp --seeds 3 --shards 4
"""

from repro.experiments.builders import build_network
from repro.experiments.registry import (
    UnknownScenarioError,
    build_scenario,
    get_scenario,
    scenario,
    scenario_names,
)
from repro.experiments.runner import RunResult, run_matrix, run_spec
from repro.experiments.spec import (
    KIND_PRESETS,
    ScenarioSpec,
    TopologySpec,
    resolve_kind,
)
from repro.experiments.summarize import Summary, aggregate

__all__ = [
    "KIND_PRESETS",
    "RunResult",
    "ScenarioSpec",
    "Summary",
    "TopologySpec",
    "UnknownScenarioError",
    "aggregate",
    "build_network",
    "build_scenario",
    "get_scenario",
    "resolve_kind",
    "run_matrix",
    "run_spec",
    "scenario",
    "scenario_names",
]
