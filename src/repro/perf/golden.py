"""Golden-trace matrix: recorded digests the simulator must reproduce.

A small fabric x tier x workload matrix of deliberately quick scenario
runs, each collapsed to a :func:`repro.perf.digest.run_digest`.  The
recorded digests live in ``tests/golden/*.json`` and are compared by
``tests/test_golden_traces.py`` on every run — any drift in event
ordering, flow rates, drops or queue dynamics fails the suite.

Regenerate (only after an *intentional* behavior change, in the same
commit that explains why)::

    python -m repro.perf golden --regen
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec_with_network
from repro.experiments.spec import ScenarioSpec, TopologySpec
from repro.perf.digest import diff_digests, run_digest
from repro.sim.units import KB, MICROSECOND, MILLISECOND
from repro.store import atomic_write_json

#: Default location, relative to the repo root (where pytest runs).
DEFAULT_GOLDEN_DIR = Path("tests") / "golden"

_ONE_TIER = TopologySpec(
    "one_tier", dict(num_fas=4, uplinks_per_fa=4, hosts_per_fa=2)
)
_TWO_TIER = TopologySpec(
    "two_tier",
    dict(pods=2, fas_per_pod=2, fes_per_pod=2, spines=2, hosts_per_fa=2),
)
_THREE_TIER = TopologySpec(
    "three_tier",
    dict(
        pods=2, fas_per_pod=2, fes1_per_pod=2, fes2_per_pod=2,
        spines=2, hosts_per_fa=2,
    ),
)

_PERM_WINDOWS = dict(warmup_ns=200 * MICROSECOND, measure_ns=600 * MICROSECOND)
_RAND_WINDOWS = dict(warmup_ns=100 * MICROSECOND, measure_ns=400 * MICROSECOND)


def golden_specs() -> List[ScenarioSpec]:
    """The recorded matrix: every cell runs in a few seconds."""
    specs = [
        # Permutation throughput across fabrics and tiers.
        build_scenario(
            "permutation", kind="stardust", topology=_ONE_TIER, **_PERM_WINDOWS
        ),
        build_scenario(
            "permutation", kind="tcp", topology=_ONE_TIER, **_PERM_WINDOWS
        ),
        build_scenario(
            "permutation", kind="dctcp", topology=_ONE_TIER, **_PERM_WINDOWS
        ),
        build_scenario(
            "permutation", kind="stardust", topology=_TWO_TIER, **_PERM_WINDOWS
        ),
        build_scenario(
            "permutation", kind="tcp", topology=_TWO_TIER, **_PERM_WINDOWS
        ),
        build_scenario(
            "permutation", kind="stardust", topology=_THREE_TIER,
            **_PERM_WINDOWS,
        ),
        # Open-loop uniform random traffic (no transport feedback loop).
        build_scenario(
            "uniform_random", kind="stardust", topology=_TWO_TIER,
            utilization=0.5, **_RAND_WINDOWS,
        ),
        build_scenario(
            "uniform_random", kind="tcp", topology=_TWO_TIER,
            utilization=0.5, **_RAND_WINDOWS,
        ),
        # Incast: synchronized responders, FCT-shaped digest.
        build_scenario(
            "incast", kind="stardust", n_backends=3,
            response_bytes=50 * KB, timeout_ns=5 * MILLISECOND,
        ),
        # Faulted cells: failure experiments must be exactly as
        # reproducible as healthy ones, on both fabrics.  The stardust
        # cell runs the live reachability protocol (self-healing path);
        # the push cell models delayed ECMP rehash (blackholing path).
        build_scenario(
            "permutation_link_failure", kind="stardust",
            topology=_TWO_TIER, fail_at_ns=300 * MICROSECOND,
            downtime_ns=200 * MICROSECOND, **_PERM_WINDOWS,
        ),
        build_scenario(
            "permutation_link_failure", kind="tcp",
            topology=_TWO_TIER, fail_at_ns=300 * MICROSECOND,
            downtime_ns=200 * MICROSECOND, **_PERM_WINDOWS,
        ),
        build_scenario(
            "incast_element_failure", kind="stardust", n_backends=3,
            response_bytes=50 * KB, timeout_ns=5 * MILLISECOND,
        ),
        # Cells at scale: the two large three-tier scenarios the
        # calendar-queue engine unlocked, pinned with windows short
        # enough for CI but deep enough to cross the global spine row
        # under load (~2M events for the permutation cell).
        build_scenario(
            "permutation_three_tier_large", kind="stardust",
            warmup_ns=150 * MICROSECOND, measure_ns=450 * MICROSECOND,
        ),
        build_scenario(
            "mixed_three_tier_large", kind="stardust",
            warmup_ns=200 * MICROSECOND, measure_ns=800 * MICROSECOND,
        ),
    ]
    # Every transport x workload start path no cell above takes: mptcp's
    # connection, dcqcn's per-flow notification point and line rate,
    # dctcp outside permutation, and the delayed starts of the two
    # FCT workloads.  Small cells (0.4-12k events each).
    specs += [
        build_scenario(
            "permutation", kind=kind, topology=_ONE_TIER, **_PERM_WINDOWS
        )
        for kind in ("mptcp", "dcqcn")
    ]
    specs += [
        build_scenario(
            "incast", kind=kind, n_backends=3, response_bytes=50 * KB
        )
        for kind in ("dctcp", "dcqcn")
    ]
    specs += [
        build_scenario(
            "many_to_many", kind=kind, flow_bytes=20_000,
            timeout_ns=2 * MILLISECOND,
        )
        for kind in ("stardust", "mptcp", "dcqcn")
    ]
    specs += [
        build_scenario(
            "mixed", kind=kind, topology=_ONE_TIER, load=0.8,
            warmup_ns=200 * MICROSECOND, measure_ns=1800 * MICROSECOND,
        )
        for kind in ("dctcp", "mptcp", "dcqcn")
    ]
    # The two figure-only workload kinds: Fig 10(b)'s sequential probes
    # over a background permutation on ECMP, and Fig 12's pre-queued
    # blasts in two traffic classes on the cell fabric.
    probes = build_scenario("fig10b_fct", kind="dctcp")
    blast = build_scenario("fig12_traffic_classes", kind="stardust")
    specs += [
        probes.with_updates(
            topology=_TWO_TIER,
            workload={**probes.workload, "probes": 6},
            measure_ns=20 * MILLISECOND,
        ),
        blast.with_updates(
            workload={**blast.workload, "burst_ns": 300 * MICROSECOND},
            measure_ns=1 * MILLISECOND,
        ),
    ]
    return specs


def golden_name(spec: ScenarioSpec) -> str:
    """Stable file stem for one golden cell."""
    return (
        f"{spec.scenario}-{spec.fabric}-{spec.topology.kind}"
        f"-{spec.transport}-s{spec.seed}"
    )


def compute_digest(spec: ScenarioSpec) -> Dict:
    """Run ``spec`` hermetically and digest the outcome."""
    result, net = run_spec_with_network(spec)
    return run_digest(result, net)


def write_goldens(directory: Path = DEFAULT_GOLDEN_DIR) -> List[Path]:
    """(Re)record every golden cell under ``directory``."""
    paths = []
    for spec in golden_specs():
        payload = {
            "spec": spec.to_dict(),
            "digest": compute_digest(spec),
            "regenerate": "python -m repro.perf golden --regen",
        }
        paths.append(
            atomic_write_json(
                Path(directory) / f"{golden_name(spec)}.json", payload
            )
        )
    return paths


def check_goldens(
    directory: Path = DEFAULT_GOLDEN_DIR,
) -> List[Tuple[str, Dict[str, tuple]]]:
    """Re-run the matrix and diff against the recorded digests.

    Returns ``[(cell_name, {field: (recorded, computed)})]`` — one entry
    per drifted cell, empty when everything is bit-identical.  A missing
    recording counts as drift (field ``"missing"``).
    """
    drifted = []
    for spec in golden_specs():
        name = golden_name(spec)
        path = Path(directory) / f"{name}.json"
        if not path.exists():
            drifted.append((name, {"missing": (str(path), None)}))
            continue
        recorded = json.loads(path.read_text())["digest"]
        diff = diff_digests(recorded, compute_digest(spec))
        if diff:
            drifted.append((name, diff))
    return drifted
