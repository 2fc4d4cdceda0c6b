"""The four workloads: which cells each one simulates, and what must hold.

Every workload is the same closed-loop *sweep round* (see
``lifecycle.py``): simulate the workload's cells cold into a preloaded
:class:`~repro.store.RecordStore`, re-read them (plus cached synthetic
cells) through a newly opened store, then query and verify the store.
The workloads differ only in *which cells* the cold phase simulates —
that choice decides which layer of the simulator carries the time.

The single-scenario workloads simulate the same scenario on several
seeds derived from ``--seed``: how much work a cell is depends on its
seed (which hosts a permutation pairs, which flow sizes are drawn) by
10-20 %, and the driver compares runs on *different* seeds.  Several
short cells cost what one long cell costs, vary half as much in sum,
and let the yardstick run between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.registry import build_scenario
from repro.experiments.runner import RunResult
from repro.experiments.spec import ScenarioSpec, TopologySpec
from repro.sim.units import MICROSECOND

#: Synthetic cells preloaded into the store before anything is timed
#: (full size, smoke size).  The store every workload sweeps into is
#: never empty: put/get/query costs depend on block and index size.
PRELOAD_CELLS = (2000, 60)

#: Cached synthetic cells each resume re-reads, beside the round's own
#: cells (full size, smoke size).
RESUME_CELLS = (40, 6)

#: The 128-FA three-tier fabric of the build-heavy cells: on the push
#: fabric 20 us of sim time cost less than building and wiring it, on
#: the pull fabric with dynamic reachability less than converging it.
_LARGE_THREE_TIER = TopologySpec(
    "three_tier",
    dict(
        pods=4, fas_per_pod=32, fes1_per_pod=8, fes2_per_pod=8,
        spines=8, hosts_per_fa=1,
    ),
)

SpecBuilder = Callable[[int, Optional[str], bool], List[ScenarioSpec]]
CellCheck = Callable[[RunResult, Dict[str, Any], bool], List[str]]


def _seeds(seed: int, cells: int, smoke: bool) -> List[int]:
    """The cell seeds ``--seed`` stands for (one of them at smoke size)."""
    return [seed * 100 + cell for cell in range(1 if smoke else cells)]


def _permutation(seed: int, kernel: Optional[str], smoke: bool) -> List[ScenarioSpec]:
    windows = (
        dict(warmup_ns=10 * MICROSECOND, measure_ns=30 * MICROSECOND)
        if smoke
        else dict(warmup_ns=25 * MICROSECOND, measure_ns=75 * MICROSECOND)
    )
    return [
        build_scenario(
            "permutation", kind="stardust", seed=cell_seed, kernel=kernel,
            **windows,
        )
        for cell_seed in _seeds(seed, 6, smoke)
    ]


def _uniform(seed: int, kernel: Optional[str], smoke: bool) -> List[ScenarioSpec]:
    windows = (
        dict(warmup_ns=5 * MICROSECOND, measure_ns=15 * MICROSECOND)
        if smoke
        else dict(warmup_ns=12 * MICROSECOND, measure_ns=48 * MICROSECOND)
    )
    return [
        build_scenario(
            "uniform_random", kind="stardust", seed=cell_seed, kernel=kernel,
            packet_mix="web", utilization=0.7, **windows,
        )
        for cell_seed in _seeds(seed, 4, smoke)
    ]


def _mixed(seed: int, kernel: Optional[str], smoke: bool) -> List[ScenarioSpec]:
    # Web flows only, offered at line rate: ~1 500 short flows over the
    # six cells.  With storage flows in the mix a handful of 10-100 MB
    # flows decide the event count and it swings +-30 % with the seed.
    windows = (
        dict(warmup_ns=50 * MICROSECOND, measure_ns=150 * MICROSECOND)
        if smoke
        else dict(warmup_ns=200 * MICROSECOND, measure_ns=1800 * MICROSECOND)
    )
    return [
        build_scenario(
            "mixed", kind="dctcp", seed=cell_seed, kernel=kernel, load=1.0,
            web_fraction=1.0, max_flows_per_host=4000, **windows,
        )
        for cell_seed in _seeds(seed, 6, smoke)
    ]


def _sweep(seed: int, kernel: Optional[str], smoke: bool) -> List[ScenarioSpec]:
    """Six short cells plus three cells whose cost is the fabric build."""
    common: Dict[str, Any] = dict(seed=seed, kernel=kernel)
    incast = dict(common, response_bytes=4_000) if smoke else common
    many = dict(common, flow_bytes=4_000 if smoke else 100_000)
    kinds = ("stardust", "tcp", "dctcp")
    specs = [build_scenario("incast", kind=kind, **incast) for kind in kinds]
    specs += [build_scenario("many_to_many", kind=kind, **many) for kind in kinds]
    large = dict(
        common, warmup_ns=5 * MICROSECOND, measure_ns=15 * MICROSECOND
    )
    if not smoke:
        large["topology"] = _LARGE_THREE_TIER
    specs += [
        build_scenario("permutation_three_tier", kind="stardust", **large),
        build_scenario(
            "permutation_three_tier", kind="stardust",
            reachability="dynamic", **large,
        ),
        build_scenario("permutation_three_tier", kind="tcp", **large),
    ]
    return specs


# ----------------------------------------------------------------------
# Output checks: what makes a simulated cell count as failed.  Levels
# (Gbps, ratios) are only asserted at full size — a smoke window ends
# before TCP leaves slow start.
# ----------------------------------------------------------------------


def _no_fabric_drops(digest: Dict[str, Any]) -> List[str]:
    drops = digest["fabric_drops"]
    # Paper section 5.5: the pull fabric never drops inside the fabric.
    return [f"fabric_drops == {drops}, want 0"] if drops else []


def _check_permutation(
    result: RunResult, digest: Dict[str, Any], smoke: bool
) -> List[str]:
    failures = _no_fabric_drops(digest)
    # 9.1-9.4 of 10 Gbps over the 75 us window, 25 us after the start.
    mean_gbps = result.metrics["mean_gbps"]
    if mean_gbps < (0.0 if smoke else 8.5):
        failures.append(f"mean_gbps == {mean_gbps:.3f}, want >= 8.5")
    return failures


def _check_uniform(
    result: RunResult, digest: Dict[str, Any], smoke: bool
) -> List[str]:
    failures = _no_fabric_drops(digest)
    # Packets still in flight when the 60 us cell ends count as
    # undelivered: 0.95-0.99 on a healthy fabric.
    ratio = result.metrics["delivery_ratio"]
    if ratio < (0.5 if smoke else 0.9):
        failures.append(f"delivery_ratio == {ratio:.4f}, want >= 0.9")
    return failures


def _check_mixed(
    result: RunResult, digest: Dict[str, Any], smoke: bool
) -> List[str]:
    failures = []
    offered = result.metrics["offered_flows"]
    completed = result.metrics["completed"]
    # Flows that arrive in the last fifth of the 2 ms cell cannot
    # finish inside it: 0.73-0.85 complete.
    if completed < (0.0 if smoke else 0.6) * offered:
        failures.append(f"completed {completed} of {offered}, want >= 60%")
    if result.delivered_bytes <= 0:
        failures.append("delivered_bytes == 0")
    return failures


def _check_nothing(
    result: RunResult, digest: Dict[str, Any], smoke: bool
) -> List[str]:
    return []


@dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark."""

    name: str
    #: One line, copied into ``BENCHMARK.json``.
    why: str
    #: ``(seed, kernel, smoke) -> cells`` the cold phase simulates.
    specs: SpecBuilder
    #: Per-cell output check, on top of the checks every cell gets.
    check: CellCheck
    #: True: each cell runs through ``run_spec_with_network`` (so its
    #: network can be digested); False: all through one ``run_matrix``.
    direct: bool = True


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cells_permutation",
            "Fig 10(a) shape on six seeds: 32 saturated long flows, one hot "
            "VOQ per source, long cell trains - spray, fabric element, "
            "reassembly and the link carry the time",
            _permutation, _check_permutation,
        ),
        Workload(
            "cells_uniform",
            "open-loop Poisson small packets to random hosts, no "
            "transport: many VOQs, a credit round per short burst, trains "
            "rarely form - fabric adapter, credit and VOQ carry the time",
            _uniform, _check_uniform,
        ),
        Workload(
            "push_mixed",
            "~1500 short DCTCP web flows on the push/ECMP fabric: bypasses "
            "core entirely - Ethernet switch, transport timers and the "
            "engine carry the time; the control for device-hop changes",
            _mixed, _check_mixed,
        ),
        Workload(
            "sweep_store",
            "nine short or build-heavy cells per round through run_matrix: "
            "fabric build, converge, collect, spec hashing/JSON and the "
            "record store carry the time, not the event loop",
            _sweep, _check_nothing, direct=False,
        ),
    )
}
