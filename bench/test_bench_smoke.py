"""Smoke test of the benchmark's machinery at ``--smoke`` sizes.

Checks the contract between ``BENCHMARK.json`` and what ``run.py``
emits, the exact-repeat counts, the trace's self-consistency and that
a failing output check is actually counted.  It measures nothing.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run as bench  # noqa: E402

MANIFEST = bench.load_manifest()
WORKLOADS = [workload["name"] for workload in MANIFEST["workloads"]]
EXACT_COUNTS = (
    "sim.events", "sim.time_ns", "core.cells_delivered",
    "net.packets_delivered", "fabrics.drops", "transport.flows_completed",
    "store.bytes_per_cell", "store.blocks",
)


def smoke(workload, tmp_path, trace, seed=7):
    return bench.run_benchmark(
        workload, seconds=0.0, seed=seed, trace=trace, smoke=True,
        out_dir=tmp_path,
    )


def test_manifest_names_are_well_formed():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in MANIFEST[section]
    ]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert MANIFEST["paths"] == ["bench"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(workload, tmp_path):
    doc = smoke(workload, tmp_path, trace=0)
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 3
    assert not list(tmp_path.iterdir()), "scratch stores left behind"
    # Every timing is its raw wall read against the yardstick.
    raw = doc["raw"]
    for wall, slices, reported in zip(
        raw["resume_s"], raw["slice_s"], doc["samples"]["sweep_resume_s"]
    ):
        assert slices["resume"] > 0
        assert reported == pytest.approx(
            wall * raw["nominal_slice_s"] / slices["resume"]
        )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_complete_repeatable_and_self_consistent(
    workload, tmp_path
):
    first = smoke(workload, tmp_path, trace=1)
    again = smoke(workload, tmp_path, trace=1)
    other = smoke(workload, tmp_path, trace=1, seed=8)

    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    for doc in (first, again, other):
        assert {n: m["unit"] for n, m in doc["metrics"].items()} == declared
        assert doc["correct"], doc["failures"]
        assert doc["missing_spans"] == []
    assert (tmp_path / f"trace-{workload}.json").stat().st_size > 0

    def counts(doc):
        return [doc["metrics"][name]["value"] for name in EXACT_COUNTS]

    assert counts(first) == counts(again)
    assert first["digest"] == again["digest"]
    assert counts(first) != counts(other)
    assert first["digest"] != other["digest"]

    # The layer table is a partition of the span pass's cold wall.
    values = {n: m["value"] for n, m in first["metrics"].items()}
    layered = sum(
        value for name, value in values.items()
        if name.endswith(".ns_per_event")
    )
    wall_ns = first["sizes"]["span_cold_s"] * 1e9
    assert layered * values["sim.events"] == pytest.approx(wall_ns, rel=0.01)
    if workload == "push_mixed":
        assert not any(
            value for name, value in values.items()
            if name.startswith("core.") and name.endswith("_per_event")
        )
    else:
        assert values["core.cells_delivered"] > 0


def test_failing_output_check_is_counted(tmp_path, monkeypatch):
    import lifecycle

    def dropping(result, net):
        return {**real_digest(result, net), "fabric_drops": 3}

    real_digest = lifecycle.run_digest
    monkeypatch.setattr(lifecycle, "run_digest", dropping)
    doc = smoke("cells_permutation", tmp_path, trace=0)
    assert not doc["correct"]
    assert doc["failed"] > 0
    assert any("fabric_drops" in failure for failure in doc["failures"])


def test_vanished_wrap_point_is_reported_and_its_metric_omitted(
    tmp_path, monkeypatch
):
    import tracing

    points = tuple(
        (name, module, owner, "no_such_function")
        if name == "transport.attach" else (name, module, owner, attribute)
        for name, module, owner, attribute in tracing.WRAP_POINTS
    )
    monkeypatch.setattr(tracing, "WRAP_POINTS", points)
    doc = smoke("cells_permutation", tmp_path, trace=1)
    assert doc["missing_spans"] == ["repro.experiments.runner.no_such_function"]
    assert doc["metrics"]["trace.missing_spans"]["value"] == 1
    assert "transport.attach_s" not in doc["metrics"]
    assert "fabrics.build_s" in doc["metrics"]
    assert not doc["correct"]


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
    assert compare.judge(steady, steady, 0.07, True) == "ok"
    assert compare.judge(steady, [v * 1.2 for v in steady], 0.07, True) == "worse"
    assert compare.judge(steady, [v * 1.2 for v in steady], 0.07, False) == "ok"
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.judge(noisy, noisy, 0.07, True) == "unresolved"
    assert compare.judge(noisy, [v / 2 for v in noisy], 0.07, True) == "ok"
    assert compare.judge(noisy, [v * 2 for v in noisy], 0.07, True) == "worse"
