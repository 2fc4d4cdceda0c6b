"""Golden-trace regression tests: the simulator must reproduce, bit for
bit, the run digests recorded in ``tests/golden/*.json``.

Each golden cell is one quick fabric x tier x workload run collapsed to
a compact digest (delivered bytes, drops, event count, hashes of the
per-flow rates and latency/queue histograms — see
:mod:`repro.perf.digest`).  Because every sample vector is hashed, any
drift in event ordering, scheduling, routing or accounting anywhere in
the stack fails these tests — this is what lets hot-path optimizations
claim "bit-identical results" as a checked fact.

If a change *intentionally* alters simulation behavior, re-record the
digests in the same commit and say why::

    PYTHONPATH=src python -m repro.perf golden --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.digest import diff_digests
from repro.perf.golden import compute_digest, golden_name, golden_specs
from tests.conftest import ENGINE_DRIVERS, drive_fabrics_with

GOLDEN_DIR = Path(__file__).parent / "golden"

_REGEN_HINT = (
    "run `PYTHONPATH=src python -m repro.perf golden --regen` and commit "
    "the result ONLY if this behavior change is intentional"
)


_CASES = [
    pytest.param(spec, driver, id=f"{golden_name(spec)}-{driver}")
    for spec in golden_specs()
    for driver in sorted(ENGINE_DRIVERS)
    # Single-stepping the two 128-FA cells costs 10 s and shows nothing
    # the twelve smaller cells do not.
    if driver == "batch" or not spec.scenario.endswith("_large")
]


@pytest.mark.parametrize("spec, driver", _CASES)
def test_golden_trace_is_reproduced(spec, driver, monkeypatch):
    """The recorded digest, byte for byte — from one ``run`` call per
    phase and from a run stopped and resumed at every event (see
    ``ENGINE_DRIVERS``)."""
    path = GOLDEN_DIR / f"{golden_name(spec)}.json"
    assert path.exists(), f"no recorded golden at {path}; {_REGEN_HINT}"
    recorded = json.loads(path.read_text())["digest"]
    drive_fabrics_with(monkeypatch, driver)
    diff = diff_digests(recorded, compute_digest(spec))
    assert not diff, (
        f"golden trace drifted ({driver} driver): "
        f"{json.dumps(diff, indent=1, default=str)}\n"
        f"{_REGEN_HINT}"
    )


def test_no_orphaned_golden_files():
    """Every file on disk corresponds to a cell in the current matrix."""
    expected = {golden_name(s) for s in golden_specs()}
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == expected, (
        f"stale: {sorted(on_disk - expected)}, "
        f"missing: {sorted(expected - on_disk)}; {_REGEN_HINT}"
    )


def test_golden_files_record_their_spec():
    """Each recording carries the spec it was produced from (provenance)."""
    for spec in golden_specs():
        payload = json.loads(
            (GOLDEN_DIR / f"{golden_name(spec)}.json").read_text()
        )
        assert payload["spec"] == spec.to_dict()
        assert payload["digest"]["spec_hash"] == spec.content_hash()
