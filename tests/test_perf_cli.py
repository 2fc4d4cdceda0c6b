"""Tests for the benchmark's gate and for ``python -m repro.perf golden``.

The gate is ``bench/``'s: ``compare.py`` judges one result set against
another and ``run.py`` checks that a run emits exactly the metrics
``BENCHMARK.json`` declares.  Both are imported through ``sys.path`` the
way ``bench/test_bench_smoke.py`` does, and fed hand-written result
documents or a stubbed measurement, so the gate semantics are pinned
without minutes of wall time.  The golden CLI runs one tiny cell.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import repro.perf.__main__ as perf_cli
import repro.perf.golden as golden
from repro.experiments.registry import build_scenario
from repro.experiments.spec import TopologySpec
from repro.sim.kernel import build_simulator
from repro.sim.units import MICROSECOND

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import compare  # noqa: E402
import lifecycle  # noqa: E402
import run as bench  # noqa: E402

MANIFEST = bench.load_manifest()
WORKLOADS = [workload["name"] for workload in MANIFEST["workloads"]]
END_TO_END = [metric["name"] for metric in MANIFEST["end_to_end"]]
MISSING = "(missing from a result set)"


def result_doc(workload, scale=1.0, trace=0, smoke=False, **overrides):
    """One result line as ``run.py --json`` appends it."""
    values = {name: scale for name in END_TO_END}
    values.update(overrides)
    return {
        "workload": workload,
        "trace": trace,
        "smoke": smoke,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()},
    }


def write_set(path: Path, docs) -> Path:
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    return path


def result_set(path: Path, workloads=WORKLOADS) -> Path:
    """Three runs of each workload, spread 2 % apart."""
    return write_set(
        path, [result_doc(w, 1.0 + 0.01 * i) for w in workloads for i in range(3)]
    )


def rows(output: str, workload: str):
    return [line for line in output.splitlines() if line.startswith(workload + " ")]


def verdict(row: str) -> str:
    """The verdict column of a judged row (the word before ``(n=``)."""
    return row.split("  (n=")[0].split()[-1]


# ----------------------------------------------------------------------
# compare.py: which rows a result set covers
# ----------------------------------------------------------------------


class TestCompareHelpers:
    def test_unbaselined_lists_uncovered_benches(self, tmp_path, capsys):
        a = result_set(tmp_path / "a.jsonl")
        b = result_set(tmp_path / "b.jsonl", workloads=WORKLOADS[1:])
        compare.main(MANIFEST, a, b)
        out = capsys.readouterr().out
        assert all(MISSING in row for row in rows(out, WORKLOADS[0]))
        assert len(rows(out, WORKLOADS[0])) == len(END_TO_END)
        for workload in WORKLOADS[1:]:
            assert not any(MISSING in row for row in rows(out, workload))

    def test_full_coverage_has_no_unbaselined(self, tmp_path, capsys):
        a = result_set(tmp_path / "a.jsonl")
        assert compare.main(MANIFEST, a, a) == 0
        out = capsys.readouterr().out
        assert MISSING not in out
        judged = [row for w in WORKLOADS for row in rows(out, w)]
        assert len(judged) == len(WORKLOADS) * len(END_TO_END)
        assert all(verdict(row) == "ok" for row in judged)


# ----------------------------------------------------------------------
# The gate: compare.py verdicts and run.py's declared-metric check
# ----------------------------------------------------------------------


def stub_measure(monkeypatch, values):
    def measure(workload, seed, seconds, kernel, smoke, work_dir, import_s):
        return {
            "values": dict(values),
            "failures": [],
            "sizes": {},
            "digest": "0" * 16,
            "attempted": 3,
            "failed": 0,
        }

    monkeypatch.setattr(lifecycle, "measure", measure)


def slow_runs(workloads):
    """Three runs of each workload at 3x the ``cell_wall_s`` of ``result_set``."""
    return [
        result_doc(w, 1.0 + 0.01 * i, cell_wall_s=3.0 + 0.01 * i)
        for w in workloads
        for i in range(3)
    ]


def stubbed_run(tmp_path):
    return bench.run_benchmark(
        WORKLOADS[0], seconds=0.0, seed=7, out_dir=tmp_path / "out"
    )


class TestCheckGate:
    def test_check_fails_without_baseline(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            compare.load(tmp_path / "no-such-results.jsonl")

    def test_check_passes_with_full_baseline(self, tmp_path, capsys):
        a = result_set(tmp_path / "a.jsonl")
        b = result_set(tmp_path / "b.jsonl")
        assert bench.main(["--compare", str(a), str(b)]) == 0
        assert " worse" not in capsys.readouterr().out

    def test_check_fails_on_missing_bench_row(self, tmp_path, monkeypatch):
        # A declared metric the run did not measure fails the run.
        stub_measure(monkeypatch, {name: 1.0 for name in END_TO_END[1:]})
        doc = stubbed_run(tmp_path)
        assert not doc["correct"]
        assert doc["failures"] == [f"declared but not measured: {END_TO_END[0]}"]

    def test_allow_missing_downgrades_to_warning(self, tmp_path, monkeypatch):
        # So does a metric the manifest does not declare; it is not reported.
        values = {name: 1.0 for name in END_TO_END}
        stub_measure(monkeypatch, {**values, "undeclared_s": 1.0})
        doc = stubbed_run(tmp_path)
        assert not doc["correct"]
        assert doc["failures"] == ["emitted but not declared: undeclared_s"]
        assert set(doc["metrics"]) == set(END_TO_END)

    def test_check_fails_on_regression(self, tmp_path, capsys):
        a = result_set(tmp_path / "a.jsonl")
        b = write_set(tmp_path / "b.jsonl", slow_runs(WORKLOADS))
        assert compare.main(MANIFEST, a, b) == 1
        out = capsys.readouterr().out
        for workload in WORKLOADS:
            verdicts = {row.split()[1]: verdict(row) for row in rows(out, workload)}
            assert verdicts.pop("cell_wall_s") == "worse"
            assert set(verdicts.values()) == {"ok"}

    def test_missing_rows_warn_even_without_check(self, tmp_path, capsys):
        # A partial B is still judged on every row both sides have.
        a = result_set(tmp_path / "a.jsonl")
        b = write_set(tmp_path / "b.jsonl", slow_runs(WORKLOADS[:1]))
        assert compare.main(MANIFEST, a, b) == 1
        out = capsys.readouterr().out
        judged = {row.split()[1]: verdict(row) for row in rows(out, WORKLOADS[0])}
        assert judged.pop("cell_wall_s") == "worse"
        assert set(judged.values()) == {"ok"}
        for workload in WORKLOADS[1:]:
            assert all(MISSING in row for row in rows(out, workload))

    def test_unknown_kernel_rejected(self):
        # Every name is unknown now: one line naming the change.
        for name in ("nope", "batch"):
            for build in (
                lambda: build_simulator(name),
                lambda: build_scenario("permutation", kernel=name),
            ):
                with pytest.raises(ValueError) as raised:
                    build()
                message = str(raised.value)
                assert repr(name) in message and "PR 21" in message
                assert len(message.splitlines()) == 1

    def test_results_payload_written(self, tmp_path):
        docs = [
            result_doc(WORKLOADS[0], cell_wall_s=2.0),
            result_doc(WORKLOADS[0], cell_wall_s=4.0),
            result_doc(WORKLOADS[0], trace=1, cell_wall_s=99.0),
            result_doc(WORKLOADS[1], smoke=True, cell_wall_s=99.0),
        ]
        runs = compare.load(write_set(tmp_path / "a.jsonl", docs))
        assert runs[(WORKLOADS[0], "cell_wall_s")] == [2.0, 4.0]
        assert runs[(WORKLOADS[0], "setup_s")] == [1.0, 1.0]
        assert {workload for workload, _ in runs} == {WORKLOADS[0]}


# ----------------------------------------------------------------------
# python -m repro.perf golden
# ----------------------------------------------------------------------


def tiny_golden_spec():
    return build_scenario(
        "permutation", kind="tcp",
        topology=TopologySpec(
            "one_tier", dict(num_fas=3, uplinks_per_fa=2, hosts_per_fa=1)
        ),
        warmup_ns=50 * MICROSECOND, measure_ns=100 * MICROSECOND,
    )


def test_golden_cli_regen_check_and_drift(tmp_path, monkeypatch, capsys):
    spec = tiny_golden_spec()
    monkeypatch.setattr(golden, "golden_specs", lambda: [spec])
    cli = ["golden", "--dir", str(tmp_path)]
    assert perf_cli.main([*cli, "--regen"]) == 0
    assert perf_cli.main([*cli, "--check"]) == 0
    assert "golden traces OK" in capsys.readouterr().out

    name = golden.golden_name(spec)
    path = tmp_path / f"{name}.json"
    recorded = json.loads(path.read_text())
    recorded["digest"]["events_fired"] += 1
    path.write_text(json.dumps(recorded))
    assert perf_cli.main([*cli, "--check"]) == 1
    err = capsys.readouterr().err
    assert f"DRIFT {name}:" in err
    assert "events_fired: recorded=" in err


def test_golden_cli_missing_recording_is_drift(tmp_path, monkeypatch, capsys):
    # With neither flag the CLI checks; an unrecorded cell is drift.
    spec = tiny_golden_spec()
    monkeypatch.setattr(golden, "golden_specs", lambda: [spec])
    assert perf_cli.main(["golden", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    name = golden.golden_name(spec)
    assert f"DRIFT {name}:" in err
    assert f"missing: recorded={str(tmp_path / f'{name}.json')!r}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--quick"],
        ["golden", "--check", "--regen"],
        ["golden", "--profile", "30"],
    ],
    ids=["no-command", "bench-option", "check-and-regen", "golden-profile"],
)
def test_golden_cli_rejects_other_usage(argv, capsys):
    # ``golden`` is the only command; the bench options are gone.
    with pytest.raises(SystemExit) as exited:
        perf_cli.main(argv)
    assert exited.value.code == 2
    assert "usage: python -m repro.perf" in capsys.readouterr().err
