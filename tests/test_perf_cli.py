"""Tests for the ``python -m repro.perf`` CLI gating logic.

The bench suite itself is exercised by the perf smoke tests; here the
suite is stubbed out so the *gate* semantics — regression detection,
missing-baseline failure, ``--allow-missing``, the ``--kernel``
tombstone — are pinned without minutes of wall time.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.perf.__main__ as perf_cli
from repro.perf.__main__ import compare, regressions, unbaselined
from repro.perf.bench import BenchResult


def fake_results():
    return [
        BenchResult(name="engine_events", wall_s=1.0, events=100_000),
        BenchResult(name="permutation_default", wall_s=2.0, events=400_000),
    ]


def write_baseline(path: Path, benches: dict) -> None:
    path.write_text(json.dumps({"schema": 1, "benches": benches}))


def baseline_from(results) -> dict:
    return {b.name: b.to_dict() for b in results}


# ----------------------------------------------------------------------
# Pure comparison helpers
# ----------------------------------------------------------------------


class TestCompareHelpers:
    def test_unbaselined_lists_uncovered_benches(self):
        results = fake_results()
        baseline = baseline_from(results[:1])  # only engine_events covered
        rows = compare(results, baseline)
        assert unbaselined(rows) == ["permutation_default"]

    def test_full_coverage_has_no_unbaselined(self):
        results = fake_results()
        rows = compare(results, baseline_from(results))
        assert unbaselined(rows) == []
        assert not regressions(rows)


# ----------------------------------------------------------------------
# CLI gate (suite stubbed)
# ----------------------------------------------------------------------


@pytest.fixture
def stub_suite(monkeypatch):
    monkeypatch.setattr(
        perf_cli, "suite", lambda quick, only: fake_results()
    )


@pytest.fixture
def paths(tmp_path):
    return {
        "out": str(tmp_path / "BENCH_perf.json"),
        "baseline": str(tmp_path / "baseline.json"),
    }


def run_cli(paths, *extra):
    return perf_cli.main(
        ["--out", paths["out"], "--baseline", paths["baseline"], *extra]
    )


class TestCheckGate:
    def test_check_fails_without_baseline(self, stub_suite, paths, capsys):
        assert run_cli(paths, "--check") == 1
        assert "no readable baseline" in capsys.readouterr().err

    def test_check_passes_with_full_baseline(self, stub_suite, paths):
        write_baseline(
            Path(paths["baseline"]), baseline_from(fake_results())
        )
        assert run_cli(paths, "--check") == 0

    def test_check_fails_on_missing_bench_row(
        self, stub_suite, paths, capsys
    ):
        # Baseline predates one bench: --check must fail, not silently
        # skip the uncovered bench.
        write_baseline(
            Path(paths["baseline"]), baseline_from(fake_results()[:1])
        )
        assert run_cli(paths, "--check") == 1
        err = capsys.readouterr().err
        assert "no baseline row for: permutation_default" in err
        assert "--allow-missing" in err

    def test_allow_missing_downgrades_to_warning(
        self, stub_suite, paths, capsys
    ):
        write_baseline(
            Path(paths["baseline"]), baseline_from(fake_results()[:1])
        )
        assert run_cli(paths, "--check", "--allow-missing") == 0
        assert "WARNING: no baseline row" in capsys.readouterr().err

    def test_check_fails_on_regression(self, stub_suite, paths, capsys):
        # Baseline claims 3x the throughput the stub delivers.
        benches = baseline_from(fake_results())
        for row in benches.values():
            row["events_per_sec"] *= 3
        write_baseline(Path(paths["baseline"]), benches)
        assert run_cli(paths, "--check") == 1
        assert "PERF REGRESSION" in capsys.readouterr().err

    def test_missing_rows_warn_even_without_check(
        self, stub_suite, paths, capsys
    ):
        write_baseline(
            Path(paths["baseline"]), baseline_from(fake_results()[:1])
        )
        assert run_cli(paths) == 0  # informational run still succeeds
        assert "WARNING: no baseline row" in capsys.readouterr().err

    def test_unknown_kernel_rejected(self, stub_suite, paths, capsys):
        # Every name is unknown now: one line naming the change, not a
        # usage dump or a traceback.
        for name in ("nope", "batch"):
            assert run_cli(paths, "--kernel", name) == 2
            err = capsys.readouterr().err
            assert name in err and "PR 21" in err
            assert len(err.splitlines()) == 1

    def test_results_payload_written(self, stub_suite, paths):
        assert run_cli(paths) == 0
        payload = json.loads(Path(paths["out"]).read_text())
        assert set(payload["benches"]) == {
            "engine_events", "permutation_default"
        }
