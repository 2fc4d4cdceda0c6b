"""Tests for repro.telemetry: probes, spans, export, and the
zero-overhead / determinism contracts the subsystem promises."""

from __future__ import annotations

import json

import pytest

from repro.experiments.registry import build_scenario
from repro.experiments.runner import (
    run_matrix,
    run_spec,
    run_spec_with_network,
    _worker_run,
)
from repro.experiments.spec import ScenarioSpec
from repro.experiments.store import ResultStore
from repro.perf.digest import run_digest
from repro.perf.golden import golden_specs
from repro.sim.engine import SimError, Simulator
from repro.sim.units import MICROSECOND
from repro.telemetry import (
    Series,
    TelemetryConfig,
    perfetto_trace,
    read_jsonl,
    write_jsonl,
    write_perfetto,
)
from tests.conftest import SteppedSimulator, drive_fabrics_with

QUICK = dict(warmup_ns=20 * MICROSECOND, measure_ns=60 * MICROSECOND)
TELEM = {"sample_interval_ns": 5_000}


def quick_spec(kind: str = "stardust", **updates) -> ScenarioSpec:
    spec = build_scenario("permutation", kind=kind, **QUICK)
    return spec.with_updates(**updates) if updates else spec


def artifact_minus_meta(artifact: dict) -> dict:
    """The deterministic portion (meta holds wall-clock numbers)."""
    out = dict(artifact)
    out.pop("meta", None)
    return out


# ----------------------------------------------------------------------
# Config and series primitives
# ----------------------------------------------------------------------


class TestTelemetryConfig:
    def test_roundtrip(self):
        cfg = TelemetryConfig(sample_interval_ns=123, per_voq=True)
        assert TelemetryConfig.from_dict(cfg.to_dict()) == cfg

    def test_defaults_from_empty_dict(self):
        assert TelemetryConfig.from_dict({}) == TelemetryConfig()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry"):
            TelemetryConfig.from_dict({"cadence": 5})

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_interval_ns=0)


class TestSeries:
    def test_ring_eviction_counts_drops(self):
        s = Series("x", capacity=3)
        for i in range(5):
            s.append(i, float(i))
        assert len(s) == 3
        assert s.dropped == 2
        assert s.points() == [(2, 2.0), (3, 3.0), (4, 4.0)]
        assert s.last() == (4, 4.0)

    def test_to_dict_shape(self):
        s = Series("q", unit="bytes", capacity=8)
        s.append(10, 1.5)
        d = s.to_dict()
        assert d == {
            "name": "q", "unit": "bytes", "dropped": 0,
            "points": [[10, 1.5]],
        }


# ----------------------------------------------------------------------
# Engine probe hook
# ----------------------------------------------------------------------


class TestEngineProbe:
    def test_probe_samples_at_cadence(self):
        sim = Simulator()
        seen = []
        sim.set_probe(seen.append, 100)

        def _noop():
            pass

        for t in range(0, 1000, 10):
            sim.at(t + 1, _noop)
        sim.run()
        # One sample per 100ns interval that contained events.
        assert seen
        assert all(b - a >= 100 for a, b in zip(seen, seen[1:]))

    def test_probe_does_not_fire_events(self):
        def drive(probed: bool) -> int:
            sim = Simulator()
            if probed:
                sim.set_probe(lambda _t: None, 50)
            def _noop():
                pass
            for t in range(0, 500, 7):
                sim.at(t + 1, _noop)
            sim.run()
            return sim.events_fired

        assert drive(False) == drive(True)

    def test_clear_probe(self):
        sim = Simulator()
        seen = []
        sim.set_probe(seen.append, 10)
        sim.clear_probe()

        def _noop():
            pass

        sim.at(100, _noop)
        sim.run()
        assert seen == []

    def test_bad_interval_raises(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.set_probe(lambda _t: None, 0)


# ----------------------------------------------------------------------
# Spec integration: hash neutrality
# ----------------------------------------------------------------------


class TestHashNeutrality:
    def test_unset_telemetry_omitted_from_dict(self):
        spec = quick_spec()
        assert "telemetry" not in spec.to_dict()

    def test_telemetry_does_not_change_content_hash(self):
        plain = quick_spec()
        instrumented = plain.with_updates(telemetry=TELEM)
        assert instrumented.telemetry is not None
        assert instrumented.content_hash() == plain.content_hash()

    def test_telemetry_survives_json_roundtrip(self):
        spec = quick_spec(telemetry=TELEM)
        again = ScenarioSpec.from_json(spec.to_json())
        assert again.telemetry == spec.telemetry

    def test_config_object_coerced_to_dict(self):
        spec = quick_spec(telemetry=TelemetryConfig().to_dict())
        assert isinstance(spec.telemetry, dict)

    def test_invalid_telemetry_rejected(self):
        with pytest.raises(ValueError):
            quick_spec(telemetry={"sample_interval_ns": -1})


# ----------------------------------------------------------------------
# Run integration: determinism and result neutrality
# ----------------------------------------------------------------------


class TestInstrumentedRuns:
    def test_results_identical_with_and_without_telemetry(self):
        plain = run_spec(quick_spec())
        instrumented = run_spec(quick_spec(telemetry=TELEM))
        assert instrumented.flow_rates_gbps == plain.flow_rates_gbps
        assert instrumented.events_fired == plain.events_fired
        assert instrumented.delivered_bytes == plain.delivered_bytes
        assert plain.telemetry is None
        assert instrumented.telemetry is not None

    def test_artifact_deterministic_across_runs(self):
        a = run_spec(quick_spec(telemetry=TELEM)).telemetry
        b = run_spec(quick_spec(telemetry=TELEM)).telemetry
        assert artifact_minus_meta(a) == artifact_minus_meta(b)

    def test_artifact_deterministic_across_shard_boundary(self):
        # The worker path serializes through JSON exactly like a
        # multiprocessing shard does.
        spec = quick_spec(telemetry=TELEM)
        inline = run_spec(spec).telemetry
        sharded = _worker_run((0, spec.to_json()))[1]["telemetry"]
        assert artifact_minus_meta(
            json.loads(json.dumps(artifact_minus_meta(inline)))
        ) == artifact_minus_meta(sharded)

    def test_artifacts_differ_across_seeds(self):
        a = run_spec(quick_spec(telemetry=TELEM)).telemetry
        b = run_spec(
            quick_spec(telemetry=TELEM).with_updates(seed=99)
        ).telemetry
        assert artifact_minus_meta(a) != artifact_minus_meta(b)

    def test_expected_series_present_stardust(self):
        art = run_spec(quick_spec(telemetry=TELEM)).telemetry
        names = {s["name"] for s in art["series"]}
        assert {
            "engine.events_fired", "engine.wheel_occupancy",
            "engine.spill_occupancy", "engine.corpse_count",
            "fabric.drops", "stardust.voq_bytes",
            "stardust.buffer_used_bytes",
            "stardust.credit_balance_bytes", "stardust.inflight_cells",
            "stardust.serializer_occupancy",
        } <= names
        assert art["samples"] > 0
        assert art["hints"]["link_rate_bps"] > 0

    def test_expected_series_present_push(self):
        art = run_spec(quick_spec(kind="tcp", telemetry=TELEM)).telemetry
        names = {s["name"] for s in art["series"]}
        assert {
            "push.queued_bytes", "push.inflight_frames",
            "push.dropped_frames",
        } <= names

    def test_per_voq_series_appear_lazily(self):
        art = run_spec(
            quick_spec(telemetry={**TELEM, "per_voq": True})
        ).telemetry
        voq_series = [
            s for s in art["series"] if s["name"].startswith("voq.")
        ]
        assert voq_series  # traffic created VOQs, VOQs created series

    def test_spans_cover_flows(self):
        art = run_spec(quick_spec(telemetry=TELEM)).telemetry
        assert art["spans"]
        for span in art["spans"]:
            assert span["packets_out"] > 0
            assert span["first_out_ns"] is not None

    def test_span_fct_breakdown_on_finished_flows(self):
        spec = build_scenario(
            "many_to_many", kind="stardust", flow_bytes=20_000
        ).with_updates(telemetry=TELEM)
        art = run_spec(spec).telemetry
        finished = [
            s for s in art["spans"] if s.get("fct_ns") is not None
        ]
        assert finished
        for span in finished:
            parts = (
                span["host_ns"] + span["serialization_ns"]
                + span["propagation_ns"] + span["queueing_ns"]
            )
            assert span["queueing_ns"] >= 0
            assert parts >= span["fct_ns"] - 1  # rounding slack


# ----------------------------------------------------------------------
# Golden byte-identity
# ----------------------------------------------------------------------


class TestGoldenNeutrality:
    def test_golden_digest_byte_identical_with_telemetry(self):
        # The cheapest golden cell, run plain and instrumented: the
        # digests (spec hash included) must match byte for byte.
        spec = min(
            golden_specs(),
            key=lambda s: s.warmup_ns + s.measure_ns,
        )
        plain, net_plain = run_spec_with_network(spec)
        inst, net_inst = run_spec_with_network(
            spec.with_updates(telemetry=TELEM)
        )
        d_plain = json.dumps(run_digest(plain, net_plain), sort_keys=True)
        d_inst = json.dumps(run_digest(inst, net_inst), sort_keys=True)
        assert d_plain == d_inst


# ----------------------------------------------------------------------
# Engine probes: the batched drain against a single-stepped run
# ----------------------------------------------------------------------


class TestKernelTelemetry:
    """The run loop folds the probe deadline into its drain bound and
    keeps the occupancy counters eager; a run single-stepped through
    ``run(max_events=1)`` (``conftest.SteppedSimulator``) samples from
    the outer loop only.  Both must show a probe the same engine.

    The test names are pinned by the tier-1 floor list and date from two
    engines: read ``batch`` as "the engine as it ships" and ``wheel`` /
    ``kernels`` as "the same engine single-stepped"."""

    def test_engine_probes_sampled_under_batch(self):
        art = run_spec(quick_spec(telemetry=TELEM)).telemetry
        names = {s["name"] for s in art["series"]}
        assert {
            "engine.events_fired", "engine.wheel_occupancy",
            "engine.spill_occupancy", "engine.corpse_count",
        } <= names
        assert art["samples"] > 0

    def test_probe_series_identical_across_kernels(self, monkeypatch):
        # Not just "samples exist": the drained stepping must leave
        # every engine counter in exactly the state a one-event-at-a-
        # time run shows at each probe boundary.
        batch = run_spec(quick_spec(telemetry=TELEM)).telemetry
        drive_fabrics_with(monkeypatch, "wheel")
        wheel = run_spec(quick_spec(telemetry=TELEM)).telemetry
        assert artifact_minus_meta(wheel) == artifact_minus_meta(batch)

    def test_instrumented_batch_reproduces_wheel_golden(self, monkeypatch):
        # An instrumented run on the batched loop and a plain
        # single-stepped one must agree byte for byte.
        spec = min(
            golden_specs(),
            key=lambda s: s.warmup_ns + s.measure_ns,
        )
        inst, net_inst = run_spec_with_network(
            spec.with_updates(telemetry=TELEM)
        )
        drive_fabrics_with(monkeypatch, "wheel")
        plain, net_plain = run_spec_with_network(spec)
        assert type(net_plain.sim) is SteppedSimulator
        d_plain = json.dumps(run_digest(plain, net_plain), sort_keys=True)
        d_inst = json.dumps(run_digest(inst, net_inst), sort_keys=True)
        assert d_plain == d_inst


# ----------------------------------------------------------------------
# Export: Perfetto + JSONL
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def stardust_artifact():
    return run_spec(quick_spec(telemetry=TELEM)).telemetry


class TestExport:
    def test_perfetto_schema(self, stardust_artifact):
        trace = perfetto_trace(stardust_artifact)
        assert set(trace) == {
            "traceEvents", "displayTimeUnit", "otherData",
        }
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert "C" in phases  # counter tracks
        assert "X" in phases  # flow spans
        assert "M" in phases  # process metadata
        for event in events:
            assert {"ph", "pid", "name"} <= set(event)
        json.dumps(trace)  # must be JSON-serializable as-is

    def test_perfetto_counter_values_match_series(self, stardust_artifact):
        trace = perfetto_trace(stardust_artifact)
        series = stardust_artifact["series"][0]
        counters = [
            e for e in trace["traceEvents"]
            if e["ph"] == "C" and e["name"] == series["name"]
        ]
        assert len(counters) == len(series["points"])
        t0, v0 = series["points"][0]
        assert counters[0]["ts"] == t0 / 1000.0
        assert list(counters[0]["args"].values()) == [v0]

    def test_write_perfetto(self, stardust_artifact, tmp_path):
        out = tmp_path / "trace.json"
        count = write_perfetto(out, stardust_artifact)
        data = json.loads(out.read_text())
        assert len(data["traceEvents"]) == count

    def test_jsonl_roundtrip(self, stardust_artifact, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(path, stardust_artifact)
        back = read_jsonl(path)
        canonical = json.loads(json.dumps(stardust_artifact))
        assert back == canonical

    def test_tracer_records_become_instants(self, stardust_artifact):
        records = [
            {"time_ns": 5, "category": "credit", "source": "fa0",
             "message": "grant", "data": {"bytes": 4096}},
        ]
        trace = perfetto_trace(stardust_artifact, trace_records=records)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["args"]["bytes"] == 4096

    def test_faulted_scenario_exports(self, tmp_path):
        spec = build_scenario(
            "permutation_link_failure", kind="stardust"
        ).with_updates(
            telemetry={"sample_interval_ns": 20_000}, **QUICK
        )
        assert spec.faults is not None
        result = run_spec(spec)
        out = tmp_path / "fault.json"
        assert write_perfetto(out, result.telemetry) > 0

    def test_cli_export_and_summary(self, stardust_artifact, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        src = tmp_path / "a.jsonl"
        write_jsonl(src, stardust_artifact)
        out = tmp_path / "trace.json"
        assert main(["export", str(src), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["traceEvents"]
        assert main(["summary", str(src)]) == 0
        captured = capsys.readouterr().out
        assert "series" in captured and "spans" in captured


# ----------------------------------------------------------------------
# Result store sidecar
# ----------------------------------------------------------------------


class TestStoreSidecar:
    def test_sidecar_written_and_reattached(self, tmp_path):
        store = ResultStore(tmp_path / "cells")
        spec = quick_spec(telemetry=TELEM)
        result = run_spec(spec)
        store.put(spec, result)
        # The cell itself stays telemetry-free (compact).
        cell = json.loads(store.path_for(spec).read_text())
        assert "telemetry" not in cell["result"]
        assert store.telemetry_path_for(spec).exists()
        cached = store.get(spec)
        assert cached is not None and cached.telemetry is not None
        assert cached.telemetry["series"]

    def test_plain_results_write_no_sidecar(self, tmp_path):
        store = ResultStore(tmp_path / "cells")
        spec = quick_spec()
        store.put(spec, run_spec(spec))
        assert not store.telemetry_path_for(spec).exists()

    def test_clear_removes_sidecars(self, tmp_path):
        store = ResultStore(tmp_path / "cells")
        spec = quick_spec(telemetry=TELEM)
        store.put(spec, run_spec(spec))
        store.clear()
        assert not store.telemetry_path_for(spec).exists()


# ----------------------------------------------------------------------
# Live sweep progress
# ----------------------------------------------------------------------


class TestLiveProgress:
    def test_run_matrix_live_reports_each_cell(self):
        specs = [quick_spec(), quick_spec(seed=9)]
        lines = []
        results = run_matrix(specs, shards=1, progress=lines.append,
                             live=True)
        assert len(results) == 2
        progress = [ln for ln in lines if ln.startswith("[")]
        assert len(progress) == 2
        assert progress[0].startswith("[1/2]")
        assert progress[1].startswith("[2/2]")
        assert "events/s" in progress[0]
        assert "eta" in progress[0]

    def test_run_matrix_silent_by_default(self):
        lines = []
        run_matrix([quick_spec()], shards=1, progress=lines.append)
        assert not any(ln.startswith("[1/") for ln in lines)


# ----------------------------------------------------------------------
# Overhead guard
# ----------------------------------------------------------------------


@pytest.mark.slow
class TestOverheadWhenDisabled:
    def test_disabled_probe_overhead_is_small(self):
        """The probe hook costs one int compare per event when unarmed.

        Wall-clock bound is generous (CI machines are noisy); the hard
        guarantee — identical event streams — is asserted exactly.
        """
        import time as _time

        def drive() -> tuple:
            sim = Simulator()
            budget = [200_000]

            def tick():
                budget[0] -= 1
                if budget[0] > 0:
                    sim.schedule(7, tick)

            for i in range(64):
                sim.schedule(i + 1, tick)
            start = _time.perf_counter()
            sim.run()
            return sim.events_fired, _time.perf_counter() - start

        # Warmup, then interleave measurements to cancel drift.
        drive()
        base = min(drive()[1] for _ in range(3))
        events, _ = drive()
        probed = min(drive()[1] for _ in range(3))
        assert probed <= base * 1.25  # generous: spec target is <2%
        assert events == drive()[0]
