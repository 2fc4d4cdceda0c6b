"""Telemetry's timeline contracts, under the names of the tracer's tests.

This file once tested ``repro.sim.trace.Tracer``, a category-gated ring
buffer that nothing in the simulator fed.  ``repro.telemetry`` is the
one timeline path now.  The test names are pinned by the tier-1 floor
list, so each checks the telemetry contract its tracer test stood for:

* ring eviction and its ``dropped`` counter: :class:`Series`;
* ``capacity < 1`` rejected: :class:`Series` and :class:`TelemetryConfig`;
* the JSONL round trip: :func:`write_jsonl` / :func:`read_jsonl`;
* timestamps come from ``sim.now``: the engine's probe hook;
* categories: :class:`TelemetryConfig`'s ``per_link`` / ``per_voq`` /
  ``spans`` decide which series and spans exist.
"""

import json
from types import SimpleNamespace

import pytest

from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec
from repro.sim.engine import Simulator
from repro.telemetry import (
    Series,
    SpanRecorder,
    TelemetryCollector,
    TelemetryConfig,
    read_jsonl,
    write_jsonl,
)

TINY = {
    "kind": "one_tier",
    "params": {"num_fas": 3, "uplinks_per_fa": 2, "hosts_per_fa": 1},
}


def artifact(**telemetry):
    """Telemetry of a tiny permutation run."""
    spec = build_scenario(
        "permutation", kind="stardust", warmup_ns=20_000, measure_ns=60_000
    ).with_updates(
        topology=TINY, telemetry={"sample_interval_ns": 5_000, **telemetry}
    )
    return run_spec(spec).telemetry


def families(art):
    """Series name prefixes (``engine``, ``link``, ``voq`` ...)."""
    return {s["name"].split(".", 1)[0] for s in art["series"]}


def collector(**config):
    """A collector on a bare simulator: the engine hook, no fabric."""
    net = SimpleNamespace(sim=Simulator(), telemetry_hints=dict)
    return TelemetryCollector(net, TelemetryConfig(**config))


class TestTracer:
    def test_disabled_categories_record_nothing(self):
        art = artifact(spans=False)
        assert not families(art) & {"link", "voq"}
        assert art["spans"] == []

    def test_enabled_category_records(self):
        art = artifact(per_link=True)
        assert "link" in families(art)
        assert "voq" not in families(art)
        links = [s for s in art["series"] if s["name"].startswith("link.")]
        assert all(s["points"] for s in links)

    def test_star_enables_everything(self):
        every = artifact(per_link=True, per_voq=True, spans=True)
        assert {"link", "voq"} <= families(every)
        assert every["spans"]
        none = artifact(per_link=False, per_voq=False, spans=False)
        assert not families(none) & {"link", "voq"}
        assert none["spans"] == []

    def test_timestamps_come_from_sim(self):
        c = collector(sample_interval_ns=100)
        sim = c.net.sim
        c.add_probe("now", lambda: sim.now)
        for t in (42, 142, 150):
            sim.at(t, lambda: None)
        c.arm()
        sim.run()
        # One sample per interval, at the first event on or past each
        # deadline, stamped with the clock the probe itself reads.
        assert c.series("now").points() == [(42, 42), (142, 142)]

    def test_filtering(self):
        art = artifact(per_voq=True)
        assert "voq" in families(art)
        assert "link" not in families(art)

    def test_since_filter(self):
        c = collector(sample_interval_ns=10)
        sim = c.net.sim
        c.add_probe("now", lambda: sim.now)
        sim.at(5, lambda: None)
        sim.at(130, lambda: None)
        sim.run(until=100)
        c.arm()  # a probe takes effect from the next run() call
        sim.run()
        # Nothing before the arm is sampled.
        assert [t for t, _ in c.series("now").points()] == [130]

    def test_ring_buffer_drops_oldest(self):
        s = Series("t", capacity=100)
        for i in range(150):
            s.append(i, float(i))
        assert len(s) == 100
        assert s.dropped == 50
        assert s.points()[0] == (50, 50.0)

    def test_wants_gate(self):
        assert collector(spans=False).spans is None
        assert isinstance(collector(spans=True).spans, SpanRecorder)

    def test_clear(self):
        c = collector(sample_interval_ns=10)
        sim = c.net.sim
        c.add_probe("now", lambda: sim.now)
        c.arm()
        sim.at(5, lambda: None)
        sim.at(50, c.disarm)
        sim.at(90, lambda: None)
        sim.run()
        assert [t for t, _ in c.series("now").points()] == [5, 50]
        assert c.finalize()["samples"] == 2

    def test_dump_format(self):
        art = artifact()
        assert art["series"]
        for series in art["series"]:
            assert set(series) == {"name", "unit", "dropped", "points"}
            assert all(len(point) == 2 for point in series["points"])

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Series("t", capacity=0)
        with pytest.raises(ValueError):
            TelemetryConfig(capacity=0)


class TestTracerExport:
    def test_to_dict_omits_empty_data(self, tmp_path):
        # The JSONL header carries the artifact keys that are present,
        # and no placeholder for those that are not.
        path = tmp_path / "t.jsonl"
        write_jsonl(path, {"schema": 1, "series": [], "spans": []})
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"type": "header", "schema": 1}
        assert read_jsonl(path) == {"schema": 1, "series": [], "spans": []}

    def test_iteration_yields_records_in_order(self, tmp_path):
        art = artifact()
        path = tmp_path / "t.jsonl"
        write_jsonl(path, art)
        back = read_jsonl(path)
        assert [s["name"] for s in back["series"]] == [
            s["name"] for s in art["series"]
        ]
        assert [s["flow_id"] for s in back["spans"]] == [
            s["flow_id"] for s in art["spans"]
        ]

    def test_export_jsonl_roundtrip(self, tmp_path):
        art = artifact(per_voq=True)
        path = tmp_path / "t.jsonl"
        lines = write_jsonl(path, art)
        assert lines == 1 + len(art["series"]) + len(art["spans"])
        assert read_jsonl(path) == json.loads(json.dumps(art))

    def test_dropped_counter_increments_on_eviction(self, tmp_path):
        # Regression guard: eviction must keep counting once the ring
        # wraps, so "how much did I lose" stays answerable — in the
        # artifact and after its JSONL round trip too.
        s = Series("t", capacity=100)
        for i in range(250):
            s.append(i, float(i))
        assert s.dropped == 150
        s.append(250, 0.0)
        assert s.dropped == 151
        art = artifact(capacity=4)
        path = tmp_path / "t.jsonl"
        write_jsonl(path, art)
        for series in read_jsonl(path)["series"]:
            assert len(series["points"]) <= 4
            if series["name"].startswith("engine."):
                assert series["dropped"] == art["samples"] - 4
