"""The repro.experiments subsystem: specs, registry, runner, store."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    RunResult,
    ScenarioSpec,
    TopologySpec,
    UnknownScenarioError,
    build_scenario,
    get_scenario,
    resolve_kind,
    run_matrix,
    run_spec,
    scenario_names,
)
from repro.experiments.registry import scenario
from repro.experiments.spec import HASH_NEUTRAL, OMIT_NONE
from repro.experiments.summarize import Summary, aggregate
from repro.faults.plan import FaultPlan, link_down
from repro.store import RecordStore, spec_key_from_dict
from repro.telemetry.probes import TelemetryConfig
from repro.fabrics import OneTierSpec, TwoTierSpec
from repro.sim.units import MICROSECOND

#: A deliberately tiny topology so runner tests stay fast.
TINY = TopologySpec(
    "one_tier", dict(num_fas=3, uplinks_per_fa=2, hosts_per_fa=1)
)


def tiny_permutation(kind: str, seed: int = 3) -> ScenarioSpec:
    return build_scenario(
        "permutation",
        kind=kind,
        seed=seed,
        topology=TINY,
        warmup_ns=100 * MICROSECOND,
        measure_ns=400 * MICROSECOND,
    )


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------


class TestScenarioSpec:
    @pytest.mark.parametrize("name", ["permutation", "incast",
                                      "many_to_many", "uniform_random",
                                      "mixed"])
    def test_round_trip_through_json(self, name):
        spec = build_scenario(name, kind="dctcp", seed=5)
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone.to_dict() == spec.to_dict()
        assert clone.content_hash() == spec.content_hash()

    def test_hash_changes_with_content(self):
        a = build_scenario("permutation", kind="stardust", seed=1)
        assert a.content_hash() != a.with_updates(seed=2).content_hash()
        assert (
            a.content_hash()
            != build_scenario("permutation", kind="dctcp", seed=1)
            .content_hash()
        )

    def test_hash_is_stable_across_instances(self):
        a = build_scenario("incast", kind="tcp", n_backends=4)
        b = build_scenario("incast", kind="tcp", n_backends=4)
        assert a is not b
        assert a.content_hash() == b.content_hash()

    def test_topology_spec_wraps_concrete_specs(self):
        two = TwoTierSpec(
            pods=2, fas_per_pod=3, fes_per_pod=3, spines=3, hosts_per_fa=2
        )
        wrapped = TopologySpec.of(two)
        assert wrapped.kind == "two_tier"
        assert wrapped.build() == two
        one = OneTierSpec(num_fas=4, uplinks_per_fa=4, hosts_per_fa=1)
        assert TopologySpec.of(one).build() == one

    def test_topology_addresses_cover_all_ports(self):
        addrs = TINY.addresses()
        assert len(addrs) == 3
        assert len(set(addrs)) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TopologySpec("ring", {})
        with pytest.raises(ValueError):
            build_scenario("permutation", kind="carrier-pigeon")
        with pytest.raises(ValueError):
            ScenarioSpec(scenario="x", topology=TINY, fabric="token-ring")
        with pytest.raises(ValueError):
            ScenarioSpec(scenario="x", topology=TINY, workload={})

    def test_resolve_kind_presets(self):
        assert resolve_kind("stardust") == ("stardust", "tcp")
        assert resolve_kind("dctcp") == ("push", "dctcp")
        assert resolve_kind("ethernet") == ("push", "tcp")


# ----------------------------------------------------------------------
# Plain-dict forms: to_dict against dataclasses.asdict, hash neutrality
# ----------------------------------------------------------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
#: Nested dict/list/tuple values, the shapes ``workload``,
#: ``config_overrides`` and ``metrics`` may hold.
_nested = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=12,
)
_members = st.dictionaries(st.text(min_size=1, max_size=4), _nested, max_size=3)
_FAULTS = FaultPlan(events=[link_down(1000, edge=0, uplink=1)]).to_dict()
_TELEMETRY = TelemetryConfig(sample_interval_ns=50_000, per_voq=True).to_dict()


def _asdict_minus_unset(obj):
    """The oracle: ``dataclasses.asdict``, then drop unset OMIT_NONE fields."""
    data = dataclasses.asdict(obj)
    for f in dataclasses.fields(obj):
        if f.metadata.get(OMIT_NONE) and data[f.name] is None:
            del data[f.name]
    return data


def _scribble(value):
    """Mutate every dict and list reachable from ``value`` in place."""
    if isinstance(value, dict):
        for member in list(value.values()):
            _scribble(member)
        value.clear()
        value["scribbled"] = True
    elif isinstance(value, (list, tuple)):
        for member in value:
            _scribble(member)
        if isinstance(value, list):
            value.append("scribbled")


class TestPlainForms:
    @settings(max_examples=60, deadline=None)
    @given(
        workload=_members,
        overrides=_members,
        faults=st.sampled_from([None, _FAULTS]),
        telemetry=st.sampled_from([None, _TELEMETRY]),
    )
    def test_spec_to_dict_is_asdict(
        self, workload, overrides, faults, telemetry
    ):
        spec = ScenarioSpec(
            scenario="generated",
            topology=TINY,
            workload={"kind": "permutation", **workload},
            config_overrides=overrides,
            faults=faults,
            telemetry=telemetry,
        )
        want = _asdict_minus_unset(spec)
        got = spec.to_dict()
        assert got == want
        assert list(got) == list(want)  # field order too
        _scribble(got)
        assert _asdict_minus_unset(spec) == want

    @settings(max_examples=60, deadline=None)
    @given(
        metrics=_members,
        rates=st.lists(st.floats(allow_nan=False), max_size=4),
        fcts=st.lists(st.integers(0, 2**40), max_size=4),
        telemetry=st.sampled_from([None, {"schema": 1, "series": [[1, 2]]}]),
    )
    def test_result_to_dict_is_asdict(self, metrics, rates, fcts, telemetry):
        result = RunResult(
            spec_hash="0" * 24, scenario="generated", fabric="stardust",
            transport="tcp", seed=1, flow_rates_gbps=rates, fcts_ns=fcts,
            metrics=metrics, telemetry=telemetry,
        )
        want = _asdict_minus_unset(result)
        got = result.to_dict()
        assert got == want
        assert list(got) == list(want)
        _scribble(got)
        assert _asdict_minus_unset(result) == want
        assert RunResult.from_dict(want).to_dict() == want

    def test_to_dict_no_longer_goes_through_asdict(self, monkeypatch):
        def no_asdict(obj, **kwargs):
            raise AssertionError(f"asdict({type(obj).__name__})")

        monkeypatch.setattr(dataclasses, "asdict", no_asdict)
        monkeypatch.setattr("repro.experiments.spec.asdict", no_asdict)
        spec = build_scenario("incast", kind="dctcp", seed=5)
        spec.to_dict()
        spec.content_hash()
        RunResult("0" * 24, "incast", "push", "dctcp", 5).to_dict()

    def test_declared_flags(self):
        flags = {
            f.name: (
                bool(f.metadata.get(OMIT_NONE)),
                bool(f.metadata.get(HASH_NEUTRAL)),
            )
            for f in dataclasses.fields(ScenarioSpec)
            if f.metadata
        }
        assert flags == {
            "faults": (True, False),
            "telemetry": (True, True),
        }
        assert [
            f.name for f in dataclasses.fields(RunResult) if f.metadata
        ] == ["telemetry"]

    def test_hash_neutral_fields_leave_every_golden_hash_alone(self):
        """Toggling each HASH_NEUTRAL field moves neither the content
        hash, nor the store's spec key, nor any of the 26 recorded
        golden ``spec_hash`` values."""
        values = {
            "telemetry": [_TELEMETRY, TelemetryConfig().to_dict()],
        }
        neutral = [
            f.name
            for f in dataclasses.fields(ScenarioSpec)
            if f.metadata.get(HASH_NEUTRAL)
        ]
        assert sorted(neutral) == sorted(values)
        goldens = sorted((Path(__file__).parent / "golden").glob("*.json"))
        assert len(goldens) == 26
        for path in goldens:
            recorded = json.loads(path.read_text())
            spec = ScenarioSpec.from_dict(recorded["spec"])
            key = spec.content_hash()
            assert key == recorded["digest"]["spec_hash"]
            spec_key = spec_key_from_dict(spec.to_dict(), key)
            for name in neutral:
                for value in values[name]:
                    twin = spec.with_updates(**{name: value})
                    assert twin.to_dict()[name] == value
                    assert twin.content_hash() == key
                    assert spec_key_from_dict(twin.to_dict(), key) == spec_key
            # ... while a field that is not neutral does move it.
            assert spec.with_updates(faults=_FAULTS).content_hash() != key

    def test_literal_hashes(self):
        """Content hashes as every existing store and golden has them."""
        assert (
            build_scenario("permutation").content_hash()
            == "7808663a44c867816e0b06d7"
        )
        assert (
            build_scenario("incast", kind="dctcp", seed=5).content_hash()
            == "b25670219ae995c97a6688aa"
        )
        assert (
            build_scenario("permutation_link_failure", kind="stardust", seed=7)
            .content_hash()
            == "b630537299f5d8c7f1a800b9"
        )
        nested = build_scenario("mixed", kind="tcp", seed=2).with_updates(
            config_overrides={"a": [1, {"b": (2, 3)}]}
        )
        assert nested.content_hash() == "f3bde7486abd88786a1e5615"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_preseeded_scenarios_present(self):
        names = scenario_names()
        for expected in ("permutation", "incast", "many_to_many",
                         "uniform_random", "mixed"):
            assert expected in names

    def test_lookup_returns_entry_with_description(self):
        entry = get_scenario("permutation")
        assert entry.name == "permutation"
        assert entry.description

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(UnknownScenarioError) as err:
            get_scenario("does-not-exist")
        assert "does-not-exist" in str(err.value)
        assert "permutation" in str(err.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            scenario("permutation")(lambda **kw: None)

    def test_factory_parameters_flow_into_spec(self):
        spec = build_scenario(
            "incast", kind="tcp", n_backends=4, response_bytes=12_345
        )
        assert spec.workload["n_backends"] == 4
        assert spec.workload["response_bytes"] == 12_345
        assert spec.topology.params["num_fas"] == 5


# ----------------------------------------------------------------------
# Figures: every simulated figure of benchmarks/ is a registered scenario
# ----------------------------------------------------------------------

#: Each figure scenario with every kind its benchmark runs.
FIGURE_CELLS = {
    "fig7_push_vs_pull": ("stardust", "tcp"),
    "fig12_traffic_classes": ("stardust", "tcp"),
    "fig9_queueing": ("stardust",),
    "fig10b_fct": ("stardust", "tcp", "dctcp"),
    "fig10c_incast": ("stardust", "tcp", "dctcp"),
    "sec59_self_healing": ("stardust",),
    "sec612_single_tier": ("stardust",),
    "ablation_packing": ("stardust",),
    "ablation_speedup": ("stardust",),
    "ablation_spray": ("stardust",),
}
FIGURES = list(FIGURE_CELLS)


def short_figure(name: str, kind: str) -> ScenarioSpec:
    """A figure cell cut to a 100 us window (from t=0)."""
    return build_scenario(name, kind=kind).with_updates(
        warmup_ns=0, measure_ns=100 * MICROSECOND
    )


class TestFigures:
    def test_every_figure_is_registered(self):
        assert set(FIGURES) <= set(scenario_names())

    @pytest.mark.parametrize("name", FIGURES)
    def test_figure_spec_round_trips_with_stable_hash(self, name):
        for kind in FIGURE_CELLS[name]:
            spec = build_scenario(name, kind=kind)
            clone = ScenarioSpec.from_json(spec.to_json())
            assert clone.to_dict() == spec.to_dict()
            assert clone.content_hash() == spec.content_hash()
            assert (
                build_scenario(name, kind=kind).content_hash()
                == spec.content_hash()
            )

    @pytest.mark.parametrize(
        "name, kind",
        [(name, kind) for name, kinds in FIGURE_CELLS.items() for kind in kinds],
    )
    def test_figure_cell_is_hermetic(self, name, kind):
        """Same result alone, after another figure's cell, and after a
        push/dctcp cell that creates flows (flow ids feed ECMP)."""
        spec = short_figure(name, kind)
        alone = run_spec(spec).to_dict()
        other = FIGURES[(FIGURES.index(name) + 1) % len(FIGURES)]
        run_spec(short_figure(other, FIGURE_CELLS[other][-1]))
        assert run_spec(spec).to_dict() == alone
        run_spec(tiny_permutation("dctcp"))
        assert run_spec(spec).to_dict() == alone


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def test_list_shows_scenarios_and_registered_fabrics(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "permutation_three_tier" in out
        assert "fabrics:" in out
        assert "stardust" in out
        assert "push" in out
        assert "ethernet" in out  # alias is surfaced too

    def test_bad_names_exit_with_one_line_error(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["show", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        assert main(["show", "permutation", "--kind", "warp-drive"]) == 2
        assert "unknown kind" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--verify"], ["--list"]])
    def test_query_of_a_missing_store_is_one_error_line(
        self, tmp_path, capsys, flags
    ):
        from repro.experiments.__main__ import main

        missing = tmp_path / "does-not-exist"
        assert main(["query", "--store", str(missing), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {missing} holds no record store"]
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


class TestRunner:
    def test_unknown_workload_kind_rejected(self):
        spec = tiny_permutation("stardust")
        spec.workload = {"kind": "quantum-entanglement"}
        with pytest.raises(ValueError):
            run_spec(spec)

    def test_run_produces_sensible_result(self):
        result = run_spec(tiny_permutation("stardust"))
        assert result.scenario == "permutation"
        assert len(result.flow_rates_gbps) == 3
        assert all(r > 0 for r in result.flow_rates_gbps)
        assert result.delivered_bytes > 0
        assert result.spec_hash == tiny_permutation("stardust").content_hash()

    def test_result_round_trips_through_json(self):
        result = run_spec(tiny_permutation("stardust"))
        clone = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result

    def test_repeat_runs_are_deterministic(self):
        # "tcp" exercises the ECMP flow-id hash, the part most sensitive
        # to process history; hermetic runs must erase that history.
        first = run_spec(tiny_permutation("tcp"))
        second = run_spec(tiny_permutation("tcp"))
        assert first == second

    def test_inprocess_and_multiprocess_agree(self):
        specs = [tiny_permutation("tcp", seed=s) for s in (3, 4, 5, 6)]
        inline = run_matrix(specs, shards=1)
        sharded = run_matrix(specs, shards=4)
        assert inline == sharded
        # Different seeds give different permutations -> different runs.
        assert inline[0] != inline[1]

    def test_cell_error_in_a_shard_propagates_once(self, monkeypatch):
        """An OSError raised by a cell inside a worker is the cell's
        error: no "multiprocessing unavailable" notice, no inline re-run
        of the whole matrix."""
        import multiprocessing

        from repro.experiments import runner

        ran = []

        class PoolWhoseCellFails:
            def __init__(self, processes):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, fn, items):
                first, *_ = items
                ran.append(first[0])
                yield fn(first)
                raise OSError("disk full inside a cell")

        monkeypatch.setattr(multiprocessing, "Pool", PoolWhoseCellFails)
        inline_runs = []
        real_run_spec = runner.run_spec
        monkeypatch.setattr(
            runner, "run_spec",
            lambda spec: inline_runs.append(spec.seed) or real_run_spec(spec),
        )
        specs = [tiny_permutation("tcp", seed=s) for s in (3, 4, 5)]
        notices = []
        with pytest.raises(OSError, match="disk full inside a cell"):
            run_matrix(specs, shards=2, progress=notices.append)
        assert ran == [0] and inline_runs == [3]
        assert not any("unavailable" in line for line in notices)

    def test_pool_that_cannot_start_falls_back_inline(self, monkeypatch):
        import multiprocessing

        def no_pool(processes):
            raise OSError("no semaphores on this platform")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        specs = [tiny_permutation("tcp", seed=s) for s in (3, 4)]
        notices = []
        results = run_matrix(specs, shards=2, progress=notices.append)
        assert results == run_matrix(specs, shards=1)
        assert any(
            "multiprocessing unavailable (no semaphores" in line
            for line in notices
        )

    def test_incast_backend_overflow_rejected(self):
        spec = build_scenario("incast", kind="tcp", n_backends=2)
        spec.workload["n_backends"] = 99
        with pytest.raises(ValueError):
            run_spec(spec)


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------


class TestStore:
    def test_miss_then_hit(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        spec = tiny_permutation("stardust")
        assert store.get(spec) is None
        assert store.misses == 1 and store.hits == 0

        result = run_spec(spec)
        path = store.put(spec, result)
        store.flush()
        assert path.exists()
        assert store.has(spec)
        assert len(store) == 1

        cached = store.get(spec)
        assert cached == result
        assert store.hits == 1

    def test_different_specs_occupy_different_cells(self, tmp_path):
        store = RecordStore(tmp_path)
        a = tiny_permutation("stardust", seed=1)
        b = tiny_permutation("stardust", seed=2)
        result = run_spec(a)
        store.put(a, result)
        assert store.has(a)
        assert not store.has(b)

    def test_corrupt_cell_counts_as_miss(self, tmp_path):
        store = RecordStore(tmp_path, num_shards=1)
        spec = tiny_permutation("stardust")
        store.put(spec, run_spec(spec))
        store.flush()
        shard = store.shard_path(0)
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0xFF  # inside the one block's compressed records
        shard.write_bytes(data)
        fresh = RecordStore(tmp_path)
        assert fresh.get(spec) is None
        assert fresh.misses == 1

    def test_run_matrix_uses_the_cache(self, tmp_path):
        store = RecordStore(tmp_path)
        specs = [tiny_permutation("stardust", seed=s) for s in (3, 4)]
        first = run_matrix(specs, store=store)
        assert len(store) == 2
        assert store.hits == 0

        second = run_matrix(specs, store=store)
        assert second == first
        assert store.hits == 2

    def test_clear_empties_the_store(self, tmp_path):
        store = RecordStore(tmp_path)
        spec = tiny_permutation("stardust")
        store.put(spec, run_spec(spec))
        assert store.clear() == 1
        assert len(store) == 0


# ----------------------------------------------------------------------
# Other workloads & summaries
# ----------------------------------------------------------------------


class TestWorkloads:
    def test_incast_collects_fcts(self):
        spec = build_scenario(
            "incast", kind="stardust", n_backends=3, response_bytes=20_000
        )
        result = run_spec(spec)
        assert result.metrics["completed"] == 3
        assert len(result.fcts_ns) == 3
        assert result.drops == 0  # lossless pull fabric

    def test_incast_dcqcn_installs_notification_points(self):
        # DCQCN only reacts to CNPs, which only a notification point
        # emits; the transport table's dcqcn row must install one per
        # flow, under the DCQCN sender, through the incast executor.
        from repro.experiments.runner import run_spec_with_network
        from repro.transport.dcqcn import DcqcnNotificationPoint, DcqcnSender

        spec = build_scenario(
            "incast", kind="dcqcn", n_backends=2, response_bytes=20_000,
            timeout_ns=5_000_000,
        )
        _result, net = run_spec_with_network(spec)
        addrs = spec.topology.addresses()
        installed = net.host_at(addrs[0])._receivers
        assert len(installed) == 2
        assert all(
            isinstance(r, DcqcnNotificationPoint) for r in installed.values()
        )
        senders = [
            net.host_at(a).sender(flow_id)
            for a in addrs[1:3]
            for flow_id in installed
            if net.host_at(a).sender(flow_id) is not None
        ]
        assert len(senders) == 2
        assert all(isinstance(s, DcqcnSender) for s in senders)

    def test_incast_dcqcn_runs_end_to_end(self):
        spec = build_scenario(
            "incast", kind="dcqcn", n_backends=2, response_bytes=20_000
        )
        result = run_spec(spec)
        assert result.metrics["completed"] == 2

    def test_many_to_many_completes_flows(self):
        spec = build_scenario(
            "many_to_many",
            kind="stardust",
            num_fas=3,
            hosts_per_fa=1,
            uplinks_per_fa=2,
            flow_bytes=20_000,
            timeout_ns=50_000_000,
        )
        result = run_spec(spec)
        assert result.metrics["offered_flows"] == 6
        assert result.metrics["completed"] == 6

    def test_uniform_random_delivers_most_packets(self):
        spec = build_scenario(
            "uniform_random",
            kind="stardust",
            utilization=0.3,
            topology=TINY,
            warmup_ns=50 * MICROSECOND,
            measure_ns=200 * MICROSECOND,
        )
        result = run_spec(spec)
        assert result.metrics["packets_sent"] > 0
        assert result.metrics["delivery_ratio"] > 0.8

    def test_mixed_runs_flows_from_both_distributions(self):
        spec = build_scenario(
            "mixed",
            kind="stardust",
            seed=2,
            load=0.5,
            topology=TINY,
            warmup_ns=0,
            measure_ns=2_000_000,
            max_flows_per_host=5,
        )
        result = run_spec(spec)
        assert result.metrics["offered_flows"] > 0
        assert result.delivered_bytes > 0


class TestSummarize:
    def test_summary_percentiles(self):
        summary = Summary.of([1, 2, 3, 4, 5])
        assert summary.count == 5
        assert summary.mean == 3
        assert summary.p50 == 3
        assert summary.minimum == 1 and summary.maximum == 5
        assert Summary.of([]) is None

    def test_aggregate_pools_across_seeds(self):
        results = [
            run_spec(tiny_permutation("stardust", seed=s)) for s in (3, 4)
        ]
        rows = aggregate(results)
        assert len(rows) == 1
        row = rows[0]
        assert row.seeds == [3, 4]
        assert row.rates_gbps.count == 6  # 3 flows x 2 seeds
        assert row.label == "stardust"
