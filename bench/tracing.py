"""The traced run's instruments, all applied from outside the program.

``SpanRecorder``
    wraps the public call sites in ``WRAP_POINTS`` and records one span
    per call — name, start, end, parent span, cell id — in memory.  A
    layer's time is its spans' duration; a span's *self* time is its
    duration minus its children's.

``layer_table``
    rolls a ``cProfile`` run up by source path into the benchmark's
    layers.  Time in code that belongs to no layer (stdlib, built-ins)
    is charged to the nearest calling layer along the profile's caller
    edges.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import json
import os
import pstats
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro

import lifecycle
import micro
from workloads import Workload
from yardstick import Still

#: ``(span name, module, class or None, attribute)`` — the call sites a
#: traced run wraps.  One that no longer resolves is reported in
#: ``trace.missing_spans`` and every metric derived from it is omitted.
WRAP_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("cell", "repro.experiments.runner", None, "run_spec_with_network"),
    ("fabrics.build", "repro.experiments.runner", None, "build_network"),
    ("transport.attach", "repro.experiments.runner", None, "make_hosts"),
    ("sim.run", "repro.fabrics.base", "FabricNetwork", "run"),
    ("fabrics.collect", "repro.fabrics.base", "FabricNetwork", "collect_metrics"),
    ("store.put", "repro.store.cells", "RecordStore", "put"),
    ("store.flush", "repro.store.cells", "RecordStore", "flush"),
    ("store.get", "repro.store.cells", "RecordStore", "get"),
    ("store.query", "repro.store", None, "store_results"),
    ("store.verify", "repro.store", None, "verify_store"),
)

Span = Dict[str, Any]


def _gc_collections() -> List[int]:
    return [generation["collections"] for generation in gc.get_stats()]


class SpanRecorder:
    """Records a span around every call through a wrapped call site."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Wrap points that did not resolve: span name -> dotted path.
        self.missing: Dict[str, str] = {}
        self._stack: List[int] = []
        self._cells = 0
        #: Root span of the cell being simulated, if any.
        self._root: Optional[Span] = None
        self._originals: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> Span:
        record: Span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "cell": self._root["cell"] if self._root else 0,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record: Span) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span the benchmark opens around its own code (phases)."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _traced(self, name: str, original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = self._open(name)
            try:
                value = original(*args, **kwargs)
            finally:
                self._close(record)
            if name == "fabrics.collect" and self._root is not None:
                counts = self._root["counts"]
                counts["cells_delivered"] = value.cell_latency_ns.count
                counts["packets_delivered"] = value.packet_latency_ns.count
            return value

        return wrapper

    def _traced_cell(self, original: Callable[..., Any]) -> Callable[..., Any]:
        """The root span of one cell: also owns the per-cell counts."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._cells += 1
            before = _gc_collections()
            record = self._open("cell")
            record["cell"] = self._cells
            record["counts"] = {}
            self._root = record
            try:
                result, net = original(*args, **kwargs)
            finally:
                self._close(record)
                self._root = None
            after = _gc_collections()
            record["counts"].update(
                events=result.events_fired,
                sim_time_ns=result.sim_time_ns,
                drops=result.drops,
                flows_completed=len(result.fcts_ns),
                gc_gen0=after[0] - before[0],
                gc_gen2=after[2] - before[2],
            )
            return result, net

        return wrapper

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every resolvable point; always restore on the way out."""
        for name, module_name, class_name, attribute in WRAP_POINTS:
            label = ".".join(
                part for part in (module_name, class_name, attribute) if part
            )
            try:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.missing[name] = label
                continue
            self._originals.append((owner, attribute, original))
            wrapper = (
                self._traced_cell(original)
                if name == "cell"
                else self._traced(name, original)
            )
            setattr(owner, attribute, wrapper)
        try:
            yield self
        finally:
            for owner, attribute, original in reversed(self._originals):
                setattr(owner, attribute, original)
            self._originals.clear()

    # ------------------------------------------------------------------
    # Reading the spans back
    # ------------------------------------------------------------------
    def named(self, name: str, within: Optional[str] = None) -> List[Span]:
        """Spans called ``name`` (under a ``within`` ancestor, if given)."""
        found = [span for span in self.spans if span["name"] == name]
        if within is None:
            return found
        return [span for span in found if within in self._ancestry(span)]

    def _ancestry(self, span: Span) -> List[str]:
        names = []
        parent = span["parent"]
        while parent is not None:
            names.append(self.spans[parent]["name"])
            parent = self.spans[parent]["parent"]
        return names

    def total(self, name: str, within: Optional[str] = None) -> float:
        return sum(duration(span) for span in self.named(name, within))

    def cell_phases(self) -> Dict[str, float]:
        """Median seconds per cell of each phase inside a cell's life."""
        per_cell: Dict[str, List[float]] = {}
        for root in self.named("cell"):
            inside = [
                span for span in self.spans
                if span["cell"] == root["cell"] and span is not root
            ]
            spent: Dict[str, float] = {}
            for span in inside:
                spent[span["name"]] = spent.get(span["name"], 0.0) + duration(span)
            children = sum(
                duration(span) for span in inside if span["parent"] == root["id"]
            )
            phases = {
                "fabrics.build_s": spent.get("fabrics.build", 0.0),
                "transport.attach_s": spent.get("transport.attach", 0.0),
                "sim.run_s": spent.get("sim.run", 0.0),
                "fabrics.collect_s": spent.get("fabrics.collect", 0.0),
                "experiments.runner_self_s": duration(root) - children,
            }
            runs = [s for s in inside if s["name"] == "sim.run"]
            wired = [
                s["end"] for s in inside
                if s["name"] in ("fabrics.build", "transport.attach")
            ]
            if runs and wired:
                # Workload start: flows created and armed, injectors
                # built - whatever happens between wiring and running.
                phases["workloads.start_s"] = runs[0]["start"] - max(wired)
            for key, value in phases.items():
                per_cell.setdefault(key, []).append(value)
        return {
            key: statistics.median(values) for key, values in per_cell.items()
        }

    def cell_counts(self) -> Dict[str, List[int]]:
        """Per-cell counts, one list per counter, in cell order."""
        counts: Dict[str, List[int]] = {}
        for root in self.named("cell"):
            for key, value in root["counts"].items():
                counts.setdefault(key, []).append(value)
        return counts


def duration(span: Span) -> float:
    return span["end"] - span["start"]


# ----------------------------------------------------------------------
# Profile roll-up
# ----------------------------------------------------------------------

_CORE_MODULES = frozenset(
    ("fabric_adapter", "fabric_element", "spray", "credit", "voq",
     "reassembly", "packing", "cell")
)
_PACKAGES = (
    "fabrics", "baselines", "transport", "workloads", "net", "faults",
    "telemetry", "experiments", "store",
)
#: Every layer name, in report order.
LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.link", "sim.other",
    *(f"core.{module}" for module in sorted(_CORE_MODULES)), "core.other",
    *_PACKAGES, "other",
)
_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``; None for code outside ``repro``."""
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO_ROOT):
        return None
    parts = path[len(_REPRO_ROOT):].split(os.sep)
    package, stem = parts[0], parts[-1].removesuffix(".py")
    if package == "sim":
        if parts[1] == "kernel" or stem == "engine":
            return "sim.engine"
        return "sim.link" if stem == "link" else "sim.other"
    if package == "core":
        return f"core.{stem}" if stem in _CORE_MODULES else "core.other"
    return package if package in _PACKAGES else "other"


def layer_table(profile: Any) -> Dict[str, Tuple[float, float]]:
    """``{layer: (self seconds, calls)}`` for one ``cProfile`` run.

    A function outside ``repro`` (json, dataclasses, random, ...) has
    its self time and calls split over the layers of its callers, in
    proportion to the time each caller edge carries; a chain of such
    functions is followed up to the first ``repro`` frame.  What has no
    ``repro`` caller at all — the benchmark's own frames — is ``other``.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    resolved: Dict[Any, Dict[str, float]] = {}

    def weights(func: Any, trail: Tuple[Any, ...]) -> Dict[str, float]:
        if func in resolved:
            return resolved[func]
        layer = layer_of(func[0])
        if layer is not None:
            shares = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            edges = [
                (caller, edge[2] or edge[0] * 1e-9)
                for caller, edge in callers.items()
                if caller not in trail and caller != func
            ]
            whole = sum(weight for _, weight in edges)
            shares = {}
            for caller, weight in edges:
                for name, share in weights(caller, (*trail, func)).items():
                    shares[name] = shares.get(name, 0.0) + share * weight / whole
            if not shares:
                shares = {"other": 1.0}
        resolved[func] = shares
        return shares

    table = {layer: [0.0, 0.0] for layer in LAYERS}
    for func, (_, calls, self_s, _, _) in stats.items():
        for layer, share in weights(func, ()).items():
            table[layer][0] += self_s * share
            table[layer][1] += calls * share
    return {layer: (row[0], row[1]) for layer, row in table.items()}


# ----------------------------------------------------------------------
# The traced run: what the per-layer metrics come from
# ----------------------------------------------------------------------

#: Span names each span-derived metric needs; a metric is omitted, not
#: reported as 0, when one of them could not be wrapped.
REQUIRES: Dict[str, Tuple[str, ...]] = {
    "fabrics.build_s": ("cell", "fabrics.build"),
    "transport.attach_s": ("cell", "transport.attach"),
    "workloads.start_s": ("cell", "fabrics.build", "transport.attach", "sim.run"),
    "sim.run_s": ("cell", "sim.run"),
    "fabrics.collect_s": ("cell", "fabrics.collect"),
    "experiments.runner_self_s": (
        "cell", "fabrics.build", "transport.attach", "sim.run",
        "fabrics.collect",
    ),
    "store.put_s": ("store.put",),
    "store.put_us_per_cell": ("store.put",),
    "store.flush_s": ("store.flush",),
    "store.get_s": ("store.get",),
    "store.get_ms_per_cell": ("store.get",),
    "store.query_s": ("store.query",),
    "store.verify_s": ("store.verify",),
    "sim.events": ("cell",),
    "sim.time_ns": ("cell",),
    "fabrics.drops": ("cell",),
    "transport.flows_completed": ("cell",),
    "core.cells_delivered": ("cell", "fabrics.collect"),
    "net.packets_delivered": ("cell", "fabrics.collect"),
    "gc.gen0_per_cell": ("cell",),
    "gc.gen2_per_cell": ("cell",),
}


def _cold_pass(
    ctx: lifecycle.Context, profiler: Optional[cProfile.Profile]
) -> lifecycle.Cold:
    """One cold phase into its own copy of the preloaded store; the
    profiler, if any, runs over exactly the stretches that are timed."""

    @contextmanager
    def profiled() -> Iterator[None]:
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()

    store_dir = ctx.fresh_store()
    gc.collect()
    cold = lifecycle.cold_phase(
        ctx, store_dir, Still(), profiled if profiler else nullcontext
    )
    shutil.rmtree(store_dir)
    return cold


def trace(
    workload: Workload,
    seed: int,
    kernel: Optional[str],
    smoke: bool,
    work_dir: Path,
    trace_path: Path,
) -> Dict[str, Any]:
    """One untraced cold phase, one span round, one profiled cold phase.

    The untraced pass is the reference the two overhead ratios are
    taken against; both instrumented passes must reproduce its digests.
    """
    ctx = lifecycle.setup(workload, seed, kernel, smoke, work_dir / "setup")
    cells = len(ctx.specs)

    started = time.perf_counter()
    for spec in workload.specs(seed, kernel, smoke):
        spec.content_hash()
        spec.to_json()
    spec_s = (time.perf_counter() - started) / cells

    base = _cold_pass(ctx, None)
    recorder = SpanRecorder()
    with recorder.installed():
        spanned = lifecycle.run_round(ctx, Still(), recorder.span)
    profiler = cProfile.Profile(builtins=False)
    profiled = _cold_pass(ctx, profiler)

    failures = list(spanned.failures)
    failed = spanned.failed_ops
    for label, digests in (
        ("span", spanned.digests), ("profile", profiled.digests)
    ):
        differing = sum(a != b for a, b in zip(base.digests, digests))
        if differing:
            failed += differing
            failures.append(
                f"{label} pass: {differing} cells differ from the untraced pass"
            )

    metrics: Dict[str, float] = {
        "experiments.spec_s": spec_s,
        "perf.digest_s": spanned.digest_s / cells,
        **recorder.cell_phases(),
    }
    puts = recorder.named("store.put", "sweep.cold")
    gets = recorder.named("store.get", "sweep.resume")
    put_s = sum(duration(span) for span in puts)
    get_s = sum(duration(span) for span in gets)
    metrics.update({
        "store.put_s": put_s,
        "store.put_us_per_cell": put_s * 1e6 / max(len(puts), 1),
        "store.flush_s": recorder.total("store.flush", "sweep.cold"),
        "store.get_s": get_s,
        "store.get_ms_per_cell": get_s * 1e3 / max(len(gets), 1),
        "store.query_s": recorder.total("store.query"),
        "store.verify_s": recorder.total("store.verify"),
    })

    counts = recorder.cell_counts()
    if counts:
        metrics.update({
            "sim.events": sum(counts["events"]),
            "sim.time_ns": sum(counts["sim_time_ns"]),
            "fabrics.drops": sum(counts["drops"]),
            "transport.flows_completed": sum(counts["flows_completed"]),
            "core.cells_delivered": sum(counts.get("cells_delivered", ())),
            "net.packets_delivered": sum(counts.get("packets_delivered", ())),
            "gc.gen0_per_cell": statistics.median(counts["gc_gen0"]),
            "gc.gen2_per_cell": statistics.median(counts["gc_gen2"]),
        })
    metrics["store.bytes_per_cell"] = (
        spanned.verify["shard_bytes"] / spanned.verify["distinct_keys"]
    )
    metrics["store.blocks"] = spanned.verify["blocks"]

    for metric, needs in REQUIRES.items():
        if not recorder.missing.keys().isdisjoint(needs):
            metrics.pop(metric, None)

    # Shares of the profiled cold phase, applied to the *span-pass*
    # cold wall: the profiler slows Python calls ~3x and native code
    # not at all, so its absolute seconds mean nothing.
    table = layer_table(profiler)
    whole = sum(self_s for self_s, _ in table.values())
    for layer, (self_s, calls) in table.items():
        metrics[f"{layer}.ns_per_event"] = (
            self_s / whole * spanned.cold_s * 1e9 / spanned.events
        )
        metrics[f"{layer}.calls_per_event"] = calls / profiled.events

    metrics.update(micro.run_all(kernel, smoke))
    metrics["trace.span_overhead_x"] = spanned.cold_s / base.wall_s
    metrics["trace.profile_overhead_x"] = profiled.wall_s / base.wall_s
    metrics["trace.missing_spans"] = len(recorder.missing)
    missing = sorted(recorder.missing.values())
    if missing:
        failures.append(f"wrap points gone: {', '.join(missing)}")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(
        json.dumps(
            {"workload": workload.name, "seed": seed, "spans": recorder.spans}
        )
    )
    return {
        "values": metrics,
        "attempted": spanned.ops + 2 * cells,
        "failed": failed,
        "failures": failures,
        "digest": lifecycle.digest_of(base.digests),
        "missing_spans": missing,
        "sizes": {
            "cells_per_round": cells,
            "events_per_round": base.events,
            "preloaded_cells": len(ctx.synthetic),
            "untraced_cold_s": base.wall_s,
            "span_cold_s": spanned.cold_s,
            "profile_cold_s": profiled.wall_s,
        },
    }
