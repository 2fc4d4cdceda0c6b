"""Micro and meso benchmarks for the simulation hot path.

Micro benches isolate the engine and link layers (pure event churn, a
single saturated link); meso benches run the permutation workload over
a fabric x tier matrix through the real experiment runner.  Every bench
reports wall-clock seconds and **events/sec** — the engine's native
throughput unit, which is what the perf-regression gate tracks — and
the meso benches also carry a result digest so a speedup can never
silently come from computing something different.

The headline bench, ``permutation_default``, is the unmodified default
permutation spec (``python -m repro.experiments show permutation``);
its wall-clock against the committed baseline is the number the
ROADMAP's "as fast as the hardware allows" trajectory tracks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec_with_network
from repro.experiments.spec import ScenarioSpec
from repro.perf.digest import run_digest
from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.sim.link import Link
from repro.sim.units import MICROSECOND, gbps


@dataclass
class BenchResult:
    """One bench's outcome."""

    name: str
    wall_s: float
    events: int
    sim_time_ns: int = 0
    digest: Optional[Dict[str, Any]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        """Engine throughput (callbacks executed per wall second)."""
        if self.wall_s <= 0:
            return 0.0
        return self.events / self.wall_s

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for ``BENCH_perf.json``."""
        payload: Dict[str, Any] = {
            "wall_s": round(self.wall_s, 4),
            "events": self.events,
            "events_per_sec": round(self.events_per_sec, 1),
            "sim_time_ns": self.sim_time_ns,
        }
        if self.digest is not None:
            payload["digest"] = self.digest
        if self.extra:
            payload["extra"] = self.extra
        return payload


# ----------------------------------------------------------------------
# Micro: the engine and link layers in isolation
# ----------------------------------------------------------------------


def bench_engine_events(
    n: int = 400_000, chains: int = 64
) -> BenchResult:
    """Pure event throughput: self-rescheduling callback chains.

    ``chains`` concurrent tickers re-arm themselves until ``n`` total
    callbacks have fired, keeping the heap small and steady — this is
    the per-event overhead a link-serialization event pays, with no
    device logic on top.
    """
    sim = Simulator()
    # The fast path when present (post-optimization), else the classic
    # API — the comparison between the two IS the measurement.
    call_later = getattr(sim, "call_later", sim.schedule)
    budget = [n]

    def tick() -> None:
        budget[0] -= 1
        if budget[0] > 0:
            call_later(7, tick)

    for i in range(chains):
        sim.schedule(i + 1, tick)
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    return BenchResult(
        "engine_events", wall, sim.events_fired,
        sim_time_ns=sim.now,
    )


def bench_engine_cancel_churn(n: int = 120_000) -> BenchResult:
    """Cancel/reschedule churn: half of all scheduled events die young.

    Models PeriodicTask.set_period storms (DCQCN rate updates); the
    engine must skip the corpses cheaply and keep the heap compact.
    """
    sim = Simulator()

    def _noop() -> None:
        pass

    started = time.perf_counter()
    for i in range(n):
        sim.at(i + 1, _noop)
        sim.at(i + 1, _noop).cancel()
    sim.run()
    wall = time.perf_counter() - started
    result = BenchResult(
        "engine_cancel_churn", wall, sim.events_fired,
        sim_time_ns=sim.now,
    )
    result.extra["pending_after_run"] = sim.pending
    return result


class _Sink(Entity):
    """Counts deliveries; the cheapest possible receiver."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, "sink")
        self.frames = 0

    def receive(self, payload: Any, link: Link) -> None:
        self.frames += 1


def bench_link_stream(frames: int = 150_000) -> BenchResult:
    """One saturated 100G link streaming fixed-size frames to a sink.

    Exercises the dominant event pattern of every experiment: enqueue,
    serialize (one event), propagate (one event), deliver.
    """
    sim = Simulator()
    src = _Sink(sim)
    dst = _Sink(sim)
    link = Link(sim, src, dst, gbps(100), propagation_ns=100)
    payload = object()
    started = time.perf_counter()
    for _ in range(frames):
        link.send(payload, 512)
    sim.run()
    wall = time.perf_counter() - started
    result = BenchResult(
        "link_stream", wall, sim.events_fired,
        sim_time_ns=sim.now,
    )
    result.extra["frames_delivered"] = dst.frames
    return result


# ----------------------------------------------------------------------
# Meso: permutation wall-clock per fabric x tier
# ----------------------------------------------------------------------


def _run_scenario_bench(name: str, spec: ScenarioSpec) -> BenchResult:
    started = time.perf_counter()
    result, net = run_spec_with_network(spec)
    wall = time.perf_counter() - started
    bench = BenchResult(
        name,
        wall,
        net.sim.events_fired,
        sim_time_ns=net.sim.now,
        digest=run_digest(result, net),
    )
    if result.flow_rates_gbps:
        bench.extra["mean_gbps"] = round(result.mean_rate_gbps, 3)
    return bench


def _meso_specs(quick: bool) -> List[tuple]:
    windows = (
        dict(warmup_ns=100 * MICROSECOND, measure_ns=200 * MICROSECOND)
        if quick
        else dict(warmup_ns=500 * MICROSECOND, measure_ns=1500 * MICROSECOND)
    )
    cells = (
        ("permutation_stardust_two_tier", "permutation", "stardust"),
        ("permutation_push_two_tier", "permutation", "tcp"),
        ("permutation_stardust_three_tier", "permutation_three_tier", "stardust"),
        ("permutation_push_three_tier", "permutation_three_tier", "tcp"),
    )
    specs = [
        (name, build_scenario(scenario, kind=kind, **windows))
        for name, scenario, kind in cells
    ]
    # Cells at scale: 32 FAs / 128 hosts across three tiers — the run
    # class the calendar-queue engine unlocked.  Quick mode skips it
    # (like the headline bench) and the windows match its golden cell.
    if not quick:
        specs.append(
            (
                "permutation_three_tier_large",
                build_scenario(
                    "permutation_three_tier_large", kind="stardust",
                    warmup_ns=150 * MICROSECOND,
                    measure_ns=450 * MICROSECOND,
                ),
            )
        )
    return specs


def default_permutation_spec() -> ScenarioSpec:
    """The spec the headline speedup number is measured on."""
    return build_scenario("permutation")


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------

def bench_factories(
    quick: bool = False, only: Optional[str] = None
) -> List[tuple[str, Callable[[], BenchResult]]]:
    """The suite as (name, factory) pairs, in report order.

    ``only`` filters names by substring; quick mode shrinks sizes and
    drops the minutes-long headline bench.  Exposed separately from
    :func:`suite` so the CLI can wrap each bench (cProfile for
    ``--profile``) without re-declaring the matrix.
    """
    benches: List[tuple[str, Callable[[], BenchResult]]] = [
        (
            "engine_events",
            lambda: bench_engine_events(40_000 if quick else 400_000),
        ),
        (
            "engine_cancel_churn",
            lambda: bench_engine_cancel_churn(12_000 if quick else 120_000),
        ),
        (
            "link_stream",
            lambda: bench_link_stream(15_000 if quick else 150_000),
        ),
    ]
    for name, spec in _meso_specs(quick):
        benches.append(
            (name, lambda spec=spec, name=name: _run_scenario_bench(name, spec))
        )
    if not quick:
        benches.append(
            (
                "permutation_default",
                lambda: _run_scenario_bench(
                    "permutation_default", default_permutation_spec()
                ),
            )
        )
    if only:
        benches = [(n, f) for n, f in benches if only in n]
    return benches


def measure_process_stats(
    factory: Callable[[], BenchResult]
) -> BenchResult:
    """Run one bench and annotate it with process-level cost.

    Adds to ``extra``:

    * ``peak_rss_kb`` — the process high-water resident set after the
      bench (``ru_maxrss``; monotone across the suite, so a bench that
      doesn't raise it cost less memory than everything before it);
    * ``gc_collections`` — collections per GC generation *during* the
      bench, a direct read on how much allocation churn the hot path
      causes.

    Both ride ``BENCH_perf.json`` for trend tracking; the regression
    gate compares only wall/events-per-sec, so these are informational.
    """
    import gc

    before = [s["collections"] for s in gc.get_stats()]
    result = factory()
    after = [s["collections"] for s in gc.get_stats()]
    result.extra["gc_collections"] = [
        a - b for a, b in zip(after, before)
    ]
    try:
        import resource
        import sys

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
            rss //= 1024
        result.extra["peak_rss_kb"] = int(rss)
    except ImportError:  # pragma: no cover - non-POSIX platforms
        pass
    return result


def suite(
    quick: bool = False, only: Optional[str] = None
) -> List[BenchResult]:
    """Run the suite in report order (see :func:`bench_factories`)."""
    return [
        measure_process_stats(factory)
        for _, factory in bench_factories(quick, only)
    ]


def profile_bench(
    factory: Callable[[], BenchResult], top: int
) -> tuple[BenchResult, str]:
    """Run one bench under cProfile; returns (result, top-N report).

    The report is the ``pstats`` cumulative-time table truncated to the
    ``top`` hottest entries — the "where did the time go" answer that
    used to take an ad-hoc script per perf hunt.  Profiled wall times
    carry interpreter tracing overhead, so callers must never compare
    them against an unprofiled baseline.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    result = factory()
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    return result, stream.getvalue()
