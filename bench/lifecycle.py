"""One sweep round — cold, resume, query — and the checks on its outputs.

A *round* is the whole life of a workload's cells, through the real
entry points and nothing else:

``cold``
    simulate the cells (``run_spec_with_network`` cell by cell, or
    ``run_matrix`` for a grid), put them into a preloaded
    ``RecordStore`` and flush;
``resume``
    open the store anew and ``run_matrix`` the same cells plus cached
    synthetic ones — everything must come from cache;
``query``
    two ``store_results`` prefix queries and one ``verify_store``.

Every round starts from a fresh copy of the same preloaded store, so
rounds repeat the same work and their timings can share a median.

After every cell of the cold phase and around the other two phases a
round runs a slice of the *yardstick* (``yardstick.py``).  A phase's
wall is reported normalised by the slices taken next to it, which is
what keeps the numbers steady on a shared host.

The entry points are called *through their modules* (``runner.X``,
``record_store.X``): the traced run wraps exactly those attributes, so
the code below is the same with tracing on and off.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

import repro.experiments.runner as runner
import repro.store as record_store
from repro.experiments.runner import RunResult
from repro.experiments.spec import ScenarioSpec
from repro.perf.digest import run_digest
from repro.store.synth import synthetic_cells

from workloads import PRELOAD_CELLS, RESUME_CELLS, Workload
from yardstick import NOMINAL_S, Yardstick

#: The two prefix queries of the query phase: a two-field prefix that
#: matches ~13 % of the synthetic grid and a one-field one matching 20 %.
QUERY_SELECTORS = ("scenario=incast/fabric=push", "scenario=mixed")

SpanFactory = Callable[[str], ContextManager[Any]]
#: ``timed()`` brackets every stretch of the cold phase whose wall is
#: kept: the traced run profiles exactly those stretches.
Timed = Callable[[], ContextManager[Any]]


@dataclass
class Context:
    """Everything set-up prepares for the timed rounds of one workload."""

    workload: Workload
    smoke: bool
    #: The cells the cold phase simulates.
    specs: List[ScenarioSpec]
    #: Every preloaded synthetic cell, in store order.
    synthetic: List[Tuple[ScenarioSpec, RunResult]]
    #: Scratch directory of this context; ``pristine`` lives inside.
    root: Path
    #: The preloaded store each round copies.
    pristine: Path
    #: Brute-force answer (spec hashes) to each of ``QUERY_SELECTORS``.
    expected_keys: List[set]
    _stores: int = 0

    @property
    def cached(self) -> List[Tuple[ScenarioSpec, RunResult]]:
        """The preloaded cells every resume re-reads."""
        return self.synthetic[: RESUME_CELLS[self.smoke]]

    def fresh_store(self) -> Path:
        """A private copy of the preloaded store."""
        self._stores += 1
        path = self.root / f"store-{self._stores}"
        shutil.copytree(self.pristine, path)
        return path


@dataclass
class Cold:
    """Outcome of one cold phase."""

    results: List[RunResult]
    #: One digest per cell: ``run_digest`` where the cell's network was
    #: at hand, else the result's plain dict.
    digests: List[Dict[str, Any]]
    #: Seconds spent computing the digests (never part of a wall).
    digest_s: float
    #: Wall of each cell's life, in cell order.
    cell_walls: List[float]
    #: Wall of what follows the last cell: the puts and the flush.
    tail_s: float

    @property
    def wall_s(self) -> float:
        """Wall of the cold sweep: simulate + put + flush."""
        return sum(self.cell_walls) + self.tail_s

    @property
    def events(self) -> int:
        return sum(result.events_fired for result in self.results)


@dataclass
class Round:
    """Timings, counts and check failures of one round."""

    cell_walls: List[float]
    cold_s: float
    resume_s: float
    query_s: float
    #: Mean yardstick slice next to each phase: cold, resume, query.
    slice_s: Dict[str, float]
    events: int
    digests: List[Dict[str, Any]]
    digest_s: float
    #: ``verify_store``'s report after the round's puts.
    verify: Dict[str, Any]
    #: Operations attempted: cells run + cached cells read + 1 query round.
    ops: int
    failed_ops: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, ops: int, message: str) -> None:
        self.failed_ops += ops
        self.failures.append(message)


def _matches(spec: ScenarioSpec, selector: str) -> bool:
    """Whether ``spec`` answers ``selector``, without the store's help."""
    pairs = (part.split("=") for part in selector.split("/"))
    return all(str(getattr(spec, name)) == value for name, value in pairs)


def setup(
    workload: Workload,
    seed: int,
    kernel: Optional[str],
    smoke: bool,
    root: Path,
) -> Context:
    """Specs, the preloaded store and one untimed warm-up of the cells.

    The warm-up runs the workload's *smoke-size* cells: the same code
    paths as the timed cells (imports, memo tables, first-call costs)
    at a fraction of their length.
    """
    specs = workload.specs(seed, kernel, smoke)
    synthetic = list(synthetic_cells(PRELOAD_CELLS[smoke], seed=seed))
    root.mkdir(parents=True)
    pristine = root / "pristine"
    with record_store.RecordStore(pristine) as store:
        for spec, result in synthetic:
            store.put(spec, result)
    stored = [spec for spec, _ in synthetic] + specs
    expected_keys = [
        {spec.content_hash() for spec in stored if _matches(spec, selector)}
        for selector in QUERY_SELECTORS
    ]
    for spec in workload.specs(seed, kernel, True):
        runner.run_spec(spec)
    return Context(
        workload, smoke, specs, synthetic, root, pristine, expected_keys
    )


# ----------------------------------------------------------------------
# The three phases
# ----------------------------------------------------------------------


def cold_phase(
    ctx: Context,
    store_dir: Path,
    yard: Yardstick,
    timed: Timed = nullcontext,
) -> Cold:
    """Simulate the workload's cells into the store at ``store_dir``.

    One yardstick slice follows every cell; neither the slices nor the
    digests are inside any wall.
    """
    store = record_store.RecordStore(store_dir)
    if not ctx.workload.direct:
        return _cold_matrix(ctx, store, yard, timed)

    clock = time.perf_counter
    results: List[RunResult] = []
    digests: List[Dict[str, Any]] = []
    walls: List[float] = []
    digest_s = 0.0
    for spec in ctx.specs:
        with timed():
            started = clock()
            result, net = runner.run_spec_with_network(spec)
            result.to_dict()
            walls.append(clock() - started)
        started = clock()
        digests.append(run_digest(result, net))
        digest_s += clock() - started
        del net
        results.append(result)
        yard()
    with timed():
        started = clock()
        for spec, result in zip(ctx.specs, results):
            store.put(spec, result)
        store.flush()
        tail_s = clock() - started
    return Cold(results, digests, digest_s, walls, tail_s)


def _cold_matrix(
    ctx: Context, store: Any, yard: Yardstick, timed: Timed
) -> Cold:
    """The cold phase as one ``run_matrix`` call.

    ``live=True`` makes ``run_matrix`` report each cell as it completes;
    the report is where the cell's wall ends and its yardstick slice
    runs, so the slices stay out of the walls.
    """
    clock = time.perf_counter
    walls: List[float] = []
    resumed_at = [0.0]

    def cell_done(_line: str) -> None:
        walls.append(clock() - resumed_at[0])
        yard()
        resumed_at[0] = clock()

    with timed():
        resumed_at[0] = clock()
        results = runner.run_matrix(
            ctx.specs, shards=1, store=store, progress=cell_done, live=True
        )
        tail_s = clock() - resumed_at[0]
    if len(walls) != len(ctx.specs):
        raise RuntimeError(
            f"run_matrix(live=True) reported {len(walls)} cells "
            f"of {len(ctx.specs)}"
        )
    digests = [result.to_dict() for result in results]
    return Cold(results, digests, 0.0, walls, tail_s)


def resume_phase(
    ctx: Context, store_dir: Path
) -> Tuple[float, List[RunResult], Any]:
    """Re-run the sweep against a newly opened store: all cache hits."""
    specs = ctx.specs + [spec for spec, _ in ctx.cached]
    store = record_store.RecordStore(store_dir)
    started = time.perf_counter()
    results = runner.run_matrix(specs, shards=1, store=store)
    return time.perf_counter() - started, results, store


def query_phase(store_dir: Path) -> Tuple[float, List[List[RunResult]], Dict]:
    """Both prefix queries, then a full CRC verification."""
    started = time.perf_counter()
    answers = [
        record_store.store_results(store_dir, selector)
        for selector in QUERY_SELECTORS
    ]
    report = record_store.verify_store(store_dir)
    return time.perf_counter() - started, answers, report


def run_round(
    ctx: Context, yard: Yardstick, span: SpanFactory = nullcontext
) -> Round:
    """One cold + resume + query round on a fresh copy of the store."""
    store_dir = ctx.fresh_store()
    gc.collect()
    first = len(yard.slices)
    yard()
    with span("sweep.cold"):
        cold = cold_phase(ctx, store_dir, yard)
    yard()
    last = len(yard.slices)
    # Each phase starts from a collected heap: whether a full collection
    # of an earlier phase's garbage falls into this phase or the next
    # depends on allocation counts that move with the seed.
    gc.collect()
    with span("sweep.resume"):
        resume_s, resumed, reopened = resume_phase(ctx, store_dir)
    yard()
    yard()
    gc.collect()
    with span("sweep.query"):
        query_s, answers, report = query_phase(store_dir)
    yard()
    yard()
    shutil.rmtree(store_dir)

    cells = len(ctx.specs)
    outcome = Round(
        cell_walls=cold.cell_walls,
        cold_s=cold.wall_s,
        resume_s=resume_s,
        query_s=query_s,
        # The cold phase is read against the slice before it and the
        # one after each of its cells; resume and query, which have no
        # slices inside, against two slices on either side.
        slice_s={
            "cold": yard.mean(first, last - 1),
            "resume": yard.mean(last - 2, last + 2),
            "query": yard.mean(last, last + 4),
        },
        events=cold.events,
        digests=cold.digests,
        digest_s=cold.digest_s,
        verify=report,
        ops=cells + len(resumed) + 1,
    )

    # Cells: the workload's own output checks.
    for spec, result, digest in zip(ctx.specs, cold.results, cold.digests):
        failures = ctx.workload.check(result, digest, ctx.smoke)
        if failures:
            outcome.fail(
                1,
                f"{spec.scenario}/{spec.fabric} seed {spec.seed}: "
                + "; ".join(failures),
            )

    # Cached reads: the cold cells must round-trip through the reopened
    # store, the synthetic ones must equal what was preloaded, and
    # nothing may have been simulated again.
    expected = cold.results + [result for _, result in ctx.cached]
    wrong = sum(
        got.to_dict() != want.to_dict()
        for got, want in zip(resumed, expected)
    )
    wrong = max(wrong, reopened.misses)
    if wrong or reopened.hits != len(expected):
        outcome.fail(
            max(wrong, 1),
            f"resume: {wrong} wrong or missed reads, hits={reopened.hits} "
            f"misses={reopened.misses}, want {len(expected)} hits",
        )

    # Query round: key sets against the brute-force answer, then the
    # verification report.
    problems = []
    for selector, answer, want in zip(
        QUERY_SELECTORS, answers, ctx.expected_keys
    ):
        got = [result.spec_hash for result in answer]
        if set(got) != want or len(got) != len(want):
            problems.append(f"{selector}: {len(got)} cells, want {len(want)}")
    records = len(ctx.synthetic) + cells
    if report["corrupt_blocks"] or report["distinct_keys"] != records:
        problems.append(f"verify_store: {report}, want {records} records")
    if problems:
        outcome.fail(1, "query: " + "; ".join(problems))
    return outcome


def check_repeats(rounds: List[Round]) -> None:
    """Every repetition of a cell must reproduce the first one exactly."""
    first = rounds[0]
    for index, later in enumerate(rounds[1:], start=2):
        differing = sum(
            a != b for a, b in zip(first.digests, later.digests)
        )
        if differing:
            later.fail(
                differing,
                f"round {index}: {differing} cells differ from round 1",
            )


def digest_of(digests: List[Dict[str, Any]]) -> str:
    """One short hex string for a round's cell digests (``sim.digest``)."""
    payload = json.dumps(digests, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# The untraced measurement: what the end-to-end metrics come from
# ----------------------------------------------------------------------

#: Set-up is repeated so ``setup_s`` can be a median like the rest.
SETUP_REPEATS = 3


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def normalised(wall_s: float, slice_s: float) -> float:
    """``wall_s`` as it would read at the yardstick's nominal speed."""
    return wall_s * NOMINAL_S / slice_s


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    kernel: Optional[str],
    smoke: bool,
    work_dir: Path,
    import_s: float,
) -> Dict[str, Any]:
    """Set up, then repeat rounds until ``seconds`` have been measured."""
    yard = Yardstick()
    setups = []
    for attempt in range(SETUP_REPEATS):
        root = work_dir / f"setup-{attempt}"
        first = len(yard.slices)
        yard()
        started = time.perf_counter()
        ctx = setup(workload, seed, kernel, smoke, root)
        wall = time.perf_counter() - started
        yard()
        setups.append((wall, yard.mean(first, first + 2)))
        if attempt < SETUP_REPEATS - 1:
            shutil.rmtree(root)

    rounds: List[Round] = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(run_round(ctx, yard))
    check_repeats(rounds)

    cells = len(ctx.specs)
    cell_totals = [
        normalised(sum(r.cell_walls), r.slice_s["cold"]) for r in rounds
    ]
    samples = {
        # The imports ran once, before there was a yardstick: they are
        # read against the slices around each set-up like the set-up.
        "setup_s": [
            normalised(import_s + wall, slice_s) for wall, slice_s in setups
        ],
        "cell_wall_s": [total / cells for total in cell_totals],
        "events_per_s": [
            r.events / total for r, total in zip(rounds, cell_totals)
        ],
        "sweep_cold_s": [
            normalised(r.cold_s, r.slice_s["cold"]) for r in rounds
        ],
        "sweep_resume_s": [
            normalised(r.resume_s, r.slice_s["resume"]) for r in rounds
        ],
        "sweep_query_s": [
            normalised(r.query_s, r.slice_s["query"]) for r in rounds
        ],
        "peak_rss_mb": [peak_rss_mb()],
    }
    cold_slices = [r.slice_s["cold"] for r in rounds]
    return {
        "values": {
            name: statistics.median(values)
            for name, values in samples.items()
        },
        "samples": samples,
        # What the samples were made from: walls as the clock read
        # them, and the yardstick slices they were normalised by.
        "raw": {
            "nominal_slice_s": NOMINAL_S,
            "import_s": import_s,
            "setup_s": [wall for wall, _ in setups],
            "setup_slice_s": [slice_s for _, slice_s in setups],
            "cell_walls_s": [r.cell_walls for r in rounds],
            "cold_s": [r.cold_s for r in rounds],
            "resume_s": [r.resume_s for r in rounds],
            "query_s": [r.query_s for r in rounds],
            "slice_s": [r.slice_s for r in rounds],
        },
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed_ops for r in rounds),
        "failures": [f for r in rounds for f in r.failures],
        "digest": digest_of(rounds[0].digests),
        "sizes": {
            "rounds": len(rounds),
            "cells_per_round": cells,
            "events_per_round": rounds[0].events,
            "preloaded_cells": len(ctx.synthetic),
            "cached_reads_per_round": rounds[0].ops - cells - 1,
            # 1.0 = the yardstick ran at its nominal speed.
            "machine_speed": NOMINAL_S / statistics.median(cold_slices),
        },
    }
