"""Execute scenario specs — in-process or fanned out across shards.

:func:`run_spec` executes one :class:`~repro.experiments.spec.ScenarioSpec`
hermetically (fresh simulator, fresh flow-id space) and returns a typed
:class:`RunResult`.  :func:`run_matrix` executes a list of specs,
serving completed cells from the
:class:`~repro.store.cells.RecordStore` it is handed and fanning the
misses out over ``multiprocessing`` shards (in-process when
``shards <= 1`` or the platform cannot give it workers).

Because every run is hermetic, the same spec produces bit-identical
results in-process, in a worker process, and across repeated sweeps —
which is what makes the content-hash cache sound.

Each decision lives once.  How a flow starts under a transport is
:func:`repro.transport.table.start_flow`'s; the executors only say
*which* transport (:func:`_flow_kwargs`).  How a fabric is built is
:func:`build_network`'s (the :data:`~repro.fabrics.FABRICS` class's
``for_experiment``).  Every executor ends in :func:`_result`,
which takes fabric accounting from the
:meth:`~repro.fabrics.base.FabricNetwork.collect_metrics` snapshot — no
executor sniffs which fabric it was handed.  Inline and sharded sweeps
run the same :func:`_worker_run` through the same loop in
:func:`_execute`.
"""

from __future__ import annotations

import contextlib
import gc
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.spec import (
    OMIT_NONE,
    ScenarioSpec,
    field_table,
    plain_fields,
)
from repro.fabrics import FABRICS
from repro.net.addressing import PortAddress
from repro.net.flow import Flow, reset_flow_ids
from repro.net.packet import Packet, wire_size
from repro.sim.engine import deferred_gc
from repro.sim.units import MICROSECOND, MILLISECOND
from repro.transport.host import make_hosts
from repro.transport.table import start_flow
from repro.workloads.distributions import (
    flow_size_distribution,
    packet_size_distribution,
)
from repro.workloads.generator import PacketSink, UniformRandomTraffic
from repro.workloads.permutation import host_permutation, start_permutation_flows


@dataclass
class RunResult:
    """Typed outcome of one scenario run (JSON round-trippable)."""

    spec_hash: str
    scenario: str
    fabric: str
    transport: str
    seed: int
    #: Sorted per-flow goodput over the measurement window (throughput
    #: scenarios; empty otherwise).
    flow_rates_gbps: List[float] = field(default_factory=list)
    #: Sorted completion times of finished flows (FCT scenarios).
    fcts_ns: List[int] = field(default_factory=list)
    delivered_bytes: int = 0
    drops: int = 0
    sim_time_ns: int = 0
    #: Workload-specific extras (fairness spread, queue depths, ...).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Engine events the run fired — deterministic per spec; feeds the
    #: live-progress events/s readout (wall time stays out of results).
    events_fired: int = 0
    #: Telemetry artifact (see :mod:`repro.telemetry`); ``None`` — and
    #: omitted from :meth:`to_dict` — on uninstrumented runs, so stored
    #: cells keep their historical shape.
    telemetry: Optional[Dict[str, Any]] = field(
        default=None, metadata={OMIT_NONE: True}
    )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for the store and the CLI (what
        ``dataclasses.asdict`` gives, minus unset ``OMIT_NONE`` fields)."""
        return plain_fields(self, _RESULT_FIELDS)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild from :meth:`to_dict` output.

        Unknown keys are dropped rather than raised on: cells written
        by a newer writer (extra result fields) must stay readable, not
        take the whole store down with a ``TypeError``.
        """
        return cls(**{k: v for k, v in data.items() if k in _RESULT_NAMES})

    @property
    def mean_rate_gbps(self) -> float:
        """Mean of the per-flow rates (0 if none)."""
        if not self.flow_rates_gbps:
            return 0.0
        return sum(self.flow_rates_gbps) / len(self.flow_rates_gbps)


_RESULT_FIELDS = field_table(RunResult)
_RESULT_NAMES = frozenset(name for name, _, _ in _RESULT_FIELDS)


# ----------------------------------------------------------------------
# What every executor shares
# ----------------------------------------------------------------------


def _flow_kwargs(spec: ScenarioSpec) -> Dict[str, Any]:
    """The spec's share of a ``start_flow`` call: which transport, and
    the values its table row may ask for."""
    return dict(
        transport=spec.transport,
        mss=spec.mss,
        line_rate_bps=spec.link_rate_bps,
        mptcp_subflows=spec.workload.get("mptcp_subflows", 8),
    )


def _result(
    spec: ScenarioSpec, net, fabric_metrics, metrics: Dict[str, Any], **fields
) -> RunResult:
    """The tail of every executor: identity from the spec, drops and the
    queue / resilience summaries from the fabric's metrics snapshot,
    ``fields`` (rates, FCTs, delivered bytes) from the workload."""
    return RunResult(
        spec_hash=spec.content_hash(),
        scenario=spec.scenario,
        fabric=spec.fabric,
        transport=spec.transport,
        seed=spec.seed,
        drops=fabric_metrics.total_drops,
        sim_time_ns=net.sim.now,
        metrics={
            **metrics,
            **fabric_metrics.queue_summary(),
            **fabric_metrics.resilience_summary(),
        },
        **fields,
    )


# ----------------------------------------------------------------------
# Workload executors
# ----------------------------------------------------------------------


def _run_permutation(spec: ScenarioSpec, net) -> RunResult:
    """One permutation-throughput run (the Fig 10(a) shape)."""
    addrs = spec.topology.addresses()
    mapping = host_permutation(addrs, random.Random(spec.seed))
    hosts, tracker = make_hosts(net, addrs)

    flows = start_permutation_flows(hosts, mapping, **_flow_kwargs(spec))
    net.run(spec.warmup_ns)
    marks = {
        f.flow_id: tracker.get(f.flow_id).bytes_delivered for f in flows
    }
    net.run(spec.measure_ns)
    window_s = spec.measure_ns / 1e9
    rates = sorted(
        (tracker.get(f.flow_id).bytes_delivered - marks[f.flow_id])
        * 8 / window_s / 1e9
        for f in flows
    )
    delivered = sum(
        tracker.get(f.flow_id).bytes_delivered - marks[f.flow_id]
        for f in flows
    )
    metrics = {
        "mean_gbps": sum(rates) / len(rates),
        "min_gbps": rates[0],
        "max_gbps": rates[-1],
    }
    return _result(
        spec, net, net.collect_metrics(), metrics,
        flow_rates_gbps=rates, delivered_bytes=delivered,
    )


def _run_incast(spec: ScenarioSpec, net) -> RunResult:
    """One incast round (the Fig 10(c) shape): every backend starts its
    response to the first host at t=0 (the request fan-out is tiny and
    abstracted away), the worst case for the frontend's port."""
    if spec.transport == "mptcp":
        raise ValueError("mptcp is not supported for the incast workload")
    addrs = spec.topology.addresses()
    n_backends = spec.workload.get("n_backends", len(addrs) - 1)
    if n_backends >= len(addrs):
        raise ValueError(
            f"{n_backends} backends need {n_backends + 1} hosts, "
            f"topology has {len(addrs)}"
        )
    frontend, backends = addrs[0], addrs[1 : 1 + n_backends]
    hosts, tracker = make_hosts(net, addrs)
    size = spec.workload.get("response_bytes", 200_000)
    flow_kwargs = _flow_kwargs(spec)
    for backend in backends:
        # A dynamic-reachability fabric has pre-run: stamp the start.
        flow = Flow(
            src=backend, dst=frontend, size_bytes=size,
            start_ns=net.sim.now,
        )
        start_flow(hosts, flow, **flow_kwargs)
    net.run(spec.measure_ns)
    fcts = sorted(tracker.fcts_ns())
    first, last = (fcts[0], fcts[-1]) if fcts else (None, None)
    metrics = {
        "first_fct_ns": first,
        "last_fct_ns": last,
        "fairness_spread": last / first if first and last else None,
        "completed": len(fcts),
        "all_completed": len(fcts) == n_backends,
    }
    return _result(
        spec, net, net.collect_metrics(), metrics,
        fcts_ns=fcts,
        delivered_bytes=sum(s.bytes_delivered for s in tracker.all()),
    )


def _run_many_to_many(spec: ScenarioSpec, net) -> RunResult:
    """Every host sends one sized flow to every host on another FA."""
    addrs = spec.topology.addresses()
    hosts, tracker = make_hosts(net, addrs)
    rng = random.Random(spec.seed)
    flow_bytes = spec.workload.get("flow_bytes", 200 * 1024)
    jitter_ns = spec.workload.get("start_jitter_ns", 10_000)
    flow_kwargs = _flow_kwargs(spec)
    flows: List[Flow] = []
    for src in addrs:
        for dst in addrs:
            if src.fa == dst.fa:
                continue
            flow = Flow(
                src=src, dst=dst, size_bytes=flow_bytes,
                start_ns=rng.randrange(jitter_ns) if jitter_ns else 0,
            )
            # start_ns is the delay from t=0 here (nothing has run yet).
            start_flow(hosts, flow, delay_ns=flow.start_ns, **flow_kwargs)
            flows.append(flow)
    net.run(spec.measure_ns)
    fcts = sorted(tracker.fcts_ns())
    metrics = {
        "offered_flows": len(flows),
        "completed": len(fcts),
    }
    return _result(
        spec, net, net.collect_metrics(), metrics,
        fcts_ns=fcts,
        delivered_bytes=sum(s.bytes_delivered for s in tracker.all()),
    )


def _run_uniform_random(spec: ScenarioSpec, net) -> RunResult:
    """Open-loop Poisson injectors at a target utilization (Fig 9)."""
    addrs = spec.topology.addresses()
    workload = spec.workload
    size_dist = None
    if workload.get("packet_mix"):
        size_dist = packet_size_distribution(workload["packet_mix"])
    traffic = UniformRandomTraffic(
        net, addrs,
        utilization=workload.get("utilization", 0.7),
        packet_bytes=workload.get("packet_bytes", 1000),
        size_dist=size_dist,
        seed=spec.seed,
    )
    traffic.start()
    net.run(spec.warmup_ns)
    sent0, recv0 = traffic.total_sent(), traffic.total_received()
    bytes0 = sum(i.bytes_received for i in traffic.injectors)
    net.run(spec.measure_ns)
    traffic.stop()
    drain_ns = workload.get("drain_ns", 0)
    if drain_ns:
        net.run(drain_ns)  # what is in flight lands; counts include it
    sent = traffic.total_sent() - sent0
    received = traffic.total_received() - recv0
    delivered = sum(i.bytes_received for i in traffic.injectors) - bytes0
    metrics = {
        "packets_sent": sent,
        "packets_received": received,
        "delivery_ratio": received / sent if sent else 0.0,
    }
    return _result(
        spec, net, net.collect_metrics(), metrics, delivered_bytes=delivered
    )


def _run_mixed(spec: ScenarioSpec, net) -> RunResult:
    """Poisson arrivals of web + storage flows; FCT percentiles."""
    addrs = spec.topology.addresses()
    hosts, tracker = make_hosts(net, addrs)
    workload = spec.workload
    rng = random.Random(spec.seed)
    web = flow_size_distribution("web")
    storage = flow_size_distribution(
        workload.get("storage_workload", "hadoop")
    )
    web_fraction = workload.get("web_fraction", 0.7)
    load = workload.get("load", 0.4)
    cap = workload.get("max_flows_per_host", 200)
    horizon_ns = spec.warmup_ns + spec.measure_ns
    mean_size = (
        web_fraction * web.mean() + (1 - web_fraction) * storage.mean()
    )
    bytes_per_ns = spec.link_rate_bps * load / 8 / 1e9
    flows_per_ns = bytes_per_ns / mean_size
    flow_kwargs = _flow_kwargs(spec)

    flows: List[Flow] = []
    truncated = 0
    for src in addrs:
        others = [a for a in addrs if a.fa != src.fa]
        t = 0.0
        count = 0
        while True:
            t += rng.expovariate(flows_per_ns)
            if t >= horizon_ns:
                break
            if count >= cap:
                truncated += 1
                break
            dist = web if rng.random() < web_fraction else storage
            flow = Flow(
                src=src,
                dst=rng.choice(others),
                size_bytes=max(1, dist.sample_int(rng)),
                start_ns=int(t),
            )
            # start_ns is the delay from t=0 here (nothing has run yet).
            start_flow(hosts, flow, delay_ns=flow.start_ns, **flow_kwargs)
            flows.append(flow)
            count += 1
    net.run(horizon_ns)
    fcts = sorted(tracker.fcts_ns())
    metrics = {
        "offered_flows": len(flows),
        "completed": len(fcts),
        "hosts_truncated": truncated,
    }
    result = _result(
        spec, net, net.collect_metrics(), metrics,
        fcts_ns=fcts,
        delivered_bytes=sum(s.bytes_delivered for s in tracker.all()),
    )
    # FCT split by size class — the paper's short-vs-long flow story.
    small = sorted(
        s.fct_ns for s in tracker.completed()
        if s.fct_ns is not None and (s.flow.size_bytes or 0) <= 10_000
    )
    if small:
        result.metrics["small_flow_median_fct_ns"] = small[len(small) // 2]
    return result


#: Figs 7 and 12 blast full-size 1500B frames.
_BLAST_BYTES = 1500


def _run_blast(spec: ScenarioSpec, net) -> RunResult:
    """Pre-queued fixed-size packets onto plain counting hosts (Figs 7
    and 12): each blast queues ``burst_ns`` of line-rate frames on its
    source's NIC, cycling through its flow ids, in its traffic class."""
    addrs = spec.topology.addresses()
    hosts = {}
    for address in addrs:
        host = PacketSink(net.sim, f"h{address.fa}.{address.port}", address)
        net.attach_host(address, host)
        hosts[address] = host
    burst_s = spec.workload["burst_ns"] / 1e9
    # 100 frames more than the burst holds, so no NIC runs dry early.
    count = int(spec.link_rate_bps / 8 * burst_s / wire_size(_BLAST_BYTES)) + 100
    for blast in spec.workload["blasts"]:
        src, dst = PortAddress(*blast["src"]), PortAddress(*blast["dst"])
        flow_ids, link = blast["flow_ids"], hosts[src].ports[0]
        for i in range(count):
            packet = Packet(
                size_bytes=_BLAST_BYTES, src=src, dst=dst,
                flow_id=flow_ids[i % len(flow_ids)],
                priority=blast["class"], created_ns=net.sim.now,
            )
            link.send(packet, packet.wire_bytes)
    net.run(spec.measure_ns)
    window_s = spec.measure_ns / 1e9
    metrics = {
        f"rx_gbps_{a.fa}_{a.port}": h.bytes_received * 8 / window_s / 1e9
        for a, h in hosts.items()
    }
    return _result(
        spec, net, net.collect_metrics(), metrics,
        delivered_bytes=sum(h.bytes_received for h in hosts.values()),
    )


#: How often a probe run checks whether its last probe has finished.
_PROBE_POLL_NS = 2 * MILLISECOND
#: Probe sizes draw from ``Random(seed + _PROBE_SEED_OFFSET)``, apart
#: from the background's ``Random(seed)``.
_PROBE_SEED_OFFSET = 14
#: Probes are Web-workload sizes clamped to [200B, 1MB] — the paper's
#: headline is "even flows of 1MB have a FCT of less than a
#: millisecond" — sent at standard MTU, 20us apart.
_PROBE_MIN_BYTES, _PROBE_MAX_BYTES = 200, 1_000_000
_PROBE_MSS = 1460
_PROBE_GAP_NS = 20 * MICROSECOND


def _run_probes(spec: ScenarioSpec, net) -> RunResult:
    """Sequential Web-size probe flows between the first and the last
    host over a background permutation of long flows on every other
    host (the Fig 10(b) shape).

    The first probe starts ``warmup_ns`` in; each next one starts a gap
    after the previous completes, so every FCT measures the network,
    not queueing behind a sibling probe.  The run stops at the first
    poll after the last probe completes, or ``warmup_ns + measure_ns``.
    """
    addrs = spec.topology.addresses()
    hosts, tracker = make_hosts(net, addrs)
    src, dst = addrs[0], addrs[-1]
    background = [a for a in addrs if a not in (src, dst)]
    flow_kwargs = _flow_kwargs(spec)
    start_permutation_flows(
        hosts, host_permutation(background, random.Random(spec.seed)),
        **flow_kwargs,
    )
    sizes = flow_size_distribution("web")
    rng = random.Random(spec.seed + _PROBE_SEED_OFFSET)
    count = spec.workload["probes"]
    probe_kwargs = {**flow_kwargs, "mss": _PROBE_MSS}
    probes: List[Flow] = []

    def launch_next() -> None:
        if len(probes) == count:
            return
        size = min(
            _PROBE_MAX_BYTES, max(_PROBE_MIN_BYTES, sizes.sample_int(rng))
        )
        flow = Flow(
            src=src, dst=dst, size_bytes=size,
            start_ns=net.sim.now + _PROBE_GAP_NS,
        )
        probes.append(flow)
        start_flow(
            hosts, flow, delay_ns=_PROBE_GAP_NS,
            on_complete=lambda: net.sim.schedule(_PROBE_GAP_NS, launch_next),
            **probe_kwargs,
        )

    def fcts() -> List[int]:
        stats = (tracker.get(f.flow_id) for f in probes)
        return sorted(s.fct_ns for s in stats if s.fct_ns is not None)

    net.sim.schedule(spec.warmup_ns, launch_next)
    deadline = spec.warmup_ns + spec.measure_ns
    while net.sim.now < deadline:
        net.run(min(_PROBE_POLL_NS, deadline - net.sim.now))
        if len(probes) == count and len(fcts()) == count:
            break
    done = fcts()
    metrics = {"probes": count, "completed": len(done)}
    return _result(
        spec, net, net.collect_metrics(), metrics,
        fcts_ns=done,
        delivered_bytes=sum(s.bytes_delivered for s in tracker.all()),
    )


_EXECUTORS = {
    "permutation": _run_permutation,
    "incast": _run_incast,
    "many_to_many": _run_many_to_many,
    "uniform_random": _run_uniform_random,
    "mixed": _run_mixed,
    "blast": _run_blast,
    "probes": _run_probes,
}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def build_network(spec: ScenarioSpec):
    """Build the network a :class:`ScenarioSpec` declares: its fabric
    class's ``for_experiment`` on the spec's topology, link rate and
    config overrides."""
    return FABRICS[spec.fabric].for_experiment(
        spec.topology.build(), rate=spec.link_rate_bps, **spec.config_overrides
    )


def run_spec_with_network(spec: ScenarioSpec):
    """Execute one spec hermetically; returns ``(result, network)``.

    The network is handed back *after* the run so callers that need more
    than the :class:`RunResult` — the perf harness hashes latency
    histograms and reads ``net.sim.events_fired`` for its golden-trace
    digests — can take their measurements without re-running anything.
    """
    kind = spec.workload["kind"]
    try:
        executor = _EXECUTORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown workload kind {kind!r}; "
            f"known: {sorted(_EXECUTORS)}"
        ) from None
    reset_flow_ids()  # flow ids feed the ECMP hash: start from zero
    net = build_network(spec)
    if spec.faults:
        # Compile the declarative fault schedule into engine events
        # before the workload starts; unfaulted specs skip this import
        # entirely (the fault machinery is zero-cost when unused).
        from repro.faults.injector import attach_plan
        from repro.faults.plan import FaultPlan

        attach_plan(FaultPlan.from_dict(spec.faults), net)
    collector = None
    if spec.telemetry is not None:
        # Arm the probes before hosts attach so flow spans are caught
        # from the first packet; uninstrumented specs never import the
        # telemetry machinery (zero-cost when unused, like faults).
        from repro.telemetry.collector import attach_collector
        from repro.telemetry.probes import TelemetryConfig

        collector = attach_collector(
            net, TelemetryConfig.from_dict(spec.telemetry)
        )
    result = executor(spec, net)
    result.events_fired = net.sim.events_fired
    if collector is not None:
        result.telemetry = collector.finalize()
    return result, net


def run_spec(spec: ScenarioSpec) -> RunResult:
    """Execute one spec and return its result.

    This call owns the network, so the cell's memory dies with the cell:
    cyclic GC is deferred from build to result, so everything the cell
    allocates stays in the youngest generation, and once the network is
    dropped one pass over that generation frees it, older heap unwalked.
    """
    with deferred_gc() as deferred:
        result = run_spec_with_network(spec)[0]
        if deferred:
            gc.collect(0)
    return result


def _worker_run(item) -> tuple:
    """Cell entry point, in a shard or inline: ``(index, JSON spec)`` in,
    ``(index, result dict, wall seconds)`` out (picklable).  The index
    rides along because a pool returns completions out of order; the
    wall time is the cell's own, for the events/s readout."""
    index, payload = item
    start = time.perf_counter()
    result = run_spec(ScenarioSpec.from_json(payload)).to_dict()
    return index, result, time.perf_counter() - start


def _progress_line(
    result: RunResult, done: int, total: int, wall_s: float,
    started_at: float,
) -> str:
    """One live-progress line: cell finished, shard throughput, ETA."""
    elapsed = time.perf_counter() - started_at
    eta_s = elapsed / done * (total - done) if done else 0.0
    eps = result.events_fired / wall_s if wall_s > 0 else 0.0
    sim_ms_per_s = (
        result.sim_time_ns / 1e6 / wall_s if wall_s > 0 else 0.0
    )
    return (
        f"[{done}/{total}] {result.scenario} "
        f"{result.fabric}/{result.transport} seed={result.seed}: "
        f"{wall_s:.1f}s, {eps / 1e3:.0f}k events/s, "
        f"{sim_ms_per_s:.2f} sim-ms/s, eta {eta_s:.0f}s"
    )


def run_matrix(
    specs: Sequence[ScenarioSpec],
    shards: int = 1,
    store=None,
    progress=None,
    live: bool = False,
) -> List[RunResult]:
    """Execute a spec matrix, one result per spec, input order preserved.

    Cells whose hash is already in ``store`` are served from cache; the
    misses run across ``shards`` worker processes (in-process when
    ``shards <= 1``, a single spec remains, or multiprocessing is
    unavailable).  Fresh results are persisted back to the store.

    ``live=True`` reports each cell as it completes through
    ``progress`` — cells done, per-cell wall time, events/s, sim-time
    rate and a remaining-time estimate — instead of staying silent
    until the whole matrix returns.
    """
    notify = progress or (lambda _msg: None)
    results: List[Optional[RunResult]] = [None] * len(specs)
    pending: List[int] = []
    rerun_uninstrumented = 0
    for i, spec in enumerate(specs):
        cached = store.get(spec) if store is not None else None
        if cached is not None and (
            spec.telemetry is None or cached.telemetry is not None
        ):
            results[i] = cached
        else:
            if cached is not None:
                # The cell hash ignores the (hash-neutral) telemetry
                # config, so an uninstrumented run can satisfy an
                # instrumented request.  Serving it would silently drop
                # the instrumentation the caller asked for — re-run.
                rerun_uninstrumented += 1
                store.misses += 1
                store.hits -= 1
            pending.append(i)
    if rerun_uninstrumented:
        notify(
            f"{rerun_uninstrumented} cached cells lack requested "
            "telemetry; re-running instrumented"
        )
    if store is not None and len(pending) < len(specs):
        notify(
            f"{len(specs) - len(pending)}/{len(specs)} cells from cache"
        )

    fresh: List[RunResult] = []
    if pending:
        payloads = [specs[i].to_json() for i in pending]
        fresh = _execute(payloads, shards, notify, live=live)
        for i, result in zip(pending, fresh):
            results[i] = result
            if store is not None:
                store.put(specs[i], result)
    if store is not None:
        # Record stores buffer puts into compressed blocks; make every
        # fresh cell durable before handing results back.
        store.flush()
    return [r for r in results if r is not None]


def _execute(
    payloads: List[str], shards: int, notify, live: bool = False
) -> List[RunResult]:
    """Run serialized specs, fanning out when it can help."""
    total = len(payloads)
    started_at = time.perf_counter()
    pool = None
    if shards > 1 and total > 1:
        workers = min(shards, total)
        # Only a platform that cannot give us workers falls back to
        # inline; an exception a cell raises propagates, once.
        try:
            import multiprocessing

            pool = multiprocessing.Pool(processes=workers)
        except (ImportError, OSError) as exc:
            notify(f"multiprocessing unavailable ({exc}); running inline")
        else:
            notify(f"running {total} cells on {workers} shards")
    results: List[Optional[RunResult]] = [None] * total
    with pool if pool is not None else contextlib.nullcontext():
        run = map if pool is None else pool.imap_unordered
        completions = run(_worker_run, list(enumerate(payloads)))
        for done, (index, data, wall_s) in enumerate(completions, 1):
            result = results[index] = RunResult.from_dict(data)
            if live:
                notify(_progress_line(result, done, total, wall_s, started_at))
    return [r for r in results if r is not None]
