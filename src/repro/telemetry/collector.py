"""The telemetry collector: wires probes, spans and meta-metrics.

:func:`attach_collector` is the one-call entry point experiments use:

* arms the engine's probe hook (``Simulator.set_probe``) at the
  configured cadence — sampling rides the event stream, schedules no
  events of its own, and therefore cannot perturb a run's digest;
* asks the fabric to register its probes
  (``FabricNetwork.register_probes``): queue depths, buffer occupancy,
  credit balances, link utilization;
* registers engine meta-probes (wheel/spill occupancy, corpse count,
  cumulative events);
* wraps ``net.attach_host`` so every host attached afterwards reports
  flow spans into one shared :class:`~repro.telemetry.spans.SpanRecorder`.

After the run, :meth:`TelemetryCollector.finalize` disarms the probe
and returns the JSON-ready artifact.  Everything in the artifact is
deterministic for a given spec except the ``meta`` section, which holds
wall-clock-derived throughput numbers and is kept separate precisely so
determinism checks can ignore it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry.probes import Series, TelemetryConfig
from repro.telemetry.spans import SpanRecorder

#: Artifact schema version (bump on incompatible shape changes).
SCHEMA = 1


class TelemetryCollector:
    """Samples registered probes on the engine's probe hook."""

    def __init__(self, net, config: Optional[TelemetryConfig] = None):
        self.net = net
        self.config = config or TelemetryConfig()
        self._series: Dict[str, Series] = {}
        self._probes: List[Tuple[Series, Callable[[], float]]] = []
        #: Dynamic probes return ``{key: value}`` maps; series appear
        #: lazily as keys do (VOQs are created on first traffic).
        self._dynamic: List[
            Tuple[str, str, Callable[[], Dict[str, float]]]
        ] = []
        self.spans: Optional[SpanRecorder] = (
            SpanRecorder() if self.config.spans else None
        )
        self._trackers: List[Any] = []
        self.samples_taken = 0
        self._wall_start = time.perf_counter()
        self._wall_s: Optional[float] = None
        self._armed = False

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------
    def add_probe(
        self, name: str, fn: Callable[[], float], unit: str = ""
    ) -> Series:
        """Register ``fn`` to be sampled every tick into series
        ``name``.  Registration order fixes artifact order."""
        if name in self._series:
            raise ValueError(f"duplicate telemetry series {name!r}")
        series = Series(name, unit=unit, capacity=self.config.capacity)
        self._series[name] = series
        self._probes.append((series, fn))
        return series

    def add_dynamic_probe(
        self,
        prefix: str,
        fn: Callable[[], Dict[str, float]],
        unit: str = "",
    ) -> None:
        """Register a probe returning ``{key: value}``; each key gets
        its own series named ``prefix.key``, created on first sight."""
        self._dynamic.append((prefix, unit, fn))

    def _add_engine_probes(self) -> None:
        sim = self.net.sim
        self.add_probe(
            "engine.events_fired", lambda: sim.events_fired, unit="events"
        )
        self.add_probe(
            "engine.wheel_occupancy",
            lambda: sim.wheel_occupancy,
            unit="events",
        )
        self.add_probe(
            "engine.spill_occupancy",
            lambda: sim.spill_occupancy,
            unit="events",
        )
        self.add_probe(
            "engine.corpse_count", lambda: sim.corpse_count, unit="events"
        )

    # ------------------------------------------------------------------
    # Sampling (engine probe callback)
    # ------------------------------------------------------------------
    def _sample(self, time_ns: int) -> None:
        self.samples_taken += 1
        for series, fn in self._probes:
            series.append(time_ns, fn())
        if self._dynamic:
            capacity = self.config.capacity
            get = self._series.get
            for prefix, unit, fn in self._dynamic:
                for key, value in fn().items():
                    name = f"{prefix}.{key}"
                    series = get(name)
                    if series is None:
                        series = Series(name, unit=unit, capacity=capacity)
                        self._series[name] = series
                    series.append(time_ns, value)

    def arm(self) -> None:
        """Start sampling on the engine's probe hook."""
        if self._armed:
            return
        self.net.sim.set_probe(
            self._sample, self.config.sample_interval_ns
        )
        self._armed = True

    def disarm(self) -> None:
        """Stop sampling (the run is over)."""
        if self._armed:
            self.net.sim.clear_probe()
            self._armed = False

    # ------------------------------------------------------------------
    # Span plumbing
    # ------------------------------------------------------------------
    def _wrap_attach_host(self) -> None:
        """Shadow ``net.attach_host`` so every host attached from now
        on reports into the shared span recorder."""
        original = self.net.attach_host

        def attach_host(address, host):
            result = original(address, host)
            host.span_recorder = self.spans
            tracker = getattr(host, "tracker", None)
            if tracker is not None and not any(
                t is tracker for t in self._trackers
            ):
                self._trackers.append(tracker)
            return result

        self.net.attach_host = attach_host

    # ------------------------------------------------------------------
    # Artifact
    # ------------------------------------------------------------------
    def finalize(self) -> Dict[str, Any]:
        """Disarm, fold tracker data into spans, return the artifact."""
        self.disarm()
        if self._wall_s is None:
            self._wall_s = time.perf_counter() - self._wall_start
        if self.spans is not None:
            for tracker in self._trackers:
                self.spans.finalize(tracker)
        return self.artifact()

    def artifact(self) -> Dict[str, Any]:
        """The JSON-ready telemetry artifact.

        Deterministic for a given spec — except ``meta``, which holds
        wall-clock-derived numbers (events/s) and must be excluded from
        any reproducibility comparison.
        """
        sim = self.net.sim
        hints = self.net.telemetry_hints()
        wall_s = (
            self._wall_s
            if self._wall_s is not None
            else time.perf_counter() - self._wall_start
        )
        events = sim.events_fired
        return {
            "schema": SCHEMA,
            "config": self.config.to_dict(),
            "sim_time_ns": sim.now,
            "samples": self.samples_taken,
            "events_fired": events,
            "hints": hints,
            "series": [s.to_dict() for s in self._series.values()],
            "spans": (
                self.spans.to_list(hints) if self.spans is not None else []
            ),
            "meta": {
                "wall_s": wall_s,
                "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
                "sim_ns_per_wall_s": (
                    sim.now / wall_s if wall_s > 0 else 0.0
                ),
            },
        }

    def series(self, name: str) -> Series:
        """The series registered (or dynamically created) as ``name``."""
        return self._series[name]


def attach_collector(
    net, config: Optional[TelemetryConfig] = None
) -> TelemetryCollector:
    """Attach a fully wired collector to ``net`` and start sampling.

    Call *before* hosts are attached so flow spans are captured; the
    returned collector's :meth:`~TelemetryCollector.finalize` yields
    the artifact after the run.
    """
    collector = TelemetryCollector(net, config)
    collector._add_engine_probes()
    net.register_probes(collector)
    if collector.spans is not None:
        collector._wrap_attach_host()
    collector.arm()
    net.telemetry = collector
    return collector
