"""Shared fixtures: simple hosts and pre-wired Stardust networks."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.config import StardustConfig
from repro.fabrics import OneTierSpec, StardustNetwork, TwoTierSpec
from repro.net.addressing import PortAddress
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.telemetry.export import write_jsonl


class SteppedSimulator(Simulator):
    """The engine with its run loop stopped and resumed at every event.

    ``run`` makes one ``Simulator.run(max_events=1)`` call per event, so
    the batched bucket drain never fires anything (it stops one event
    short of a budget): every event goes through the exact step's
    selection, and cursor, sorted-slot and probe state cross a ``run``
    boundary each time.  The engine
    promises the same events in the same order however a run is cut up,
    so no test may be able to tell this from the plain engine.
    """

    __slots__ = ()

    def run(self, until=None, max_events=None):
        step = super().run
        budget = max_events
        while budget is None or budget > 0:
            before = self.events_fired
            step(until, 1)
            if self.events_fired == before:  # drained, or at the horizon
                return self.now
            if budget is not None:
                budget -= 1
        return step(until, 0)  # budget spent: only the horizon can move


#: The two ways the engine-facing suites drive the one engine.  The ids
#: date from when they named two engines and the tier-1 floor list pins
#: them: ``batch`` is the engine as it ships (one ``run`` call, batched
#: drain), ``wheel`` single-steps it — rename to ``whole`` / ``stepped``
#: once the floor allows.  The stepped driver checks where ``run`` may be
#: cut; it never enters the drain, so it is no oracle for it: that is
#: ``test_scheduler_model.py`` and the drain-bound regressions in
#: ``test_scheduler_invariants.py``, which only the ``batch`` ids exercise.
ENGINE_DRIVERS = {"batch": Simulator, "wheel": SteppedSimulator}


def drive_fabrics_with(monkeypatch, driver: str) -> None:
    """Every fabric built from here on in the test gets
    ``ENGINE_DRIVERS[driver]`` as its engine."""
    monkeypatch.setattr(
        "repro.fabrics.base.Simulator", ENGINE_DRIVERS[driver]
    )


class RecordingHost(Entity):
    """A host that records everything delivered to it."""

    def __init__(self, sim, name, address):
        super().__init__(sim, name)
        self.address = address
        self.received = []

    def receive(self, packet, link):
        self.received.append((self.sim.now, packet))

    def send(self, packet: Packet) -> None:
        self.ports[0].send(packet, packet.wire_bytes)

    def send_to(self, dst: PortAddress, size_bytes: int, **kw) -> Packet:
        packet = Packet(
            size_bytes=size_bytes,
            src=self.address,
            dst=dst,
            created_ns=self.sim.now,
            **kw,
        )
        self.send(packet)
        return packet


def build_network(spec, config=None, reachability="static", **kw):
    """A StardustNetwork with a RecordingHost on every port."""
    config = replace(
        StardustConfig() if config is None else config,
        reachability=reachability,
    )
    net = StardustNetwork(spec, config=config, **kw)
    hosts = {}
    for fa_idx in range(len(net.fas)):
        for port in range(spec.hosts_per_fa):
            addr = PortAddress(fa_idx, port)
            host = RecordingHost(net.sim, f"h{fa_idx}.{port}", addr)
            net.attach_host(addr, host)
            hosts[addr] = host
    return net, hosts


def write_legacy_cell(root, spec, result):
    """One cell in the retired one-JSON-per-cell layout, byte for byte:
    ``<hash>.json`` plus a ``<hash>.telemetry.jsonl`` sidecar when the
    result carries telemetry.  Fixture input for ``migrate`` tests."""
    data = result.to_dict()
    telemetry = data.pop("telemetry", None)
    root.mkdir(parents=True, exist_ok=True)
    cell = root / f"{spec.content_hash()}.json"
    payload = {"spec": spec.to_dict(), "result": data}
    cell.write_text(json.dumps(payload, sort_keys=True, indent=1))
    if telemetry:
        write_jsonl(root / f"{spec.content_hash()}.telemetry.jsonl", telemetry)
    return cell


@pytest.fixture
def small_one_tier():
    spec = OneTierSpec(num_fas=4, uplinks_per_fa=4, hosts_per_fa=2)
    return build_network(spec)


@pytest.fixture
def small_two_tier():
    spec = TwoTierSpec(
        pods=2, fas_per_pod=4, fes_per_pod=2, spines=2, hosts_per_fa=2
    )
    return build_network(spec)
