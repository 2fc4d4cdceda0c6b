"""A cell's memory dies with the cell.

``run_spec`` owns the network it builds, so it is the one place that can
say when the network is garbage: it defers cyclic GC from build to result
and reclaims the cell with one youngest-generation pass once the network
is dropped.  These tests pin the three things that rests on — the
network really is gone when ``run_spec`` returns, the collector is left
as the caller had it on every exit path, and a link's own containers stay
small enough that a 3 328-link fabric is not mostly empty deques.
"""

from __future__ import annotations

import gc
import sys
import weakref
from collections import deque

import pytest

from repro.experiments import runner
from repro.experiments.registry import build_scenario
from repro.experiments.spec import TopologySpec
from repro.sim.engine import Simulator, deferred_gc
from repro.sim.entity import Entity
from repro.sim.link import Link
from repro.sim.units import MICROSECOND, gbps

_SIXTEEN_FA = TopologySpec(
    "three_tier",
    dict(
        pods=2, fas_per_pod=8, fes1_per_pod=4, fes2_per_pod=4,
        spines=4, hosts_per_fa=1,
    ),
)


def _cell(kind: str):
    return build_scenario(
        "permutation_three_tier", kind=kind, topology=_SIXTEEN_FA, seed=3,
        warmup_ns=5 * MICROSECOND, measure_ns=15 * MICROSECOND,
    )


def _collections() -> list:
    return [generation["collections"] for generation in gc.get_stats()]


class Watch:
    """What a wrapped ``build_network`` remembers of the cell's network
    without keeping any of it alive: a weak reference to the network,
    and — devices and links are slotted, so they take no weak references
    — which simulators, links and fabric devices were alive *before* the
    build, so the ones the cell made can be told apart afterwards."""

    def __init__(self) -> None:
        self.network = None
        self.kinds: tuple = (Simulator, Link)
        self.before: set = set()

    def _live(self) -> dict:
        return {
            id(o): o for o in gc.get_objects() if isinstance(o, self.kinds)
        }

    def built(self, net) -> None:
        self.network = weakref.ref(net)
        self.kinds += (type(net.fabric_devices()[0]),)
        mine = [net.sim, *net.fabric_devices(), *net.fabric_links()]
        self.before = self._live().keys() - set(map(id, mine))

    def survivors(self) -> list:
        """The cell's simulators, links and fabric devices still alive."""
        return [o for key, o in self._live().items() if key not in self.before]


@pytest.fixture
def watched(monkeypatch):
    watch = Watch()
    real = runner.build_network

    def build(spec):
        net = real(spec)
        watch.built(net)
        return net

    monkeypatch.setattr(runner, "build_network", build)
    return watch


@pytest.mark.parametrize("kind", ["stardust", "tcp"])
def test_network_is_dead_when_run_spec_returns(watched, kind):
    assert gc.isenabled()
    result = runner.run_spec(_cell(kind))
    # No gc.collect() here: the cell's own young-generation pass is what
    # must have freed the (cyclic) network.
    assert watched.network() is None
    assert watched.survivors() == []
    assert result.events_fired > 100  # the cell did run
    assert gc.isenabled()


def test_run_spec_with_network_hands_the_network_back_alive(watched):
    _, net = runner.run_spec_with_network(_cell("stardust"))
    assert watched.network() is net
    assert len(watched.survivors()) > len(net.fabric_links())


def test_collector_restored_when_the_executor_raises(monkeypatch):
    def boom(spec, net):
        raise RuntimeError("executor failed")

    monkeypatch.setitem(runner._EXECUTORS, "permutation", boom)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="executor failed"):
        runner.run_spec(_cell("stardust"))
    assert gc.isenabled()


def test_caller_with_gc_off_gets_it_back_off_and_uncollected(watched):
    gc.disable()
    try:
        before = _collections()
        runner.run_spec(_cell("stardust"))
        assert not gc.isenabled()
        assert _collections() == before
        # Nobody collected, so the cyclic network is still there: the
        # caller who switched the collector off owns that decision.
        assert watched.network() is not None
    finally:
        gc.enable()


def test_deferred_gc_nests_as_a_no_op_and_survives_exceptions():
    assert gc.isenabled()
    with deferred_gc() as outer:
        assert outer and not gc.isenabled()
        with deferred_gc() as inner:
            assert not inner and not gc.isenabled()
        # The inner exit must not have switched the collector back on.
        assert not gc.isenabled()
        sim = Simulator()
        sim.call_later(5, lambda: None)
        sim.run()  # the run loop's own deferral nests the same way
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(ZeroDivisionError), deferred_gc():
        1 / 0
    assert gc.isenabled()


def test_fresh_link_owns_about_a_kibibyte_of_containers():
    sim = Simulator()
    link = Link(sim, Entity(sim, "a"), Entity(sim, "b"), gbps(10), 100)
    owned = [
        getattr(link, slot) for slot in Link.__slots__
        if slot != "_tx_ns"  # the simulation's table, shared per rate
    ]
    containers = [v for v in owned if isinstance(v, (list, dict, set, deque))]
    assert len(containers) == 5  # _queue, _ser_extra, _in_flight, two entries
    # 2 520 bytes when all three FIFOs were deques (760 each, empty).
    assert sum(sys.getsizeof(c) for c in containers) <= 1100


def test_links_of_one_rate_share_the_simulations_memo():
    sim = Simulator()
    link = Link(sim, Entity(sim, "a"), Entity(sim, "b"), gbps(10), 100)
    other = Link(sim, Entity(sim, "c"), Entity(sim, "d"), gbps(10), 100)
    assert other._tx_ns is link._tx_ns
    other.set_rate(gbps(5))
    assert other._tx_ns is not link._tx_ns
    assert other._tx_ns is sim.tx_ns_by_rate[gbps(5)]
    assert Link(Simulator(), link.src, link.dst, gbps(10))._tx_ns is not link._tx_ns
