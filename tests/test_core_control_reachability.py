"""Unit tests: control plane, config validation, reachability monitor."""

import pytest

from repro.core.cell import VoqId
from repro.core.config import StardustConfig
from repro.core.control import ControlPlane
from repro.core.reachability import ReachabilityMonitor
from repro.net.addressing import PortAddress
from repro.sim.engine import Simulator
from repro.sim.units import MICROSECOND

VOQ = VoqId(dst=PortAddress(2, 0))


class Endpoint:
    def __init__(self):
        self.messages = []

    def on_status(self, ingress_fa, voq, enqueued_bytes):
        self.messages.append(("status", ingress_fa, voq, enqueued_bytes))

    def on_grant(self, voq, nbytes):
        self.messages.append(("grant", voq, nbytes))


class TestControlPlane:
    def test_delivery_with_delay(self):
        sim = Simulator()
        plane = ControlPlane(sim, lambda s, d: 500)
        ep = Endpoint()
        plane.register(1, ep)
        plane.grant(0, 1, VOQ, 4096)
        plane.status(0, 1, VOQ, 100)
        sim.run(until=499)
        assert ep.messages == []
        sim.run(until=500)
        assert ep.messages == [("grant", VOQ, 4096), ("status", 0, VOQ, 100)]

    def test_delay_function_receives_endpoints(self):
        sim = Simulator()
        seen = []

        def delay(src, dst):
            seen.append((src, dst))
            return 1

        plane = ControlPlane(sim, delay)
        plane.register(7, Endpoint())
        plane.status(3, 7, VOQ, 100)
        assert seen == [(3, 7)]

    def test_unknown_destination_raises(self):
        plane = ControlPlane(Simulator(), lambda s, d: 1)
        with pytest.raises(KeyError):
            plane.status(0, 9, VOQ, 100)
        with pytest.raises(KeyError):
            plane.grant(0, 9, VOQ, 4096)
        assert plane.messages_sent == 0

    def test_double_register_rejected(self):
        plane = ControlPlane(Simulator(), lambda s, d: 1)
        plane.register(1, Endpoint())
        with pytest.raises(ValueError):
            plane.register(1, Endpoint())

    def test_message_count(self):
        sim = Simulator()
        plane = ControlPlane(sim, lambda s, d: 1)
        plane.register(1, Endpoint())
        for _ in range(5):
            plane.status(0, 1, VOQ, 100)
        plane.grant(0, 1, VOQ, 4096)
        assert plane.messages_sent == 6

    def test_delay_fn_called_once_per_pair(self):
        sim = Simulator()
        calls = []

        def delay(src, dst):
            calls.append((src, dst))
            return 10 * src + dst

        class Timed:
            def __init__(self, fa):
                self.fa = fa
                self.arrivals = set()

            def on_status(self, ingress_fa, voq, enqueued_bytes):
                self.arrivals.add((ingress_fa, self.fa, sim.now))

            def on_grant(self, voq, nbytes):
                self.arrivals.add((nbytes, self.fa, sim.now))

        plane = ControlPlane(sim, delay)
        endpoints = [Timed(fa) for fa in range(3)]
        for ep in endpoints:
            plane.register(ep.fa, ep)
        for _ in range(50):
            for src in range(3):
                for dst in range(3):
                    plane.status(src, dst, VOQ, 100)
                    plane.grant(src, dst, VOQ, src)
        assert sorted(calls) == [(s, d) for s in range(3) for d in range(3)]
        assert plane.messages_sent == 900
        sim.run()
        # Every message still took its own pair's delay.
        for ep in endpoints:
            assert ep.arrivals == {
                (src, ep.fa, 10 * src + ep.fa) for src in range(3)
            }


class TestConfigValidation:
    def test_defaults_valid(self):
        StardustConfig()

    def test_header_must_fit_cell(self):
        with pytest.raises(ValueError):
            StardustConfig(cell_size_bytes=64, cell_header_bytes=64)

    def test_credit_must_cover_cell(self):
        with pytest.raises(ValueError):
            StardustConfig(credit_size_bytes=100, cell_size_bytes=256,
                           cell_header_bytes=16)

    def test_watermark_ordering(self):
        with pytest.raises(ValueError):
            StardustConfig(egress_high_watermark=0.4,
                           egress_low_watermark=0.6)

    def test_negative_speedup_rejected(self):
        with pytest.raises(ValueError):
            StardustConfig(credit_speedup=-0.01)

    def test_throttle_factor_at_least_one(self):
        with pytest.raises(ValueError):
            StardustConfig(fci_throttle_factor=0.9)

    def test_cell_payload_property(self):
        cfg = StardustConfig(cell_size_bytes=256, cell_header_bytes=16)
        assert cfg.cell_payload_bytes == 240

    def test_zero_traffic_classes_rejected(self):
        with pytest.raises(ValueError):
            StardustConfig(traffic_classes=0)


class TestReachabilityMonitor:
    PERIOD = 10 * MICROSECOND

    def make(self):
        sim = Simulator()
        changes = []
        monitor = ReachabilityMonitor(
            sim, self.PERIOD, up_threshold=3, miss_threshold=3,
            on_change=lambda: changes.append(sim.now),
        )
        return sim, monitor, changes

    def test_link_needs_up_threshold_messages(self):
        sim, monitor, changes = self.make()
        monitor.track(1)
        monitor.heard(1, frozenset({5}))
        monitor.heard(1, frozenset({5}))
        assert not monitor.alive(1)
        monitor.heard(1, frozenset({5}))
        assert monitor.alive(1)
        assert monitor.reachable_via(1) == frozenset({5})

    def test_silence_declares_link_down(self):
        sim, monitor, changes = self.make()
        monitor.track(1)
        for _ in range(3):
            monitor.heard(1, frozenset({5}))
        assert monitor.alive(1)
        # No more messages: after miss_threshold periods the sweeper
        # kills the link.
        sim.run(until=self.PERIOD * 6)
        assert not monitor.alive(1)
        assert monitor.reachable_via(1) == frozenset()
        assert monitor.links_declared_down == 1

    def test_recovery_needs_fresh_threshold(self):
        sim, monitor, changes = self.make()
        monitor.track(1)
        for _ in range(3):
            monitor.heard(1, frozenset({5}))
        sim.run(until=self.PERIOD * 6)
        assert not monitor.alive(1)
        monitor.heard(1, frozenset({5}))
        assert not monitor.alive(1)  # one message is not enough
        monitor.heard(1, frozenset({5}))
        monitor.heard(1, frozenset({5}))
        assert monitor.alive(1)
        assert monitor.links_declared_up == 2  # initial + recovery

    def test_set_change_triggers_callback(self):
        sim, monitor, changes = self.make()
        monitor.track(1)
        for _ in range(3):
            monitor.heard(1, frozenset({5}))
        n = len(changes)
        monitor.heard(1, frozenset({5, 6}))
        assert len(changes) == n + 1

    def test_same_set_no_callback(self):
        sim, monitor, changes = self.make()
        monitor.track(1)
        for _ in range(3):
            monitor.heard(1, frozenset({5}))
        n = len(changes)
        monitor.heard(1, frozenset({5}))
        assert len(changes) == n

    def test_dead_link_reports_empty_reachability(self):
        sim, monitor, _ = self.make()
        monitor.track(1)
        assert monitor.reachable_via(1) == frozenset()
        assert not monitor.alive(1)

    def test_invalid_params(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ReachabilityMonitor(sim, 0, 1, 1, lambda: None)
        with pytest.raises(ValueError):
            ReachabilityMonitor(sim, 100, 0, 1, lambda: None)
