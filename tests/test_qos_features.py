"""Tests for QoS features: low-latency VOQs, host flow control, WRR."""

import random

import pytest

from repro.core.cell import VoqId
from repro.core.config import StardustConfig
from repro.core.credit import EgressScheduler
from repro.fabrics import OneTierSpec
from repro.net.addressing import PortAddress
from repro.net.flow import Flow
from repro.perf.digest import values_hash
from repro.sim.engine import Simulator
from repro.sim.units import KB, MICROSECOND, MILLISECOND, gbps
from repro.transport.host import make_hosts

from tests.conftest import build_network

SPEC = OneTierSpec(num_fas=3, uplinks_per_fa=3, hosts_per_fa=2)


class TestLowLatencyVoqs:
    def test_ll_packet_skips_credit_round_trip(self):
        cfg = StardustConfig(
            traffic_classes=2, low_latency_classes=(0,),
        )
        net, hosts = build_network(SPEC, config=cfg)
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(2, 0)
        src.send_to(dst, 500, priority=0)
        # Deliverable well before a credit loop could complete: run
        # only a few microseconds.
        net.run(8 * MICROSECOND)
        assert len(hosts[dst].received) == 1
        assert net.fas[0].low_latency_cells >= 1

    def test_normal_class_still_uses_credits(self):
        cfg = StardustConfig(
            traffic_classes=2, low_latency_classes=(0,),
        )
        net, hosts = build_network(SPEC, config=cfg)
        src = hosts[PortAddress(0, 0)]
        dst = PortAddress(2, 0)
        src.send_to(dst, 500, priority=1)  # credited class
        net.run(2 * MILLISECOND)
        assert len(hosts[dst].received) == 1
        sched = net.fas[2].egress_ports[0].scheduler
        assert sched.credits_granted >= 1

    def test_ll_latency_beats_credited_latency(self):
        results = {}
        for ll in (True, False):
            cfg = StardustConfig(
                traffic_classes=2,
                low_latency_classes=(0,) if ll else (),
            )
            net, hosts = build_network(SPEC, config=cfg)
            src = hosts[PortAddress(0, 0)]
            src.send_to(PortAddress(2, 0), 500, priority=0)
            net.run(2 * MILLISECOND)
            results[ll] = net.fas[2].packet_latency.minimum()
        assert results[True] < results[False]

    def test_invalid_ll_class_rejected(self):
        with pytest.raises(ValueError):
            StardustConfig(traffic_classes=1, low_latency_classes=(3,))


class TestHostFlowControl:
    def test_pause_asserted_when_pool_fills(self):
        cfg = StardustConfig(
            ingress_buffer_bytes=30 * KB,
            host_pause_threshold=0.8,
            host_resume_threshold=0.4,
        )
        net, hosts = build_network(
            OneTierSpec(num_fas=3, uplinks_per_fa=2, hosts_per_fa=2),
            config=cfg,
            link_rate_bps=gbps(10),
        )
        # Two sources overload one destination port: pool fills.
        dst = PortAddress(2, 0)
        for fa in (0, 1):
            for p in range(2):
                for _ in range(100):
                    hosts[PortAddress(fa, p)].send_to(dst, 1400)
        net.run(1 * MILLISECOND)
        paused_fas = [fa for fa in net.fas if fa.pause_frames_sent]
        assert paused_fas, "no Fabric Adapter ever paused its hosts"

    def test_pause_then_resume_cycle(self):
        cfg = StardustConfig(
            ingress_buffer_bytes=40 * KB,
            host_pause_threshold=0.8,
            host_resume_threshold=0.3,
        )
        net, hosts = build_network(SPEC, config=cfg)
        src_fa = net.fas[0]
        # Both of fa0's hosts blast one destination port: the port's
        # credit rate caps the drain, so fa0's shared pool fills.
        for p in range(2):
            for _ in range(60):
                hosts[PortAddress(0, p)].send_to(PortAddress(2, 0), 1000)
        net.run(50 * MICROSECOND)
        # Pool filled -> paused at some point.
        was_paused = src_fa.hosts_paused or src_fa.pause_frames_sent > 0
        net.run(5 * MILLISECOND)
        # Everything drained: resumed.
        assert was_paused
        assert not src_fa.hosts_paused
        # These blast hosts ignore PAUSE (their packets are pre-queued
        # on the wire), so overflow drops at the ingress — but every
        # admitted packet is delivered.
        delivered = len(hosts[PortAddress(2, 0)].received)
        assert delivered + net.collect_metrics().ingress_drops == 120
        assert delivered >= 60

    def test_tcp_host_honours_pause_losslessly(self):
        # Pause early enough that the post-PAUSE in-flight data (NIC
        # queues + wires) fits in the remaining pool headroom.
        cfg = StardustConfig(
            ingress_buffer_bytes=240 * KB,
            host_pause_threshold=0.5,
            host_resume_threshold=0.25,
        )
        spec = OneTierSpec(num_fas=3, uplinks_per_fa=2, hosts_per_fa=2)
        from repro.fabrics import StardustNetwork

        net = StardustNetwork(spec, config=cfg, link_rate_bps=gbps(10))
        addrs = [PortAddress(f, p) for f in range(3) for p in range(2)]
        hosts, tracker = make_hosts(net, addrs)
        # 2:1 oversubscription of one port with a tiny ingress pool:
        # without PAUSE this drops; with it, TCP is throttled instead.
        flows = []
        for i in range(2):
            flow = Flow(
                src=PortAddress(i, 0), dst=PortAddress(2, 0),
                size_bytes=300 * KB,
            )
            hosts[flow.src].start_flow(flow)
            flows.append(flow)
        net.run(100 * MILLISECOND)
        for flow in flows:
            assert tracker.get(flow.flow_id).completed_ns is not None
        assert net.collect_metrics().ingress_drops == 0  # flow control, not loss

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            StardustConfig(
                host_pause_threshold=0.3, host_resume_threshold=0.5
            )


def _credit_loop_digest(
    cfg: StardustConfig,
    seed: int,
    hot_fa: int | None = None,
    link_rate_bps: int = gbps(50),
) -> dict:
    """Run seeded two-class random traffic and digest the event stream.

    Every host sends 40 packets (64-1500 B, class 0 or 1) to random
    remote ports at random instants in the first 40 µs — with
    ``hot_fa``, every host off that FA sends only to its two ports, in
    the first 10 µs, so both classes queue behind the credit loop; the
    run lasts 400 µs.  ``events_fired`` pins the credit loop's
    scheduling exactly (every status, grant and pump is an event), the
    hashes pin what arrived where and when.
    """
    net, hosts = build_network(SPEC, config=cfg, link_rate_bps=link_rate_bps)
    rng = random.Random(seed)
    addrs = sorted(hosts)
    window_ns = (40 if hot_fa is None else 10) * MICROSECOND
    for src in addrs:
        for _ in range(40):
            dst = rng.choice([
                a for a in addrs
                if a.fa != src.fa
                and (hot_fa in (None, src.fa) or a.fa == hot_fa)
            ])
            size = rng.randint(64, 1500)
            prio = rng.randint(0, 1)
            net.sim.call_later(
                rng.randrange(window_ns),
                lambda h=hosts[src], d=dst, s=size, p=prio: h.send_to(
                    d, s, priority=p
                ),
            )
    net.run(400 * MICROSECOND)
    metrics = net.collect_metrics()
    arrivals = [
        (str(addr), t, p.size_bytes, getattr(p, "priority", -1))
        for addr in addrs
        for t, p in hosts[addr].received
    ]
    return {
        "events_fired": net.sim.events_fired,
        "delivered_bytes": metrics.delivered_bytes,
        "ingress_drops": metrics.ingress_drops,
        "arrivals_hash": values_hash(arrivals),
        "cell_latency_hash": values_hash(metrics.cell_latency_ns.samples),
        "credits_granted": [
            port.scheduler.credits_granted
            for fa in net.fas
            for port in fa.egress_ports
        ],
        "low_latency_cells": [fa.low_latency_cells for fa in net.fas],
        "pause_frames_sent": [fa.pause_frames_sent for fa in net.fas],
    }


class TestCreditLoopPins:
    """Recorded digests of the credit-loop branches no golden reaches.

    The goldens all run one traffic class, no low-latency class and no
    host PAUSE; these three cells do, and must stay byte-identical
    under any change that claims to keep the event stream.
    """

    def test_low_latency_class(self):
        cfg = StardustConfig(traffic_classes=2, low_latency_classes=(0,))
        assert _credit_loop_digest(cfg, seed=11) == {
            "events_fired": 5191,
            "delivered_bytes": 186391,
            "ingress_drops": 0,
            "arrivals_hash": "3a260682a6786f2d",
            "cell_latency_hash": "4edcb28d4fcb7384",
            "credits_granted": [17, 22, 18, 17, 8, 13],
            "low_latency_cells": [42, 36, 35],
            "pause_frames_sent": [0, 0, 0],
        }

    def test_host_pause(self):
        cfg = StardustConfig(
            traffic_classes=2,
            ingress_buffer_bytes=24 * KB,
            host_pause_threshold=0.6,
            host_resume_threshold=0.3,
        )
        assert _credit_loop_digest(
            cfg, seed=12, hot_fa=2, link_rate_bps=gbps(10)
        ) == {
            "events_fired": 4976,
            "delivered_bytes": 176588,
            "ingress_drops": 15,
            "arrivals_hash": "3819603bb69b5a10",
            "cell_latency_hash": "3d670556bcddd158",
            "credits_granted": [19, 17, 10, 14, 24, 32],
            "low_latency_cells": [0, 0, 0],
            "pause_frames_sent": [4, 4, 0],
        }

    def test_wrr_two_active_classes(self):
        cfg = StardustConfig(
            traffic_classes=2, strict_priority=False, class_weights=(3, 1),
        )
        assert _credit_loop_digest(cfg, seed=13, hot_fa=2) == {
            "events_fired": 5105,
            "delivered_bytes": 195522,
            "ingress_drops": 0,
            "arrivals_hash": "5cd3602e20f68626",
            "cell_latency_hash": "6b80585de5312211",
            "credits_granted": [13, 5, 12, 11, 26, 27],
            "low_latency_cells": [0, 0, 0],
            "pause_frames_sent": [0, 0, 0],
        }


class TestWeightedRoundRobin:
    def make(self, weights, classes=2):
        sim = Simulator()
        cfg = StardustConfig(
            traffic_classes=classes,
            strict_priority=False,
            class_weights=weights,
        )
        grants = []
        sched = EgressScheduler(
            sim, cfg, gbps(50),
            lambda fa, voq, nb: grants.append(voq.priority),
        )
        return sim, sched, grants

    def test_weights_respected(self):
        sim, sched, grants = self.make((3, 1))
        dst = PortAddress(1, 0)
        sched.request(0, VoqId(dst=dst, priority=0))
        sched.request(0, VoqId(dst=dst, priority=1))
        sim.run(until=2 * MILLISECOND)
        share0 = grants.count(0) / len(grants)
        assert share0 == pytest.approx(0.75, abs=0.05)

    def test_equal_weights_split_evenly(self):
        sim, sched, grants = self.make(())
        dst = PortAddress(1, 0)
        sched.request(0, VoqId(dst=dst, priority=0))
        sched.request(0, VoqId(dst=dst, priority=1))
        sim.run(until=2 * MILLISECOND)
        share0 = grants.count(0) / len(grants)
        assert share0 == pytest.approx(0.5, abs=0.05)

    def test_idle_class_yields_bandwidth(self):
        sim, sched, grants = self.make((3, 1))
        dst = PortAddress(1, 0)
        sched.request(0, VoqId(dst=dst, priority=1))  # only low class
        sim.run(until=1 * MILLISECOND)
        assert grants and all(p == 1 for p in grants)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            StardustConfig(class_weights=(0, 1))
