"""Unit tests for VOQs, the shared buffer pool and egress scheduling."""

import pytest

from repro.core.cell import VoqId
from repro.core.config import FCI_DECAY_NS, StardustConfig
from repro.core.credit import EgressScheduler
from repro.core.voq import SharedBufferPool, Voq
from repro.net.addressing import PortAddress
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.units import KB, MB, SECOND, gbps

DST = PortAddress(fa=3, port=1)
SRC = PortAddress(fa=0, port=0)


def mk_voq(capacity=1 * MB, priority=0):
    pool = SharedBufferPool(capacity)
    return Voq(VoqId(dst=DST, priority=priority), pool), pool


def pkt(size):
    return Packet(size_bytes=size, src=SRC, dst=DST)


class TestSharedBufferPool:
    def test_admit_and_release(self):
        pool = SharedBufferPool(100)
        assert pool.try_admit(60)
        assert pool.used_bytes == 60
        pool.release(60)
        assert pool.used_bytes == 0

    def test_rejects_over_capacity(self):
        pool = SharedBufferPool(100)
        assert pool.try_admit(100)
        assert not pool.try_admit(1)
        assert pool.dropped_frames == 1
        assert pool.dropped_bytes == 1

    def test_release_more_than_reserved_raises(self):
        pool = SharedBufferPool(100)
        with pytest.raises(ValueError):
            pool.release(1)

    def test_occupancy(self):
        pool = SharedBufferPool(200)
        pool.try_admit(50)
        assert pool.occupancy == 0.25


class TestVoq:
    def test_push_accounts_bytes(self):
        voq, pool = mk_voq()
        voq.push(pkt(100))
        voq.push(pkt(200))
        assert voq.bytes == 300
        assert voq.packets == 2
        assert pool.used_bytes == 300

    def test_shared_pool_drop(self):
        voq, pool = mk_voq(capacity=150)
        assert voq.push(pkt(100))
        assert not voq.push(pkt(100))
        assert voq.bytes == 100

    def test_grant_dequeues_whole_packets(self):
        voq, _ = mk_voq()
        for _ in range(4):
            voq.push(pkt(1000))
        burst = voq.grant(2500)
        # 1000+1000 consumes 2000; balance 500 still positive -> third
        # packet dequeues too, leaving a 500B deficit.
        assert len(burst) == 3
        assert voq.credit_balance == -500

    def test_deficit_repaid_by_next_credit(self):
        voq, _ = mk_voq()
        for _ in range(4):
            voq.push(pkt(1000))
        voq.grant(2500)  # leaves deficit of 500, 1 packet queued
        burst = voq.grant(400)  # balance -100: nothing released
        assert burst == []
        burst = voq.grant(200)  # balance +100: releases the last packet
        assert len(burst) == 1

    def test_surplus_forfeited_when_drained(self):
        voq, _ = mk_voq()
        voq.push(pkt(100))
        burst = voq.grant(4 * KB)
        assert len(burst) == 1
        assert voq.credit_balance == 0  # surplus not banked

    def test_grant_releases_pool_bytes(self):
        voq, pool = mk_voq()
        voq.push(pkt(1000))
        voq.grant(4 * KB)
        assert pool.used_bytes == 0

    def test_seq_reservation(self):
        voq, _ = mk_voq()
        assert voq.take_seq(5) == 0
        assert voq.take_seq(3) == 5
        assert voq.next_seq == 8

    def test_invalid_credit_raises(self):
        voq, _ = mk_voq()
        with pytest.raises(ValueError):
            voq.grant(0)


class TestEgressScheduler:
    def make(self, config=None, rate=gbps(50)):
        sim = Simulator()
        cfg = config or StardustConfig()
        grants = []
        sched = EgressScheduler(
            sim, cfg, rate, lambda fa, voq, nb: grants.append((sim.now, fa, voq, nb))
        )
        return sim, cfg, sched, grants

    def test_credit_rate_matches_speedup(self):
        sim, cfg, sched, grants = self.make()
        voq = VoqId(dst=DST)
        sched.request(0, voq)
        sim.run(until=SECOND // 1000)  # 1 ms
        # Expected rate: 50G * 1.02 / (4KB*8) credits/sec.
        expected = 50e9 * 1.02 / (4 * KB * 8) * 1e-3
        assert len(grants) == pytest.approx(expected, rel=0.02)

    def test_round_robin_fairness(self):
        sim, cfg, sched, grants = self.make()
        voqs = [VoqId(dst=PortAddress(3, 1), priority=0) for _ in range(3)]
        for fa in range(3):
            sched.request(fa, voqs[fa])
        sim.run(until=1_000_000)
        per_fa = [sum(1 for _, fa, _, _ in grants if fa == i) for i in range(3)]
        assert max(per_fa) - min(per_fa) <= 1

    def test_strict_priority_preempts(self):
        cfg = StardustConfig(traffic_classes=2)
        sim, _, sched, grants = self.make(config=cfg)
        low = VoqId(dst=DST, priority=1)
        high = VoqId(dst=DST, priority=0)
        sched.request(1, low)
        sched.request(2, high)
        sim.run(until=1_000_000)
        # All credits go to the high class while it keeps requesting.
        assert all(voq.priority == 0 for _, _, voq, _ in grants)

    def test_withdraw_stops_grants(self):
        sim, cfg, sched, grants = self.make()
        voq = VoqId(dst=DST)
        sched.request(0, voq)
        sim.run(until=100_000)
        n = len(grants)
        assert n > 0
        sched.withdraw(0, voq)
        sim.run(until=1_000_000)
        assert len(grants) == n

    def test_no_grants_without_requests(self):
        sim, cfg, sched, grants = self.make()
        sim.run(until=1_000_000)
        assert grants == []

    def test_pause_resume(self):
        sim, cfg, sched, grants = self.make()
        sched.request(0, VoqId(dst=DST))
        sched.pause()
        sim.run(until=500_000)
        assert grants == []
        sched.resume()
        sim.run(until=1_000_000)
        assert grants

    def test_duplicate_request_ignored(self):
        sim, cfg, sched, grants = self.make()
        voq = VoqId(dst=DST)
        sched.request(0, voq)
        sched.request(0, voq)
        assert sched.active_voqs == 1

    def test_fci_throttles_credit_rate(self):
        sim, cfg, sched, grants = self.make()
        sched.request(0, VoqId(dst=DST))
        sim.run(until=1_000_000)
        baseline = len(grants)
        # Keep marking FCI for the whole next window.
        from repro.sim.engine import PeriodicTask

        marker = PeriodicTask(sim, 10_000, sched.fci_mark)
        sim.run(until=2_000_000)
        throttled = len(grants) - baseline
        assert throttled < baseline
        assert throttled == pytest.approx(
            baseline / cfg.fci_throttle_factor, rel=0.1
        )
        marker.stop()

    def test_throttle_decays_back(self):
        sim, cfg, sched, grants = self.make()
        sched.request(0, VoqId(dst=DST))
        sched.fci_mark()
        sim.run(until=FCI_DECAY_NS * 3)
        window = FCI_DECAY_NS
        before_end = [t for t, *_ in grants if t > 2 * window]
        # Rate in the last window is back to the un-throttled gap
        # (credit_size serialized at credit rate).
        base_gap = int(
            cfg.credit_size_bytes * 8 * 1e9
            / (sched.port_rate_bps * (1 + cfg.credit_speedup))
        )
        gaps = [b - a for a, b in zip(before_end, before_end[1:])]
        assert gaps and max(gaps) == pytest.approx(base_gap, rel=0.01)
