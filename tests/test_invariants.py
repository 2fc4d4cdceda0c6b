"""Property-based invariant tests (seeded random, no external deps).

Three families of machine-checked contracts:

* **Conservation** — bytes/packets injected into a fabric equal what
  came out plus what was dropped plus what is still in flight; on the
  lossless Stardust fabric a closed workload must be delivered in full.
* **Event ordering** — the engine fires events in a total order:
  ``(time_ns, scheduling order)``, for any random mix of duplicate
  timestamps, nested scheduling and cancellations.
* **Hermeticity** — ``run_spec`` results are independent of process
  history: the global flow-id space is reset per run, so back-to-back
  runs (with unrelated runs interleaved) are bit-identical.
"""

from __future__ import annotations

import random

from repro.core.cell import VoqId
from repro.core.voq import SharedBufferPool, Voq
from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec, run_spec_with_network
from repro.experiments.spec import TopologySpec
from repro.net.addressing import PortAddress
from repro.net.packet import Packet
from repro.perf.digest import run_digest
from repro.sim.engine import Simulator
from repro.sim.units import KB, MICROSECOND, MILLISECOND
from repro.workloads.generator import UniformRandomTraffic

_TINY_ONE_TIER = TopologySpec(
    "one_tier", dict(num_fas=4, uplinks_per_fa=4, hosts_per_fa=2)
)


# ----------------------------------------------------------------------
# Conservation
# ----------------------------------------------------------------------


class TestConservation:
    def test_closed_workload_fully_delivered_on_stardust(self):
        """Lossless fabric + finite flows: every offered byte arrives."""
        rng = random.Random(0x5EED)
        for _ in range(3):
            num_fas = rng.choice([2, 3, 4])
            hosts = rng.choice([1, 2])
            flow_bytes = rng.randrange(10 * KB, 60 * KB)
            spec = build_scenario(
                "many_to_many",
                kind="stardust",
                seed=rng.randrange(1, 1000),
                num_fas=num_fas,
                hosts_per_fa=hosts,
                flow_bytes=flow_bytes,
                timeout_ns=60 * MILLISECOND,
            )
            result = run_spec(spec)
            n_flows = result.metrics["offered_flows"]
            offered = n_flows * flow_bytes
            assert result.drops == 0, "Stardust must be lossless (§5.5)"
            assert result.metrics["completed"] == n_flows
            assert result.delivered_bytes == offered

    def test_open_loop_packet_conservation_on_push(self):
        """sent == received + dropped + in-flight; drains to equality."""
        from repro.experiments.runner import build_network
        from repro.net.flow import reset_flow_ids

        rng = random.Random(0xFAB)
        for _ in range(2):
            seed = rng.randrange(1, 1000)
            spec = build_scenario(
                "uniform_random",
                kind="tcp",  # push fabric, open-loop injectors
                seed=seed,
                utilization=0.9,  # hot enough to force drop-tail losses
                topology=_TINY_ONE_TIER,
                warmup_ns=0,
                measure_ns=300 * MICROSECOND,
            )
            addrs = spec.topology.addresses()
            # Drive the workload by hand (rather than via run_spec) so
            # we can stop the injectors and watch the fabric drain.
            reset_flow_ids()
            net = build_network(spec)
            traffic = UniformRandomTraffic(
                net, addrs, utilization=0.9, packet_bytes=1000, seed=seed
            )
            traffic.start()
            net.run(300 * MICROSECOND)
            sent = traffic.total_sent()
            received = traffic.total_received()
            drops = net.collect_metrics().total_drops
            in_flight = sent - received - drops
            assert in_flight >= 0, "delivered more than was injected"
            # Stop injecting; whatever was in flight must drain to the
            # hosts or the drop counters — nothing vanishes.
            traffic.stop()
            net.run(2 * MILLISECOND)
            sent = traffic.total_sent()
            received = traffic.total_received()
            drops = net.collect_metrics().total_drops
            assert sent == received + drops

    def test_voq_pool_byte_accounting(self):
        """Random push/grant storms keep pool and VOQ byte books exact."""
        rng = random.Random(7)
        for _trial in range(5):
            pool = SharedBufferPool(rng.randrange(20_000, 60_000))
            voqs = [
                Voq(VoqId(dst=PortAddress(fa, 0)), pool) for fa in range(4)
            ]
            queued = {v.id: 0 for v in voqs}
            admitted = dropped = released = 0
            for _ in range(400):
                voq = rng.choice(voqs)
                if rng.random() < 0.6:
                    size = rng.randrange(64, 9000)
                    packet = Packet(
                        size_bytes=size,
                        src=PortAddress(9, 0),
                        dst=voq.id.dst,
                    )
                    if voq.push(packet):
                        queued[voq.id] += size
                        admitted += size
                    else:
                        dropped += size
                else:
                    credit = rng.randrange(1, 16_000)
                    burst = voq.grant(credit)
                    got = sum(p.size_bytes for p in burst)
                    queued[voq.id] -= got
                    released += got
                assert voq.bytes == queued[voq.id]
                assert pool.used_bytes == sum(queued.values())
                assert pool.used_bytes == admitted - released
            assert pool.dropped_bytes == dropped


# ----------------------------------------------------------------------
# Event ordering
# ----------------------------------------------------------------------


class TestEventOrdering:
    def test_total_order_under_duplicate_timestamps(self):
        """Events fire sorted by (time, scheduling order) — always."""
        for trial in range(5):
            rng = random.Random(100 + trial)
            sim = Simulator()
            fired = []
            expected = []
            seq = 0
            for _ in range(500):
                t = rng.randrange(0, 50)  # dense: many exact collisions
                tag = (t, seq)
                seq += 1
                expected.append(tag)
                sim.at(t, lambda tag=tag: fired.append(tag))
            sim.run()
            assert fired == sorted(expected)

    def test_total_order_with_nested_scheduling_and_cancels(self):
        """Scheduling from callbacks and cancelling keep the order total."""
        rng = random.Random(42)
        sim = Simulator()
        fired = []
        victims = []

        def spawn(depth):
            def fn():
                fired.append(sim.now)
                if depth > 0:
                    delay = rng.randrange(0, 3)
                    sim.schedule(delay, spawn(depth - 1))
                    doomed = sim.schedule(delay, lambda: fired.append(-1))
                    victims.append(doomed)
                    doomed.cancel()

            return fn

        for _ in range(50):
            sim.at(rng.randrange(0, 10), spawn(4))
        sim.run()
        assert -1 not in fired, "a cancelled event fired"
        assert fired == sorted(fired), "time went backwards"
        assert all(v.cancelled for v in victims)


# ----------------------------------------------------------------------
# Hermeticity
# ----------------------------------------------------------------------


class TestHermeticity:
    def test_back_to_back_runs_are_bit_identical(self):
        """reset_flow_ids() makes run results process-history independent."""
        spec = build_scenario(
            "permutation",
            kind="tcp",  # flow ids feed the push fabric's ECMP hash
            topology=_TINY_ONE_TIER,
            warmup_ns=50 * MICROSECOND,
            measure_ns=150 * MICROSECOND,
        )
        first, net1 = run_spec_with_network(spec)
        # Pollute the process's global flow-id space with an unrelated
        # run, then repeat: the digest (event counts, rate vectors,
        # histogram hashes) must not move.
        run_spec(spec.with_updates(seed=spec.seed + 1))
        second, net2 = run_spec_with_network(spec)
        assert first.to_dict() == second.to_dict()
        assert run_digest(first, net1) == run_digest(second, net2)
