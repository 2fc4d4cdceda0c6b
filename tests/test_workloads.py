"""Tests for workload generators and distributions."""

import random

import pytest

from repro.fabrics import OneTierSpec, StardustNetwork
from repro.net.addressing import PortAddress
from repro.sim.units import MILLISECOND, gbps
from repro.workloads.distributions import (
    EmpiricalDistribution,
    FLOW_SIZES,
    PACKET_SIZE_MIXES,
    flow_size_distribution,
    packet_size_distribution,
)
from repro.workloads.generator import RateInjector, UniformRandomTraffic
from repro.workloads.permutation import derangement, host_permutation


class TestEmpiricalDistribution:
    def test_samples_come_from_support(self):
        dist = packet_size_distribution("web")
        rng = random.Random(1)
        for _ in range(500):
            assert dist.sample(rng) in dist.support

    def test_sampling_matches_cdf(self):
        dist = EmpiricalDistribution([(10, 0.5), (20, 1.0)])
        rng = random.Random(42)
        draws = [dist.sample(rng) for _ in range(10_000)]
        frac_small = sum(1 for d in draws if d == 10) / len(draws)
        assert frac_small == pytest.approx(0.5, abs=0.02)

    def test_mean(self):
        dist = EmpiricalDistribution([(10, 0.5), (20, 1.0)])
        assert dist.mean() == pytest.approx(15.0)

    def test_bad_cdfs_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([])
        with pytest.raises(ValueError):
            EmpiricalDistribution([(10, 0.8)])  # doesn't reach 1.0
        with pytest.raises(ValueError):
            EmpiricalDistribution([(10, 0.9), (20, 0.5)])  # decreasing

    def test_all_named_mixes_are_valid(self):
        for name in PACKET_SIZE_MIXES:
            packet_size_distribution(name)
        for name in FLOW_SIZES:
            flow_size_distribution(name)

    def test_web_packets_smaller_than_hadoop(self):
        web = packet_size_distribution("web")
        hadoop = packet_size_distribution("hadoop")
        assert web.mean() < hadoop.mean()

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            packet_size_distribution("nosuch")
        with pytest.raises(ValueError):
            flow_size_distribution("nosuch")

    def test_web_flows_heavy_tailed(self):
        dist = flow_size_distribution("web")
        rng = random.Random(3)
        draws = [dist.sample_int(rng) for _ in range(20_000)]
        median = sorted(draws)[len(draws) // 2]
        mean = sum(draws) / len(draws)
        assert mean > 5 * median  # heavy tail


class TestDerangement:
    def test_no_fixed_points(self):
        rng = random.Random(1)
        for n in (2, 5, 16, 100):
            perm = derangement(n, rng)
            assert all(i != p for i, p in enumerate(perm))
            assert sorted(perm) == list(range(n))

    def test_forbid_constraint_respected(self):
        rng = random.Random(1)
        # Forbid mapping into the same parity class.
        perm = derangement(10, rng, forbid=lambda i, j: i % 2 == j % 2)
        assert all(i % 2 != p % 2 for i, p in enumerate(perm))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            derangement(1, random.Random(1))

    def test_host_permutation_cross_fa(self):
        addrs = [PortAddress(f, p) for f in range(4) for p in range(2)]
        mapping = host_permutation(addrs, random.Random(5))
        assert set(mapping) == set(addrs)
        assert set(mapping.values()) == set(addrs)
        for src, dst in mapping.items():
            assert src.fa != dst.fa


class TestRateInjector:
    def test_injection_rate_tracks_utilization(self):
        spec = OneTierSpec(num_fas=2, uplinks_per_fa=2, hosts_per_fa=1)
        net = StardustNetwork(spec, link_rate_bps=gbps(10))
        addrs = [PortAddress(0, 0), PortAddress(1, 0)]
        traffic = UniformRandomTraffic(
            net, addrs, utilization=0.5, packet_bytes=1000, seed=9
        )
        traffic.start()
        duration = 4 * MILLISECOND
        net.run(duration)
        sent_bytes = sum(i.bytes_sent for i in traffic.injectors)
        rate = sent_bytes * 8 / (duration / 1e9)
        assert rate == pytest.approx(2 * 0.5 * gbps(10), rel=0.1)

    def test_traffic_is_delivered(self):
        spec = OneTierSpec(num_fas=3, uplinks_per_fa=3, hosts_per_fa=1)
        net = StardustNetwork(spec, link_rate_bps=gbps(10))
        addrs = [PortAddress(f, 0) for f in range(3)]
        traffic = UniformRandomTraffic(net, addrs, utilization=0.3, seed=2)
        traffic.start()
        net.run(2 * MILLISECOND)
        traffic.stop()
        net.run(2 * MILLISECOND)
        assert traffic.total_received() > 0.9 * traffic.total_sent()

    def test_zero_utilization_sends_nothing(self):
        spec = OneTierSpec(num_fas=2, uplinks_per_fa=2, hosts_per_fa=1)
        net = StardustNetwork(spec)
        addrs = [PortAddress(0, 0), PortAddress(1, 0)]
        traffic = UniformRandomTraffic(net, addrs, utilization=0.0)
        traffic.start()
        net.run(1 * MILLISECOND)
        assert traffic.total_sent() == 0

    def test_destinations_exclude_own_fa(self):
        spec = OneTierSpec(num_fas=2, uplinks_per_fa=2, hosts_per_fa=2)
        net = StardustNetwork(spec)
        addrs = [PortAddress(f, p) for f in range(2) for p in range(2)]
        traffic = UniformRandomTraffic(net, addrs, utilization=0.1)
        for injector in traffic.injectors:
            assert all(
                d.fa != injector.address.fa for d in injector.destinations
            )

    def test_negative_utilization_rejected(self):
        from repro.sim.engine import Simulator

        with pytest.raises(ValueError):
            RateInjector(
                Simulator(), "x", PortAddress(0, 0),
                [PortAddress(1, 0)], gbps(10), -0.1, random.Random(1),
            )
