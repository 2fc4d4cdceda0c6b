"""Unit tests for the Appendix A scaling math and fat-tree graphs."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.sim.units import GBPS
from repro.topology.fattree import FatTreeGraph
from repro.topology.scaling import (
    SwitchModel,
    fabric_switches,
    fig2_network_devices,
    fig2_network_links,
    fig2_series_hosts_vs_tiers,
    link_bundles,
    links_per_tor,
    max_hosts,
    max_tors,
    min_tiers_for_hosts,
    switches_per_tor,
)

# The paper's Fig 2 switch generations: 12.8 Tbps, 50G lanes.
STARDUST = SwitchModel(12_800 * GBPS, bundle=1)  # 256 x 50G
FT_L2 = SwitchModel(12_800 * GBPS, bundle=2)  # 128 x 100G
FT_L4 = SwitchModel(12_800 * GBPS, bundle=4)  # 64 x 200G
FT_L8 = SwitchModel(12_800 * GBPS, bundle=8)  # 32 x 400G


def test_sweep_imports_do_not_pull_in_networkx():
    """``FatTreeGraph`` is networkx's only user and imports it when a
    graph is built; the sweep runner, the store and the digest — what
    every CLI call and every ``run_matrix`` worker imports — must not
    pay for it."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys\n"
        "import repro.experiments.runner, repro.store, repro.perf.digest\n"
        "assert 'repro.topology.fattree' in sys.modules\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


class TestSwitchModel:
    def test_radix_from_bundle(self):
        assert STARDUST.radix == 256
        assert FT_L2.radix == 128
        assert FT_L4.radix == 64
        assert FT_L8.radix == 32

    def test_port_rate(self):
        assert FT_L8.port_rate_bps == 400 * GBPS

    def test_invalid_bundle(self):
        with pytest.raises(ValueError):
            SwitchModel(12_800 * GBPS, bundle=0)

    def test_non_divisible_bandwidth(self):
        with pytest.raises(ValueError):
            SwitchModel(12_801 * GBPS, bundle=1)


class TestTable2:
    """The explicit Table 2 rows."""

    def test_max_tors_rows(self):
        k = 8
        assert max_tors(k, 1) == 8
        assert max_tors(k, 2) == 32  # k^2/2
        assert max_tors(k, 3) == 128  # k^3/4
        assert max_tors(k, 4) == 512  # k^4/8

    def test_switch_count_rows(self):
        k, t = 8, 4
        assert fabric_switches(k, t, 1) == t
        assert fabric_switches(k, t, 2) == 3 * t * k // 2
        assert fabric_switches(k, t, 3) == 5 * t * k**2 // 4
        assert fabric_switches(k, t, 4) == 7 * t * k**3 // 8

    def test_switches_per_tor(self):
        k, t = 8, 4
        assert switches_per_tor(k, t, 2) == Fraction(3 * t, k)
        assert switches_per_tor(k, t, 3) == Fraction(5 * t, k)

    def test_link_bundle_rows(self):
        k, t = 8, 4
        assert link_bundles(k, t, 1) == t * k
        assert link_bundles(k, t, 2) == t * k**2
        assert link_bundles(k, t, 3) == 3 * t * k**3 // 4
        assert link_bundles(k, t, 4) == 7 * t * k**4 // 8

    def test_links_per_tor_consistent_with_bundles(self):
        k, t, l = 8, 4, 2
        # links/ToR * ToRs == bundles * l, by construction.
        for n in range(1, 5):
            assert links_per_tor(k, t, l, n) * max_tors(k, n) == (
                link_bundles(k, t, n) * l
            )

    def test_links_per_tor_row_values(self):
        k, t, l = 8, 4, 1
        assert links_per_tor(k, t, l, 1) == t
        assert links_per_tor(k, t, l, 2) == 2 * t
        assert links_per_tor(k, t, l, 3) == 3 * t
        assert links_per_tor(k, t, l, 4) == 7 * t

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            max_tors(1, 1)
        with pytest.raises(ValueError):
            max_tors(4, 0)
        with pytest.raises(ValueError):
            fabric_switches(4, 0, 1)


class TestFig2Claims:
    """§2.2's headline numbers."""

    def test_one_tier_l1_connects_over_10k_hosts(self):
        assert max_hosts(STARDUST.radix, 1, 40) == 10_240

    def test_one_tier_l8_is_one_eighth(self):
        assert max_hosts(FT_L8.radix, 1, 40) == 10_240 // 8

    def test_two_tier_l8_limited_to_20k(self):
        assert max_hosts(FT_L8.radix, 2, 40) == 20_480

    def test_two_tier_l1_is_64x_l8(self):
        l1 = max_hosts(STARDUST.radix, 2, 40)
        l8 = max_hosts(FT_L8.radix, 2, 40)
        assert l1 == 64 * l8  # the paper's "x64 the number of hosts"

    def test_nth_tier_advantage_is_bundle_to_the_n(self):
        # §5.1: n-tier Stardust supports x(l^n) more ToRs than an
        # l-bundled fat-tree of the same silicon.
        for n in (1, 2, 3):
            ratio = max_tors(STARDUST.radix, n) / max_tors(FT_L8.radix, n)
            assert ratio == 8**n

    def test_hosts_vs_tiers_series_monotone(self):
        series = fig2_series_hosts_vs_tiers(STARDUST)
        assert series == sorted(series)
        assert len(series) == 4

    def test_devices_decrease_with_smaller_bundle(self):
        hosts = 200_000
        devices = [
            fig2_network_devices(sw, hosts)
            for sw in (STARDUST, FT_L2, FT_L4, FT_L8)
        ]
        assert all(d is not None for d in devices)
        assert devices == sorted(devices)  # Stardust needs the fewest

    def test_links_decrease_with_smaller_bundle(self):
        hosts = 200_000
        links = [
            fig2_network_links(sw, hosts)
            for sw in (STARDUST, FT_L2, FT_L4, FT_L8)
        ]
        assert all(x is not None for x in links)
        assert links == sorted(links)

    def test_min_tiers(self):
        assert min_tiers_for_hosts(256, 10_000, 40) == 1
        assert min_tiers_for_hosts(256, 11_000, 40) == 2
        assert min_tiers_for_hosts(32, 1_000_000, 40) == 4

    def test_unreachable_size_returns_none(self):
        assert min_tiers_for_hosts(2, 10**12, 40, max_n=3) is None
        tiny = SwitchModel(100 * GBPS, bundle=1)  # 2x50G
        assert fig2_network_devices(tiny, 10**9) is None


class TestFatTreeGraph:
    def test_single_pod_shape(self):
        g = FatTreeGraph(pods=1, tors_per_pod=4, t1_per_pod=2)
        assert g.tor_count == 4
        assert g.fabric_count == 2
        assert g.graph.number_of_edges() == 8

    def test_two_pod_shape(self):
        g = FatTreeGraph(pods=2, tors_per_pod=2, t1_per_pod=2, spines=2)
        assert g.tor_count == 4
        assert g.fabric_count == 6
        # edges: 2 pods * 2*2 (tier1) + 4 t1 * 2 spines = 8 + 8.
        assert g.graph.number_of_edges() == 16

    def test_path_diversity_equals_t1_count_within_pod(self):
        g = FatTreeGraph(pods=1, tors_per_pod=4, t1_per_pod=3)
        assert g.path_diversity("tor0", "tor1") == 3

    def test_cross_pod_paths_scale_with_spines(self):
        g = FatTreeGraph(pods=2, tors_per_pod=2, t1_per_pod=2, spines=4)
        # src t1 (2) x spines (4) x dst t1 — shortest paths go
        # tor-t1-spine-t1-tor: 2*4*2.
        assert g.path_diversity("tor0", "tor2") == 16

    def test_diameter(self):
        one_pod = FatTreeGraph(pods=1, tors_per_pod=2, t1_per_pod=2)
        assert one_pod.diameter_hops() == 2
        two_pod = FatTreeGraph(pods=2, tors_per_pod=2, t1_per_pod=2, spines=2)
        assert two_pod.diameter_hops() == 4

    def test_min_cut_matches_uplinks(self):
        g = FatTreeGraph(pods=1, tors_per_pod=3, t1_per_pod=4)
        assert g.min_edge_cut_between_tors("tor0", "tor1") == 4

    def test_multi_pod_requires_spines(self):
        with pytest.raises(ValueError):
            FatTreeGraph(pods=2, tors_per_pod=2, t1_per_pod=2, spines=0)
