"""Tests for the §8 NIC-edge vision (core.nic)."""


from repro.core.config import StardustConfig
from repro.core.nic import (
    NIC_DEFAULTS,
    StardustNic,
    build_nic_edge_network,
    nic_config,
)
from repro.net.addressing import PortAddress
from repro.net.flow import Flow
from repro.sim.units import KB, MILLISECOND
from repro.transport.host import make_hosts


class TestNicConfig:
    def test_reductions_applied(self):
        cfg = nic_config()
        assert cfg.ingress_buffer_bytes == NIC_DEFAULTS[
            "ingress_buffer_bytes"
        ]
        assert cfg.egress_buffer_bytes == NIC_DEFAULTS["egress_buffer_bytes"]

    def test_base_config_fields_preserved(self):
        base = StardustConfig(cell_size_bytes=128, cell_header_bytes=16)
        cfg = nic_config(base)
        assert cfg.cell_size_bytes == 128

    def test_smaller_than_tor_defaults(self):
        tor = StardustConfig()
        nic = nic_config()
        assert nic.ingress_buffer_bytes < tor.ingress_buffer_bytes
        assert nic.egress_buffer_bytes < tor.egress_buffer_bytes


class TestNicEdgeNetwork:
    def test_edge_devices_are_nics(self):
        net = build_nic_edge_network(n_nics=4, uplinks_per_nic=2)
        assert all(isinstance(fa, StardustNic) for fa in net.fas)

    def test_end_to_end_transfer(self):
        net = build_nic_edge_network(n_nics=4, uplinks_per_nic=4)
        addrs = [PortAddress(i, 0) for i in range(4)]
        hosts, tracker = make_hosts(net, addrs)
        flow = Flow(src=addrs[0], dst=addrs[3], size_bytes=50 * KB)
        hosts[addrs[0]].start_flow(flow)
        net.run(20 * MILLISECOND)
        assert tracker.get(flow.flow_id).completed_ns is not None
        assert net.fabric_drop_count() == 0

    def test_single_homed_nic_has_no_table(self):
        net = build_nic_edge_network(n_nics=3, uplinks_per_nic=1)
        nic = net.fas[0]
        assert nic.is_single_homed
        assert nic.reachability_entries() == 0

    def test_multi_homed_nic_tracks_uplinks(self):
        net = build_nic_edge_network(n_nics=3, uplinks_per_nic=3)
        nic = net.fas[0]
        assert not nic.is_single_homed
        assert nic.reachability_entries() == 3

    def test_nic_edge_with_dynamic_reachability(self):
        net = build_nic_edge_network(
            n_nics=3, uplinks_per_nic=3, reachability="dynamic"
        )
        addrs = [PortAddress(i, 0) for i in range(3)]
        hosts, tracker = make_hosts(net, addrs)
        net.run(1 * MILLISECOND)  # converge
        flow = Flow(src=addrs[0], dst=addrs[2], size_bytes=20 * KB)
        hosts[addrs[0]].start_flow(flow)
        net.run(20 * MILLISECOND)
        assert tracker.get(flow.flow_id).completed_ns is not None
