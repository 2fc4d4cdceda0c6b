"""Tests for TCP NewReno, DCTCP, DCQCN and MPTCP host models."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ethernet import EthConfig
from repro.core.config import StardustConfig
from repro.fabrics import OneTierSpec, PushFabricNetwork, StardustNetwork
from repro.net.addressing import PortAddress
from repro.net.flow import Flow
from repro.net.packet import Packet
from repro.sim.units import KB, MILLISECOND, gbps
from repro.transport.dcqcn import DcqcnNotificationPoint, DcqcnSender
from repro.transport.dctcp import DctcpSender
from repro.transport.host import make_hosts
from repro.transport.mptcp import MptcpConnection
from repro.transport.tcp import TcpReceiver
from repro.transport.table import TRANSPORT_TABLE, start_flow

SPEC = OneTierSpec(num_fas=4, uplinks_per_fa=4, hosts_per_fa=2)
ADDRS = [PortAddress(f, p) for f in range(4) for p in range(2)]


def stardust():
    return StardustNetwork(SPEC, config=StardustConfig())


def push(**cfg):
    return PushFabricNetwork(SPEC, config=EthConfig(**cfg))


class TestTcpBasics:
    @pytest.mark.parametrize("make_net", [stardust, push])
    def test_transfer_completes(self, make_net):
        net = make_net()
        hosts, tracker = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=200 * KB)
        hosts[ADDRS[0]].start_flow(flow)
        net.run(50 * MILLISECOND)
        stats = tracker.get(flow.flow_id)
        assert stats.completed_ns is not None
        assert stats.bytes_delivered >= 200 * KB

    def test_short_flow_fast(self):
        net = stardust()
        hosts, tracker = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=10 * KB)
        hosts[ADDRS[0]].start_flow(flow)
        net.run(5 * MILLISECOND)
        fct = tracker.get(flow.flow_id).fct_ns
        assert fct is not None
        assert fct < 1 * MILLISECOND

    def test_bidirectional_transfers(self):
        net = stardust()
        hosts, tracker = make_hosts(net, ADDRS)
        f1 = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=100 * KB)
        f2 = Flow(src=ADDRS[5], dst=ADDRS[0], size_bytes=100 * KB)
        hosts[ADDRS[0]].start_flow(f1)
        hosts[ADDRS[5]].start_flow(f2)
        net.run(50 * MILLISECOND)
        assert tracker.get(f1.flow_id).completed_ns is not None
        assert tracker.get(f2.flow_id).completed_ns is not None

    def test_loss_recovery_on_push_fabric(self):
        # Tiny buffers force drops; the transfer must still complete.
        net = push(port_buffer_bytes=5_000, ecn_threshold_bytes=None)
        hosts, tracker = make_hosts(net, ADDRS)
        flows = []
        for i in range(3):
            flow = Flow(
                src=PortAddress(i, 0), dst=PortAddress(3, 0),
                size_bytes=50 * KB,
            )
            hosts[flow.src].start_flow(flow)
            flows.append(flow)
        net.run(200 * MILLISECOND)
        assert net.collect_metrics().total_drops > 0
        for flow in flows:
            assert tracker.get(flow.flow_id).completed_ns is not None

    def test_sender_respects_nic_backpressure(self):
        net = stardust()
        hosts, tracker = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=None)
        sender = hosts[ADDRS[0]].start_flow(flow)
        net.run(5 * MILLISECOND)
        host = hosts[ADDRS[0]]
        # NIC queue stays at/under the backpressure threshold plus one
        # in-flight MSS worth of slack.
        assert host.ports[0].peak_queue_bytes <= (
            host.tx_backpressure_bytes + 2 * 1500 + 100
        )
        assert host.nic_drops == 0

    def test_rtt_estimation_runs(self):
        net = stardust()
        hosts, tracker = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=100 * KB)
        sender = hosts[ADDRS[0]].start_flow(flow)
        net.run(20 * MILLISECOND)
        assert sender.srtt_ns is not None
        assert 0 < sender.srtt_ns < 5 * MILLISECOND


class TestDctcp:
    def test_transfer_completes_with_ecn(self):
        net = push(port_buffer_bytes=100_000, ecn_threshold_bytes=15_000)
        hosts, tracker = make_hosts(net, ADDRS)
        flows = []
        for i in range(3):
            flow = Flow(
                src=PortAddress(i, 0), dst=PortAddress(3, 0),
                size_bytes=100 * KB,
            )
            hosts[flow.src].start_flow(flow, sender_cls=DctcpSender)
            flows.append(flow)
        net.run(100 * MILLISECOND)
        for flow in flows:
            assert tracker.get(flow.flow_id).completed_ns is not None

    def test_alpha_rises_under_congestion(self):
        net = push(port_buffer_bytes=60_000, ecn_threshold_bytes=10_000)
        hosts, tracker = make_hosts(net, ADDRS)
        senders = []
        for i in range(3):
            flow = Flow(
                src=PortAddress(i, 0), dst=PortAddress(3, 0),
                size_bytes=None,
            )
            senders.append(
                hosts[flow.src].start_flow(flow, sender_cls=DctcpSender)
            )
        net.run(20 * MILLISECOND)
        assert any(s.alpha > 0 for s in senders)

    def test_alpha_stays_zero_without_congestion(self):
        net = push(port_buffer_bytes=10**6, ecn_threshold_bytes=10**6)
        hosts, tracker = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=200 * KB)
        sender = hosts[ADDRS[0]].start_flow(flow, sender_cls=DctcpSender)
        net.run(50 * MILLISECOND)
        assert sender.alpha == 0.0

    def test_invalid_gain_rejected(self):
        net = stardust()
        hosts, _ = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=1000)
        with pytest.raises(ValueError):
            DctcpSender(hosts[ADDRS[0]], flow, g=0)


class TestDcqcn:
    def test_paced_transfer_completes(self):
        net = push()
        hosts, tracker = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=100 * KB)
        dst_host = hosts[ADDRS[5]]
        dst_host.install_receiver(
            DcqcnNotificationPoint(dst_host, flow.flow_id)
        )
        hosts[ADDRS[0]].start_flow(
            flow, sender_cls=DcqcnSender, line_rate_bps=gbps(50)
        )
        net.run(100 * MILLISECOND)
        assert tracker.get(flow.flow_id).completed_ns is not None

    def test_cnp_slows_sender(self):
        net = push(port_buffer_bytes=200_000, ecn_threshold_bytes=8_000)
        hosts, tracker = make_hosts(net, ADDRS)
        senders = []
        for i in range(2):
            flow = Flow(
                src=PortAddress(i, 0), dst=PortAddress(3, 0),
                size_bytes=None,
            )
            dst_host = hosts[PortAddress(3, 0)]
            dst_host.install_receiver(
                DcqcnNotificationPoint(dst_host, flow.flow_id)
            )
            senders.append(
                hosts[flow.src].start_flow(
                    flow, sender_cls=DcqcnSender, line_rate_bps=gbps(50)
                )
            )
        net.run(10 * MILLISECOND)
        assert any(s.cnps_received > 0 for s in senders)
        assert any(s.rc_bps < gbps(50) for s in senders)

    def test_rate_recovers_after_congestion(self):
        net = push()
        hosts, _ = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=None)
        sender = hosts[ADDRS[0]].start_flow(
            flow, sender_cls=DcqcnSender, line_rate_bps=gbps(50)
        )
        net.run(1 * MILLISECOND)
        sender.on_cnp(None.__class__ if False else __import__("repro.net.packet", fromlist=["Packet"]).Packet(
            size_bytes=64, src=ADDRS[5], dst=ADDRS[0],
            flow_id=flow.flow_id, is_cnp=True,
        ))
        dipped = sender.rc_bps
        assert dipped < gbps(50)
        net.run(5 * MILLISECOND)
        assert sender.rc_bps > dipped  # recovery stages kicked in


class TestMptcp:
    def test_transfer_completes(self):
        net = push()
        hosts, tracker = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=400 * KB)
        conn = MptcpConnection(hosts[ADDRS[0]], flow, n_subflows=4)
        conn.start()
        net.run(100 * MILLISECOND)
        assert conn.done
        assert tracker.get(flow.flow_id).completed_ns is not None
        assert tracker.get(flow.flow_id).bytes_delivered >= 400 * KB

    def test_subflows_take_different_paths(self):
        net = push()
        hosts, tracker = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=None)
        conn = MptcpConnection(hosts[ADDRS[0]], flow, n_subflows=8)
        conn.start()
        net.run(5 * MILLISECOND)
        tor = net.tors[0]
        used = sum(1 for p in tor.up_ports if p.out.tx_frames > 10)
        assert used >= 2  # hashing spread the subflows

    def test_share_striping_covers_all_bytes(self):
        net = push()
        hosts, tracker = make_hosts(net, ADDRS)
        size = 1_000_003  # deliberately not divisible by n_subflows
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=size)
        conn = MptcpConnection(hosts[ADDRS[0]], flow, n_subflows=4)
        assert sum(s.total_bytes for s in conn.subflows) == size
        conn.start()
        net.run(200 * MILLISECOND)
        assert tracker.get(flow.flow_id).bytes_delivered >= size

    def test_invalid_subflow_count(self):
        net = push()
        hosts, _ = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=1000)
        with pytest.raises(ValueError):
            MptcpConnection(hosts[ADDRS[0]], flow, n_subflows=0)


class TestTransportTable:
    def test_table_and_spec_transports_name_the_same_things(self):
        from repro.experiments.spec import TRANSPORTS

        assert set(TRANSPORTS) - {"none"} == set(TRANSPORT_TABLE)
        assert "none" in TRANSPORTS and "none" not in TRANSPORT_TABLE

    def test_unknown_transport_lists_the_known_ones(self):
        net = push()
        hosts, _ = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=1000)
        with pytest.raises(ValueError) as err:
            start_flow(hosts, flow, "quic")
        assert str(err.value) == (
            "unknown transport 'quic'; registered: dcqcn, dctcp, mptcp, tcp"
        )

    @pytest.mark.parametrize("transport", sorted(TRANSPORT_TABLE))
    def test_every_row_starts_a_flow_that_completes(self, transport):
        net = push(ecn_threshold_bytes=30_000)
        hosts, tracker = make_hosts(net, ADDRS)
        flow = Flow(src=ADDRS[0], dst=ADDRS[5], size_bytes=100 * KB)
        started = start_flow(
            hosts, flow, transport, line_rate_bps=gbps(50), mptcp_subflows=2
        )
        row = TRANSPORT_TABLE[transport]
        if row.multipath:
            assert isinstance(started, MptcpConnection)
            assert len(started.subflows) == 2
        else:
            assert type(started) is row.sender_cls
            assert hosts[ADDRS[0]].sender(flow.flow_id) is started
        receiver = hosts[ADDRS[5]]._receivers.get(flow.flow_id)
        assert (receiver is not None) == (row.receiver_cls is not None)
        if row.paced:
            assert started.line_rate_bps == gbps(50)
        net.run(50 * MILLISECOND)
        assert tracker.get(flow.flow_id).completed_ns is not None

    @pytest.mark.parametrize("transport", ["tcp", "mptcp"])
    def test_delay_is_what_the_caller_says_not_flow_start_ns(self, transport):
        """``flow.start_ns`` is a stamp the table never reads; the start
        happens ``delay_ns`` from now."""
        net = push()
        hosts, tracker = make_hosts(net, ADDRS)
        stamped = Flow(
            src=ADDRS[0], dst=ADDRS[5], size_bytes=10 * KB,
            start_ns=40 * MILLISECOND,
        )
        delayed = Flow(src=ADDRS[1], dst=ADDRS[4], size_bytes=10 * KB)
        start_flow(hosts, stamped, transport)
        start_flow(hosts, delayed, transport, delay_ns=2 * MILLISECOND)
        net.run(1 * MILLISECOND)
        assert tracker.get(stamped.flow_id).completed_ns is not None
        assert tracker.get(delayed.flow_id).bytes_delivered == 0
        net.run(4 * MILLISECOND)
        assert tracker.get(delayed.flow_id).completed_ns is not None

    def test_incast_over_mptcp_is_rejected(self):
        from repro.experiments import build_scenario, run_spec

        spec = build_scenario("incast", kind="mptcp", n_backends=2)
        with pytest.raises(ValueError, match="mptcp is not supported"):
            run_spec(spec)


# ----------------------------------------------------------------------
# The receiver against its sort-and-merge reference
# ----------------------------------------------------------------------

MSS = 100


class ReferenceReceiver:
    """``TcpReceiver.on_data`` as it was before the one-pass edge
    advance: every fresh segment is sorted and merged into the buffer,
    then the buffer's head is popped while it touches ``rcv_nxt``."""

    def __init__(self):
        self.rcv_nxt = 0
        self._ranges = []

    def on_data(self, start, end):
        before = self.rcv_nxt
        if end > self.rcv_nxt:
            self._insert(max(start, self.rcv_nxt), end)
            self._advance()
        return self.rcv_nxt - before

    def _insert(self, start, end):
        merged = []
        ranges = sorted([*self._ranges, (start, end)])
        for s, e in ranges:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self._ranges = merged

    def _advance(self):
        while self._ranges and self._ranges[0][0] <= self.rcv_nxt:
            s, e = self._ranges.pop(0)
            self.rcv_nxt = max(self.rcv_nxt, e)


#: One segment of an MSS grid (reordered and duplicated when drawn in
#: any order), an arbitrary overlapping range, or a go-back-N resend of
#: the grid from one segment on.
_segment_ops = st.one_of(
    st.tuples(st.just("seg"), st.integers(0, 11)),
    st.tuples(st.just("raw"), st.integers(0, 12 * MSS), st.integers(1, 3 * MSS)),
    st.tuples(st.just("gbn"), st.integers(0, 11), st.integers(1, 6)),
)


def _segments(op):
    if op[0] == "seg":
        return [(op[1] * MSS, MSS)]
    if op[0] == "raw":
        return [op[1:]]
    return [(i * MSS, MSS) for i in range(op[1], op[1] + op[2])]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ops=st.lists(_segment_ops, min_size=1, max_size=40))
def test_receiver_matches_the_sort_and_merge_reference(ops):
    acks = []
    host = SimpleNamespace(
        sim=SimpleNamespace(now=0), output=lambda ack: acks.append(ack.ack_seq)
    )
    real, reference = TcpReceiver(host, flow_id=1), ReferenceReceiver()
    src, dst = PortAddress(0, 0), PortAddress(1, 0)
    for op in ops:
        for start, size in _segments(op):
            data = Packet(size + 40, src, dst, flow_id=1, seq=start)
            fresh = real.on_data(data)
            assert fresh == reference.on_data(start, start + size), (op, start)
            assert real.rcv_nxt == reference.rcv_nxt == acks[-1]
            assert real._ranges == reference._ranges
