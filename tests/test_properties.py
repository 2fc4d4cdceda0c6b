"""Property-based tests (hypothesis) on core data structures.

Invariants checked:
* packing conserves bytes, respects cell geometry, orders fragments,
  and cuts cells exactly where a byte-stream reference does;
* pack -> shuffle -> reassemble is the identity on packet streams;
* spray arbitration is balanced within one round for any link set;
* an Ethernet output port never queues past its buffer, drops exactly
  what does not fit, and conserves packets;
* VOQ credit accounting conserves bytes.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ethernet import EthConfig, EthernetSwitch
from repro.core.cell import VoqId
from repro.core.packing import cells_for_bytes, pack_burst
from repro.core.reassembly import ReassemblyEngine
from repro.core.spray import SprayArbiter
from repro.core.voq import SharedBufferPool, Voq
from repro.net.addressing import PortAddress
from repro.net.packet import Packet, wire_size
from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.sim.link import Link
from repro.sim.units import gbps

DST = PortAddress(fa=5, port=0)
SRC = PortAddress(fa=0, port=0)
VOQ = VoqId(dst=DST)

packet_sizes = st.lists(
    st.integers(min_value=1, max_value=9000), min_size=1, max_size=30
)
payloads = st.integers(min_value=8, max_value=512)


def mk_packets(sizes):
    return [Packet(size_bytes=s, src=SRC, dst=DST) for s in sizes]


def pack(packets, payload, packing=True):
    return pack_burst(
        packets,
        payload_bytes=payload,
        header_bytes=16,
        dst_fa=DST.fa,
        src_fa=SRC.fa,
        voq=VOQ,
        first_seq=0,
        packing=packing,
    )


class TestPackingProperties:
    @given(sizes=packet_sizes, payload=payloads)
    def test_bytes_conserved(self, sizes, payload):
        cells = pack(mk_packets(sizes), payload)
        assert sum(c.payload_bytes for c in cells) == sum(sizes)

    @given(sizes=packet_sizes, payload=payloads)
    def test_no_cell_overflows(self, sizes, payload):
        for cell in pack(mk_packets(sizes), payload):
            assert 0 < cell.payload_bytes <= payload

    @given(sizes=packet_sizes, payload=payloads)
    def test_packed_cell_count_is_optimal(self, sizes, payload):
        cells = pack(mk_packets(sizes), payload)
        assert len(cells) == cells_for_bytes(sum(sizes), payload)

    @given(sizes=packet_sizes, payload=payloads)
    def test_exactly_one_eop_per_packet(self, sizes, payload):
        cells = pack(mk_packets(sizes), payload)
        eops = [
            f.packet.pkt_id
            for c in cells
            for f in c.fragments
            if f.end_of_packet
        ]
        assert len(eops) == len(sizes)
        assert len(set(eops)) == len(sizes)

    @given(sizes=packet_sizes, payload=payloads)
    def test_fragments_preserve_packet_order(self, sizes, payload):
        packets = mk_packets(sizes)
        cells = pack(packets, payload)
        seen = []
        for cell in cells:
            for frag in cell.fragments:
                if not seen or seen[-1] != frag.packet.pkt_id:
                    seen.append(frag.packet.pkt_id)
        assert seen == [p.pkt_id for p in packets]

    @given(sizes=packet_sizes, payload=payloads, packing=st.booleans())
    def test_seq_numbers_dense(self, sizes, payload, packing):
        cells = pack(mk_packets(sizes), payload, packing)
        assert [c.seq for c in cells] == list(range(len(cells)))

    @given(
        sizes=packet_sizes,
        payload=payloads,
        packing=st.booleans(),
        first_seq=st.integers(min_value=0, max_value=10**6),
        created_ns=st.integers(min_value=0, max_value=10**12),
    )
    def test_matches_byte_stream_reference(
        self, sizes, payload, packing, first_seq, created_ns
    ):
        packets = mk_packets(sizes)
        cells = pack_burst(
            packets,
            payload_bytes=payload,
            header_bytes=16,
            dst_fa=DST.fa,
            src_fa=SRC.fa,
            voq=VOQ,
            first_seq=first_seq,
            created_ns=created_ns,
            packing=packing,
        )
        expected = reference_pack(packets, payload, packing)
        assert [
            [(f.packet.pkt_id, f.nbytes, f.end_of_packet) for f in c.fragments]
            for c in cells
        ] == expected
        for seq, (cell, frags) in enumerate(zip(cells, expected), first_seq):
            filled = sum(nbytes for _, nbytes, _ in frags)
            assert cell.seq == seq
            assert cell.payload_bytes == filled
            assert cell.size_bytes == 16 + filled
            assert cell.created_ns == created_ns
            assert cell.voq == VOQ


def reference_pack(packets, payload, packing):
    """Cut the burst's byte stream (each packet's own stream when not
    packing) at every ``payload`` bytes; one list of ``(pkt_id, nbytes,
    end_of_packet)`` per cell, in transmission order."""
    streams = [packets] if packing else [[p] for p in packets]
    cells = []
    for stream in streams:
        # Byte offset one past each packet's last byte in the stream.
        ends = list(itertools.accumulate(p.size_bytes for p in stream))
        for lo in range(0, ends[-1], payload):
            hi = min(lo + payload, ends[-1])
            frags = []
            for packet, end in zip(stream, ends):
                start = max(lo, end - packet.size_bytes)
                stop = min(hi, end)
                if start < stop:
                    frags.append((packet.pkt_id, stop - start, stop == end))
            cells.append(frags)
    return cells


class TestReassemblyRoundTrip:
    @given(
        sizes=packet_sizes,
        payload=payloads,
        packing=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60)
    def test_pack_shuffle_reassemble_is_identity(
        self, sizes, payload, packing, seed
    ):
        packets = mk_packets(sizes)
        cells = pack(packets, payload, packing)
        rng = random.Random(seed)
        shuffled = list(cells)
        rng.shuffle(shuffled)

        sim = Simulator()
        delivered = []
        engine = ReassemblyEngine(
            sim, delivered.append, timeout_ns=10**9
        )
        for cell in shuffled:
            engine.receive(cell)
        assert [p.pkt_id for p in delivered] == [p.pkt_id for p in packets]
        assert engine.packets_discarded == 0


class TestSprayProperties:
    @given(
        nlinks=st.integers(min_value=1, max_value=32),
        rounds=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_each_round_hits_every_link_once(self, nlinks, rounds, seed):
        arb = SprayArbiter(random.Random(seed), reshuffle_every=10**9)
        links = list(range(nlinks))
        counts = {l: 0 for l in links}
        for _ in range(rounds * nlinks):
            counts[arb.pick("d", links)] += 1
        assert set(counts.values()) == {rounds}

    @given(
        nlinks=st.integers(min_value=2, max_value=16),
        ncells=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_imbalance_never_exceeds_one(self, nlinks, ncells, seed):
        arb = SprayArbiter(random.Random(seed))
        links = list(range(nlinks))
        counts = {l: 0 for l in links}
        for _ in range(ncells):
            counts[arb.pick("d", links)] += 1
        assert max(counts.values()) - min(counts.values()) <= 1


class _Sink(Entity):
    def __init__(self, sim):
        super().__init__(sim, "sink")
        self.received = []

    def receive(self, payload, link):
        self.received.append(payload)


class TestQueueProperties:
    # A few fixed frame sizes, and buffers that are sums of their wire
    # sizes, so arrivals often fill a port to exactly its last byte.
    FRAMES = (64, 300, 1500, 9000)

    @given(
        arrivals=st.lists(
            st.tuples(
                st.integers(0, 3_000),  # ns since the previous arrival
                st.sampled_from(FRAMES) | st.integers(1, 9000),
            ),
            max_size=200,
        ),
        capacity=st.lists(
            st.sampled_from(FRAMES), min_size=1, max_size=8
        ).map(lambda frames: sum(map(wire_size, frames))),
    )
    def test_capacity_and_conservation(self, arrivals, capacity):
        # EthernetSwitch drop-tail on one output port, against the
        # obvious oracle: a packet is dropped iff the bytes queued
        # behind the serializer plus its own wire bytes exceed the
        # port buffer.
        sim = Simulator()
        config = EthConfig(
            port_buffer_bytes=capacity, ecn_threshold_bytes=None
        )
        sw = EthernetSwitch(sim, config, DST.fa, "sw")
        sink = _Sink(sim)
        out = Link(sim, sw, sink, gbps(10))
        sw.add_port(out, "host", host_port_index=DST.port)
        now = dropped = 0
        for gap, size in arrivals:
            now += gap
            sim.run(until=now)
            packet = Packet(size_bytes=size, src=SRC, dst=DST)
            dropped += out.queued_bytes + packet.wire_bytes > capacity
            sw.receive(packet, None)
            assert sw.dropped == dropped
            assert out.queued_bytes <= capacity
        sim.run()
        assert sw.forwarded + sw.dropped == len(arrivals)
        assert len(sink.received) == sw.forwarded


class TestVoqProperties:
    @given(
        sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=50),
        credits=st.lists(st.integers(1, 8192), min_size=1, max_size=50),
    )
    def test_credit_accounting_conserves_packets(self, sizes, credits):
        pool = SharedBufferPool(10**9)
        voq = Voq(VOQ, pool)
        packets = mk_packets(sizes)
        for p in packets:
            assert voq.push(p)
        out = []
        for credit in credits:
            out.extend(voq.grant(credit))
        # Whatever came out came out in order, without duplication.
        assert [p.pkt_id for p in out] == [
            p.pkt_id for p in packets[: len(out)]
        ]
        # Pool usage matches what is still queued.
        assert pool.used_bytes == sum(p.size_bytes for p in packets[len(out):])
        # A drained VOQ holds no surplus.
        if voq.empty:
            assert voq.credit_balance <= 0 or voq.credit_balance == 0
