"""Unit tests for spray arbitration and cell reassembly."""

import random

import pytest

from repro.core.cell import VoqId
from repro.core.packing import pack_burst
from repro.core.reassembly import ReassemblyEngine
from repro.core.spray import SprayArbiter
from repro.net.addressing import PortAddress
from repro.net.packet import Packet
from repro.sim.engine import Simulator

DST = PortAddress(fa=9, port=0)
SRC = PortAddress(fa=1, port=4)
VOQ = VoqId(dst=DST)


class TestSprayArbiter:
    def test_permutation_mode_is_perfectly_balanced(self):
        arb = SprayArbiter(random.Random(1), mode="permutation")
        links = ["a", "b", "c", "d"]
        counts = {l: 0 for l in links}
        for _ in range(4000):
            counts[arb.pick("dst", links)] += 1
        assert set(counts.values()) == {1000}

    def test_round_robin_within_permutation(self):
        arb = SprayArbiter(random.Random(1), mode="permutation")
        links = ["a", "b", "c"]
        picks = [arb.pick("d", links) for _ in range(3)]
        assert sorted(picks) == links  # each link exactly once per round

    def test_random_mode_covers_all_links(self):
        arb = SprayArbiter(random.Random(1), mode="random")
        links = ["a", "b", "c"]
        picks = {arb.pick("d", links) for _ in range(200)}
        assert picks == set(links)

    def test_static_mode_pins_destination_to_one_link(self):
        arb = SprayArbiter(random.Random(1), mode="static")
        links = ["a", "b", "c"]
        picks = {arb.pick("dst1", links) for _ in range(50)}
        assert len(picks) == 1

    def test_link_set_change_restarts_walk(self):
        arb = SprayArbiter(random.Random(1))
        arb.pick("d", ["a", "b"])
        pick = arb.pick("d", ["a", "c"])  # set changed
        assert pick in ("a", "c")

    def test_separate_destinations_independent(self):
        arb = SprayArbiter(random.Random(1))
        links = ["a", "b"]
        seq1 = [arb.pick("d1", links) for _ in range(2)]
        seq2 = [arb.pick("d2", links) for _ in range(2)]
        assert sorted(seq1) == sorted(seq2) == links

    def test_empty_links_raise(self):
        arb = SprayArbiter(random.Random(1))
        with pytest.raises(ValueError):
            arb.pick("d", [])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SprayArbiter(random.Random(1), mode="bogus")

    def test_reshuffle_changes_order_eventually(self):
        arb = SprayArbiter(random.Random(3), reshuffle_every=4)
        links = list("abcdefgh")
        rounds = []
        for _ in range(40):
            rounds.append(tuple(arb.pick("d", links) for _ in links))
        assert len(set(rounds)) > 1  # order was reshuffled at least once


def mk_cells(sizes, payload=240, first_seq=0, voq=VOQ):
    packets = [Packet(size_bytes=s, src=SRC, dst=voq.dst) for s in sizes]
    return packets, pack_burst(
        packets,
        payload_bytes=payload,
        header_bytes=16,
        dst_fa=voq.dst.fa,
        src_fa=SRC.fa,
        voq=voq,
        first_seq=first_seq,
    )


class TestReassembly:
    def make(self, timeout=1_000_000):
        sim = Simulator()
        delivered = []
        engine = ReassemblyEngine(
            sim, delivered.append, timeout
        )
        return sim, engine, delivered

    def test_in_order_single_packet(self):
        sim, engine, delivered = self.make()
        packets, cells = mk_cells([1000])
        for cell in cells:
            engine.receive(cell)
        assert delivered == packets
        assert engine.packets_completed == 1

    def test_packed_cells_deliver_all_packets(self):
        sim, engine, delivered = self.make()
        packets, cells = mk_cells([100, 100, 300, 50])
        for cell in cells:
            engine.receive(cell)
        assert delivered == packets

    def test_out_of_order_cells_resequenced(self):
        sim, engine, delivered = self.make()
        packets, cells = mk_cells([1000])
        # Deliver in scrambled order.
        for cell in [cells[2], cells[0], cells[4], cells[1], cells[3]]:
            engine.receive(cell)
        assert delivered == packets
        assert engine.cells_out_of_order > 0

    def test_interleaved_sources_use_separate_contexts(self):
        sim, engine, delivered = self.make()
        p1, c1 = mk_cells([500])
        packets2 = [Packet(size_bytes=500, src=PortAddress(2, 0), dst=DST)]
        c2 = pack_burst(
            packets2,
            payload_bytes=240,
            header_bytes=16,
            dst_fa=DST.fa,
            src_fa=2,
            voq=VOQ,
            first_seq=0,
        )
        # Interleave the two streams cell by cell.
        for a, b in zip(c1, c2):
            engine.receive(a)
            engine.receive(b)
        assert engine.open_contexts == 2
        assert set(p.pkt_id for p in delivered) == {
            p1[0].pkt_id,
            packets2[0].pkt_id,
        }

    def test_sequences_continue_across_bursts(self):
        sim, engine, delivered = self.make()
        p1, c1 = mk_cells([300], first_seq=0)
        p2, c2 = mk_cells([300], first_seq=len(c1))
        for cell in c1 + c2:
            engine.receive(cell)
        assert len(delivered) == 2

    def test_duplicate_cell_ignored(self):
        sim, engine, delivered = self.make()
        packets, cells = mk_cells([100])
        engine.receive(cells[0])
        engine.receive(cells[0])
        assert len(delivered) == 1

    def test_timeout_skips_gap_and_discards_partial(self):
        sim, engine, delivered = self.make(timeout=1000)
        packets, cells = mk_cells([1000])
        # Lose cells[1]; later cells are buffered.
        engine.receive(cells[0])
        for cell in cells[2:]:
            engine.receive(cell)
        assert delivered == []
        sim.run(until=10_000)
        # Timeout fired: the packet is discarded, engine unblocked.
        assert engine.timeouts >= 1
        assert engine.packets_discarded == 1
        assert delivered == []

    def test_stream_recovers_after_timeout(self):
        sim, engine, delivered = self.make(timeout=1000)
        p1, c1 = mk_cells([1000], first_seq=0)
        engine.receive(c1[0])  # lose c1[1:]... stream stalls
        sim.run(until=5_000)
        # Next burst arrives after the loss.
        p2, c2 = mk_cells([200], first_seq=len(c1))
        for cell in c2:
            engine.receive(cell)
        sim.run(until=20_000)
        assert p2[0] in delivered

    def test_max_pending_bounded_by_burst(self):
        sim, engine, delivered = self.make()
        packets, cells = mk_cells([2400])
        for cell in reversed(cells):
            engine.receive(cell)
        assert engine.max_pending() == 0  # drained once seq 0 arrived
        assert len(delivered) == 1
