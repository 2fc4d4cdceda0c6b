"""Unit tests for cells and packet packing."""

import pytest

from repro.core.cell import Cell, CellFragment, CellKind, VoqId
from repro.core.packing import cells_for_bytes, pack_burst
from repro.net.addressing import PortAddress
from repro.net.packet import Packet

DST = PortAddress(fa=7, port=2)
SRC = PortAddress(fa=0, port=0)
VOQ = VoqId(dst=DST)


def mk_packets(*sizes):
    return [Packet(size_bytes=s, src=SRC, dst=DST) for s in sizes]


def pack(packets, payload=240, packing=True, first_seq=0):
    return pack_burst(
        packets,
        payload_bytes=payload,
        header_bytes=16,
        dst_fa=DST.fa,
        src_fa=SRC.fa,
        voq=VOQ,
        first_seq=first_seq,
        packing=packing,
    )


class TestCell:
    def test_data_cell_sizes(self):
        pkt = mk_packets(100)[0]
        cell = Cell(
            kind=CellKind.DATA,
            dst_fa=1,
            src_fa=0,
            header_bytes=16,
            voq=VOQ,
            fragments=(CellFragment(pkt, 100, True),),
        )
        assert cell.payload_bytes == 100
        assert cell.size_bytes == 116

    def test_data_cell_requires_voq(self):
        with pytest.raises(ValueError):
            Cell(kind=CellKind.DATA, dst_fa=1, src_fa=0, header_bytes=16)

    def test_fragment_validation(self):
        pkt = mk_packets(50)[0]
        with pytest.raises(ValueError):
            CellFragment(pkt, 0, True)
        with pytest.raises(ValueError):
            CellFragment(pkt, 51, True)

    def test_voq_id_str_and_priority(self):
        v = VoqId(dst=DST, priority=2)
        assert "tc2" in str(v)
        with pytest.raises(ValueError):
            VoqId(dst=DST, priority=-1)


class TestPackedMode:
    def test_single_small_packet_fits_one_cell(self):
        cells = pack(mk_packets(100))
        assert len(cells) == 1
        assert cells[0].payload_bytes == 100
        assert cells[0].fragments[0].end_of_packet

    def test_large_packet_spans_cells(self):
        cells = pack(mk_packets(1000), payload=240)
        assert len(cells) == 5  # ceil(1000/240)
        assert [c.payload_bytes for c in cells] == [240, 240, 240, 240, 40]
        assert not cells[0].fragments[0].end_of_packet
        assert cells[-1].fragments[-1].end_of_packet

    def test_packing_merges_packets_into_one_cell(self):
        cells = pack(mk_packets(100, 100), payload=240)
        assert len(cells) == 1
        assert len(cells[0].fragments) == 2
        assert all(f.end_of_packet for f in cells[0].fragments)

    def test_packet_straddles_cell_boundary(self):
        # 200 + 200: second packet split 40/160 across cells.
        cells = pack(mk_packets(200, 200), payload=240)
        assert len(cells) == 2
        assert cells[0].payload_bytes == 240
        assert cells[1].payload_bytes == 160
        frags0 = cells[0].fragments
        assert frags0[0].nbytes == 200 and frags0[0].end_of_packet
        assert frags0[1].nbytes == 40 and not frags0[1].end_of_packet

    def test_only_last_cell_of_burst_is_short(self):
        cells = pack(mk_packets(300, 301, 299, 555), payload=240)
        for cell in cells[:-1]:
            assert cell.payload_bytes == 240
        assert cells[-1].payload_bytes <= 240

    def test_sequence_numbers_consecutive_from_first_seq(self):
        cells = pack(mk_packets(1000), first_seq=42)
        assert [c.seq for c in cells] == [42, 43, 44, 45, 46]

    def test_total_payload_conserved(self):
        sizes = [64, 1500, 257, 90, 4096]
        cells = pack(mk_packets(*sizes))
        assert sum(c.payload_bytes for c in cells) == sum(sizes)

    def test_empty_burst(self):
        assert pack([]) == []


class TestUnpackedMode:
    def test_each_packet_chopped_independently(self):
        cells = pack(mk_packets(100, 100), payload=240, packing=False)
        assert len(cells) == 2
        assert all(len(c.fragments) == 1 for c in cells)

    def test_one_byte_overflow_wastes_a_cell(self):
        # The paper's §3.4 waste argument: 241B into 240B cells = 2 cells.
        cells = pack(mk_packets(241), payload=240, packing=False)
        assert len(cells) == 2
        assert cells[1].payload_bytes == 1

    def test_unpacked_never_mixes_packets(self):
        cells = pack(mk_packets(100, 300, 50), payload=240, packing=False)
        for cell in cells:
            pkts = {f.packet.pkt_id for f in cell.fragments}
            assert len(pkts) == 1

    def test_unpacked_uses_at_least_as_many_cells(self):
        sizes = [64, 100, 241, 999, 1500]
        packed = pack(mk_packets(*sizes), packing=True)
        unpacked = pack(mk_packets(*sizes), packing=False)
        assert len(unpacked) >= len(packed)


class TestHelpers:
    def test_cells_for_bytes(self):
        assert cells_for_bytes(0, 240) == 0
        assert cells_for_bytes(1, 240) == 1
        assert cells_for_bytes(240, 240) == 1
        assert cells_for_bytes(241, 240) == 2

    def test_invalid_payload_raises(self):
        with pytest.raises(ValueError):
            cells_for_bytes(10, 0)
        with pytest.raises(ValueError):
            pack(mk_packets(10), payload=0)
