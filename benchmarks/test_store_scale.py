"""The record store's acceptance bar: 10k cells, verified and compact.

A 10k-cell synthetic sweep (``repro.store.synth``) goes through the
real put/flush/shard path, then every claim the store makes is checked
at that scale: full CRC verification of every record, prefix queries
returning the exact brute-force answer, legacy migration serving
bit-identical results, and the sharded blocks landing at least 4.5x
smaller on disk than the legacy one-JSON-file-per-cell layout.

The size bar is the one check the codec decision moved by design.  At
10k cells the zlib blocks the store writes measure 4.91x (275 B/cell)
where bz2-9 measured 5.84x (232 B/cell) against 1 351 B/cell legacy:
19 % more bytes bought a block that decompresses 6.5x and compresses
2.7x faster (README "The read path").  4.5x is the measured ratio
minus margin; the decode cost per block is printed beside it.
"""

import time

import pytest
from harness import print_series

from repro.store import RecordStore, migrate_legacy, verify_store
from repro.store.cells import spec_key_from_dict
from repro.store.format import read_block
from repro.store.query import store_records
from repro.store.synth import fill_store, synthetic_cells
from tests.conftest import write_legacy_cell

CELLS = 10_000


@pytest.mark.slow
def test_store_holds_10k_cells_verified_and_compact(tmp_path):
    record_root = tmp_path / "record"
    store = RecordStore(record_root)
    stored = fill_store(store, CELLS, seed=3)
    assert stored == CELLS

    # Every record CRC-verified at scale.
    stats = verify_store(record_root)
    assert stats["corrupt_blocks"] == 0
    assert stats["records"] == CELLS
    assert stats["distinct_keys"] == CELLS

    # Prefix query == brute force over the same synthetic grid.
    selector = "scenario=incast/fabric=push"
    got = {r["key"] for r in store_records(record_root, selector)}
    expect = set()
    for spec, _ in synthetic_cells(CELLS, seed=3):
        key = spec.content_hash()
        if spec_key_from_dict(spec.to_dict(), key).startswith(
            "scenario=incast/fabric=push/"
        ):
            expect.add(key)
    assert got == expect
    assert got  # a meaningful slice, not vacuous

    # Size: sharded compressed blocks vs one JSON file per cell.
    legacy_root = tmp_path / "legacy"
    sample = 500  # enough files to estimate per-cell cost fairly
    for spec, result in synthetic_cells(sample, seed=3):
        write_legacy_cell(legacy_root, spec, result)
    legacy_bytes_per_cell = (
        sum(p.stat().st_size for p in legacy_root.glob("*.json")) / sample
    )
    record_bytes_per_cell = stats["shard_bytes"] / CELLS
    ratio = legacy_bytes_per_cell / record_bytes_per_cell

    # What the bytes were traded for: CRC check + decompression +
    # record framing of one block (reported, not asserted: wall time).
    buffers = [
        buf for shard in store.open_shards() for buf in shard.read_blocks()
    ]
    started = time.perf_counter()
    for buf in buffers:
        read_block(buf, 0)
    decode_ms = (time.perf_counter() - started) * 1e3 / len(buffers)

    print_series(
        f"result store at {CELLS} cells",
        [
            ("legacy", f"{legacy_bytes_per_cell:.0f} B/cell"),
            ("record", f"{record_bytes_per_cell:.0f} B/cell",
             f"{ratio:.2f}x smaller", f"decode {decode_ms:.2f} ms/block",
             str(stats["codec_blocks"])),
            ("blocks", str(stats["blocks"]),
             f"{stats['shard_bytes'] / 1024:.0f} KiB total"),
        ],
    )
    assert ratio >= 4.5

    # Migration: the legacy sample imports bit-identically.
    migrated_root = tmp_path / "migrated"
    report = migrate_legacy(legacy_root, migrated_root)
    assert report.cells == sample
    migrated = RecordStore(migrated_root)
    for spec, result in synthetic_cells(sample, seed=3):
        assert migrated.get(spec).to_dict() == result.to_dict()
