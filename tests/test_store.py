"""repro.store: binary framing, shard recovery, queries, migration —
plus the result-cache correctness regressions the record format fixes."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    RunResult,
    ScenarioSpec,
    TopologySpec,
    build_scenario,
    run_matrix,
    run_spec,
)
from repro.store import (
    FORMAT_VERSION,
    SCHEMA_VERSION,
    RecordStore,
    Shard,
    StoreFormatError,
    is_record_store,
    migrate_legacy,
    prefix_from_selector,
    scan_store,
    store_records,
    store_results,
    open_record_store,
    verify_store,
)
from repro.store.__main__ import main as store_cli
from repro.store.cells import record_key
from repro.store.format import (
    BlockCorruptError,
    CODEC_BZ2,
    CODEC_RAW,
    CODEC_ZLIB,
    TruncatedBlockError,
    block_codec,
    encode_block,
    encode_shard_header,
    read_block,
    read_shard_header,
)
from repro.store.synth import fill_store, synthetic_cells
from repro.sim.units import MICROSECOND
from tests.conftest import write_legacy_cell

#: Same tiny topology the experiments tests use, so runner-integration
#: tests stay fast.
TINY = TopologySpec(
    "one_tier", dict(num_fas=3, uplinks_per_fa=2, hosts_per_fa=1)
)


def tiny_permutation(kind: str = "stardust", seed: int = 3, **updates):
    spec = build_scenario(
        "permutation",
        kind=kind,
        seed=seed,
        topology=TINY,
        warmup_ns=100 * MICROSECOND,
        measure_ns=400 * MICROSECOND,
    )
    return spec.with_updates(**updates) if updates else spec


# ----------------------------------------------------------------------
# Binary framing
# ----------------------------------------------------------------------


class TestFormat:
    PAYLOADS = [b'{"key":"a"}', b'{"key":"b"}' * 40, b"x"]

    @pytest.mark.parametrize("codec", [CODEC_RAW, CODEC_ZLIB, CODEC_BZ2])
    def test_block_round_trip(self, codec):
        block = encode_block(self.PAYLOADS, codec)
        payloads, end = read_block(block, 0)
        assert payloads == self.PAYLOADS
        assert end == len(block)

    def test_flipped_byte_fails_block_crc(self):
        block = bytearray(encode_block(self.PAYLOADS, CODEC_ZLIB))
        block[len(block) // 2] ^= 0xFF
        with pytest.raises(BlockCorruptError):
            read_block(bytes(block), 0)

    def test_truncated_block_is_distinguished(self):
        block = encode_block(self.PAYLOADS, CODEC_ZLIB)
        with pytest.raises(TruncatedBlockError):
            read_block(block[:-3], 0)
        # ... and a corrupt magic is NOT a truncation:
        garbled = b"XXXX" + block[4:]
        with pytest.raises(BlockCorruptError) as excinfo:
            read_block(garbled, 0)
        assert not isinstance(excinfo.value, TruncatedBlockError)

    def test_shard_header_round_trip(self):
        meta = {"shard": 3, "num_shards": 8}
        header = encode_shard_header(meta)
        parsed, first_block = read_shard_header(header + b"tail")
        assert parsed == meta
        assert first_block == len(header)

    def test_newer_format_version_is_refused(self):
        header = bytearray(encode_shard_header({}))
        struct.pack_into("<H", header, 8, FORMAT_VERSION + 1)
        with pytest.raises(StoreFormatError, match="newer"):
            read_shard_header(bytes(header))


# ----------------------------------------------------------------------
# Shard files: recovery paths
# ----------------------------------------------------------------------


def _records(tag: str, n: int):
    return [
        (
            f"{tag}{i:03d}",
            f"scenario={tag}/{i:03d}",
            json.dumps({"key": f"{tag}{i:03d}", "spec_key": f"scenario={tag}/{i:03d}"}).encode(),
        )
        for i in range(n)
    ]


class TestShardRecovery:
    def test_append_get_round_trip(self, tmp_path):
        shard = Shard(tmp_path / "s.rsd", {"shard": 0})
        records = _records("a", 5)
        shard.append(records)
        for key, _, payload in records:
            assert shard.get(key) == payload
        assert shard.get("missing") is None
        assert len(shard) == 5

    def test_corrupt_block_is_skipped_and_scan_continues(self, tmp_path):
        path = tmp_path / "s.rsd"
        shard = Shard(path, {"shard": 0})
        first = _records("a", 4)
        second = _records("b", 4)
        span = shard.append(first)
        shard.append(second)
        data = bytearray(path.read_bytes())
        data[(span[0] + span[1]) // 2] ^= 0xFF  # inside block 1
        path.write_bytes(data)

        reopened = Shard(path, {"shard": 0})
        scanned = {key for key, _, _ in reopened.scan()}
        assert scanned == {key for key, _, _ in second}
        assert reopened.corrupt_blocks >= 1
        # Index entries into the bad block fail their CRC on read and
        # are reported missing, never served corrupted.
        assert reopened.get("b001") is not None

    def test_torn_tail_is_truncated_on_next_append(self, tmp_path):
        path = tmp_path / "s.rsd"
        shard = Shard(path, {"shard": 0})
        shard.append(_records("a", 4))
        shard.append(_records("b", 4))
        os.truncate(path, path.stat().st_size - 5)  # kill mid-append

        reopened = Shard(path, {"shard": 0})
        assert {k for k, _, _ in reopened.scan()} == {
            k for k, _, _ in _records("a", 4)
        }
        reopened.append(_records("c", 2))
        final = Shard(path, {"shard": 0})
        keys = {k for k, _, _ in final.scan()}
        assert keys == {"a000", "a001", "a002", "a003", "c000", "c001"}
        assert final.corrupt_blocks == 0

    def test_index_sidecar_self_heals(self, tmp_path):
        path = tmp_path / "s.rsd"
        shard = Shard(path, {"shard": 0})
        records = _records("a", 6)
        shard.append(records[:3])
        shard.append(records[3:])
        sidecar = path.with_suffix(".rsx")
        lines = sidecar.read_text().splitlines()
        sidecar.write_text(lines[0] + "\n{not json\n")

        reopened = Shard(path, {"shard": 0})
        for key, _, payload in records:
            assert reopened.get(key) == payload
        # The sidecar was rebuilt from the shard bytes, not trusted.
        healed = Shard(path, {"shard": 0})
        assert len(healed) == 6

    def test_missing_sidecar_is_rebuilt(self, tmp_path):
        path = tmp_path / "s.rsd"
        shard = Shard(path, {"shard": 0})
        shard.append(_records("a", 3))
        path.with_suffix(".rsx").unlink()
        reopened = Shard(path, {"shard": 0})
        assert len(reopened) == 3

    def test_corrupt_block_in_unindexed_tail_is_resynced(self, tmp_path):
        # The tail scan works on the bytes past the sidecar's coverage
        # only; its resync must land on the right *file* offsets.
        path = tmp_path / "s.rsd"
        shard = Shard(path, {"shard": 0})
        shard.append(_records("a", 3))
        sidecar = path.with_suffix(".rsx")
        covered = sidecar.read_text()
        span = shard.append(_records("b", 4))
        last = _records("c", 4)
        shard.append(last)
        sidecar.write_text(covered)  # blocks b and c lose their lines
        data = bytearray(path.read_bytes())
        data[(span[0] + span[1]) // 2] ^= 0xFF  # inside block b
        path.write_bytes(data)

        reopened = Shard(path, {"shard": 0})
        assert reopened.corrupt_blocks >= 1
        assert reopened.get("b001") is None
        for key, _, payload in _records("a", 3) + last:
            assert reopened.get(key) == payload
        assert reopened.blocks()[-1] == shard.blocks()[-1]

    def test_open_reads_the_header_not_the_shard(self, tmp_path, monkeypatch):
        path = tmp_path / "s.rsd"
        records = _records("a", 5)
        Shard(path, {"shard": 0}).append(records)

        def whole_file_read(self):
            raise AssertionError(f"read_bytes({self.name}) on open")

        monkeypatch.setattr(Path, "read_bytes", whole_file_read)
        reopened = Shard(path, {"shard": 0})
        assert reopened.header_meta == {"shard": 0}
        assert reopened.get("a003") == records[3][2]

    def test_bad_block_counts_once_per_handle(self, tmp_path):
        path = tmp_path / "s.rsd"
        shard = Shard(path, {"shard": 0})
        span = shard.append(_records("a", 4))
        shard.append(_records("b", 4))
        data = bytearray(path.read_bytes())
        data[(span[0] + span[1]) // 2] ^= 0xFF
        path.write_bytes(data)

        reopened = Shard(path, {"shard": 0})
        assert reopened.get("a000") is None
        assert reopened.get("a002") is None
        assert reopened.get_many(["a001", "a003", "b000"]).keys() == {"b000"}
        assert reopened.corrupt_blocks == 1


# ----------------------------------------------------------------------
# RecordStore
# ----------------------------------------------------------------------


class TestRecordStore:
    def test_round_trip_and_buffered_reads(self, tmp_path):
        store = RecordStore(tmp_path, flush_records=1000)
        cells = list(synthetic_cells(10))
        for spec, result in cells:
            store.put(spec, result)
        # Un-flushed records must still be visible to get()...
        assert store.get(cells[0][0]).to_dict() == cells[0][1].to_dict()
        store.flush()
        # ... and to a brand-new handle after flush.
        fresh = RecordStore(tmp_path)
        for spec, result in cells:
            assert fresh.get(spec).to_dict() == result.to_dict()
        assert len(fresh) == 10

    def test_prefix_query_matches_brute_force(self, tmp_path):
        store = RecordStore(tmp_path)
        cells = list(synthetic_cells(45))
        fill_store(store, 45)
        for selector in (
            "scenario=incast",
            "scenario=incast/fabric=push",
            "scenario=mixed/fabric=push/transport=dctcp",
            "fabric=push",  # no match: selectors are prefixes
            "",
        ):
            got = {r["key"] for r in store.iter_records(selector)}
            prefix = prefix_from_selector(selector)
            expect = {
                spec.content_hash()
                for spec, _ in cells
                if f"scenario={spec.scenario}/fabric={spec.fabric}"
                f"/transport={spec.transport}/seed={spec.seed:08d}"
                f"/{spec.content_hash()}".startswith(prefix)
            }
            assert got == expect, selector

    def test_uninstrumented_put_replaces_instrumented_record(self, tmp_path):
        # The record-store version of the stale-sidecar rule: telemetry
        # presence is part of the stored value.
        store = RecordStore(tmp_path, flush_records=1)
        spec, result = next(synthetic_cells(1))
        result.telemetry = {"schema": 1, "series": [], "spans": []}
        store.put(spec, result)
        assert store.get(spec).telemetry is not None

        result.telemetry = None
        store.put(spec, result)
        assert store.get(spec).telemetry is None

    def test_tmp_orphans_swept_on_open(self, tmp_path):
        (tmp_path / "dead.tmp").write_text("leftover")
        RecordStore(tmp_path)
        assert not (tmp_path / "dead.tmp").exists()

    def test_clear_removes_shards_keeps_meta(self, tmp_path):
        store = RecordStore(tmp_path)
        fill_store(store, 12)
        assert store.clear() == 12
        assert len(RecordStore(tmp_path)) == 0
        assert is_record_store(tmp_path)

    def test_newer_store_format_is_refused(self, tmp_path):
        RecordStore(tmp_path)
        meta_path = tmp_path / "store.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = FORMAT_VERSION + 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreFormatError):
            RecordStore(tmp_path)

    def test_unknown_codec_is_refused(self, tmp_path):
        # Used to fall back to zlib silently and stamp the bogus name
        # into store.meta.json.
        root = tmp_path / "s"
        with pytest.raises(ValueError, match="bz2"):
            RecordStore(root, codec="lzma")
        assert not root.exists()


class TestOpenStore:
    """A fresh directory becomes a record store; reads find one or fail
    loudly; a directory of legacy one-JSON-per-cell results is refused,
    never written over, and stays readable by ``migrate``."""

    @staticmethod
    def _listing(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    def test_fresh_directory_gets_record_format(self, tmp_path):
        root = tmp_path / "new"
        RecordStore(root)
        assert is_record_store(root)
        assert isinstance(open_record_store(root), RecordStore)

    def test_legacy_cells_keep_legacy_format(self, tmp_path):
        cells = list(synthetic_cells(3))
        for spec, result in cells:
            write_legacy_cell(tmp_path, spec, result)
        (tmp_path / "dead.tmp").write_text("killed writer")
        before = self._listing(tmp_path)
        with pytest.raises(StoreFormatError, match="repro.experiments migrate"):
            RecordStore(tmp_path)
        assert self._listing(tmp_path) == before
        dst = tmp_path.parent / f"{tmp_path.name}-migrated"
        assert migrate_legacy(tmp_path, dst).cells == 3
        migrated = RecordStore(dst)
        for spec, result in cells:
            assert migrated.get(spec) == result

    @pytest.mark.parametrize(
        "read",
        [
            verify_store,
            store_records,
            store_results,
            lambda root: store_records(root, verify=True),
            scan_store,
        ],
        ids=["verify", "records", "results", "records_verified", "scan"],
    )
    def test_reads_of_a_missing_store_raise_and_create_nothing(
        self, tmp_path, read
    ):
        missing = tmp_path / "no" / "such"
        with pytest.raises(StoreFormatError, match=re.escape(str(missing))):
            read(missing)
        assert not (tmp_path / "no").exists()

    def test_reads_of_a_plain_directory_write_no_meta(self, tmp_path):
        with pytest.raises(StoreFormatError, match="holds no record store"):
            store_results(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_reads_of_a_legacy_directory_name_migrate(self, tmp_path):
        spec, result = next(synthetic_cells(1))
        write_legacy_cell(tmp_path, spec, result)
        with pytest.raises(StoreFormatError, match="migrate"):
            store_results(tmp_path)
        assert not (tmp_path / "store.meta.json").exists()


# ----------------------------------------------------------------------
# The read path: one decode per block, one parse per record returned
# ----------------------------------------------------------------------


class ReadCounts:
    """Block decompressions and record-payload JSON parses, counted."""

    def __init__(self) -> None:
        self.decompress = 0
        self.payload_parses = 0

    def reset(self) -> None:
        self.decompress = self.payload_parses = 0


@pytest.fixture
def read_counts(monkeypatch):
    import repro.store.format as store_format

    counts = ReadCounts()
    real_decompress, real_loads = store_format.decompress, json.loads

    def decompress(payload, codec):
        counts.decompress += 1
        return real_decompress(payload, codec)

    def loads(data, *args, **kwargs):
        # Record payloads are the only bytes starting with the "key"
        # field (sidecar lines are str, shard headers carry no "key").
        if isinstance(data, bytes) and data.startswith(b'{"key":'):
            counts.payload_parses += 1
        return real_loads(data, *args, **kwargs)

    monkeypatch.setattr(store_format, "decompress", decompress)
    monkeypatch.setattr(json, "loads", loads)
    return counts


class TestReadPathCost:
    """Deterministic pin of the read-path gain: counts, not timings.
    Every hit costs one payload parse — the one that checks the picked
    record's key is the record handed back — and verifying costs none."""

    def test_keys_of_one_block_decode_it_once(self, tmp_path, read_counts):
        cells = list(synthetic_cells(40))
        with RecordStore(tmp_path, num_shards=1) as store:
            for spec, result in cells:
                store.put(spec, result)
        fresh = RecordStore(tmp_path)
        assert len(fresh.open_shards()[0].blocks()) == 1
        read_counts.reset()
        wanted = cells[3::4]
        for spec, result in wanted:
            assert fresh.get(spec).to_dict() == result.to_dict()
        assert read_counts.decompress == 1
        assert read_counts.payload_parses == len(wanted)

    def test_oversized_block_is_served_but_not_retained(
        self, tmp_path, read_counts, monkeypatch
    ):
        import repro.store.shard as store_shard

        cells = list(synthetic_cells(6))
        with RecordStore(tmp_path, num_shards=1) as store:
            for spec, result in cells:
                store.put(spec, result)
        monkeypatch.setattr(store_shard, "MEMO_MAX_BYTES", 100)
        fresh = RecordStore(tmp_path)
        read_counts.reset()
        for spec, result in cells:
            assert fresh.get(spec).to_dict() == result.to_dict()
        assert read_counts.decompress == len(cells)
        assert fresh.open_shards()[0]._memo is None

    def test_put_order_resume_decodes_each_touched_block_once(
        self, tmp_path, read_counts
    ):
        cells = list(synthetic_cells(200))
        with RecordStore(tmp_path, num_shards=2, flush_records=16) as store:
            for spec, result in cells:
                store.put(spec, result)
        probed = [spec for spec, _ in cells[:150]]
        scout = RecordStore(tmp_path)
        touched = set()
        for spec in probed:
            key = spec.content_hash()
            shard_id = scout.shard_id(key)
            offset, _, _ = scout.open_shards()[shard_id].index.get(key)
            touched.add((shard_id, offset))
        all_blocks = sum(len(s.blocks()) for s in scout.open_shards())
        assert 4 < len(touched) < all_blocks

        fresh = RecordStore(tmp_path)
        read_counts.reset()
        results = run_matrix(probed, shards=1, store=fresh)
        assert fresh.hits == len(probed) and fresh.misses == 0
        assert [r.to_dict() for r in results] == [
            result.to_dict() for _, result in cells[:150]
        ]
        assert read_counts.decompress == len(touched)
        assert read_counts.payload_parses == len(probed)

    def test_prefix_query_parses_only_matching_records(
        self, tmp_path, read_counts
    ):
        fill_store(RecordStore(tmp_path, flush_records=16), 300)
        store = RecordStore(tmp_path)
        selector = "scenario=incast/fabric=push"
        pairs = store.keys(selector)
        shards = store.open_shards()
        touched = {
            (store.shard_id(key), shards[store.shard_id(key)].index.get(key)[0])
            for _, key in pairs
        }
        read_counts.reset()
        records = list(store.iter_records(selector))
        assert len(records) == len(pairs) == 40
        assert read_counts.decompress == len(touched)
        assert read_counts.payload_parses == len(records)

    def test_verify_parses_no_record(self, tmp_path, read_counts):
        fill_store(RecordStore(tmp_path, flush_records=16), 300)
        read_counts.reset()
        report = verify_store(tmp_path)
        assert report["records"] == report["distinct_keys"] == 300
        assert report["corrupt_blocks"] == 0
        assert read_counts.payload_parses == 0
        assert read_counts.decompress == report["blocks"] > 8

    def test_scan_parses_the_latest_record_of_each_key_once(
        self, tmp_path, read_counts
    ):
        cells = list(synthetic_cells(120))
        with RecordStore(tmp_path, flush_records=16) as store:
            for spec, result in cells:
                store.put(spec, result)
            for spec, result in cells[::3]:  # superseded by these re-puts
                store.put(spec, dataclasses.replace(result, drops=10**6))
        selector = "scenario=incast"
        read_counts.reset()
        report = scan_store(tmp_path, selector)
        assert report.total_records == 160
        assert read_counts.decompress == report.blocks
        assert read_counts.payload_parses == 0  # nobody has asked yet
        records = report.records
        assert read_counts.payload_parses == 120  # distinct keys
        assert report.records is records  # ... and only the first time
        assert read_counts.payload_parses == 120
        reput = {spec.content_hash() for spec, _ in cells[::3]}
        assert records and all(
            (r["result"]["drops"] == 10**6) == (r["key"] in reput)
            for r in records
        )
        assert records == store_records(tmp_path, selector)
        assert records == store_records(tmp_path, selector, processes=2)


# ----------------------------------------------------------------------
# A record's key, read off its payload's first member
# ----------------------------------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_json_dicts = st.dictionaries(st.text(max_size=4), _json_values, max_size=3)


@pytest.fixture
def all_parses(monkeypatch):
    """Every ``json.loads`` call, whatever it is handed."""
    calls = []
    real_loads = json.loads

    def loads(data, *args, **kwargs):
        calls.append(data)
        return real_loads(data, *args, **kwargs)

    monkeypatch.setattr(json, "loads", loads)
    return calls


class TestRecordKey:
    @settings(max_examples=100, deadline=None)
    @given(
        key=st.text(max_size=12),
        spec_key=st.text(max_size=12),
        spec=_json_dicts,
        result=_json_dicts,
    )
    def test_prefix_read_agrees_with_a_parse_on_every_written_payload(
        self, key, spec_key, spec, result
    ):
        """Unicode, quotes, backslashes, nested containers: whatever
        ``put_record`` can emit, the key read off the payload's first
        bytes is the key a full parse finds."""
        root = Path(tempfile.mkdtemp(prefix="repro-store-key-"))
        try:
            with RecordStore(root, num_shards=1, codec="raw") as store:
                store.put_record(key, spec, result, spec_key)
            payload = store.open_shards()[0].get(key)
        finally:
            shutil.rmtree(root)
        assert record_key(payload) == json.loads(payload)["key"] == key

    def test_canonical_payload_is_not_parsed(self, all_parses):
        payload = b'{"key":"0a1b2c","result":{"key":"decoy"},"spec":{}}'
        assert record_key(payload) == "0a1b2c"
        assert all_parses == []

    @pytest.mark.parametrize(
        "payload",
        [
            # another writer's member order
            b'{"spec_key":"scenario=x/k","key":"k1","spec":{},"result":{}}',
            # whitespace after the colon, or after the key
            b'{"key": "k1","spec_key":"scenario=x/k"}',
            b'{"key":"k1" ,"spec_key":"scenario=x/k"}',
            b' {"key":"k1","spec_key":"scenario=x/k"}',
            # an escaped key: quote, backslash, \u escape, raw UTF-8
            json.dumps({"key": 'k"1'}, separators=(",", ":")).encode(),
            json.dumps({"key": "k\\1"}, separators=(",", ":")).encode(),
            json.dumps({"key": "k\u00e9"}, separators=(",", ":")).encode(),
            json.dumps(
                {"key": "k\u00e9"}, separators=(",", ":"), ensure_ascii=False
            ).encode(),
            # the key is the only member
            b'{"key":"k1"}',
        ],
    )
    def test_anything_else_takes_the_parse_path(self, payload, all_parses):
        want = json.loads(payload)["key"]
        del all_parses[:]
        assert record_key(payload) == want
        assert all_parses == [payload]


# ----------------------------------------------------------------------
# Oracles: a dict model, and sidecars that lie
# ----------------------------------------------------------------------

_MODEL_CELLS = list(synthetic_cells(10, seed=5))

_model_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(0, len(_MODEL_CELLS) - 1),
            st.integers(0, 3),
        ),
        st.tuples(st.just("get"), st.integers(0, len(_MODEL_CELLS) - 1)),
        st.tuples(st.just("has"), st.integers(0, len(_MODEL_CELLS) - 1)),
        st.tuples(st.sampled_from(["flush", "iter"])),
        # Reopen, writing with another codec from here on: a shard may
        # hold blocks of all three, each read by its own header.
        st.tuples(st.just("reopen"), st.sampled_from(["raw", "zlib", "bz2"])),
    ),
    max_size=40,
)


class TestStoreModel:
    @settings(max_examples=60, deadline=None)
    @given(ops=_model_ops)
    def test_record_store_behaves_like_a_dict(self, ops):
        """Random put / re-put / flush / reopen / read programs: blocks
        of 3 records over 2 shards, so re-puts land in the same pending
        block, in the same flushed block and in later blocks — of the
        same codec or another."""
        root = Path(tempfile.mkdtemp(prefix="repro-store-model-"))
        try:
            store = RecordStore(root, num_shards=2, flush_records=3)
            model = {}
            for op in ops:
                if op[0] == "put":
                    spec, base = _MODEL_CELLS[op[1]]
                    result = dataclasses.replace(base, drops=op[2])
                    store.put(spec, result)
                    model[spec.content_hash()] = result.to_dict()
                elif op[0] == "get":
                    spec, _ = _MODEL_CELLS[op[1]]
                    got = store.get(spec)
                    want = model.get(spec.content_hash())
                    assert (got and got.to_dict()) == want
                elif op[0] == "has":
                    spec, _ = _MODEL_CELLS[op[1]]
                    assert store.has(spec) == (spec.content_hash() in model)
                elif op[0] == "flush":
                    store.flush()
                elif op[0] == "reopen":
                    store.flush()
                    store = RecordStore(
                        root, codec=op[1], flush_records=3
                    )
                else:
                    records = list(store.iter_records())
                    assert {r["key"]: r["result"] for r in records} == model
                    assert len(records) == len(model)
                    spec_keys = [r["spec_key"] for r in records]
                    assert spec_keys == sorted(spec_keys)
            assert len(store) == len(model)
            assert store.corrupt_blocks == 0
        finally:
            shutil.rmtree(root)


def _plain_store(root, tag, n=12):
    """One raw-codec shard of fixed-shape records: two stores built
    with different tags get byte-for-byte the same block spans."""
    store = RecordStore(root, num_shards=1, codec="raw", flush_records=4)
    for i in range(n):
        store.put_record(
            f"{tag}{i:03d}", {"seed": i}, {"drops": i}, f"scenario={tag}/{i:03d}"
        )
    store.flush()
    return store


class TestStaleSidecar:
    """The sidecar is a cache.  Whatever it claims, a get returns the
    record of the key asked for, or None — never a neighbour's."""

    def test_permuted_pairs_still_find_the_right_record(self, tmp_path):
        _plain_store(tmp_path, "a")
        sidecar = next(tmp_path.glob("*.rsx"))
        lines = [json.loads(x) for x in sidecar.read_text().splitlines()]
        assert len(lines) == 3
        sidecar.write_text(
            "".join(
                json.dumps([offset, end, pairs[::-1]]) + "\n"
                for offset, end, pairs in lines
            )
        )
        store = RecordStore(tmp_path)
        for i in range(12):
            record = store.get_record(f"a{i:03d}")
            assert record["key"] == f"a{i:03d}"
            assert record["result"] == {"drops": i}
        records = list(store.iter_records())
        assert [r["key"] for r in records] == [f"a{i:03d}" for i in range(12)]
        assert [r["result"]["drops"] for r in records] == list(range(12))

    def test_foreign_sidecar_never_serves_another_keys_record(self, tmp_path):
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        _plain_store(ours, "a")
        _plain_store(theirs, "b")
        our_sidecar = next(ours.glob("*.rsx"))
        their_sidecar = next(theirs.glob("*.rsx"))

        def spans(sidecar):
            return [json.loads(x)[:2] for x in sidecar.read_text().splitlines()]

        assert spans(our_sidecar) == spans(their_sidecar)
        shutil.copy(their_sidecar, our_sidecar)

        store = RecordStore(ours)
        for i in range(12):
            # The sidecar says b<i> lives where a<i> does.
            assert store.get_record(f"b{i:03d}") is None
            assert store.get_record(f"a{i:03d}") is None
        assert list(store.iter_records()) == []
        # The shard bytes are untouched: dropping the bad cache heals.
        our_sidecar.unlink()
        healed = RecordStore(ours)
        assert healed.get_record("a007")["result"] == {"drops": 7}


# ----------------------------------------------------------------------
# One store, several codecs: what every existing (bz2) store relies on
# ----------------------------------------------------------------------


def _answers(root, specs):
    """Everything a reader can ask of a store, in comparable form."""
    store = RecordStore(root)
    report = verify_store(root)
    # Sizes and codec counts are what *should* differ between twins.
    for name in ("shard_bytes", "codec_blocks"):
        del report[name]
    return {
        "get": [
            (got := store.get(spec)) and got.to_dict() for spec in specs
        ],
        "iter": list(store.iter_records()),
        "prefix": list(store.iter_records("scenario=incast/fabric=push")),
        "scan": scan_store(root, "scenario=mixed").records,
        "verify": report,
    }


class TestCodecCompatibility:
    CELLS = list(synthetic_cells(90, seed=11))
    #: Re-puts of old keys: they supersede records in earlier blocks.
    REPUTS = [
        (spec, dataclasses.replace(result, drops=777))
        for spec, result in CELLS[5:60:4]
    ]
    ABSENT = [spec for spec, _ in synthetic_cells(3, seed=500)]

    def _write(self, root, first_codec, second_codec):
        """60 cells, a reopen, then 30 more and the re-puts — the same
        puts and flushes whatever the two codecs are."""
        kwargs = dict(num_shards=2, flush_records=8)
        with RecordStore(root, codec=first_codec, **kwargs) as store:
            for spec, result in self.CELLS[:60]:
                store.put(spec, result)
        with RecordStore(root, codec=second_codec, **kwargs) as store:
            for spec, result in self.CELLS[60:] + self.REPUTS:
                store.put(spec, result)

    def test_default_codec_is_zlib_and_versions_did_not_move(self, tmp_path):
        fill_store(RecordStore(tmp_path), 10)
        assert verify_store(tmp_path)["codec_blocks"].keys() == {"zlib"}
        assert (FORMAT_VERSION, SCHEMA_VERSION) == (1, 1)

    @pytest.mark.parametrize(
        "first,second", [("bz2", "bz2"), ("bz2", "zlib"), ("raw", "bz2")]
    )
    def test_any_codec_history_answers_like_its_single_codec_twin(
        self, tmp_path, first, second
    ):
        old, twin = tmp_path / "old", tmp_path / "twin"
        self._write(old, first, second)
        self._write(twin, "zlib", "zlib")
        counts = verify_store(old)["codec_blocks"]
        assert counts.keys() == {first, second}
        assert sum(counts.values()) == verify_store(twin)["blocks"]
        if first != second:
            # Both codecs inside one shard file, not just one store.
            shard = RecordStore(old).open_shards()[0]
            heads = shard.read_blocks(head_only=True)
            assert set(map(block_codec, heads)) == {first, second}
        specs = [spec for spec, _ in self.CELLS] + self.ABSENT
        got, want = _answers(old, specs), _answers(twin, specs)
        assert got == want
        assert want["verify"]["distinct_keys"] == 90
        assert want["verify"]["records"] == 90 + len(self.REPUTS)
        assert want["get"].count(None) == len(self.ABSENT)
        assert sum(r["result"]["drops"] == 777 for r in want["iter"]) == len(
            self.REPUTS
        )

    def test_resume_from_a_bz2_store_then_append(self, tmp_path):
        """What a sweep does to an existing store: serve the old cells,
        run and append the new ones — in the default codec."""
        specs = [tiny_permutation(seed=s) for s in (3, 4, 5)]
        first = run_matrix(specs[:2], store=RecordStore(tmp_path, codec="bz2"))
        resumed = RecordStore(tmp_path)
        results = run_matrix(specs, store=resumed)
        assert (resumed.hits, resumed.misses) == (2, 1)
        assert results[:2] == first
        assert verify_store(tmp_path)["codec_blocks"] == {"bz2": 2, "zlib": 1}
        again = RecordStore(tmp_path)
        assert run_matrix(specs, store=again) == results
        assert again.misses == 0

    def test_migrating_into_a_bz2_store(self, tmp_path):
        src = tmp_path / "legacy"
        for spec, result in self.CELLS[:20]:
            write_legacy_cell(src, spec, result)
        old, twin = tmp_path / "old", tmp_path / "twin"
        fill_store(RecordStore(old, codec="bz2"), 30, seed=5)
        fill_store(RecordStore(twin), 30, seed=5)
        assert migrate_legacy(src, old).cells == 20
        assert migrate_legacy(src, twin).cells == 20
        assert set(verify_store(old)["codec_blocks"]) == {"bz2", "zlib"}
        specs = [spec for spec, _ in self.CELLS[:20]]
        assert _answers(old, specs) == _answers(twin, specs)


class TestStoreCli:
    def _mixed(self, root):
        fill_store(RecordStore(root, num_shards=2, codec="bz2"), 40)
        fill_store(RecordStore(root), 40, seed=2)

    def test_info_counts_blocks_per_codec_without_decompressing(
        self, tmp_path, capsys, read_counts
    ):
        self._mixed(tmp_path)
        read_counts.reset()
        assert store_cli(["info", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert read_counts.decompress == 0
        # store.meta.json still says what the store was created with...
        assert '"codec": "bz2"' in out
        # ... and the block headers say what it holds.
        assert "blocks per codec: bz2 2, zlib 2" in out
        assert "2 blocks (bz2 1, zlib 1)" in out

    def test_verify_reports_blocks_per_codec(self, tmp_path, capsys):
        self._mixed(tmp_path)
        assert store_cli(["verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "codec_blocks:    bz2 2, zlib 2" in out
        assert "ok: every record CRC-verified" in out

    @pytest.mark.parametrize("command", ["verify", "info"])
    def test_missing_store_is_one_error_line(self, tmp_path, capsys, command):
        missing = tmp_path / "does-not-exist"
        assert store_cli([command, str(missing)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {missing} holds no record store"]
        assert list(tmp_path.iterdir()) == []

    def test_synth_writes_the_one_codec(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            store_cli(["synth", "--store", str(tmp_path), "--codec", "bz2"])
        capsys.readouterr()
        assert store_cli(
            ["synth", "--cells", "30", "--store", str(tmp_path)]
        ) == 0
        assert verify_store(tmp_path)["codec_blocks"].keys() == {"zlib"}


# ----------------------------------------------------------------------
# Queries & verification
# ----------------------------------------------------------------------


class TestQuery:
    def test_scan_matches_indexed_reads(self, tmp_path):
        fill_store(RecordStore(tmp_path), 30)
        indexed = store_records(tmp_path, "scenario=uniform_random")
        scanned = scan_store(tmp_path, "scenario=uniform_random").records
        assert indexed == scanned
        parallel = store_records(
            tmp_path, "scenario=uniform_random", processes=3
        )
        assert parallel == indexed

    def test_verify_counts_corruption(self, tmp_path):
        fill_store(RecordStore(tmp_path), 40)
        clean = verify_store(tmp_path)
        assert clean["corrupt_blocks"] == 0
        assert clean["records"] == 40

        shard = max(
            tmp_path.glob("*.rsd"), key=lambda p: p.stat().st_size
        )
        data = bytearray(shard.read_bytes())
        data[len(data) // 2] ^= 0xFF
        shard.write_bytes(data)
        dirty = verify_store(tmp_path)
        assert dirty["corrupt_blocks"] >= 1
        assert 0 < dirty["records"] < 40


    def test_store_results_speaks_both_formats(self, tmp_path):
        """Legacy cells are read through the importer: once migrated, a
        selector answers exactly as over a store the same cells were
        put into directly."""
        legacy_root = tmp_path / "legacy"
        migrated_root = tmp_path / "migrated"
        record_root = tmp_path / "record"
        record = RecordStore(record_root)
        for spec, result in synthetic_cells(15):
            write_legacy_cell(legacy_root, spec, result)
            record.put(spec, result)
        record.flush()
        migrate_legacy(legacy_root, migrated_root)
        a = [r.to_dict() for r in store_results(migrated_root, "scenario=incast")]
        b = [r.to_dict() for r in store_results(record_root, "scenario=incast")]
        assert a == b
        assert a  # the selector actually matched something


class TestMigration:
    def test_round_trip_is_bit_identical(self, tmp_path):
        src, dst = tmp_path / "legacy", tmp_path / "record"
        cells = list(synthetic_cells(25))
        for spec, result in cells:
            write_legacy_cell(src, spec, result)
        report = migrate_legacy(src, dst)
        assert report.cells == 25
        migrated = RecordStore(dst)
        for spec, result in cells:
            assert migrated.get(spec).to_dict() == result.to_dict()

    def test_sidecar_telemetry_lands_in_record(self, tmp_path):
        src, dst = tmp_path / "legacy", tmp_path / "record"
        spec, result = next(synthetic_cells(1))
        result.telemetry = {"schema": 1, "series": [], "spans": [],
                            "samples": 7}
        write_legacy_cell(src, spec, result)  # cell + .telemetry.jsonl
        report = migrate_legacy(src, dst)
        assert report.with_telemetry == 1
        got = RecordStore(dst).get(spec)
        assert got.telemetry["samples"] == 7

    def test_unreadable_cells_are_skipped_not_fatal(self, tmp_path):
        src, dst = tmp_path / "legacy", tmp_path / "record"
        for spec, result in synthetic_cells(3):
            write_legacy_cell(src, spec, result)
        (src / "broken.json").write_text("{nope")
        report = migrate_legacy(src, dst)
        assert report.cells == 3
        assert report.skipped == 1

    def test_refuses_in_place_migration(self, tmp_path):
        with pytest.raises(ValueError):
            migrate_legacy(tmp_path, tmp_path)


# ----------------------------------------------------------------------
# Regressions first found in the legacy store, held against the record
# store; reading what older writers stored
# ----------------------------------------------------------------------


class TestLegacyStoreRegressions:
    def test_uninstrumented_put_retires_stale_sidecar(self, tmp_path):
        # The superseded instrumented record stays in the shard; neither
        # a fresh handle nor the telemetry reader may serve it.
        from repro.telemetry.export import load_artifact

        store = RecordStore(tmp_path)
        spec, result = next(synthetic_cells(1))
        result.telemetry = {"schema": 1, "series": [], "spans": []}
        store.put(spec, result)
        store.flush()

        result.telemetry = None
        store.put(spec, result)
        store.flush()
        assert RecordStore(tmp_path).get(spec).telemetry is None
        with pytest.raises(ValueError, match="has no telemetry"):
            load_artifact(tmp_path, spec.content_hash())
        with pytest.raises(ValueError, match="no instrumented cells"):
            load_artifact(tmp_path)

    def test_tmp_orphans_swept_on_open_and_clear(self, tmp_path):
        (tmp_path / "abc123.tmp").write_text("killed writer")
        store = RecordStore(tmp_path)
        assert not (tmp_path / "abc123.tmp").exists()
        (tmp_path / "def456.tmp").write_text("killed writer")
        store.clear()
        assert not (tmp_path / "def456.tmp").exists()
        assert is_record_store(tmp_path)

    def test_from_dict_tolerates_unknown_keys(self):
        spec, result = next(synthetic_cells(1))
        data = result.to_dict()
        data["a_future_field"] = {"anything": 1}
        rebuilt = RunResult.from_dict(data)
        assert rebuilt.to_dict() == result.to_dict()

    def test_specs_stored_with_a_kernel_stay_readable(self, tmp_path):
        """A sweep run with ``--kernel batch`` before PR 21 stored specs
        carrying ``"kernel": "batch"``.  The field is gone; the key was
        hash-neutral, so the record is still the cell it always was."""
        spec, result = next(synthetic_cells(1))
        stored_spec = {**spec.to_dict(), "kernel": "batch"}
        with RecordStore(tmp_path) as store:
            store.put_record(
                spec.content_hash(), stored_spec, result.to_dict()
            )
        fresh = RecordStore(tmp_path)
        (record,) = fresh.iter_records()
        assert record["spec"]["kernel"] == "batch"
        rebuilt = ScenarioSpec.from_dict(record["spec"])
        assert rebuilt.to_dict() == spec.to_dict()
        assert rebuilt.content_hash() == spec.content_hash() == record["key"]
        assert fresh.get(rebuilt).to_dict() == result.to_dict()
        # Reading is all the tolerance there is: asking for one fails,
        # in a sentence.
        with pytest.raises(ValueError, match="PR 21"):
            build_scenario("permutation", kernel="batch")
        with pytest.raises(TypeError, match="kernel"):
            spec.with_updates(kernel="batch")


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------


class TestRunnerIntegration:
    def test_legacy_store_telemetry_rerun(self, tmp_path):
        # The same regression through the legacy format: a migrated
        # uninstrumented cell must not satisfy an instrumented request.
        from repro.telemetry.probes import TelemetryConfig

        spec = tiny_permutation()
        write_legacy_cell(tmp_path / "legacy", spec, run_spec(spec))
        migrate_legacy(tmp_path / "legacy", tmp_path / "record")
        store = RecordStore(tmp_path / "record")
        instrumented = spec.with_updates(
            telemetry=TelemetryConfig(sample_interval_ns=50_000).to_dict()
        )
        results = run_matrix([instrumented], store=store)
        assert results[0].telemetry is not None
        assert store.misses == 1

    def test_run_matrix_caches_on_record_store(self, tmp_path):
        store = RecordStore(tmp_path)
        specs = [tiny_permutation(seed=s) for s in (3, 4)]
        first = run_matrix(specs, store=store)
        assert store.hits == 0
        # run_matrix flushed, so a fresh handle sees both cells.
        fresh = RecordStore(tmp_path)
        second = run_matrix(specs, store=fresh)
        assert second == first
        assert fresh.hits == 2

    def test_telemetry_request_reruns_uninstrumented_cache(self, tmp_path):
        from repro.telemetry.probes import TelemetryConfig

        store = RecordStore(tmp_path)
        spec = tiny_permutation()
        run_matrix([spec], store=store)
        assert store.get(spec).telemetry is None

        instrumented = spec.with_updates(
            telemetry=TelemetryConfig(sample_interval_ns=50_000).to_dict()
        )
        # Same content hash: the uninstrumented cell would satisfy the
        # lookup, silently dropping the requested instrumentation.
        assert instrumented.content_hash() == spec.content_hash()
        messages = []
        results = run_matrix(
            [instrumented], store=store, progress=messages.append
        )
        assert results[0].telemetry is not None
        assert any("re-running" in m for m in messages)
        # The instrumented re-run replaced the stored cell.
        assert store.get(instrumented).telemetry is not None

    def test_instrumented_cache_hit_still_serves(self, tmp_path):
        from repro.telemetry.probes import TelemetryConfig

        store = RecordStore(tmp_path)
        spec = tiny_permutation(
            telemetry=TelemetryConfig(sample_interval_ns=50_000).to_dict()
        )
        run_matrix([spec], store=store)
        misses = store.misses
        run_matrix([spec], store=store)
        assert store.misses == misses  # served from cache


# ----------------------------------------------------------------------
# Synthetic sweep determinism (what the nightly job leans on)
# ----------------------------------------------------------------------


class TestSynth:
    def test_cells_are_deterministic(self):
        a = [
            (s.content_hash(), r.to_dict())
            for s, r in synthetic_cells(20, seed=9)
        ]
        b = [
            (s.content_hash(), r.to_dict())
            for s, r in synthetic_cells(20, seed=9)
        ]
        assert a == b

    def test_specs_are_valid_and_results_sorted(self):
        spec, result = next(synthetic_cells(1))
        assert spec.content_hash() == result.spec_hash
        assert result.flow_rates_gbps == sorted(result.flow_rates_gbps)
