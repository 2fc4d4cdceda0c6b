"""One append-only shard file plus its index sidecar.

A :class:`Shard` owns a single ``shard-NN.rsd`` file (see
:mod:`repro.store.format` for the byte layout) and its ``.rsx`` index
sidecar.  The contract mirrors what ZNS-style append-only storage
formalizes: writers only ever append whole blocks, readers verify
every checksum, and recovery is positional —

* a **torn tail** (writer killed mid-append) is detected on open and
  truncated away before the next append, losing only the interrupted
  block;
* a **corrupt block** mid-file (bit rot, a flipped byte) fails its CRC,
  is skipped, and the scan resyncs at the next block magic — one bad
  block never poisons the rest of the shard;
* the index sidecar is a cache: stale or missing entries trigger a
  tail rescan of the shard bytes, never the other way around.

Keyed reads cost one decode per *block* and one parse per *record
returned*: the index names the record's ordinal inside its block, the
picked payload is parsed, its own key is checked against the key asked
for (the sidecar is never trusted to say whose record it is) and that
same parse is what the caller gets; the shard remembers the last block
it decoded, which is all a put-order resume or a block-grouped query
needs.

Single-writer, multi-reader: appends happen from one process (the
sweep parent); concurrent readers see a consistent prefix.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.store.format import (
    BLOCK_HEADER_SIZE,
    BlockCorruptError,
    CODEC_ZLIB,
    SHARD_HEADER_FIXED_SIZE,
    StoreFormatError,
    TruncatedBlockError,
    encode_block,
    encode_shard_header,
    find_block,
    read_block,
    read_shard_header,
    shard_header_size,
)
from repro.store.index import ShardIndex

#: (key, spec_key, payload) — what callers append and scans yield.
Record = Tuple[str, str, bytes]

#: A stored record as a keyed read finds it: its payload bytes and the
#: parse of them that passed the key check.
Found = Tuple[bytes, Dict[str, Any]]

#: The last decoded block of a shard is kept for the next read only if
#: its payloads total at most this many bytes (a default block of 128
#: plain cells is ~150 kB; blocks of telemetry-laden cells can reach
#: hundreds of MB and must not stay resident once per shard).
MEMO_MAX_BYTES = 8 * 1024 * 1024


def extract(payload: bytes) -> Tuple[str, str]:
    """Pull ``(key, spec_key)`` out of a JSON record payload."""
    obj = json.loads(payload)
    return str(obj["key"]), str(obj["spec_key"])


class Shard:
    """Appendable, checksummed, indexed record shard."""

    def __init__(
        self,
        path: Path,
        header_meta: Optional[Dict[str, Any]] = None,
        codec: int = CODEC_ZLIB,
    ) -> None:
        self.path = Path(path)
        self.index_path = self.path.with_suffix(".rsx")
        #: What this handle's appends compress with; reads go by each
        #: block's own header.
        self.codec = codec
        self.index = ShardIndex(self.index_path)
        #: Offsets of the blocks rejected by CRC/framing checks over
        #: this handle's lifetime (open-time tail scan + later reads).
        self._corrupt_offsets: Set[int] = set()
        #: (offset, payloads) of the last block decoded by a keyed
        #: read.  Blocks never change once appended, so the memo needs
        #: no invalidation.
        self._memo: Optional[Tuple[int, List[bytes]]] = None
        self.header_meta: Dict[str, Any] = {}
        #: End of the last structurally valid block; appends truncate
        #: any torn bytes beyond it first.
        self._valid_end = 0
        self._first_block = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            self._open_existing()
        else:
            self._create(header_meta or {})

    # ------------------------------------------------------------------
    # Open / create
    # ------------------------------------------------------------------
    def _create(self, header_meta: Dict[str, Any]) -> None:
        self.header_meta = dict(header_meta)
        header = encode_shard_header(self.header_meta)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # "wb" not "xb": the only way here with an existing file is a
        # zero-byte leftover, which holds no records to protect.
        with self.path.open("wb") as fh:
            fh.write(header)
        self._first_block = len(header)
        self._valid_end = len(header)
        self.index.load(len(header), self._first_block)

    def _open_existing(self) -> None:
        # Only the preamble is read: the sidecar says where every block
        # is, and the tail is fetched just when it covers less than the
        # file holds.
        with self.path.open("rb") as fh:
            head = fh.read(SHARD_HEADER_FIXED_SIZE)
            head += fh.read(shard_header_size(head) - len(head))
            self.header_meta, self._first_block = read_shard_header(head)
            size = os.fstat(fh.fileno()).st_size
            resume = self.index.load(size, self._first_block)
            self._valid_end = resume
            if resume < size:
                fh.seek(resume)
                self._scan_tail(fh.read(), resume)

    @property
    def corrupt_blocks(self) -> int:
        """Blocks rejected so far; a block counts once however many
        reads land in it."""
        return len(self._corrupt_offsets)

    def _scan_tail(self, tail: bytes, base: int) -> None:
        """Index every valid block of ``tail``, the file from ``base``.

        Complete blocks beyond the sidecar's coverage (writer killed
        between shard append and index append) are re-indexed; a torn
        final block marks ``_valid_end`` so the next append truncates
        it; corrupt blocks are skipped with a resync.
        """
        size = len(tail)
        local = 0
        while local < size:
            try:
                payloads, local_end = read_block(tail, local)
            except TruncatedBlockError:
                # Torn tail: everything from here is a failed append.
                break
            except BlockCorruptError as exc:
                self._corrupt_offsets.add(base + local)
                nxt = find_block(tail, exc.resync_from)
                if nxt < 0:
                    break
                local = nxt
                continue
            offset, end = base + local, base + local_end
            pairs = [extract(p) for p in payloads]
            self.index.add_block(offset, end, pairs)
            try:
                self.index.append_line(offset, end, pairs)
            except OSError:
                pass  # read-only media; in-memory index still right
            local = local_end
            self._valid_end = end

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def append(self, records: List[Record]) -> Tuple[int, int]:
        """Append one block holding ``records``; returns its span.

        The shard write lands before the index write, so a crash
        between the two leaves a complete, recoverable block (the tail
        scan re-indexes it) — never a dangling index entry.
        """
        if not records:
            raise ValueError("append needs at least one record")
        block = encode_block(
            [payload for _, _, payload in records], self.codec
        )
        size = self.path.stat().st_size
        if size > self._valid_end:
            # Torn tail from a killed writer: cut it off before reuse.
            os.truncate(self.path, self._valid_end)
        with self.path.open("ab") as fh:
            offset = fh.tell()
            fh.write(block)
        end = offset + len(block)
        pairs = [(key, spec_key) for key, spec_key, _ in records]
        self.index.add_block(offset, end, pairs)
        self.index.append_line(offset, end, pairs)
        self._valid_end = end
        return offset, end

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def _read_span(self, offset: int, length: int) -> bytes:
        with self.path.open("rb") as fh:
            fh.seek(offset)
            return fh.read(length)

    def _decode(self, offset: int, length: int) -> Optional[List[bytes]]:
        """CRC-verified payloads of the indexed block at ``offset``, or
        None when it fails its checks (never remembered, counted once).
        """
        memo = self._memo
        if memo is not None and memo[0] == offset:
            return memo[1]
        buf = self._read_span(offset, length)
        try:
            payloads, _ = read_block(buf, 0)
        except BlockCorruptError:
            self._corrupt_offsets.add(offset)
            return None
        if sum(map(len, payloads)) <= MEMO_MAX_BYTES:
            self._memo = (offset, payloads)
        return payloads

    def _pick(
        self, payloads: List[bytes], wanted: Dict[str, int]
    ) -> Dict[str, Found]:
        """Records of one block for ``wanted`` (key -> ordinal).

        The ordinal comes from the sidecar, which is only a cache: the
        picked payload must carry the key asked for, and any key whose
        ordinal is out of range or names another record is looked for
        across the whole block instead — a stale or foreign sidecar
        costs time, never another key's record.  The parse that reads
        a payload's key is the one handed back, so a hit costs one.
        (What the check cannot see is a sidecar pointing at an
        *earlier* duplicate of the same key inside the block; the
        writer's own sidecar always names the last one.)
        """
        out: Dict[str, Found] = {}
        astray: Set[str] = set()
        for key, ordinal in wanted.items():
            if 0 <= ordinal < len(payloads):
                payload = payloads[ordinal]
                record = json.loads(payload)
                if record["key"] == key:
                    out[key] = payload, record
                    continue
            astray.add(key)
        if astray:
            for payload in payloads:
                record = json.loads(payload)
                if record["key"] in astray:
                    out[record["key"]] = payload, record  # latest wins
        return out

    def _find(self, keys: List[str]) -> Dict[str, Found]:
        """Latest stored record for each of ``keys`` that has one,
        decompressing each block once."""
        blocks: Dict[Tuple[int, int], Dict[str, int]] = {}
        for key in keys:
            location = self.index.get(key)
            if location is not None:
                offset, length, ordinal = location
                blocks.setdefault((offset, length), {})[key] = ordinal
        out: Dict[str, Found] = {}
        for (offset, length), wanted in sorted(blocks.items()):
            payloads = self._decode(offset, length)
            if payloads is not None:
                out.update(self._pick(payloads, wanted))
        return out

    def get(self, key: str) -> Optional[bytes]:
        """The latest payload stored under ``key`` (CRC-verified)."""
        return self.get_many([key]).get(key)

    def get_many(self, keys: List[str]) -> Dict[str, bytes]:
        """Latest payloads for ``keys`` (CRC-verified, key-checked)."""
        return {
            key: payload for key, (payload, _) in self._find(keys).items()
        }

    def get_records(self, keys: List[str]) -> Dict[str, Dict[str, Any]]:
        """Latest records for ``keys``, parsed: one parse per record.

        Records that share a block (batched appends) cost one read and
        one decompression between them — the amortization that makes
        prefix queries over 10^4+ cells cheap.
        """
        return {key: record for key, (_, record) in self._find(keys).items()}

    def keys_for_prefix(self, prefix: str) -> Iterator[Tuple[str, str]]:
        """Indexed ``(spec_key, key)`` pairs under a spec-key prefix."""
        return self.index.prefix_pairs(prefix)

    def blocks(self) -> List[Tuple[int, int]]:
        """Spans of every indexed block (for parallel scans)."""
        return list(self.index.blocks)

    def read_blocks(self, head_only: bool = False) -> Iterator[bytes]:
        """The bytes of every indexed block in file order, unchecked,
        through one open of the file (``head_only``: just each block's
        header — enough for :func:`~repro.store.format.block_codec`)."""
        with self.path.open("rb") as fh:
            for offset, end in self.index.blocks:
                fh.seek(offset)
                yield fh.read(BLOCK_HEADER_SIZE if head_only else end - offset)

    def scan(self) -> Iterator[Record]:
        """Every valid record in file order, straight from the bytes.

        This is the integrity path: it ignores the index, verifies
        every checksum, skips corrupt blocks (counting them) and stops
        at a torn tail.  Later duplicates of a key supersede earlier
        ones; dedup is the caller's policy.
        """
        buf = self.path.read_bytes()
        try:
            _, offset = read_shard_header(buf)
        except StoreFormatError:
            return
        size = len(buf)
        while offset < size:
            try:
                payloads, end = read_block(buf, offset)
            except TruncatedBlockError:
                return
            except BlockCorruptError as exc:
                self._corrupt_offsets.add(offset)
                nxt = find_block(buf, exc.resync_from)
                if nxt < 0:
                    return
                offset = nxt
                continue
            for payload in payloads:
                key, spec_key = extract(payload)
                yield key, spec_key, payload
            offset = end

    def __len__(self) -> int:
        return len(self.index)
