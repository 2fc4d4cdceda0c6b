"""Binary framing for the sharded record store (the ZS lesson).

A shard file is::

    +----------------------------+
    | shard header               |  magic, format version, JSON metadata
    +----------------------------+
    | block | block | block | ...|  append-only
    +----------------------------+

Every **block** is one compressed unit of one or more records::

    BLK1  codec  comp_len  raw_len  crc32(comp)  <comp_len bytes>
    4B    u8     u32       u32      u32

and its decompressed payload is a sequence of **records**, each
individually framed and checksummed::

    rec_len  crc32(rec)  <rec_len bytes>
    u32      u32

Integrity is layered: the block CRC catches on-disk corruption before
decompression is even attempted, the per-record CRC catches logic bugs
and torn batches, and the leading block magic lets a scan *resync* past
a corrupt region instead of abandoning the rest of the shard.  All
framing integers are little-endian and the record payloads are
canonical (sorted-key, compact) JSON, so identical records produce
identical bytes.

This module is pure bytes-in/bytes-out: no file handles, no wall
clock, no policy.  :mod:`repro.store.shard` owns files,
:mod:`repro.store.cells` owns spec/result semantics.
"""

from __future__ import annotations

import bz2
import json
import struct
import zlib
from typing import Any, Dict, List, Tuple

SHARD_MAGIC = b"RPROSTR1"
BLOCK_MAGIC = b"BLK1"
FORMAT_VERSION = 1
#: Version of the *record schema* (what the JSON payloads contain);
#: bumped independently of the framing FORMAT_VERSION.
SCHEMA_VERSION = 1

#: Codec ids are part of the on-disk format — append-only, never reuse.
#: The id is per block, so a reader decodes all of them whatever the
#: writer of the day emits, and one shard may hold blocks of several.
CODEC_RAW = 0
CODEC_ZLIB = 1
CODEC_BZ2 = 2
CODEC_NAMES = {"raw": CODEC_RAW, "zlib": CODEC_ZLIB, "bz2": CODEC_BZ2}
_CODEC_BY_ID = {codec: name for name, codec in CODEC_NAMES.items()}
#: One compression level per codec — the one every store so far was
#: written with.  zlib 6 and 9 decode alike; 9 stores 1.2 % fewer bytes
#: for 0.9 ms more per 128-cell block compressed.
ZLIB_LEVEL = 9
BZ2_LEVEL = 9

_BLOCK_HEAD = struct.Struct("<BIII")  # codec, comp_len, raw_len, crc32
_REC_HEAD = struct.Struct("<II")  # rec_len, crc32
_SHARD_HEAD = struct.Struct("<HI")  # format_version, meta_len

BLOCK_HEADER_SIZE = len(BLOCK_MAGIC) + _BLOCK_HEAD.size
#: Magic + format version + metadata length: enough of a shard file to
#: know how long its whole preamble is (:func:`shard_header_size`).
SHARD_HEADER_FIXED_SIZE = len(SHARD_MAGIC) + _SHARD_HEAD.size


class StoreFormatError(Exception):
    """The file is not a shard of a format this reader understands."""


class BlockCorruptError(Exception):
    """A block failed its structural or CRC checks.

    ``offset`` is where the bad block starts; ``resync_from`` is where a
    scan should resume looking for the next block magic.
    """

    def __init__(self, offset: int, reason: str) -> None:
        super().__init__(f"corrupt block at offset {offset}: {reason}")
        self.offset = offset
        self.resync_from = offset + 1


class TruncatedBlockError(BlockCorruptError):
    """The file ends mid-block — a torn append, not corruption.

    Distinguished from :class:`BlockCorruptError` so writers can treat
    the tail as garbage to truncate while scanners treat mid-file
    damage as skip-and-continue.
    """


def compress(raw: bytes, codec: int) -> bytes:
    """Compress ``raw`` with the named codec."""
    if codec == CODEC_RAW:
        return raw
    if codec == CODEC_ZLIB:
        return zlib.compress(raw, ZLIB_LEVEL)
    if codec == CODEC_BZ2:
        return bz2.compress(raw, BZ2_LEVEL)
    raise StoreFormatError(f"unknown codec id {codec}")


def decompress(payload: bytes, codec: int) -> bytes:
    """Invert :func:`compress`."""
    if codec == CODEC_RAW:
        return payload
    if codec == CODEC_ZLIB:
        return zlib.decompress(payload)
    if codec == CODEC_BZ2:
        return bz2.decompress(payload)
    raise StoreFormatError(f"unknown codec id {codec}")


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


def encode_records(payloads: List[bytes]) -> bytes:
    """Frame record payloads into one block body (pre-compression)."""
    parts: List[bytes] = []
    for payload in payloads:
        parts.append(_REC_HEAD.pack(len(payload), zlib.crc32(payload)))
        parts.append(payload)
    return b"".join(parts)


def decode_records(body: bytes) -> List[bytes]:
    """Split a decompressed block body back into record payloads.

    Raises :class:`StoreFormatError` on any framing or CRC mismatch —
    by the time a block CRC has passed, a bad record means a writer
    bug, not disk rot, and must not be silently dropped.
    """
    payloads: List[bytes] = []
    offset = 0
    end = len(body)
    while offset < end:
        if offset + _REC_HEAD.size > end:
            raise StoreFormatError("truncated record header inside block")
        rec_len, crc = _REC_HEAD.unpack_from(body, offset)
        offset += _REC_HEAD.size
        if offset + rec_len > end:
            raise StoreFormatError("record length exceeds block body")
        payload = body[offset : offset + rec_len]
        if zlib.crc32(payload) != crc:
            raise StoreFormatError("record CRC mismatch inside block")
        payloads.append(payload)
        offset += rec_len
    return payloads


# ----------------------------------------------------------------------
# Blocks
# ----------------------------------------------------------------------


def encode_block(payloads: List[bytes], codec: int = CODEC_ZLIB) -> bytes:
    """One complete on-disk block holding ``payloads``."""
    raw = encode_records(payloads)
    comp = compress(raw, codec)
    head = _BLOCK_HEAD.pack(codec, len(comp), len(raw), zlib.crc32(comp))
    return BLOCK_MAGIC + head + comp


def read_block(buf: bytes, offset: int) -> Tuple[List[bytes], int]:
    """Decode the block starting at ``offset`` in ``buf``.

    Returns ``(record_payloads, next_offset)``.  Raises
    :class:`TruncatedBlockError` when the buffer ends mid-block and
    :class:`BlockCorruptError` on a bad magic or failed CRC.
    """
    end = len(buf)
    if offset + BLOCK_HEADER_SIZE > end:
        raise TruncatedBlockError(offset, "file ends inside block header")
    if buf[offset : offset + len(BLOCK_MAGIC)] != BLOCK_MAGIC:
        raise BlockCorruptError(offset, "bad block magic")
    codec, comp_len, raw_len, crc = _BLOCK_HEAD.unpack_from(
        buf, offset + len(BLOCK_MAGIC)
    )
    body_start = offset + BLOCK_HEADER_SIZE
    if body_start + comp_len > end:
        raise TruncatedBlockError(offset, "file ends inside block payload")
    comp = buf[body_start : body_start + comp_len]
    if zlib.crc32(comp) != crc:
        raise BlockCorruptError(offset, "block CRC mismatch")
    try:
        raw = decompress(comp, codec)
    except (StoreFormatError, OSError, zlib.error) as exc:
        raise BlockCorruptError(offset, f"decompression failed: {exc}") from exc
    if len(raw) != raw_len:
        raise BlockCorruptError(
            offset, f"raw length {len(raw)} != declared {raw_len}"
        )
    try:
        payloads = decode_records(raw)
    except StoreFormatError as exc:
        raise BlockCorruptError(offset, str(exc)) from exc
    return payloads, body_start + comp_len


def block_codec(head: bytes) -> str:
    """Name of the codec a block's header declares (``codec-<id>`` for
    an id this reader does not know).  ``head`` is the block's first
    :data:`BLOCK_HEADER_SIZE` bytes or more; nothing is checked."""
    codec = head[len(BLOCK_MAGIC)]
    return _CODEC_BY_ID.get(codec, f"codec-{codec}")


def find_block(buf: bytes, offset: int) -> int:
    """The next plausible block start at/after ``offset`` (-1 if none)."""
    return buf.find(BLOCK_MAGIC, offset)


# ----------------------------------------------------------------------
# Shard header
# ----------------------------------------------------------------------


def encode_shard_header(meta: Dict[str, Any]) -> bytes:
    """Shard file preamble: magic, format version, JSON metadata, CRC."""
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return (
        SHARD_MAGIC
        + _SHARD_HEAD.pack(FORMAT_VERSION, len(blob))
        + blob
        + struct.pack("<I", zlib.crc32(blob))
    )


def shard_header_size(prefix: bytes) -> int:
    """Length of the whole shard preamble, read off its fixed part.

    Lets a reader fetch the header without reading the shard.  A prefix
    too short to say (or one that is not a shard at all) answers
    :data:`SHARD_HEADER_FIXED_SIZE`; :func:`read_shard_header` then
    rejects those bytes with the proper error.
    """
    if len(prefix) < SHARD_HEADER_FIXED_SIZE:
        return SHARD_HEADER_FIXED_SIZE
    _, meta_len = _SHARD_HEAD.unpack_from(prefix, len(SHARD_MAGIC))
    return SHARD_HEADER_FIXED_SIZE + int(meta_len) + 4


def read_shard_header(buf: bytes) -> Tuple[Dict[str, Any], int]:
    """Parse the shard preamble; returns ``(meta, first_block_offset)``."""
    base = len(SHARD_MAGIC)
    if buf[:base] != SHARD_MAGIC:
        raise StoreFormatError("not a repro.store shard (bad magic)")
    if len(buf) < base + _SHARD_HEAD.size:
        raise StoreFormatError("truncated shard header")
    version, meta_len = _SHARD_HEAD.unpack_from(buf, base)
    if version > FORMAT_VERSION:
        raise StoreFormatError(
            f"shard format v{version} is newer than this reader "
            f"(v{FORMAT_VERSION}); upgrade repro to read it"
        )
    meta_start = base + _SHARD_HEAD.size
    meta_end = meta_start + meta_len
    if len(buf) < meta_end + 4:
        raise StoreFormatError("truncated shard header metadata")
    blob = buf[meta_start:meta_end]
    (crc,) = struct.unpack_from("<I", buf, meta_end)
    if zlib.crc32(blob) != crc:
        raise StoreFormatError("shard header CRC mismatch")
    try:
        meta = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise StoreFormatError(f"unreadable shard metadata: {exc}") from exc
    return meta, meta_end + 4
