"""Sharded, checksummed experiment-result storage (the ZS lesson).

The first result cache kept one JSON file per cell; at the sweep
sizes the runner generates (10^4–10^6 cells) that layout falls over on
file count, bytes and scan time.  This package stores cells as
records in a small, fixed set of append-only shard files::

    .experiment-store/
      store.meta.json        format + schema versions, creation params
      shard-00.rsd           header | block | block | ...
      shard-00.rsx           index sidecar (JSONL, one line per block)
      ...

    block  = BLK1 codec comp_len raw_len crc32 <compressed records>
    record = rec_len crc32 <canonical JSON: key, spec_key, spec, result>

Design properties, in the order they matter:

* **integrity first** — every block and every record is CRC32-framed;
  corruption is detected, skipped and counted, never silently served;
* **append-only** — writers only ever add whole blocks; a killed
  writer costs at most its in-flight block (truncated on next open);
* **indexed** — per-shard indexes map content-hash keys to a block and
  the record's ordinal inside it (a keyed read decodes the block once
  and parses only the record asked for, once) and keep spec keys sorted
  for prefix range queries (``scenario=permutation/fabric=*``);
* **compressed, batched, parallel** — records batch into zlib blocks
  (4.9x smaller than the legacy layout) that decompress independently
  across a process pool on scans; each block names its codec, so the
  bz2 blocks of older stores read unchanged, also beside zlib ones;
* **self-describing** — format/schema versions and creation params
  live in the store and in every shard header, so readers can refuse
  (or adapt to) formats they don't understand.

Entry points: :class:`RecordStore` (the ``get``/``put`` cache protocol
the sweep runner speaks; the only store), :func:`open_record_store`
(an existing store, for reading), :mod:`repro.store.query` (prefix
queries, verification, trend diffs), :mod:`repro.store.migrate` (the
one-shot import of one-JSON-per-cell directories) and
``python -m repro.store`` (synthetic sweeps, verification, store info).
"""

from repro.store.cells import (
    DEFAULT_NUM_SHARDS,
    RecordStore,
    atomic_write_json,
    is_record_store,
    open_record_store,
    prefix_from_selector,
    spec_key_from_dict,
)
from repro.store.format import (
    BlockCorruptError,
    FORMAT_VERSION,
    SCHEMA_VERSION,
    StoreFormatError,
    TruncatedBlockError,
)
from repro.store.meta import STORE_META_NAME
from repro.store.migrate import MigrationReport, migrate_legacy
from repro.store.query import (
    format_trend_diff,
    scan_store,
    store_records,
    store_results,
    verify_store,
)
from repro.store.shard import Shard

__all__ = [
    "BlockCorruptError",
    "DEFAULT_NUM_SHARDS",
    "FORMAT_VERSION",
    "MigrationReport",
    "RecordStore",
    "SCHEMA_VERSION",
    "STORE_META_NAME",
    "Shard",
    "StoreFormatError",
    "TruncatedBlockError",
    "atomic_write_json",
    "format_trend_diff",
    "is_record_store",
    "migrate_legacy",
    "open_record_store",
    "prefix_from_selector",
    "scan_store",
    "spec_key_from_dict",
    "store_records",
    "store_results",
    "verify_store",
]
