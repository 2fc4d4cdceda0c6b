"""The cell-level record store: specs and results over sharded shards.

:class:`RecordStore` is the scale successor to the legacy
one-JSON-file-per-cell ``ResultStore``: the same ``get(spec)`` /
``put(spec, result)`` cache protocol the sweep runner speaks, backed
by a fixed set of append-only, compressed, CRC-checksummed shard files
(:mod:`repro.store.shard`) instead of one file per cell.

Each stored record is the complete cell — spec, result, and (when the
run was instrumented) the telemetry artifact *inside the record*.
Telemetry presence is part of the stored value, never inferred from
leftover sidecar files: re-putting a cell without telemetry replaces
the instrumented record outright, which is the correctness rule the
legacy sidecar layout got wrong.

Records carry a sortable **spec key**::

    scenario=permutation/fabric=stardust/transport=tcp/seed=00000003/<hash>

so range queries like ``scenario=permutation/fabric=*`` are a binary
search over the per-shard indexes, not a directory walk.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.store.format import (
    CODEC_NAMES,
    FORMAT_VERSION,
    StoreFormatError,
)
from repro.store.meta import STORE_META_NAME, stamp_store_meta
from repro.store.shard import Shard

if TYPE_CHECKING:
    from repro.experiments.runner import RunResult
    from repro.experiments.spec import ScenarioSpec

#: Where a store lives when no root is given: the environment override,
#: else this directory.  Both store formats and the CLI resolve it here.
DEFAULT_STORE_DIR = ".experiment-store"
STORE_DIR_ENV = "REPRO_EXPERIMENT_STORE"


def default_store_dir() -> str:
    """The store root used when a caller names none."""
    return os.environ.get(STORE_DIR_ENV, DEFAULT_STORE_DIR)


DEFAULT_NUM_SHARDS = 8
SHARD_NAME = "shard-{:02d}.rsd"

#: The one codec new blocks are written with, decided by measurement
#: (README "The read path", the codec grid): a 128-cell zlib block
#: decompresses 6.5x and compresses 2.7x faster than the bz2 block this
#: store wrote before, for 19 % more bytes (4.9x smaller than the
#: legacy per-cell JSON layout, where bz2 was 5.8x).  Blocks name their
#: own codec, so every bz2 store still reads, and appending to one
#: gives a shard of both.
DEFAULT_CODEC = "zlib"
DEFAULT_FLUSH_RECORDS = 128

#: How every payload :meth:`RecordStore.put_record` writes begins:
#: sorted-key compact JSON puts the ``key`` member first.
_KEY_PREFIX = b'{"key":"'


def spec_key_from_dict(spec_dict: Dict[str, Any], key: str) -> str:
    """The sortable spec key for a spec's plain-dict form."""
    return (
        f"scenario={spec_dict.get('scenario', '?')}"
        f"/fabric={spec_dict.get('fabric', '?')}"
        f"/transport={spec_dict.get('transport', '?')}"
        f"/seed={int(spec_dict.get('seed', 0)):08d}"
        f"/{key}"
    )


def prefix_from_selector(selector: str) -> str:
    """Translate a CLI selector into a raw spec-key prefix.

    ``scenario=permutation/fabric=*`` matches any fabric under that
    exact scenario; a selector without a trailing ``*`` or ``/`` gets a
    ``/`` appended so field values match exactly (``permutation`` must
    not also match ``permutation_link_failure``).  An empty selector
    (or bare ``*``) matches everything.
    """
    selector = selector.strip()
    if selector in ("", "*"):
        return ""
    if selector.endswith("*"):
        return selector[:-1]
    if not selector.endswith("/"):
        return selector + "/"
    return selector


def record_key(payload: bytes) -> str:
    """The ``key`` member of a record payload, without parsing it.

    Read off the canonical payload's first member; a payload that does
    not start exactly ``{"key":"<plain ASCII>",`` (another writer's
    member order or whitespace, an escaped key) is parsed instead.
    """
    if payload.startswith(_KEY_PREFIX):
        start = len(_KEY_PREFIX)
        end = payload.find(b'"', start)
        if end > 0 and payload[end + 1 : end + 2] == b",":
            raw = payload[start:end]
            if b"\\" not in raw and raw.isascii():
                return raw.decode("ascii")
    return str(json.loads(payload)["key"])


class RecordStore:
    """Sharded, checksummed result cache (same protocol as the legacy
    ``ResultStore``: ``get``/``put``/``has``/``clear``/``__len__``).

    ``codec`` names what *this handle's* appends compress with; it
    exists for the ``raw`` test fixtures and for writing the bz2 blocks
    older stores hold.  Reads go by each block's own header.
    """

    def __init__(
        self,
        root: Optional[Union[str, os.PathLike]] = None,
        num_shards: Optional[int] = None,
        codec: str = DEFAULT_CODEC,
        flush_records: int = DEFAULT_FLUSH_RECORDS,
    ) -> None:
        if codec not in CODEC_NAMES:
            raise ValueError(
                f"unknown codec {codec!r}; choose from "
                f"{', '.join(sorted(CODEC_NAMES))}"
            )
        self.root = Path(default_store_dir() if root is None else root)
        self.hits = 0
        self.misses = 0
        self.flush_records = max(1, flush_records)
        self.codec = CODEC_NAMES[codec]
        self.meta: Dict[str, Any] = {}
        self._shards: Dict[int, Shard] = {}
        self._pending: Dict[int, List[Tuple[str, str, bytes]]] = {}
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_orphans()
        meta_path = self.root / STORE_META_NAME
        if meta_path.exists():
            self.meta = json.loads(meta_path.read_text(encoding="utf-8"))
            version = int(self.meta.get("format_version", 0))
            if version > FORMAT_VERSION:
                raise StoreFormatError(
                    f"store {self.root} is format v{version}, newer than "
                    f"this reader (v{FORMAT_VERSION})"
                )
            params = self.meta.get("params", {})
            self.num_shards = int(
                params.get("num_shards", num_shards or DEFAULT_NUM_SHARDS)
            )
        else:
            self.num_shards = num_shards or DEFAULT_NUM_SHARDS
            self.meta = stamp_store_meta(
                {"num_shards": self.num_shards, "codec": codec}
            )
            self._atomic_write_meta(meta_path, self.meta)

    def _atomic_write_meta(self, path: Path, payload: Dict[str, Any]) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8"
        )
        tmp.replace(path)

    def _sweep_orphans(self) -> None:
        """Remove ``*.tmp`` debris from writers killed mid-replace."""
        for orphan in self.root.glob("*.tmp"):
            try:
                orphan.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def shard_id(self, key: str) -> int:
        """Stable shard assignment for a record key."""
        return zlib.crc32(key.encode("utf-8")) % self.num_shards

    def shard_path(self, index: int) -> Path:
        return self.root / SHARD_NAME.format(index)

    def _shard(self, index: int) -> Shard:
        shard = self._shards.get(index)
        if shard is None:
            shard = Shard(
                self.shard_path(index),
                header_meta={
                    "shard": index,
                    "num_shards": self.num_shards,
                    "schema": self.meta.get("schema_version", 1),
                },
                codec=self.codec,
            )
            self._shards[index] = shard
        return shard

    def open_shards(self) -> List[Shard]:
        """Every shard that exists on disk (opened lazily before)."""
        out = []
        for index in range(self.num_shards):
            if index in self._shards or self.shard_path(index).exists():
                out.append(self._shard(index))
        return out

    # ------------------------------------------------------------------
    # The cache protocol (what run_matrix speaks)
    # ------------------------------------------------------------------
    def put(self, spec: "ScenarioSpec", result: "RunResult") -> Path:
        """Persist one cell; returns the shard path it landed in.

        The record embeds the result's telemetry artifact when present
        and *nothing* when absent — an uninstrumented re-run of a spec
        fully replaces any instrumented record under the same key.
        """
        key = spec.content_hash()
        return self.put_record(key, spec.to_dict(), result.to_dict())

    def put_record(
        self,
        key: str,
        spec_dict: Dict[str, Any],
        result_dict: Dict[str, Any],
        spec_key: Optional[str] = None,
    ) -> Path:
        """Raw-dict put (the migration path; no spec revalidation)."""
        if spec_key is None:
            spec_key = spec_key_from_dict(spec_dict, key)
        payload = json.dumps(
            {
                "key": key,
                "spec_key": spec_key,
                "spec": spec_dict,
                "result": result_dict,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        index = self.shard_id(key)
        pending = self._pending.setdefault(index, [])
        pending.append((key, spec_key, payload))
        if len(pending) >= self.flush_records:
            self._flush_shard(index)
        return self.shard_path(index)

    def get(self, spec: "ScenarioSpec") -> Optional["RunResult"]:
        """The cached result for ``spec``, or None (counts hit/miss)."""
        record = self.get_record(spec.content_hash())
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        from repro.experiments.runner import RunResult

        return RunResult.from_dict(record["result"])

    def get_record(self, key: str) -> Optional[Dict[str, Any]]:
        """The latest raw record dict under ``key``, or None."""
        index = self.shard_id(key)
        for pending_key, _, payload in reversed(self._pending.get(index, [])):
            if pending_key == key:
                pending_record: Dict[str, Any] = json.loads(payload)
                return pending_record
        if not self.shard_path(index).exists():
            return None
        return self._shard(index).get_records([key]).get(key)

    def has(self, spec: "ScenarioSpec") -> bool:
        return self.get_record(spec.content_hash()) is not None

    def flush(self) -> None:
        """Append every buffered record to its shard."""
        for index in sorted(self._pending):
            self._flush_shard(index)

    def _flush_shard(self, index: int) -> None:
        pending = self._pending.get(index)
        if pending:
            self._shard(index).append(pending)
            self._pending[index] = []

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.flush()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def keys(self, selector: str = "") -> List[Tuple[str, str]]:
        """All ``(spec_key, key)`` pairs matching ``selector``, sorted.

        Buffered records are flushed first so a query never misses a
        cell the same process just stored.
        """
        self.flush()
        prefix = prefix_from_selector(selector)
        pairs: List[Tuple[str, str]] = []
        for shard in self.open_shards():
            pairs.extend(shard.keys_for_prefix(prefix))
        pairs.sort()
        return pairs

    def iter_records(self, selector: str = "") -> Iterator[Dict[str, Any]]:
        """Matching record dicts in spec-key order (latest per key)."""
        pairs = self.keys(selector)
        by_shard: Dict[int, List[str]] = {}
        for _, key in pairs:
            by_shard.setdefault(self.shard_id(key), []).append(key)
        records: Dict[str, Dict[str, Any]] = {}
        for index, shard_keys in by_shard.items():
            records.update(self._shard(index).get_records(shard_keys))
        for _, key in pairs:
            record = records.get(key)
            if record is not None:
                yield record

    def results(self, selector: str = "") -> "List[RunResult]":
        """Matching results as :class:`RunResult` values."""
        from repro.experiments.runner import RunResult

        return [
            RunResult.from_dict(record["result"])
            for record in self.iter_records(selector)
        ]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def cells(self) -> List[str]:
        """Every distinct record key currently stored."""
        keys = {key for pending in self._pending.values() for key, _, _ in pending}
        for shard in self.open_shards():
            keys.update(shard.index.by_key)
        return sorted(keys)

    def __len__(self) -> int:
        return len(self.cells())

    @property
    def corrupt_blocks(self) -> int:
        """Blocks rejected by checksum across all opened shards."""
        return sum(s.corrupt_blocks for s in self._shards.values())

    def clear(self) -> int:
        """Delete every record (shards + indexes); returns cell count."""
        removed = len(self)
        self._pending.clear()
        self._shards.clear()
        for pattern in ("*.rsd", "*.rsx", "*.tmp"):
            for path in self.root.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed


def is_record_store(root: Union[str, os.PathLike]) -> bool:
    """Whether ``root`` holds (or declares) the sharded record format."""
    path = Path(root)
    if (path / STORE_META_NAME).exists():
        return True
    return any(path.glob("*.rsd"))


def open_store(
    root: Optional[Union[str, os.PathLike]] = None,
    store_format: str = "auto",
    **kwargs: Any,
) -> Any:
    """Open ``root`` as whichever store format it holds.

    ``auto`` (the default) detects: a directory with ``store.meta.json``
    or shard files opens as a :class:`RecordStore`; a directory of
    legacy ``<hash>.json`` cells opens as the legacy ``ResultStore``;
    a fresh/empty directory gets the record format (new sweeps should
    land on shards).  ``store_format="legacy"``/``"record"`` force.
    """
    path = Path(default_store_dir() if root is None else root)
    if store_format == "record":
        return RecordStore(path, **kwargs)
    if store_format == "legacy":
        from repro.experiments.store import ResultStore

        return ResultStore(path)
    if store_format != "auto":
        raise ValueError(
            f"unknown store format {store_format!r}; "
            "choose auto, record or legacy"
        )
    if is_record_store(path):
        return RecordStore(path, **kwargs)
    if path.is_dir() and any(
        p.name != STORE_META_NAME for p in path.glob("*.json")
    ):
        from repro.experiments.store import ResultStore

        return ResultStore(path)
    return RecordStore(path, **kwargs)
