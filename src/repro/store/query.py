"""Cross-sweep queries: scans, verification, aggregation, trend diffs.

This is the serving layer: everything ``python -m repro.experiments
query`` does lands here.  Reads come in two flavors:

* **indexed** — prefix lookups through the per-shard indexes (the fast
  path for selectors like ``scenario=permutation/fabric=*``);
* **integrity scans** — straight over the shard bytes, verifying every
  CRC, optionally fanning block decompression out over a
  ``multiprocessing`` pool (the trick of ZS's ``mpbz2``, whatever the
  codec: compressed blocks are independent, so cores scale the scan).
  A scan learns each record's key from the payload's first bytes and
  parses only the records its caller reads back — verification parses
  none.

Both flavors also speak the legacy one-JSON-per-cell layout, so a
query works against an unmigrated store — migration is an
optimization, not a prerequisite.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.store.cells import (
    RecordStore,
    is_record_store,
    prefix_from_selector,
    record_key,
    spec_key_from_dict,
)
from repro.store.format import BlockCorruptError, block_codec, read_block
from repro.store.meta import STORE_META_NAME

if TYPE_CHECKING:
    from repro.experiments.runner import RunResult
    from repro.experiments.summarize import GroupSummary

PathLike = Union[str, os.PathLike]


# ----------------------------------------------------------------------
# Parallel block decoding (the mpbz2/pbz2 pattern)
# ----------------------------------------------------------------------


def _decode_block(buf: bytes) -> Optional[Tuple[str, List[bytes]]]:
    """Worker: check + decompress one block; ``(codec name, payloads)``,
    or None for a block that fails its checks.

    Module-level so it pickles into pool workers.  Bytes in, bytes out:
    the parent reads the block and nothing is parsed here, so what
    crosses the pool is the compressed block one way and its record
    payloads the other.
    """
    try:
        payloads, _ = read_block(buf, 0)
    except BlockCorruptError:
        return None
    return block_codec(buf), payloads


@dataclass
class ScanReport:
    """Outcome of an integrity scan over a store."""

    #: Payload of the latest record per key, in block order.
    latest: Dict[str, bytes] = field(default_factory=dict)
    #: Spec-key prefix :attr:`records` is filtered by.
    prefix: str = ""
    total_records: int = 0
    corrupt_blocks: int = 0
    blocks: int = 0
    #: Valid blocks per codec name, by each block's own header.
    codec_blocks: Dict[str, int] = field(default_factory=dict)
    shard_bytes: int = 0

    @cached_property
    def records(self) -> List[Dict[str, Any]]:
        """The latest record per key under the scan's selector, sorted
        by spec key — parsed on first use, superseded re-puts never."""
        matched = [
            record
            for record in map(json.loads, self.latest.values())
            if str(record.get("spec_key", "")).startswith(self.prefix)
        ]
        matched.sort(key=lambda r: str(r.get("spec_key", "")))
        return matched


def scan_store(
    root: PathLike, selector: str = "", processes: int = 0
) -> ScanReport:
    """CRC-verify every block of a record store, collecting records.

    The report holds the latest record per key (``.records``: filtered
    by ``selector``, sorted by spec key).  ``processes > 1``
    decompresses blocks on a pool; block order (and therefore
    latest-wins dedup) is preserved because ``Pool.map`` keeps input
    order.
    """
    store = RecordStore(root)
    store.flush()
    shards = store.open_shards()
    report = ScanReport(
        prefix=prefix_from_selector(selector),
        # Blocks skipped during open-time tail scans never made the
        # index, so count them up front.
        corrupt_blocks=sum(s.corrupt_blocks for s in shards),
        blocks=sum(len(s.blocks()) for s in shards),
        shard_bytes=sum(s.path.stat().st_size for s in shards),
    )
    buffers = (buf for shard in shards for buf in shard.read_blocks())
    decoded: Iterable[Optional[Tuple[str, List[bytes]]]]
    if processes and processes > 1 and report.blocks > 1:
        import multiprocessing

        tasks = list(buffers)
        try:
            with multiprocessing.Pool(min(processes, len(tasks))) as pool:
                decoded = pool.map(_decode_block, tasks)
        except (ImportError, OSError):
            decoded = map(_decode_block, tasks)
    else:
        decoded = map(_decode_block, buffers)
    for block in decoded:
        if block is None:
            report.corrupt_blocks += 1
            continue
        codec, payloads = block
        report.codec_blocks[codec] = report.codec_blocks.get(codec, 0) + 1
        report.total_records += len(payloads)
        for payload in payloads:
            report.latest[record_key(payload)] = payload
    return report


# ----------------------------------------------------------------------
# Format-agnostic record access
# ----------------------------------------------------------------------


def _legacy_records(root: Path, prefix: str) -> List[Dict[str, Any]]:
    """Record dicts out of a legacy one-JSON-per-cell directory."""
    records = []
    for path in sorted(root.glob("*.json")):
        if path.name == STORE_META_NAME:
            continue
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(data, dict) or "result" not in data:
            continue
        key = path.stem
        spec = data.get("spec") or {}
        spec_key = spec_key_from_dict(spec, key)
        if not spec_key.startswith(prefix):
            continue
        records.append(
            {
                "key": key,
                "spec_key": spec_key,
                "spec": spec,
                "result": data["result"],
            }
        )
    records.sort(key=lambda r: str(r["spec_key"]))
    return records


def store_records(
    root: PathLike,
    selector: str = "",
    processes: int = 0,
    verify: bool = False,
) -> List[Dict[str, Any]]:
    """Matching records from either store format, spec-key sorted.

    ``verify=True`` (or ``processes > 1``) takes the integrity-scan
    path on record stores; otherwise the indexed prefix lookup.
    """
    path = Path(root)
    if is_record_store(path):
        if verify or (processes and processes > 1):
            return scan_store(path, selector, processes).records
        return list(RecordStore(path).iter_records(selector))
    return _legacy_records(path, prefix_from_selector(selector))


def store_results(
    root: PathLike, selector: str = "", processes: int = 0
) -> "List[RunResult]":
    """Matching results as :class:`RunResult` values (either format)."""
    from repro.experiments.runner import RunResult

    return [
        RunResult.from_dict(record["result"])
        for record in store_records(root, selector, processes)
    ]


def verify_store(root: PathLike) -> Dict[str, Any]:
    """Full CRC verification; summary stats for the CLI."""
    path = Path(root)
    if not is_record_store(path):
        records = _legacy_records(path, "")
        return {
            "format": "legacy",
            "records": len(records),
            "distinct_keys": len(records),
            "blocks": 0,
            "corrupt_blocks": 0,
            "codec_blocks": {},
            "shard_bytes": sum(
                p.stat().st_size for p in path.glob("*.json")
            ),
        }
    report = scan_store(path, "")
    return {
        "format": "record",
        "records": report.total_records,
        "distinct_keys": len(report.latest),
        "blocks": report.blocks,
        "corrupt_blocks": report.corrupt_blocks,
        "codec_blocks": dict(sorted(report.codec_blocks.items())),
        "shard_bytes": report.shard_bytes,
    }


# ----------------------------------------------------------------------
# Trend diffs across sweeps
# ----------------------------------------------------------------------


def _row_map(rows: "List[GroupSummary]") -> "Dict[Tuple[str, str, str], GroupSummary]":
    return {(r.scenario, r.fabric, r.transport): r for r in rows}


def _fmt_delta(base: Optional[float], other: Optional[float]) -> str:
    if base is None or other is None:
        return "-"
    if base == 0:
        return f"{other:+.2f}"
    return f"{(other - base) / base * 100:+.1f}%"


def format_trend_diff(
    base_rows: "List[GroupSummary]",
    other_rows: "List[GroupSummary]",
    base_label: str = "base",
    other_label: str = "other",
) -> str:
    """Per-configuration deltas between two aggregated sweeps.

    Configurations present in only one sweep are listed with the side
    they exist on, so a trend diff also surfaces coverage drift (a
    scenario that silently stopped running is itself a regression).
    """
    base_map = _row_map(base_rows)
    other_map = _row_map(other_rows)
    lines = [
        f"{'configuration':<26} {'mean Gbps':>20} {'p99 FCT ms':>20} "
        f"{'drops':>14}"
    ]
    lines.append(
        f"{'':<26} {base_label:>9} {'-> ' + other_label:>10} "
        f"{base_label:>9} {'-> ' + other_label:>10} {'':>14}"
    )
    for cfg in sorted(set(base_map) | set(other_map)):
        scenario, fabric, transport = cfg
        label = f"{scenario}:{fabric}+{transport}"
        a, b = base_map.get(cfg), other_map.get(cfg)
        if a is None or b is None:
            side = other_label if a is None else base_label
            lines.append(f"{label:<26} (only in {side})")
            continue
        a_rate = a.rates_gbps.mean if a.rates_gbps else None
        b_rate = b.rates_gbps.mean if b.rates_gbps else None
        a_fct = a.fcts_ns.p99 / 1e6 if a.fcts_ns else None
        b_fct = b.fcts_ns.p99 / 1e6 if b.fcts_ns else None
        rate_cell = (
            f"{a_rate:.2f} -> {b_rate:.2f} ({_fmt_delta(a_rate, b_rate)})"
            if a_rate is not None and b_rate is not None
            else "-"
        )
        fct_cell = (
            f"{a_fct:.2f} -> {b_fct:.2f} ({_fmt_delta(a_fct, b_fct)})"
            if a_fct is not None and b_fct is not None
            else "-"
        )
        drop_cell = f"{a.drops} -> {b.drops}"
        lines.append(
            f"{label:<26} {rate_cell:>20} {fct_cell:>20} {drop_cell:>14}"
        )
    return "\n".join(lines)
