"""Cross-sweep queries: scans, verification, aggregation, trend diffs.

This is the serving layer: everything ``python -m repro.experiments
query`` does lands here.  Reads come in two flavors:

* **indexed** — prefix lookups through the per-shard indexes (the fast
  path for selectors like ``scenario=permutation/fabric=*``);
* **integrity scans** — straight over the shard bytes in block order,
  verifying every CRC.  A scan learns each record's key from the
  payload's first bytes and parses only the records its caller reads
  back — verification parses none.  The scan is serial: zlib blocks
  decompress faster than a ``multiprocessing`` pool ships them to
  workers and back (a pool lost at every store size measured).

Both read an existing record store only: a path that holds none raises
:class:`~repro.store.format.StoreFormatError` and is left untouched
(old one-JSON-per-cell directories go through
``python -m repro.experiments migrate`` first).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.store.cells import (
    open_record_store,
    prefix_from_selector,
    record_key,
)
from repro.store.format import BlockCorruptError, block_codec, read_block

if TYPE_CHECKING:
    from repro.experiments.runner import RunResult
    from repro.experiments.summarize import GroupSummary

PathLike = Union[str, os.PathLike]


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


def scan_store(root: PathLike, selector: str = "") -> ScanReport:
    """CRC-verify every block of a record store, collecting records.

    The report holds the latest record per key (``.records``: filtered
    by ``selector``, sorted by spec key); blocks are read in order, so
    the last put of a key wins.
    """
    shards = open_record_store(root).open_shards()
    report = ScanReport(
        prefix=prefix_from_selector(selector),
        # Blocks skipped during open-time tail scans never made the
        # index, so count them up front.
        corrupt_blocks=sum(s.corrupt_blocks for s in shards),
        blocks=sum(len(s.blocks()) for s in shards),
        shard_bytes=sum(s.path.stat().st_size for s in shards),
    )
    for shard in shards:
        for buf in shard.read_blocks():
            try:
                payloads, _ = read_block(buf, 0)
            except BlockCorruptError:
                report.corrupt_blocks += 1
                continue
            codec = block_codec(buf)
            report.codec_blocks[codec] = report.codec_blocks.get(codec, 0) + 1
            report.total_records += len(payloads)
            for payload in payloads:
                report.latest[record_key(payload)] = payload
    return report


# ----------------------------------------------------------------------
# Record access
# ----------------------------------------------------------------------


def store_records(root: PathLike, selector: str = "") -> List[Dict[str, Any]]:
    """Matching records, spec-key sorted, by indexed prefix lookup
    (:func:`scan_store`'s ``.records`` is the integrity-scan path)."""
    return list(open_record_store(root).iter_records(selector))


def record_results(records: List[Dict[str, Any]]) -> "List[RunResult]":
    """Store records as :class:`RunResult` values."""
    from repro.experiments.runner import RunResult

    return [RunResult.from_dict(record["result"]) for record in records]


def store_results(root: PathLike, selector: str = "") -> "List[RunResult]":
    """Matching results as :class:`RunResult` values."""
    return record_results(store_records(root, selector))


def verify_store(root: PathLike) -> Dict[str, Any]:
    """Full CRC verification; summary stats for the CLI."""
    report = scan_store(root, "")
    return {
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
