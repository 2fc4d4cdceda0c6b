"""Import a legacy ``.experiment-store`` directory into a record store.

The legacy layout is one ``<hash>.json`` per cell plus optional
``<hash>.telemetry.jsonl`` sidecars.  Migration reproduces exactly
what the (fixed) legacy ``get()`` would have returned for each cell —
the result dict, with a sidecar's telemetry attached only when the
cell itself stored none — so a migrated store serves bit-identical
``RunResult`` values.  Source files are never modified or removed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.store.cells import RecordStore
from repro.store.meta import STORE_META_NAME


@dataclass
class MigrationReport:
    """What a migration moved (and what it could not)."""

    cells: int = 0
    with_telemetry: int = 0
    skipped: int = 0

    def __str__(self) -> str:
        return (
            f"{self.cells} cells migrated "
            f"({self.with_telemetry} with telemetry, "
            f"{self.skipped} unreadable skipped)"
        )


def migrate_legacy(
    src: Union[str, Path],
    dst: Union[str, Path],
    num_shards: Optional[int] = None,
) -> MigrationReport:
    """Copy every legacy cell in ``src`` into a record store at ``dst``."""
    src_path = Path(src)
    dst_path = Path(dst)
    if src_path.resolve() == dst_path.resolve():
        raise ValueError(
            "migration source and destination must differ "
            f"(both {src_path})"
        )
    if not src_path.is_dir():
        raise FileNotFoundError(f"legacy store {src_path} does not exist")
    store = RecordStore(dst_path, num_shards=num_shards)
    report = MigrationReport()
    for cell in sorted(src_path.glob("*.json")):
        if cell.name == STORE_META_NAME:
            continue
        try:
            data = json.loads(cell.read_text(encoding="utf-8"))
            spec = data["spec"]
            result = data["result"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            report.skipped += 1
            continue
        key = cell.stem
        sidecar = src_path / f"{key}.telemetry.jsonl"
        if result.get("telemetry") is None and sidecar.exists():
            # Mirror the legacy get(): a sidecar only speaks for a cell
            # that stored no telemetry of its own.
            from repro.telemetry.export import read_jsonl

            result = dict(result)
            result["telemetry"] = read_jsonl(sidecar)
            report.with_telemetry += 1
        elif result.get("telemetry") is not None:
            report.with_telemetry += 1
        store.put_record(key, spec, result)
        report.cells += 1
    store.flush()
    return report
