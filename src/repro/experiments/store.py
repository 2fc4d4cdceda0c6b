"""Content-hash keyed result cache.

Each completed cell of a sweep is one JSON file named by the spec's
content hash, holding both the spec (for provenance/debugging) and the
result.  Re-running a sweep therefore only pays for cells whose spec
actually changed — the same trick build systems use, applied to
simulation matrices.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import List, Optional

from repro.experiments.runner import RunResult
from repro.experiments.spec import ScenarioSpec
from repro.store.cells import default_store_dir, open_store as _open_store


def atomic_write_json(path: os.PathLike, payload, indent: int = 1) -> Path:
    """Write ``payload`` as canonical JSON at ``path``, atomically.

    Writes to a temp file in the destination directory and renames it
    into place, so readers never observe a half-written cell.  Shared by
    the result store and the perf harness (``BENCH_perf.json``, golden
    traces), which all promise crash-consistent output files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, indent=indent)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


class ResultStore:
    """Directory of ``<spec-hash>.json`` result cells."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(default_store_dir() if root is None else root)
        self.hits = 0
        self.misses = 0
        self._sweep_orphans()

    def _sweep_orphans(self) -> None:
        """Remove ``*.tmp`` leftovers from writers killed mid-write.

        ``atomic_write_json`` guarantees no half-written *cell* is ever
        visible, but a kill between mkstemp and rename strands the temp
        file itself; left alone those accumulate forever.
        """
        if not self.root.is_dir():
            return
        for orphan in self.root.glob("*.tmp"):
            try:
                orphan.unlink()
            except OSError:
                pass

    def path_for(self, spec: ScenarioSpec) -> Path:
        """Where this spec's result cell lives (whether or not present)."""
        return self.root / f"{spec.content_hash()}.json"

    def telemetry_path_for(self, spec: ScenarioSpec) -> Path:
        """Where this spec's telemetry JSONL sidecar lives (if any).

        Kept out of the cell JSON so instrumented cells stay small and
        ``python -m repro.telemetry export`` can stream the sidecar
        directly; ``.jsonl`` also keeps it out of :meth:`cells`.
        """
        return self.root / f"{spec.content_hash()}.telemetry.jsonl"

    def has(self, spec: ScenarioSpec) -> bool:
        """Whether a completed cell exists for this exact spec."""
        return self.path_for(spec).exists()

    def get(self, spec: ScenarioSpec) -> Optional[RunResult]:
        """The cached result for ``spec``, or None (counts hit/miss)."""
        path = self.path_for(spec)
        try:
            data = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            self.misses += 1
            return None
        self.hits += 1
        result = RunResult.from_dict(data["result"])
        if result.telemetry is None:
            sidecar = self.root / f"{path.stem}.telemetry.jsonl"
            if sidecar.exists():
                from repro.telemetry.export import read_jsonl

                result.telemetry = read_jsonl(sidecar)
        return result

    def put(self, spec: ScenarioSpec, result: RunResult) -> Path:
        """Persist one cell atomically; returns its path.

        An attached telemetry artifact is split out into the JSONL
        sidecar (:meth:`telemetry_path_for`); :meth:`get` reattaches it
        transparently on cache hits.
        """
        data = result.to_dict()
        telemetry = data.pop("telemetry", None)
        path = atomic_write_json(
            self.path_for(spec),
            {"spec": spec.to_dict(), "result": data},
        )
        if telemetry:
            from repro.telemetry.export import write_jsonl

            write_jsonl(self.telemetry_path_for(spec), telemetry)
        else:
            # Telemetry presence is part of the stored value: a put
            # without telemetry must also retire any sidecar a previous
            # instrumented run left, or get() would forever reattach
            # stale samples to fresh results.
            self.telemetry_path_for(spec).unlink(missing_ok=True)
        return path

    def flush(self) -> None:
        """Nothing to do: every :meth:`put` is already on disk."""

    def cells(self) -> List[Path]:
        """All stored cell files."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    def __len__(self) -> int:
        return len(self.cells())

    def clear(self) -> int:
        """Delete every cell (and telemetry sidecar); returns how many
        cells were removed."""
        removed = 0
        for path in self.cells():
            path.unlink()
            removed += 1
        if self.root.is_dir():
            for sidecar in self.root.glob("*.telemetry.jsonl"):
                sidecar.unlink()
            for orphan in self.root.glob("*.tmp"):
                orphan.unlink()
        return removed


def open_store(root: Optional[os.PathLike] = None, store_format: str = "auto"):
    """Open ``root`` as whichever store format it holds.

    Compat facade over :func:`repro.store.open_store`: new sweeps land
    on the sharded record format (:class:`repro.store.RecordStore`),
    while directories of legacy ``<hash>.json`` cells keep opening as
    :class:`ResultStore`.
    """
    return _open_store(root, store_format)
