"""Timeline export: Chrome-trace / Perfetto JSON and compact JSONL.

The Perfetto trace-event format (``{"traceEvents": [...]}``) renders in
``ui.perfetto.dev`` or ``chrome://tracing``:

* every telemetry series becomes a counter track (``ph: "C"``);
* every finished flow becomes a complete span (``ph: "X"``) on its own
  row, with the FCT breakdown in ``args``.

Timestamps are microseconds (the format's unit); sim nanoseconds divide
by 1000 losslessly enough at fabric scale.

The JSONL form is the compact, streamable and diff-friendly shape
``python -m repro.telemetry export --jsonl`` writes: a header line, one
line per series, one per span.  :func:`read_jsonl` reconstructs the
artifact dict, so ``export`` and ``summary`` read it back as readily as
a record-store directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

PathLike = Union[str, Path]

#: Perfetto pid/tid namespaces: one fake "process" per track family.
_PID_SERIES = 1
_PID_FLOWS = 2


def perfetto_trace(artifact: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a telemetry artifact into a Chrome-trace/Perfetto dict."""
    events: List[Dict[str, Any]] = [
        _meta(_PID_SERIES, "process_name", name="telemetry.series"),
        _meta(_PID_FLOWS, "process_name", name="telemetry.flows"),
    ]
    for series in artifact.get("series", []):
        name = series["name"]
        arg = series.get("unit") or "value"
        for t, v in series.get("points", []):
            events.append({
                "ph": "C",
                "name": name,
                "pid": _PID_SERIES,
                "tid": 0,
                "ts": t / 1000.0,
                "args": {arg: v},
            })
    for span in artifact.get("spans", []):
        event = _flow_event(span)
        if event is not None:
            events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "schema": artifact.get("schema"),
            "sim_time_ns": artifact.get("sim_time_ns"),
            "samples": artifact.get("samples"),
        },
    }


def _meta(pid: int, field: str, **args: Any) -> Dict[str, Any]:
    return {"ph": "M", "pid": pid, "tid": 0, "name": field, "args": args}


def _flow_event(span: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """A flow as one complete-span event (its own row).

    Finished flows span start to completion; long-running/unfinished
    flows (permutation workloads never complete) span to the last
    observed packet and are marked ``incomplete``.
    """
    start = span.get("start_ns")
    fct = span.get("fct_ns")
    incomplete = False
    if start is not None and fct is None:
        last = span.get("last_in_ns") or span.get("last_out_ns")
        if last is not None and last > start:
            fct = last - start
            incomplete = True
    if start is None or fct is None:
        return None
    args = {
        k: span[k]
        for k in (
            "src", "dst", "size_bytes", "bytes_delivered",
            "first_out_ns", "first_in_ns", "last_in_ns",
            "host_ns", "serialization_ns", "propagation_ns",
            "queueing_ns",
        )
        if k in span and span[k] is not None
    }
    if incomplete:
        args["incomplete"] = True
    return {
        "ph": "X",
        "name": f"flow{span['flow_id']}",
        "pid": _PID_FLOWS,
        "tid": span["flow_id"],
        "ts": start / 1000.0,
        "dur": fct / 1000.0,
        "args": args,
    }


def write_perfetto(path: PathLike, artifact: Dict[str, Any]) -> int:
    """Write the Perfetto JSON to ``path``; returns the event count."""
    trace = perfetto_trace(artifact)
    Path(path).write_text(
        json.dumps(trace, sort_keys=True), encoding="utf-8"
    )
    return len(trace["traceEvents"])


# ----------------------------------------------------------------------
# Compact JSONL
# ----------------------------------------------------------------------
def write_jsonl(path: PathLike, artifact: Dict[str, Any]) -> int:
    """Write the artifact as JSONL: one ``header`` line, then one line
    per series and per span.  Returns the line count."""
    lines = list(jsonl_lines(artifact))
    with Path(path).open("w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    return len(lines)


def jsonl_lines(artifact: Dict[str, Any]) -> Iterable[str]:
    """The artifact as serialized JSONL lines (streamable)."""
    header = {
        "type": "header",
        **{
            k: artifact[k]
            for k in (
                "schema", "config", "sim_time_ns", "samples",
                "events_fired", "hints", "meta",
            )
            if k in artifact
        },
    }
    yield json.dumps(header, sort_keys=True)
    for series in artifact.get("series", []):
        yield json.dumps({"type": "series", **series}, sort_keys=True)
    for span in artifact.get("spans", []):
        yield json.dumps({"type": "span", **span}, sort_keys=True)


def read_jsonl(path: PathLike) -> Dict[str, Any]:
    """Rebuild an artifact dict from its JSONL form."""
    artifact: Dict[str, Any] = {"series": [], "spans": []}
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.pop("type", None)
            if kind == "header":
                artifact.update(obj)
            elif kind == "series":
                artifact["series"].append(obj)
            elif kind == "span":
                artifact["spans"].append(obj)
            else:
                raise ValueError(f"unknown telemetry line type {kind!r}")
    return artifact


def load_artifact(path: PathLike, key: Optional[str] = None) -> Dict[str, Any]:
    """Load a telemetry artifact from a file or a record store.

    Accepts a ``.jsonl`` artifact, a bare artifact JSON, or a
    **record-store directory** — there telemetry lives inside the cell
    records, selected by ``key`` (a spec content hash or spec-key
    prefix); with no ``key`` the store must hold exactly one
    instrumented cell.  A directory that holds no record store raises
    :class:`~repro.store.format.StoreFormatError`.
    """
    path = Path(path)
    if path.is_dir():
        return _artifact_from_record_store(path, key)
    if path.suffix == ".jsonl":
        return read_jsonl(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if "series" in data:
        return data
    raise ValueError(f"no telemetry artifact found in {path}")


def _artifact_from_record_store(
    root: Path, key: Optional[str]
) -> Dict[str, Any]:
    """Telemetry out of a sharded record store's cell records."""
    from repro.store import open_record_store

    store = open_record_store(root)
    if key is not None:
        record = store.get_record(key)
        if record is not None:
            telemetry = record.get("result", {}).get("telemetry")
            if telemetry:
                return telemetry
            raise ValueError(f"cell {key} in {root} has no telemetry")
    instrumented = [
        record
        for record in store.iter_records(key or "")
        if record.get("result", {}).get("telemetry")
    ]
    if not instrumented:
        raise ValueError(
            f"no instrumented cells match {key or '*'!r} in {root}"
        )
    if len(instrumented) > 1:
        keys = ", ".join(r["key"] for r in instrumented[:5])
        raise ValueError(
            f"{len(instrumented)} instrumented cells match in {root}; "
            f"pick one with its key ({keys}, ...)"
        )
    return instrumented[0]["result"]["telemetry"]
