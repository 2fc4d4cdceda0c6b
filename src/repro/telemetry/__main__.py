"""Telemetry CLI: convert stored artifacts into Perfetto timelines.

Usage::

    # From a record store holding one instrumented cell (``--key``
    # picks one of several by content hash or spec-key prefix):
    python -m repro.telemetry export .experiment-store -o timeline.json

    # The compact JSONL artifact, and a summary read back from it:
    python -m repro.telemetry export .experiment-store --jsonl -o t.jsonl
    python -m repro.telemetry summary t.jsonl

Open the exported JSON in https://ui.perfetto.dev or chrome://tracing.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import run_main
from repro.store.format import StoreFormatError
from repro.telemetry.export import load_artifact, write_jsonl, write_perfetto


def cmd_export(args: argparse.Namespace) -> int:
    artifact = load_artifact(args.input, key=args.key)
    if args.jsonl:
        count = write_jsonl(args.output, artifact)
        print(f"wrote {count} JSONL lines to {args.output}")
        return 0
    count = write_perfetto(args.output, artifact)
    print(
        f"wrote {count} trace events "
        f"({len(artifact.get('series', []))} series, "
        f"{len(artifact.get('spans', []))} spans) to {args.output}"
    )
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    artifact = load_artifact(args.input, key=args.key)
    print(f"schema:      {artifact.get('schema')}")
    print(f"sim time:    {artifact.get('sim_time_ns')} ns")
    print(f"samples:     {artifact.get('samples')}")
    print(f"events:      {artifact.get('events_fired')}")
    series = artifact.get("series", [])
    print(f"series ({len(series)}):")
    for s in series:
        last = s["points"][-1] if s["points"] else None
        tail = f"last={last[1]:g} @ {last[0]}ns" if last else "empty"
        drop = f" dropped={s['dropped']}" if s.get("dropped") else ""
        print(f"  {s['name']:<36} {len(s['points']):>6} pts  {tail}{drop}")
    spans = artifact.get("spans", [])
    finished = [sp for sp in spans if sp.get("fct_ns") is not None]
    print(f"spans: {len(spans)} flows, {len(finished)} finished")
    if finished:
        fcts = sorted(sp["fct_ns"] for sp in finished)
        print(
            f"  fct min/median/max: {fcts[0]} / "
            f"{fcts[len(fcts) // 2]} / {fcts[-1]} ns"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="telemetry artifact tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_export = sub.add_parser(
        "export", help="write a Perfetto/Chrome-trace JSON timeline"
    )
    p_export.add_argument(
        "input",
        help="record-store directory, telemetry .jsonl or artifact "
             ".json",
    )
    p_export.add_argument(
        "-o", "--output", default="timeline.json",
        help="output path (default: timeline.json)",
    )
    p_export.add_argument(
        "--key", default=None,
        help="cell key / spec-key prefix (record-store inputs)",
    )
    p_export.add_argument(
        "--jsonl", action="store_true",
        help="write the compact JSONL artifact instead of Perfetto",
    )
    p_export.set_defaults(fn=cmd_export)

    p_summary = sub.add_parser(
        "summary", help="print what an artifact contains"
    )
    p_summary.add_argument(
        "input",
        help="record-store directory, telemetry .jsonl or artifact "
             ".json",
    )
    p_summary.add_argument(
        "--key", default=None,
        help="cell key / spec-key prefix (record-store inputs)",
    )
    p_summary.set_defaults(fn=cmd_summary)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, StoreFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    run_main(main)
