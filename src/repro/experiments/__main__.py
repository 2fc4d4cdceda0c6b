"""Command-line front end: ``python -m repro.experiments``.

Examples::

    python -m repro.experiments list
    python -m repro.experiments show permutation --kind dctcp
    python -m repro.experiments run permutation \
        --kinds stardust,dctcp --seeds 3 --shards 4
    python -m repro.experiments run incast --kinds stardust,tcp \
        --set n_backends=8 --set response_bytes=100000
    python -m repro.experiments run permutation_link_failure \
        --kinds stardust
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List

from repro.experiments.registry import (
    UnknownScenarioError,
    build_scenario,
    get_scenario,
    scenario_names,
)
from repro.experiments.runner import run_matrix
from repro.experiments.spec import ScenarioSpec
from repro.experiments.summarize import (
    aggregate,
    format_resilience,
    format_table,
)
from repro.fabrics import FABRICS
from repro.store.cells import RecordStore, default_store_dir
from repro.store.format import StoreFormatError


def _parse_value(text: str) -> Any:
    """Interpret a --set value: JSON literal if possible, else string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_params(pairs: List[str]) -> Dict[str, Any]:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        params[key.strip()] = _parse_value(value.strip())
    return params


def _build_matrix(args) -> List[ScenarioSpec]:
    params = _parse_params(args.set or [])
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    base_params = dict(params)
    base_seed = base_params.pop("seed", None)
    specs = []
    for kind in kinds:
        first = build_scenario(args.scenario, kind=kind, **base_params)
        start = base_seed if base_seed is not None else first.seed
        for offset in range(args.seeds):
            specs.append(first.with_updates(seed=start + offset))
    return specs


def cmd_list(_args) -> int:
    print("scenarios:")
    for name in scenario_names():
        entry = get_scenario(name)
        print(f"  {name:<24} {entry.description}")
    print("\nfabrics:")
    for name, cls in sorted(FABRICS.items()):
        print(f"  {name:<24} {cls.__doc__.strip().splitlines()[0]}")
    return 0


def cmd_show(args) -> int:
    params = _parse_params(args.set or [])
    spec = build_scenario(args.scenario, kind=args.kind, **params)
    print(spec.to_json(indent=2))
    print(f"# content hash: {spec.content_hash()}", file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    specs = _build_matrix(args)
    if args.telemetry:
        from repro.telemetry.probes import TelemetryConfig

        telemetry = TelemetryConfig(
            sample_interval_ns=args.sample_interval_ns
        ).to_dict()
        specs = [s.with_updates(telemetry=telemetry) for s in specs]
    store = None if args.no_cache else RecordStore(args.store)
    started = time.monotonic()
    results = run_matrix(
        specs, shards=args.shards, store=store, progress=print,
        live=args.progress,
    )
    elapsed = time.monotonic() - started

    if args.telemetry and store is not None:
        print(f"telemetry: stored in-record under {store.root}")

    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=1))
        return 0

    print(
        f"\n{len(results)} cells ({len(specs)} requested) "
        f"in {elapsed:.1f}s wall"
        + (
            f"; cache: {store.hits} hits, {store.misses} misses "
            f"-> {store.root}"
            if store is not None
            else ""
        )
    )
    print()
    print(format_table(aggregate(results)))
    resilience = format_resilience(results)
    if resilience:
        print("\nresilience:")
        print(resilience)
    return 0


def cmd_query(args) -> int:
    from repro.store.query import (
        format_trend_diff,
        record_results,
        scan_store,
        store_records,
        store_results,
    )

    root = args.store or default_store_dir()
    if args.verify:
        # One scan both CRC-checks every block and yields the records.
        report = scan_store(root, args.selector)
        if report.corrupt_blocks:
            print(
                f"warning: {report.corrupt_blocks} corrupt blocks "
                f"skipped in {root}",
                file=sys.stderr,
            )
        records = report.records
    else:
        records = store_records(root, args.selector)
    if args.list:
        for record in records:
            print(record["spec_key"])
        return 0
    results = record_results(records)
    if args.diff:
        base = aggregate(results)
        other = aggregate(store_results(args.diff, args.selector))
        print(
            format_trend_diff(
                base, other, base_label="base", other_label="other"
            )
        )
        print(f"\nbase:  {root}\nother: {args.diff}")
        return 0
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=1))
        return 0
    if not results:
        print(f"no cells match {args.selector!r} in {root}")
        return 1
    print(f"{len(results)} cells match {args.selector!r} in {root}\n")
    print(format_table(aggregate(results)))
    resilience = format_resilience(results)
    if resilience:
        print("\nresilience:")
        print(resilience)
    return 0


def cmd_migrate(args) -> int:
    from repro.store.migrate import migrate_legacy
    from repro.store.query import verify_store

    report = migrate_legacy(args.src, args.dst, num_shards=args.shards)
    print(report)
    stats = verify_store(args.dst)
    print(
        f"destination: {stats['records']} records in {stats['blocks']} "
        f"blocks, {stats['shard_bytes']} bytes, "
        f"{stats['corrupt_blocks']} corrupt"
    )
    return 0 if stats["corrupt_blocks"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Declarative scenario runner for the Stardust repro.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios")

    show = sub.add_parser("show", help="print a scenario's spec as JSON")
    show.add_argument("scenario")
    show.add_argument("--kind", default="stardust")
    show.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )

    run = sub.add_parser("run", help="run a scenario matrix")
    run.add_argument("scenario")
    run.add_argument(
        "--kinds", default="stardust",
        help="comma-separated kinds (stardust,tcp,dctcp,mptcp,dcqcn)",
    )
    run.add_argument(
        "--seeds", type=int, default=1,
        help="number of consecutive seeds per kind",
    )
    run.add_argument(
        "--shards", type=int, default=1,
        help="worker processes for the sweep",
    )
    run.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    run.add_argument(
        "--store", default=None,
        help="result store directory (default .experiment-store "
             "or $REPRO_EXPERIMENT_STORE)",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="always run, never read or write the store",
    )
    run.add_argument(
        "--json", action="store_true", help="emit raw results as JSON"
    )
    run.add_argument(
        "--progress", action="store_true",
        help="report each cell as it completes (wall time, events/s, "
             "sim-time rate, ETA)",
    )
    run.add_argument(
        "--telemetry", action="store_true",
        help="instrument every cell (time-series probes + flow spans; "
             "see python -m repro.telemetry export)",
    )
    run.add_argument(
        "--sample-interval-ns", type=int, default=10_000,
        help="telemetry sampling cadence (with --telemetry)",
    )

    query = sub.add_parser(
        "query",
        help="aggregate stored sweeps without re-running anything",
    )
    query.add_argument(
        "selector", nargs="?", default="",
        help="spec-key prefix, e.g. scenario=permutation/fabric=*",
    )
    query.add_argument(
        "--store", default=None, help="record store directory"
    )
    query.add_argument(
        "--json", action="store_true", help="emit raw results as JSON"
    )
    query.add_argument(
        "--list", action="store_true",
        help="print matching spec keys instead of aggregating",
    )
    query.add_argument(
        "--diff", metavar="OTHERSTORE", default=None,
        help="trend-diff aggregates against a second store",
    )
    query.add_argument(
        "--verify", action="store_true",
        help="CRC-verify every block while reading",
    )

    migrate = sub.add_parser(
        "migrate", help="import a legacy store into the record format"
    )
    migrate.add_argument("src", help="legacy one-JSON-per-cell directory")
    migrate.add_argument("dst", help="destination record store")
    migrate.add_argument(
        "--shards", type=int, default=None,
        help="shard count for the destination (default 8)",
    )

    args = parser.parse_args(argv)
    handler = {
        "list": cmd_list,
        "show": cmd_show,
        "run": cmd_run,
        "query": cmd_query,
        "migrate": cmd_migrate,
    }[args.command]
    try:
        return handler(args)
    except (
        UnknownScenarioError, ValueError, TypeError,
        FileNotFoundError, StoreFormatError,
    ) as exc:
        # Bad scenario names, fabrics, kinds, parameters, config
        # overrides, missing stores and unreadable store formats all
        # surface here as one-line errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
