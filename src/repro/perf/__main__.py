"""Command-line front end: ``python -m repro.perf``.

Examples::

    python -m repro.perf                     # full suite + baseline diff
    python -m repro.perf --quick             # small sizes (smoke)
    python -m repro.perf --only link         # substring filter
    python -m repro.perf --check             # exit 1 on >10% regression
    python -m repro.perf --write-baseline    # refresh the committed baseline
    python -m repro.perf --profile 25        # cProfile each bench, top 25
    python -m repro.perf golden --check      # verify golden traces
    python -m repro.perf golden --regen      # re-record golden traces
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.perf import (
    REGRESSION_TOLERANCE,
    BenchResult,
    bench_factories,
    profile_bench,
    suite,
)
from repro.perf.golden import DEFAULT_GOLDEN_DIR, check_goldens, write_goldens
from repro.sim.engine import KERNEL_GONE
from repro.store import atomic_write_json

#: Where the committed reference numbers live.
DEFAULT_BASELINE = Path("benchmarks") / "perf_baseline.json"
#: Where a run's fresh numbers land (uploaded as a CI artifact).
DEFAULT_OUT = Path("BENCH_perf.json")
#: Where ``--profile`` writes its per-bench hotspot report.
DEFAULT_PROFILE_OUT = Path("BENCH_profile.txt")


def load_baseline(path: Path) -> Optional[Dict[str, dict]]:
    """The committed baseline's per-bench dicts, or None if absent."""
    try:
        return json.loads(Path(path).read_text())["benches"]
    except (FileNotFoundError, json.JSONDecodeError, KeyError):
        return None


def compare(
    results: List[BenchResult], baseline: Optional[Dict[str, dict]]
) -> List[dict]:
    """Per-bench comparison rows against the baseline (None-safe)."""
    rows = []
    for bench in results:
        row = {
            "name": bench.name,
            "wall_s": bench.wall_s,
            "events_per_sec": bench.events_per_sec,
            "speedup": None,
            "eps_ratio": None,
        }
        base = (baseline or {}).get(bench.name)
        if base and base.get("wall_s"):
            row["speedup"] = base["wall_s"] / bench.wall_s
        if base and base.get("events_per_sec"):
            row["eps_ratio"] = bench.events_per_sec / base["events_per_sec"]
        rows.append(row)
    return rows


def regressions(rows: List[dict]) -> List[dict]:
    """Rows whose events/sec fell below the tolerated baseline fraction."""
    floor = 1.0 - REGRESSION_TOLERANCE
    return [
        r for r in rows
        if r["eps_ratio"] is not None and r["eps_ratio"] < floor
    ]


def unbaselined(rows: List[dict]) -> List[str]:
    """Names of benches that ran but have no baseline row to diff against.

    A bench without a reference is *ungated*: it can regress arbitrarily
    and ``--check`` would still pass.  Callers must surface these —
    historically they were silently skipped, so adding a bench without
    refreshing the baseline weakened the gate without anyone noticing.
    """
    return [r["name"] for r in rows if r["eps_ratio"] is None]


def _fmt_table(rows: List[dict]) -> str:
    header = (
        f"{'bench':<32} {'wall[s]':>9} {'events/s':>12} "
        f"{'vs baseline':>12} {'speedup':>9}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        ratio = (
            f"{r['eps_ratio']:.2f}x" if r["eps_ratio"] is not None else "-"
        )
        speedup = (
            f"{r['speedup']:.2f}x" if r["speedup"] is not None else "-"
        )
        lines.append(
            f"{r['name']:<32} {r['wall_s']:>9.3f} "
            f"{r['events_per_sec']:>12,.0f} {ratio:>12} {speedup:>9}"
        )
    return "\n".join(lines)


def cmd_profile(args) -> int:
    """Run each bench under cProfile and report the top-N hotspots."""
    factories = bench_factories(quick=args.quick, only=args.only)
    if not factories:
        print(f"no bench matches --only {args.only!r}", file=sys.stderr)
        return 2
    sections = []
    for name, factory in factories:
        result, report = profile_bench(factory, args.profile)
        header = (
            f"== {name}: {result.events:,} events, "
            f"{result.wall_s:.2f}s under cProfile =="
        )
        sections.append(f"{header}\n{report}")
        print(sections[-1])
    out = Path(args.profile_out)
    out.write_text("\n".join(sections))
    print(f"profile report -> {out}")
    return 0


def cmd_bench(args) -> int:
    if args.profile:
        if args.check or args.write_baseline:
            # Profiled timings carry tracing overhead; comparing them
            # to an unprofiled baseline would be meaningless (and a
            # profiled baseline would poison every later check).
            print(
                "--profile runs are not baseline-comparable; "
                "ignoring --check/--write-baseline",
                file=sys.stderr,
            )
        return cmd_profile(args)
    if args.quick and (args.check or args.write_baseline):
        # Quick sizes are not comparable to the full-size baseline: a
        # short run amortizes setup differently, so ratios would be
        # noise (and a quick baseline would poison full-run checks).
        print(
            "--quick runs are not baseline-comparable; "
            "ignoring --check/--write-baseline",
            file=sys.stderr,
        )
        args.check = args.write_baseline = False
    results = suite(quick=args.quick, only=args.only)
    if not results:
        print(f"no bench matches --only {args.only!r}", file=sys.stderr)
        return 2
    payload = {
        "schema": 1,
        "benches": {b.name: b.to_dict() for b in results},
    }
    atomic_write_json(Path(args.out), payload)
    if args.write_baseline:
        # Merge over the existing file so a filtered run (--only) can
        # refresh one bench without erasing the others' references.
        merged = dict(load_baseline(Path(args.baseline)) or {})
        merged.update(payload["benches"])
        atomic_write_json(
            Path(args.baseline), {"schema": 1, "benches": merged}
        )
        print(f"baseline written -> {args.baseline}")
    baseline = None if args.quick else load_baseline(Path(args.baseline))
    if args.check and baseline is None:
        # A missing/corrupt baseline must not read as "no regressions".
        print(
            f"cannot --check: no readable baseline at {args.baseline}",
            file=sys.stderr,
        )
        return 1
    rows = compare(results, baseline)
    print(_fmt_table(rows))
    print(f"\nresults -> {args.out}")
    if baseline is None and not args.quick:
        print(f"(no baseline at {args.baseline}; ratios omitted)")
    missing = unbaselined(rows) if baseline is not None else []
    if missing:
        names = ", ".join(missing)
        print(
            f"WARNING: no baseline row for: {names} "
            f"(these benches are not regression-gated)",
            file=sys.stderr,
        )
        if args.check and not args.allow_missing:
            print(
                "cannot --check: the baseline is missing benches "
                "(refresh it with --write-baseline, or pass "
                "--allow-missing to gate only the covered ones)",
                file=sys.stderr,
            )
            return 1
    headline = next(
        (r for r in rows if r["name"] == "permutation_default"), None
    )
    if headline and headline["speedup"] is not None:
        print(
            f"default permutation spec: {headline['speedup']:.2f}x "
            f"wall-clock vs committed baseline"
        )
    bad = regressions(rows)
    if bad:
        names = ", ".join(r["name"] for r in bad)
        print(
            f"PERF REGRESSION (> {REGRESSION_TOLERANCE:.0%} below "
            f"baseline events/sec): {names}",
            file=sys.stderr,
        )
        if args.check:
            return 1
    elif args.check:
        print("perf check passed (all benches within tolerance)")
    return 0


def cmd_golden(args) -> int:
    directory = Path(args.dir)
    if args.regen:
        paths = write_goldens(directory)
        print(f"{len(paths)} golden traces recorded -> {directory}")
        return 0
    drifted = check_goldens(directory)
    if not drifted:
        print(f"golden traces OK ({directory})")
        return 0
    for name, diff in drifted:
        print(f"DRIFT {name}:", file=sys.stderr)
        for field, (recorded, computed) in diff.items():
            print(
                f"  {field}: recorded={recorded!r} computed={computed!r}",
                file=sys.stderr,
            )
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Hot-path benchmarks and golden-trace checks.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes, skip the headline bench (smoke/CI-fast)",
    )
    parser.add_argument(
        "--only", default=None, help="run benches whose name contains this"
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_OUT),
        help=f"where to write results (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE),
        help=f"committed baseline to diff against (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="also record this run as the new committed baseline",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit 1 if events/sec regresses more than "
             f"{REGRESSION_TOLERANCE:.0%} vs the baseline, or if a "
             f"bench has no baseline row (see --allow-missing)",
    )
    parser.add_argument(
        "--allow-missing", action="store_true",
        help="with --check: warn instead of failing when a bench has "
             "no baseline row (gates only the covered benches)",
    )
    parser.add_argument("--kernel", help=argparse.SUPPRESS)  # gone: says so
    parser.add_argument(
        "--profile", type=int, default=0, metavar="N",
        help="run each bench under cProfile and report the top-N "
             "cumulative hotspots (skips the baseline diff)",
    )
    parser.add_argument(
        "--profile-out", default=str(DEFAULT_PROFILE_OUT),
        help=f"where --profile writes its report "
             f"(default {DEFAULT_PROFILE_OUT})",
    )
    sub = parser.add_subparsers(dest="command")
    golden = sub.add_parser(
        "golden", help="check or re-record the golden-trace matrix"
    )
    golden.add_argument(
        "--dir", default=str(DEFAULT_GOLDEN_DIR),
        help=f"golden trace directory (default {DEFAULT_GOLDEN_DIR})",
    )
    mode = golden.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", dest="golden_check", action="store_true",
        help="verify recorded digests (the default)",
    )
    mode.add_argument(
        "--regen", action="store_true",
        help="re-record digests (only after an intentional change)",
    )

    args = parser.parse_args(argv)
    if args.command == "golden":
        return cmd_golden(args)
    if args.kernel is not None:
        print(f"error: {KERNEL_GONE.format(args.kernel)}", file=sys.stderr)
        return 2
    return cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
