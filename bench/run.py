"""The repository's benchmark: one command, one workload per run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--kernel K] [--smoke] [--json OUT]
    python3 bench/run.py --compare A.jsonl B.jsonl

A run prints every metric by name with its unit, then — as the last
line of standard output — one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones; names, units and
bounds are declared in ``BENCHMARK.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Process start as near as a script can see it: after the interpreter
#: and the stdlib imports above (~40 ms), before everything ``setup_s``
#: is meant to catch - importing the simulator, specs, warm-up, preload.
_PROCESS_START = time.perf_counter()

SCHEMA_VERSION = 1
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load_manifest() -> Dict[str, Any]:
    """``BENCHMARK.json``: the declared names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_units(manifest: Dict[str, Any], trace: int) -> Dict[str, str]:
    section = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in manifest[section]}


def revision() -> Dict[str, Any]:
    """Git revision and dirty flag; nulls outside a git checkout."""
    if not (ROOT / ".git").exists():
        return {"git": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()

    try:
        return {
            "git": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain")),
        }
    except (OSError, subprocess.SubprocessError):
        return {"git": None, "dirty": None}


def run_benchmark(
    workload_name: str,
    seconds: float,
    seed: int = 7,
    trace: int = 0,
    kernel: Optional[str] = None,
    smoke: bool = False,
    out_dir: Path = BENCH_DIR / "out",
) -> Dict[str, Any]:
    """Run one workload; returns the full result document."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"bench/run.py measures the simulator under {ROOT / 'src'}, "
            "which is not there"
        )
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import lifecycle
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    workload = WORKLOADS[workload_name]
    units = declared_units(load_manifest(), trace)
    work_dir = out_dir / f"run-{os.getpid()}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    try:
        if trace:
            import tracing

            outcome = tracing.trace(
                workload, seed, kernel, smoke, work_dir,
                out_dir / f"trace-{workload_name}.json",
            )
        else:
            outcome = lifecycle.measure(
                workload, seed, seconds, kernel, smoke, work_dir, import_s
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values: Dict[str, float] = outcome["values"]
    failures: List[str] = outcome["failures"]
    undeclared = sorted(set(values) - set(units))
    absent = sorted(set(units) - set(values))
    if undeclared:
        failures.append(f"emitted but not declared: {', '.join(undeclared)}")
    if absent:
        failures.append(f"declared but not measured: {', '.join(absent)}")
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
        if name in units
    }
    return {
        "schema": SCHEMA_VERSION,
        "workload": workload_name,
        "seed": seed,
        "kernel": kernel,
        "trace": trace,
        "smoke": smoke,
        "seconds": seconds,
        "revision": revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "sizes": outcome["sizes"],
        "digest": outcome["digest"],
        "missing_spans": outcome.get("missing_spans", []),
        "correct": not failures,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "failures": failures,
        "metrics": metrics,
        # Per repetition: each metric's samples, and the raw walls and
        # yardstick slices they were normalised from (untraced runs).
        "samples": outcome.get("samples", {}),
        "raw": outcome.get("raw", {}),
    }


def render(doc: Dict[str, Any]) -> str:
    """The human-readable report that precedes the result line."""
    lines = [
        f"workload {doc['workload']}  seed {doc['seed']}  "
        f"kernel {doc['kernel'] or 'default'}  trace {doc['trace']}"
        + ("  SMOKE SIZES" if doc["smoke"] else "")
    ]
    for name, metric in doc["metrics"].items():
        values = doc["samples"].get(name, ())
        spread = (
            f"  (n={len(values)} min {min(values):.6g} max {max(values):.6g})"
            if len(values) > 1
            else ""
        )
        lines.append(
            f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}{spread}"
        )
    lines.append(f"  {'sim.digest':<34} {doc['digest']:>14}")
    for key, value in doc["sizes"].items():
        lines.append(f"  size.{key:<29} {value:>14.6g}")
    share = doc["failed"] / doc["attempted"]
    lines.append(
        f"  ops attempted {doc['attempted']}  failed {doc['failed']}  "
        f"failed_share {share:.6g}"
    )
    lines.extend(f"  FAILED: {failure}" for failure in doc["failures"])
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    manifest = load_manifest()
    names = [workload["name"] for workload in manifest["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=manifest["run_seconds"],
        help="keep repeating rounds until this much has been measured",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced run (per-layer metrics) instead of the timed one",
    )
    parser.add_argument(
        "--kernel", default=None,
        help="ScenarioSpec.kernel for every cell (default: registry default)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny cells: checks the machinery, measures nothing",
    )
    parser.add_argument(
        "--json", metavar="OUT", type=Path,
        help="append the full result document to OUT (one JSON per line)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("A", "B"), type=Path,
        help="judge result set B against A by the bounds in BENCHMARK.json",
    )
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(manifest, *args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    doc = run_benchmark(
        args.workload, args.seconds, seed=args.seed, trace=args.trace,
        kernel=args.kernel, smoke=args.smoke,
    )
    print(render(doc))
    if args.json:
        with args.json.open("a", encoding="utf-8") as out:
            out.write(json.dumps(doc) + "\n")
    print(
        json.dumps(
            {key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
