"""Judge result set B against result set A by the benchmark's own bounds.

A result set is a file of result documents, one JSON per line, as
``run.py --json OUT`` appends them: several runs of each workload.  For
every (workload, end-to-end metric) pair this prints both medians, the
ratio B/A with its base, each side's spread (interquartile range over
the median) and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``worse``       it is;
``unresolved``  a side's spread is wider than the bound, so the medians
                cannot carry a verdict — unless every run of one side
                beats every run of the other, which settles it anyway.

Exit status is 1 if any pair is ``worse``, else 0.  Only the standard
library is needed: result sets can be compared anywhere.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Tuple

Runs = Dict[Tuple[str, str], List[float]]


def load(path: Path) -> Runs:
    """``{(workload, metric): [one value per untraced full-size run]}``."""
    runs: Runs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        if doc["trace"] or doc["smoke"]:
            continue
        for name, metric in doc["metrics"].items():
            runs.setdefault((doc["workload"], name), []).append(metric["value"])
    return runs


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


def judge(
    a: List[float], b: List[float], bound: float, lower_is_better: bool
) -> str:
    """The verdict on B's runs against A's under ``bound``."""
    if not lower_is_better:
        # As costs, so that lower is better from here on.
        a, b = [-value for value in a], [-value for value in b]
    base = statistics.median(a)
    worsening = (statistics.median(b) - base) / abs(base)
    if max(spread(a), spread(b)) <= bound:
        return "worse" if worsening > bound else "ok"
    if max(b) < min(a):
        return "ok"
    if worsening > bound and min(b) > max(a):
        return "worse"
    return "unresolved"


def main(manifest: Dict[str, Any], path_a: Path, path_b: Path) -> int:
    runs_a, runs_b = load(path_a), load(path_b)
    print(
        f"{'workload':<18} {'metric':<15} {'median A':>12} {'median B':>12} "
        f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict"
    )
    worse = 0
    for workload in manifest["workloads"]:
        for metric in manifest["end_to_end"]:
            key = (workload["name"], metric["name"])
            a, b = runs_a.get(key), runs_b.get(key)
            if not a or not b:
                print(f"{key[0]:<18} {key[1]:<15} (missing from a result set)")
                continue
            verdict = judge(a, b, metric["bound"], metric["better"] == "lower")
            worse += verdict == "worse"
            median_a, median_b = statistics.median(a), statistics.median(b)
            print(
                f"{key[0]:<18} {key[1]:<15} {median_a:>12.6g} {median_b:>12.6g} "
                f"{median_b / median_a:>7.3f} {spread(a):>8.1%} "
                f"{spread(b):>8.1%} {metric['bound']:>6.0%}  {verdict}"
                f"  (n={len(a)}/{len(b)}, base A={median_a:.6g} {metric['unit']})"
            )
    return 1 if worse else 0
