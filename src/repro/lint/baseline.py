"""The committed baseline: grandfathered findings, keyed by fingerprint.

The baseline lets a new rule land before every historical finding is
fixed: CI fails only on findings whose fingerprint is *not* in the
committed file.  The intended steady state is an empty baseline;
today the file is the debt list DEAD001 landed with (definitions only
their own unit tests keep alive, waiting for a change allowed to
retire those tests).  ``tests/test_lint.py`` has a meta-test holding
the file to its contract: every entry must still match a live finding,
so the baseline can only shrink.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.lint.analyzer import Finding, Report

BASELINE_VERSION = 1


def load_baseline(path: Path) -> Dict[str, Dict[str, object]]:
    """``fingerprint -> entry`` from a baseline file ({} if absent)."""
    if not path.exists():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {data.get('version')!r} in {path}"
        )
    entries = {}
    for entry in data.get("findings", []):
        entries[str(entry["fingerprint"])] = entry
    return entries


def write_baseline(report: Report, path: Path) -> None:
    """Write ``report``'s findings as the new baseline."""
    payload = {
        "version": BASELINE_VERSION,
        "findings": [
            {
                "fingerprint": f.fingerprint,
                "rule": f.rule,
                "path": f.path,
                "snippet": f.snippet.strip(),
            }
            for f in report.findings
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def diff_against_baseline(
    report: Report, baseline: Dict[str, Dict[str, object]]
) -> Tuple[List[Finding], List[Dict[str, object]]]:
    """``(new_findings, stale_entries)`` for ``report`` vs ``baseline``.

    New findings gate CI; stale entries (baseline rows whose finding no
    longer exists) are reported so the file gets trimmed as debt is
    paid down.
    """
    live = {f.fingerprint for f in report.findings}
    new = [f for f in report.findings if f.fingerprint not in baseline]
    stale = [e for fp, e in baseline.items() if fp not in live]
    return new, stale
