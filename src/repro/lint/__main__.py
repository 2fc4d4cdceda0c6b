"""CLI: ``python -m repro.lint [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage error.  Every finding fails
the run; the one exemption is an inline suppression comment with a
reason (see :mod:`repro.lint.analyzer`).  ``--output`` writes the JSON
report (for the CI artifact) regardless of the text/json console
format.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

from repro.cli import run_main
from repro.lint.analyzer import Report, analyze_paths
from repro.lint.rules import RULES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism & hot-path invariant analyzer.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="console report format",
    )
    parser.add_argument(
        "--output", metavar="PATH",
        help="also write the full JSON report to PATH (CI artifact)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rule IDs and exit",
    )
    return parser


def _print_text(report: Report) -> None:
    for finding in report.findings:
        print(finding.format_text())
        if finding.snippet:
            print(f"    {finding.snippet.strip()}")
    summary = ", ".join(
        f"{rule}={count}" for rule, count in report.counts_by_rule().items()
    )
    print(
        f"repro.lint: {report.checked_files} files, "
        f"{len(report.findings)} finding(s)"
        + (f" [{summary}]" if summary else "")
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for info in RULES.values():
            zones = "all" if info.zones is None else ",".join(sorted(info.zones))
            print(f"{info.id}  [{zones}]  {info.summary}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(str(p) for p in missing)}")
    report = analyze_paths(paths, root=Path.cwd())

    if args.output:
        Path(args.output).write_text(
            json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8"
        )

    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        _print_text(report)

    return 1 if report.findings else 0


if __name__ == "__main__":
    run_main(main)
