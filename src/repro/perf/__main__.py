"""Command-line front end: ``python -m repro.perf``.

Examples::

    python -m repro.perf golden --check      # verify golden traces
    python -m repro.perf golden --regen      # re-record golden traces

The benchmark lives in ``bench/`` (``python3 bench/run.py``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli import run_main
from repro.perf.golden import DEFAULT_GOLDEN_DIR, check_goldens, write_goldens


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
        description="Golden-trace checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
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

    return cmd_golden(parser.parse_args(argv))


if __name__ == "__main__":
    run_main(main)
