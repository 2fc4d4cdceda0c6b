"""repro.perf — run digests and golden traces.

Two jobs, both to prove a change behavior-preserving:

* **Digest** a run: :mod:`repro.perf.digest` collapses what a cell
  produced into a small, exact, JSON-safe dict.
* **Pin** digests as golden traces: :mod:`repro.perf.golden` records a
  quick scenario matrix under ``tests/golden/`` and re-checks it
  (``python -m repro.perf golden --check|--regen``, and
  ``tests/test_golden_traces.py`` on every run).

Timing lives elsewhere: the benchmark is ``python3 bench/run.py``.
"""

from repro.perf.digest import diff_digests, run_digest, values_hash
from repro.perf.golden import (
    DEFAULT_GOLDEN_DIR,
    check_goldens,
    compute_digest,
    golden_name,
    golden_specs,
    write_goldens,
)

__all__ = [
    "DEFAULT_GOLDEN_DIR",
    "check_goldens",
    "compute_digest",
    "diff_digests",
    "golden_name",
    "golden_specs",
    "run_digest",
    "values_hash",
    "write_goldens",
]
