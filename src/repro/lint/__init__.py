"""repro.lint: the determinism & hot-path invariant analyzer.

Every result in this reproduction rests on bit-for-bit determinism:
the golden traces pin exact ``(time_ns, seq)`` event order, and the
perf gates pin the hot-path discipline that keeps the engine fast.
The contracts behind both — seeded randomness only, no wall-clock in
simulation paths, no hash/identity ordering, integer nanoseconds,
``__slots__`` in the hot core — used to live in reviewers' heads.
This package turns them into checkable rules:

* :mod:`repro.lint.zones` — the deterministic-zone map (which packages
  carry which contracts);
* :mod:`repro.lint.rules` — the ``@rule`` registry and the shipped
  DET/HOT/API/DEAD rules;
* :mod:`repro.lint.analyzer` — the AST pass and the suppression
  comments;
* ``python -m repro.lint`` — the CLI that gates CI: any finding fails
  it.

An inline suppression comment is the one way to exempt a finding, and
it must give a reason::

    x = links[hash(dst) % n]  # repro-lint: allow=DET004 -- int hashes only
    # repro-lint: allow-file=API001 -- CDF inversion, not event ordering
"""

from repro.lint.analyzer import (
    Finding,
    Report,
    analyze_file,
    analyze_paths,
)
from repro.lint.rules import RULES, RuleInfo, rule
from repro.lint.zones import DETERMINISTIC_PACKAGES, RELAXED_PACKAGES, zone_for_path

__all__ = [
    "Finding",
    "Report",
    "analyze_file",
    "analyze_paths",
    "RULES",
    "RuleInfo",
    "rule",
    "DETERMINISTIC_PACKAGES",
    "RELAXED_PACKAGES",
    "zone_for_path",
]
