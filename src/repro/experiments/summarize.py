"""Aggregate run results across seeds.

One sweep produces a :class:`~repro.experiments.runner.RunResult` per
(scenario, fabric, transport, seed) cell; :func:`aggregate` folds the
seed axis away into per-configuration :class:`Summary` rows (mean and
percentiles of per-flow rates and FCTs), and :func:`format_table`
renders them for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import RunResult
from repro.sim.stats import percentile


@dataclass
class Summary:
    """Distribution summary of one metric across pooled samples."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> Optional["Summary"]:
        """Summarize ``values`` (None when empty)."""
        if not values:
            return None
        vals = [float(v) for v in values]
        return cls(
            count=len(vals),
            mean=sum(vals) / len(vals),
            p50=percentile(vals, 50),
            p90=percentile(vals, 90),
            p99=percentile(vals, 99),
            minimum=min(vals),
            maximum=max(vals),
        )


@dataclass
class GroupSummary:
    """All seeds of one (scenario, fabric, transport) configuration."""

    scenario: str
    fabric: str
    transport: str
    seeds: List[int]
    rates_gbps: Optional[Summary]
    fcts_ns: Optional[Summary]
    drops: int
    delivered_bytes: int

    @property
    def label(self) -> str:
        """Compact configuration label for tables."""
        if self.fabric == "stardust" and self.transport == "tcp":
            return "stardust"
        if self.transport == "none":
            return self.fabric
        return f"{self.fabric}+{self.transport}"


def aggregate(results: Sequence[RunResult]) -> List[GroupSummary]:
    """Fold the seed axis: one row per (scenario, fabric, transport).

    Per-flow rates and FCTs are pooled across seeds before taking
    percentiles, which weighs every flow equally (the paper's Fig 10
    plots do the same).
    """
    groups: Dict[Tuple[str, str, str], List[RunResult]] = {}
    for result in results:
        key = (result.scenario, result.fabric, result.transport)
        groups.setdefault(key, []).append(result)
    rows = []
    for (scenario, fabric, transport), members in sorted(groups.items()):
        rates = [r for m in members for r in m.flow_rates_gbps]
        fcts = [f for m in members for f in m.fcts_ns]
        rows.append(
            GroupSummary(
                scenario=scenario,
                fabric=fabric,
                transport=transport,
                seeds=sorted(m.seed for m in members),
                rates_gbps=Summary.of(rates),
                fcts_ns=Summary.of(fcts),
                drops=sum(m.drops for m in members),
                delivered_bytes=sum(m.delivered_bytes for m in members),
            )
        )
    return rows


def format_resilience(results: Sequence[RunResult]) -> str:
    """One line per faulted run: measured recovery next to Appendix E.

    Empty string when no result carries a resilience section, so
    unfaulted sweeps print exactly what they always printed.
    """
    lines = []
    for r in results:
        m = r.metrics
        if "faults_injected" not in m:
            continue
        recovery = m.get("measured_recovery_ns", 0)
        parts = [
            f"{r.fabric}+{r.transport} s{r.seed}:",
            f"faults={m['faults_injected']}",
            "recovery="
            + ("none-within-run" if recovery < 0 else f"{recovery / 1e3:.0f}us"),
        ]
        if "protocol_detect_ns" in m:
            parts.append(f"detect={m['protocol_detect_ns'] / 1e3:.0f}us")
        if "analytical_recovery_ns" in m:
            parts.append(
                f"analytical={m['analytical_recovery_ns'] / 1e3:.0f}us"
            )
        parts.append(
            f"dip={m.get('dip_depth', 0):.0%}"
            f"/{m.get('dip_duration_ns', 0) / 1e3:.0f}us"
        )
        parts.append(f"lost_in_transit={m.get('frames_lost_in_transit', 0)}")
        if m.get("blackholed_flows"):
            parts.append(f"blackholed_flows={m['blackholed_flows']}")
        lines.append("  ".join(parts))
    return "\n".join(lines)


def format_table(rows: Sequence[GroupSummary]) -> str:
    """Render group summaries as an aligned text table."""
    lines = [
        f"{'configuration':<18} {'seeds':>5} {'mean Gbps':>10} "
        f"{'p50 Gbps':>9} {'p99 FCT ms':>11} {'drops':>8}"
    ]
    for row in rows:
        rate_mean = f"{row.rates_gbps.mean:.2f}" if row.rates_gbps else "-"
        rate_p50 = f"{row.rates_gbps.p50:.2f}" if row.rates_gbps else "-"
        fct_p99 = f"{row.fcts_ns.p99 / 1e6:.2f}" if row.fcts_ns else "-"
        lines.append(
            f"{row.label:<18} {len(row.seeds):>5} {rate_mean:>10} "
            f"{rate_p50:>9} {fct_p99:>11} {row.drops:>8}"
        )
    return "\n".join(lines)
