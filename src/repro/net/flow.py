"""Flows and flow-completion-time tracking.

A :class:`Flow` describes an application-level transfer (src, dst, size);
:class:`FlowTracker` collects per-flow delivery statistics the
evaluation figures are built from (throughput ranks in Fig 10(a), FCT
CDFs in Fig 10(b), incast completion in Fig 10(c)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.addressing import PortAddress

_flow_ids = itertools.count(1)


def reset_flow_ids(start: int = 1) -> None:
    """Restart the global flow-id counter.

    Flow ids feed the Ethernet baseline's ECMP hash, so a run's results
    depend on how many flows the *process* created before it.  Hermetic
    experiment runs (:mod:`repro.experiments.runner`) reset the counter
    first so the same spec gives the same result in any process.
    """
    global _flow_ids
    _flow_ids = itertools.count(start)


@dataclass(slots=True)
class Flow:
    """An application transfer.  ``size_bytes=None`` means long-running."""

    src: PortAddress
    dst: PortAddress
    size_bytes: Optional[int] = None
    start_ns: int = 0
    priority: int = 0
    flow_id: int = field(default_factory=lambda: next(_flow_ids))

    def __post_init__(self) -> None:
        if self.size_bytes is not None and self.size_bytes <= 0:
            raise ValueError("flow size must be positive or None")
        if self.start_ns < 0:
            raise ValueError("flow start must be non-negative")


@dataclass(slots=True)
class FlowStats:
    """Delivery record for one flow, updated by the destination."""

    flow: Flow
    bytes_delivered: int = 0
    first_byte_ns: Optional[int] = None
    last_byte_ns: Optional[int] = None
    completed_ns: Optional[int] = None

    @property
    def fct_ns(self) -> Optional[int]:
        """Flow completion time, if the flow finished."""
        if self.completed_ns is None:
            return None
        return self.completed_ns - self.flow.start_ns

    def goodput_bps(self, window_ns: Optional[int] = None) -> float:
        """Average delivered rate over the flow's active window."""
        if window_ns is None:
            if self.first_byte_ns is None or self.last_byte_ns is None:
                return 0.0
            window_ns = self.last_byte_ns - self.flow.start_ns
        if window_ns <= 0:
            return 0.0
        return self.bytes_delivered * 8 * 1e9 / window_ns


class FlowTracker:
    """Registry of flows and their delivery statistics."""

    __slots__ = ("_stats", "_aliases")

    def __init__(self) -> None:
        self._stats: Dict[int, FlowStats] = {}
        #: Subflow id -> parent flow id (MPTCP stripes several wire-level
        #: flows into one logical transfer).
        self._aliases: Dict[int, int] = {}

    def register(self, flow: Flow) -> FlowStats:
        """Track ``flow``; returns its (empty) stats record."""
        if flow.flow_id in self._stats:
            raise ValueError(f"flow {flow.flow_id} already registered")
        stats = FlowStats(flow)
        self._stats[flow.flow_id] = stats
        return stats

    def alias(self, subflow_id: int, parent_id: int) -> None:
        """Credit deliveries for ``subflow_id`` to ``parent_id``."""
        if parent_id not in self._stats:
            raise KeyError(f"parent flow {parent_id} not registered")
        self._aliases[subflow_id] = parent_id

    def record_delivery(self, flow_id: int, time_ns: int, nbytes: int) -> None:
        """Count ``nbytes`` of in-order application data for ``flow_id``."""
        flow_id = self._aliases.get(flow_id, flow_id)
        stats = self._stats[flow_id]
        if stats.first_byte_ns is None:
            stats.first_byte_ns = time_ns
        stats.last_byte_ns = time_ns
        stats.bytes_delivered += nbytes
        flow = stats.flow
        if (
            flow.size_bytes is not None
            and stats.completed_ns is None
            and stats.bytes_delivered >= flow.size_bytes
        ):
            stats.completed_ns = time_ns

    def get(self, flow_id: int) -> FlowStats:
        """Stats for ``flow_id`` (KeyError if unregistered)."""
        return self._stats[flow_id]

    def all(self) -> List[FlowStats]:
        """Stats of every registered flow."""
        return list(self._stats.values())

    def completed(self) -> List[FlowStats]:
        """Stats of flows that have finished."""
        return [s for s in self._stats.values() if s.completed_ns is not None]

    def fcts_ns(self) -> List[int]:
        """Completion times of all finished flows (ns)."""
        return [s.fct_ns for s in self.completed() if s.fct_ns is not None]
