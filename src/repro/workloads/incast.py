"""Incast: a frontend fans out requests, all backends answer at once.

Fig 10(c) measures the first and last flow completion times as the
number of backends grows; §5.4 argues Stardust absorbs the burst in the
*ingress* buffers of all source Fabric Adapters with zero fabric loss
and near-even completion (fairness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.net.addressing import PortAddress
from repro.net.flow import Flow
from repro.sim.units import MILLISECOND
from repro.transport.table import start_flow


@dataclass
class IncastResult:
    """Outcome of one incast round."""

    n_backends: int
    response_bytes: int
    first_fct_ns: Optional[int]
    last_fct_ns: Optional[int]
    completed: int
    fabric_drops: int

    @property
    def all_completed(self) -> bool:
        """Whether every backend's response finished."""
        return self.completed == self.n_backends

    @property
    def fairness_spread(self) -> Optional[float]:
        """last/first completion ratio — 1.0 is perfectly fair."""
        if not self.first_fct_ns or not self.last_fct_ns:
            return None
        return self.last_fct_ns / self.first_fct_ns


def run_incast(
    network,
    hosts: Dict[PortAddress, object],
    tracker,
    frontend: PortAddress,
    backends: Sequence[PortAddress],
    response_bytes: int = 450_000,
    transport: str = "tcp",
    timeout_ns: int = 2_000 * MILLISECOND,
    **flow_kwargs,
) -> IncastResult:
    """Run one incast round and collect first/last FCTs.

    The request fan-out is abstracted away (requests are tiny); all
    backends start their responses at t=now, which is the worst case.
    ``flow_kwargs`` go to :func:`~repro.transport.table.start_flow`
    with every response.
    """
    flows: List[Flow] = []
    for backend in backends:
        # start_ns is the absolute stamp here; the start is undelayed.
        flow = Flow(
            src=backend, dst=frontend, size_bytes=response_bytes,
            start_ns=network.sim.now,
        )
        start_flow(hosts, flow, transport, **flow_kwargs)
        flows.append(flow)

    network.run(timeout_ns)

    fcts = sorted(
        tracker.get(f.flow_id).fct_ns
        for f in flows
        if tracker.get(f.flow_id).fct_ns is not None
    )
    return IncastResult(
        n_backends=len(backends),
        response_bytes=response_bytes,
        first_fct_ns=fcts[0] if fcts else None,
        last_fct_ns=fcts[-1] if fcts else None,
        completed=len(fcts),
        fabric_drops=network.fabric_drop_count(),
    )
