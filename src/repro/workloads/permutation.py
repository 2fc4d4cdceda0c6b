"""Permutation workloads: every host sends to one host, receives from
one host (§6.3's throughput experiment)."""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.net.addressing import PortAddress
from repro.net.flow import Flow
from repro.transport.table import start_flow


def derangement(
    n: int, rng: random.Random, forbid=None
) -> List[int]:
    """A random permutation of range(n) with no fixed points.

    ``forbid(i, j)`` may veto mapping i -> j (used to keep permutation
    traffic off the local Fabric Adapter).  Rejection-sampled; raises
    after too many attempts if the constraints are unsatisfiable.
    """
    if n < 2:
        raise ValueError("derangement needs n >= 2")
    perm = list(range(n))
    for _ in range(10_000):
        rng.shuffle(perm)
        ok = all(
            i != p and (forbid is None or not forbid(i, p))
            for i, p in enumerate(perm)
        )
        if ok:
            return list(perm)
    raise RuntimeError("could not satisfy derangement constraints")


def host_permutation(
    addresses: Sequence[PortAddress], rng: random.Random
) -> Dict[PortAddress, PortAddress]:
    """Map each address to a destination on another Fabric Adapter."""
    perm = derangement(
        len(addresses),
        rng,
        forbid=lambda i, j: addresses[i].fa == addresses[j].fa,
    )
    return {addresses[i]: addresses[p] for i, p in enumerate(perm)}


def start_permutation_flows(
    hosts: Dict[PortAddress, object],
    mapping: Dict[PortAddress, PortAddress],
    size_bytes: Optional[int] = None,
    transport: str = "tcp",
    **flow_kwargs,
) -> List[Flow]:
    """Start one flow per mapping entry under ``transport``; returns the
    flow descriptors.  ``flow_kwargs`` go to
    :func:`~repro.transport.table.start_flow` with every flow."""
    flows = []
    for src, dst in mapping.items():
        flow = Flow(src=src, dst=dst, size_bytes=size_bytes)
        start_flow(hosts, flow, transport, **flow_kwargs)
        flows.append(flow)
    return flows
