"""Workloads: the traffic the evaluation figures are driven by."""

from repro.workloads.distributions import (
    EmpiricalDistribution,
    FLOW_SIZES,
    PACKET_SIZE_MIXES,
    flow_size_distribution,
    packet_size_distribution,
)
from repro.workloads.generator import RateInjector, UniformRandomTraffic
from repro.workloads.permutation import (
    derangement,
    host_permutation,
    start_permutation_flows,
)

__all__ = [
    "EmpiricalDistribution",
    "PACKET_SIZE_MIXES",
    "FLOW_SIZES",
    "packet_size_distribution",
    "flow_size_distribution",
    "RateInjector",
    "UniformRandomTraffic",
    "derangement",
    "host_permutation",
    "start_permutation_flows",
]
