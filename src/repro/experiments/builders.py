"""Materialize networks from declarative specs.

:func:`build_network` resolves the spec's fabric through the
:mod:`repro.fabrics.registry` — an unknown fabric name fails with the
registry's known-names error, and a third fabric registered with
``@fabric("name")`` is immediately buildable from specs without any
change here.  ``benchmarks/harness.py`` delegates here so the benchmark
suite and the experiment runner build byte-identical fabrics.

The two helper constructors (:func:`stardust_network`,
:func:`push_network`) are thin deprecation shims over the fabric
classes' own :meth:`~repro.fabrics.base.FabricNetwork.for_experiment`
constructors.
"""

from __future__ import annotations

from typing import Optional

from repro.fabrics.registry import get_fabric
from repro.sim.units import gbps


def stardust_network(
    topology,
    rate: int = gbps(10),
    cell_bytes: int = 512,
    cell_header_bytes: int = 16,
    **overrides,
):
    """Deprecated shim for ``StardustNetwork.for_experiment``."""
    return get_fabric("stardust").cls.for_experiment(
        topology, rate=rate, cell_bytes=cell_bytes,
        cell_header_bytes=cell_header_bytes, **overrides,
    )


def push_network(topology, rate: int = gbps(10), **eth_overrides):
    """Deprecated shim for ``PushFabricNetwork.for_experiment``."""
    return get_fabric("push").cls.for_experiment(
        topology, rate=rate, **eth_overrides
    )


def build_network(spec, topology: Optional[object] = None):
    """Build the network a :class:`ScenarioSpec` declares.

    ``topology`` lets callers reuse an already-materialized topology
    dataclass; by default it is built from ``spec.topology``.
    """
    topo = topology if topology is not None else spec.topology.build()
    return get_fabric(spec.fabric).cls.for_experiment(
        topo, rate=spec.link_rate_bps, **spec.config_overrides
    )
