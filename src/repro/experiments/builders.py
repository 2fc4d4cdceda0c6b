"""Materialize networks from declarative specs.

:func:`build_network` resolves the spec's fabric through the
:mod:`repro.fabrics.registry` — an unknown fabric name fails with the
registry's known-names error, and a third fabric registered with
``@fabric("name")`` is immediately buildable from specs without any
change here.  It ends in the fabric class's own
:meth:`~repro.fabrics.base.FabricNetwork.for_experiment`; every
simulated figure of the benchmark suite is a registered scenario, so
this is the one place its fabrics are built too.
"""

from __future__ import annotations

from typing import Optional

from repro.fabrics.registry import get_fabric


def build_network(spec, topology: Optional[object] = None):
    """Build the network a :class:`ScenarioSpec` declares.

    ``topology`` lets callers reuse an already-materialized topology
    dataclass; by default it is built from ``spec.topology``.
    """
    topo = topology if topology is not None else spec.topology.build()
    return get_fabric(spec.fabric).cls.for_experiment(
        topo, rate=spec.link_rate_bps, **spec.config_overrides
    )
