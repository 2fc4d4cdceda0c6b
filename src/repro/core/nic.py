"""§8: the future data center — Fabric Adapters reduced to NICs.

The paper's closing vision removes ToRs entirely: every host gets a
NIC with a *reduced* Fabric Adapter inside (host-scale VOQ count,
host-memory-backed buffering, a lighter fabric interface), attached
directly to Fabric Elements.  Structurally the NIC is a Fabric Adapter
with exactly one "host port" (the PCIe/DMA path) and a handful of
fabric uplinks; its reachability table shrinks by
Num-FA-uplinks / Num-NIC-ports, or disappears when it attaches to a
single Fabric Element.

:class:`StardustNic` encodes those reductions on top of
:class:`~repro.core.fabric_adapter.FabricAdapter`, and
:func:`build_nic_edge_network` wires an all-FE network with NICs at
the edge — the "elimination of packet switches" of §1.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.config import StardustConfig
from repro.core.fabric_adapter import FabricAdapter
from repro.fabrics.stardust import StardustNetwork
from repro.fabrics.wiring import OneTierSpec
from repro.sim.units import KB, MB


#: Host-scale resource defaults (§8: "the number of VOQs will match
#: host-scale requirements", "the host's memory will be used for
#: further buffering").
NIC_DEFAULTS = dict(
    ingress_buffer_bytes=4 * MB,  # host-memory backed, per NIC
    egress_buffer_bytes=32 * KB,  # one port's worth of in-flight data
)


def nic_config(base: Optional[StardustConfig] = None) -> StardustConfig:
    """A StardustConfig with §8's host-scale reductions applied."""
    base = base or StardustConfig()
    return replace(base, **NIC_DEFAULTS)


class StardustNic(FabricAdapter):
    """A Fabric-Adapter-on-a-NIC: one host port, few uplinks.

    Behaviourally identical to a Fabric Adapter (that is the point —
    the same scheduling/cell machinery, scaled down); exposed as its
    own type so experiments can assert the reductions.
    """

    # Empty on purpose: build_nic_edge_network rebrands live
    # FabricAdapter instances via __class__ assignment, which requires
    # an identical slot layout (no added instance state).
    __slots__ = ()

    @property
    def is_single_homed(self) -> bool:
        """Attached to exactly one Fabric Element (table-free mode)."""
        return len({up.dst for up in self.uplinks}) == 1

    def reachability_entries(self) -> int:
        """§8: table size shrinks with the uplink count (0 when
        single-homed — the lone FE makes every decision)."""
        if self.is_single_homed:
            return 0
        return len(self._uplinks)


def build_nic_edge_network(
    n_nics: int,
    uplinks_per_nic: int,
    config: Optional[StardustConfig] = None,
    reachability: str = "static",
) -> StardustNetwork:
    """An all-cell-switch network with NICs at the edge.

    Structurally a one-tier Stardust fabric whose "Fabric Adapters"
    are :class:`StardustNic` devices with a single host port each; the
    former ToR tier is gone, replaced by Fabric Elements (§8).
    """
    spec = OneTierSpec(
        num_fas=n_nics, uplinks_per_fa=uplinks_per_nic, hosts_per_fa=1
    )
    net = StardustNetwork(
        spec, config=replace(nic_config(config), reachability=reachability)
    )
    # Rebrand the edge devices as NICs (same mechanics, reduced scale).
    for fa in net.fas:
        fa.__class__ = StardustNic
    return net
