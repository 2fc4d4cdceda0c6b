"""Open-loop traffic injectors for fabric-level experiments.

The §6.2 queueing study (Fig 9) does not involve transports: Fabric
Adapters are loaded at a controlled utilization with packets to
uniformly random destinations.  :class:`RateInjector` produces exactly
that — a Poisson packet stream at a fraction of a host port's rate —
and :class:`UniformRandomTraffic` wires one injector per host.
:class:`PacketSink`, the injector's receive side alone, is the plain
counting host of the pre-queued blasts of Figs 7 and 12.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.net.addressing import PortAddress
from repro.net.packet import Packet, wire_size
from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.sim.link import Link
from repro.sim.units import SECOND
from repro.workloads.distributions import EmpiricalDistribution


class PacketSink(Entity):
    """A host that counts arriving packets and discards them."""

    def __init__(self, sim: Simulator, name: str, address: PortAddress) -> None:
        super().__init__(sim, name)
        self.address = address
        self.packets_received = 0
        self.bytes_received = 0

    def receive(self, packet: Packet, link: Link) -> None:
        """Count an arriving packet (traffic sink side)."""
        self.packets_received += 1
        self.bytes_received += packet.size_bytes


class RateInjector(PacketSink):
    """A host that injects packets open-loop at a target rate.

    ``utilization`` is relative to ``line_rate_bps``; inter-arrival
    times are exponential (Poisson arrivals — the worst-case model of
    §4.2.1).  Destinations are drawn uniformly from ``destinations``.
    Arriving packets are counted and discarded.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        address: PortAddress,
        destinations: Sequence[PortAddress],
        line_rate_bps: int,
        utilization: float,
        rng: random.Random,
        packet_bytes: int = 1000,
        size_dist: Optional[EmpiricalDistribution] = None,
    ) -> None:
        super().__init__(sim, name, address)
        if utilization < 0:
            raise ValueError("utilization must be non-negative")
        if not destinations:
            raise ValueError("need at least one destination")
        self.destinations = list(destinations)
        self.line_rate_bps = line_rate_bps
        self.utilization = utilization
        self.rng = rng
        self.packet_bytes = packet_bytes
        self.size_dist = size_dist
        self.packets_sent = 0
        self.bytes_sent = 0
        self._running = False
        # Pace by on-wire bytes so "utilization" means wire utilization
        # — at 64B the Ethernet preamble/IPG is a third of the wire —
        # and by the *mean* size, so utilization is honoured even with
        # a size distribution.  Fixed at construction: walking the size
        # table per packet was a measurable share of an injector's cost.
        # (A float mean in nanoseconds, not a timestamp; the gaps drawn
        # from it are ints.)
        mean_size = packet_bytes if size_dist is None else int(size_dist.mean())
        self._mean_gap = (
            wire_size(mean_size) * 8 * SECOND / (line_rate_bps * utilization)
            if utilization else 0.0
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin injecting (first packet after one random gap)."""
        if self.utilization == 0 or self._running:
            return
        self._running = True
        self.sim.call_later(self._next_gap(), self._inject)

    def stop(self) -> None:
        """Stop injecting after the current event."""
        self._running = False

    def _next_gap(self) -> int:
        return max(1, int(self.rng.expovariate(1.0) * self._mean_gap))

    def _inject(self) -> None:
        if not self._running:
            return
        size = (
            self.size_dist.sample_int(self.rng)
            if self.size_dist is not None
            else self.packet_bytes
        )
        dst = self.rng.choice(self.destinations)
        packet = Packet(
            size_bytes=size,
            src=self.address,
            dst=dst,
            created_ns=self.sim.now,
        )
        self.packets_sent += 1
        self.bytes_sent += size
        self.ports[0].send(packet, packet.wire_bytes)
        self.sim.call_later(self._next_gap(), self._inject)


class UniformRandomTraffic:
    """One :class:`RateInjector` per host; destinations exclude the
    sender's own Fabric Adapter (cross-fabric traffic only)."""

    def __init__(
        self,
        network,
        addresses: Sequence[PortAddress],
        utilization: float,
        packet_bytes: int = 1000,
        size_dist: Optional[EmpiricalDistribution] = None,
        seed: int = 1,
    ) -> None:
        self.network = network
        self.injectors: List[RateInjector] = []
        rng_root = random.Random(seed)
        rate, _propagation_ns = network.host_link()
        for address in addresses:
            others = [a for a in addresses if a.fa != address.fa]
            injector = RateInjector(
                network.sim,
                f"inj{address.fa}.{address.port}",
                address,
                others,
                rate,
                utilization,
                random.Random(rng_root.getrandbits(48)),
                packet_bytes=packet_bytes,
                size_dist=size_dist,
            )
            network.attach_host(address, injector)
            self.injectors.append(injector)

    def start(self) -> None:
        """Start every injector."""
        for injector in self.injectors:
            injector.start()

    def stop(self) -> None:
        """Stop every injector."""
        for injector in self.injectors:
            injector.stop()

    def total_sent(self) -> int:
        """Packets injected across all hosts."""
        return sum(i.packets_sent for i in self.injectors)

    def total_received(self) -> int:
        """Packets delivered across all hosts."""
        return sum(i.packets_received for i in self.injectors)
