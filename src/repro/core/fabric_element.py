"""The Fabric Element: a radically simple cell switch (§4.2).

A Fabric Element never parses packets.  It keeps one table — destination
Fabric Adapter to outgoing links — sprays cells across all eligible
links (down-routes preferred, else up), marks FCI on cells leaving
through a congested queue, and participates in the reachability
protocol.  That is the entire device; everything a normal switch does
besides this (header processing, big lookup tables, per-flow state,
deep buffers) is deliberately absent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.cell import Cell, CellKind
from repro.core.config import REACHABILITY_CELL_BYTES, SPRAY_SEED, StardustConfig
from repro.core.reachability import ReachabilityMonitor
from repro.core.spray import SprayArbiter
from repro.net.addressing import DeviceId
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.entity import Device
from repro.sim.link import Link
from repro.sim.stats import Histogram


@dataclass(eq=False, slots=True)  # identity semantics: unique physical objects
class FabricPort:
    """One full-duplex attachment of a Fabric Element."""

    neighbor: DeviceId
    out: Link
    direction: str  # "up" (toward spine) or "down" (toward edge)

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down"):
            raise ValueError(f"bad direction {self.direction!r}")


class FabricElement(Device):
    """A cell switch.  ``tier`` 1 is adjacent to Fabric Adapters."""

    __slots__ = (
        "config", "fe_id", "tier", "pod", "_ports", "_inbound_index",
        "_down_map", "_up_map", "_static_up_all", "_elig_cache",
        "_elig_epoch", "_spray", "_monitor", "_advertiser",
        "_tables_dirty", "_advertised",
        "down_queue_depth", "sample_down_queues", "cells_forwarded",
        "cells_fci_marked", "no_route_drops",
        "_fci_threshold",
    )

    def __init__(
        self,
        sim: Simulator,
        config: StardustConfig,
        fe_id: DeviceId,
        tier: int,
        name: str,
    ) -> None:
        super().__init__(sim, name)
        self.config = config
        self.fe_id = fe_id
        self.tier = tier
        #: Pod membership in two-tier topologies (set by the builder;
        #: None for spine elements and one-tier fabrics).
        self.pod: Optional[int] = None
        self._ports: List[FabricPort] = []
        #: Inbound link -> its port's attachment index; the index is
        #: the reachability monitor's stable per-run key.
        self._inbound_index: Dict[Link, int] = {}

        # Forwarding view.  down_map: dst FA -> ports whose subtree holds
        # it.  up_eligible: dst FA -> up ports advertising it (dynamic
        # mode) or all live up ports (static mode).
        self._down_map: Dict[DeviceId, List[FabricPort]] = {}
        self._up_map: Dict[DeviceId, List[FabricPort]] = {}
        self._static_up_all = False
        # Eligible-port lists memoized per destination, keyed on the
        # simulator's topology epoch: between liveness/reachability
        # changes every cell toward one FA sprays over the same list
        # object, so the per-hop filter rebuild (and the spray
        # arbiter's membership compare) collapses to two dict hits.
        self._elig_cache: Dict[DeviceId, List[FabricPort]] = {}
        self._elig_epoch = -1

        self._spray = SprayArbiter(
            random.Random(SPRAY_SEED ^ (0x5EED + fe_id)),
            mode=config.spray_mode,
        )

        # Reachability protocol state (dynamic mode only).
        self._monitor: Optional[ReachabilityMonitor] = None
        self._advertiser: Optional[PeriodicTask] = None
        # The monitor reports a change per heard advertisement while the
        # fabric converges, far more often than anything reads the
        # tables: a change only marks them dirty (and bumps the epoch),
        # the first reader rebuilds.  ``_advertised`` is the
        # ``(down_set, full_set)`` pair the current tables advertise.
        self._tables_dirty = False
        self._advertised: Optional[
            Tuple[FrozenSet[DeviceId], FrozenSet[DeviceId]]
        ] = None

        # Instrumentation: queue depth (in cells) observed by arriving
        # cells on down ports — the paper's Fig 9 (right).
        self.down_queue_depth = Histogram(f"{name}.down_queue_cells")
        self.sample_down_queues = False
        self.cells_forwarded = 0
        self.cells_fci_marked = 0
        self.no_route_drops = 0
        # The FCI threshold is consulted once per forwarded cell; keep
        # it off the config attribute chain.
        self._fci_threshold = config.fci_threshold_cells

    # ------------------------------------------------------------------
    # Wiring (builder API)
    # ------------------------------------------------------------------
    def add_port(
        self, neighbor: DeviceId, out: Link, inbound: Link, direction: str
    ) -> FabricPort:
        """Attach a fabric port (out link + inbound link + direction)."""
        port = FabricPort(neighbor=neighbor, out=out, direction=direction)
        self._inbound_index[inbound] = len(self._ports)
        self._ports.append(port)
        self.sim.topology_epoch += 1
        return port

    @property
    def fabric_ports(self) -> List[FabricPort]:
        """All attached ports, in attachment order."""
        return list(self._ports)

    def out_links(self) -> List[Link]:
        """Every port's outgoing link, in attachment order."""
        return [port.out for port in self._ports]

    @property
    def up_ports(self) -> List[FabricPort]:
        """Ports toward the next tier up."""
        return [p for p in self._ports if p.direction == "up"]

    @property
    def down_ports(self) -> List[FabricPort]:
        """Ports toward the edge."""
        return [p for p in self._ports if p.direction == "down"]

    def set_static_reachability(
        self,
        down_map: Dict[DeviceId, List[FabricPort]],
        up_reaches_everything: bool = True,
    ) -> None:
        """Install forwarding state directly (reachability='static')."""
        # Copy defensively against caller mutation, but only once per
        # distinct input list: builders hand every edge of a pod the
        # same port list, and the installed lists are never mutated in
        # place (table rebuilds replace the whole dict).
        # Keyed by element tuple: ports have identity semantics, so two
        # keys collide exactly when the lists hold the same ports in the
        # same order — and shared copies are safe because installed
        # lists are never mutated.
        copies: Dict[Tuple[FabricPort, ...], List[FabricPort]] = {}
        self._down_map = {
            d: copies.setdefault(tuple(ps), list(ps))
            for d, ps in down_map.items()
        }
        self._static_up_all = up_reaches_everything
        self._advertised = None
        self.sim.topology_epoch += 1

    def enable_protocol(self) -> ReachabilityMonitor:
        """Run the live reachability protocol (reachability='dynamic').

        Returns the monitor, whose counters the network reports."""
        self._monitor = ReachabilityMonitor(
            self.sim,
            self.config.reachability_period_ns,
            self.config.reachability_up_threshold,
            self.config.reachability_miss_threshold,
            self._tables_changed,
        )
        for index in range(len(self._ports)):
            self._monitor.track(index)
        self._advertiser = PeriodicTask(
            self.sim,
            self.config.reachability_period_ns,
            self._advertise,
            phase_ns=(self.fe_id % 7 + 1)
            * (self.config.reachability_period_ns // 8 + 1),
        )
        return self._monitor

    # ------------------------------------------------------------------
    # Reachability protocol
    # ------------------------------------------------------------------
    def _advertise(self) -> None:
        if self._tables_dirty:
            self._rebuild_tables()
        advertised = self._advertised
        if advertised is None:
            down_set = frozenset(self._down_map)
            advertised = self._advertised = (
                down_set, down_set | frozenset(self._up_map)
            )
        down_set, full_set = advertised
        size = REACHABILITY_CELL_BYTES
        for port in self._ports:
            out = port.out
            if not out.up:
                continue
            # Up-neighbors must only hear what we reach *downward*
            # (up/down routing keeps the fabric loop-free); down-neighbors
            # hear everything we can reach.
            out.send(
                Cell.reach(
                    self.fe_id,
                    size,
                    down_set if port.direction == "up" else full_set,
                ),
                size,
            )

    def _tables_changed(self) -> None:
        """Monitor callback: the learned state moved.

        Eligible caches spoil now (the epoch bump); the tables
        themselves are rebuilt by their next reader.  The rebuild is a
        pure function of monitor state, so what that reader sees is
        what a rebuild here would have left.
        """
        self._tables_dirty = True
        self.sim.topology_epoch += 1

    def _rebuild_tables(self) -> None:
        """Recompute forwarding maps from the monitor's learned state."""
        assert self._monitor is not None
        down: Dict[DeviceId, List[FabricPort]] = {}
        up: Dict[DeviceId, List[FabricPort]] = {}
        for index, port in enumerate(self._ports):
            learned = self._monitor.reachable_via(index)
            target = down if port.direction == "down" else up
            for dst in learned:
                target.setdefault(dst, []).append(port)
        self._down_map = down
        self._up_map = up
        self._tables_dirty = False
        self._advertised = None

    def _on_reachability_cell(self, cell: Cell, in_link: Link) -> None:
        if self._monitor is None:
            return  # static mode ignores protocol traffic
        assert cell.reachable is not None
        index = self._inbound_index.get(in_link)
        if index is not None:
            self._monitor.heard(index, cell.reachable)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def receive(self, payload: Cell, link: Link) -> None:
        """Handle an arriving cell (data or reachability).

        This *is* the per-cell per-hop hot path (forwarding is inlined
        rather than delegated): route lookup via the epoch-memoized
        eligible list, spray, FCI mark, send.
        """
        if not self.alive:
            self.dead_drops += 1
            return
        if payload.kind is CellKind.REACHABILITY:
            self._on_reachability_cell(payload, link)
            return
        dst_fa = payload.dst_fa
        # Inlined eligible_ports cache hit: the memoized per-epoch list
        # is hit on virtually every data cell, and this method runs once
        # per cell per hop — the call frame is measurable.
        if self.sim.topology_epoch == self._elig_epoch:
            ports = self._elig_cache.get(dst_fa)
            if ports is None:
                ports = self.eligible_ports(dst_fa)
        else:
            ports = self.eligible_ports(dst_fa)
        if not ports:
            self.no_route_drops += 1
            return
        port = self._spray.pick(dst_fa, ports)
        out = port.out
        depth = out.queued_frames
        # FCI: piggyback congestion on cells leaving a congested queue.
        if depth >= self._fci_threshold:
            payload.fci = True
            self.cells_fci_marked += 1
        if self.sample_down_queues and port.direction == "down":
            self.down_queue_depth.record(depth)
        self.cells_forwarded += 1
        out.send(payload, payload.size_bytes)

    def eligible_ports(self, dst_fa: DeviceId) -> List[FabricPort]:
        """Live ports usable toward ``dst_fa`` (down-routes preferred).

        Memoized per destination until the topology epoch moves (a link
        fails or recovers, a table rebuilds): repeat callers get the
        same list object back, which the spray arbiter exploits with an
        identity check.
        """
        epoch = self.sim.topology_epoch
        cache = self._elig_cache
        if epoch != self._elig_epoch:
            cache.clear()
            self._elig_epoch = epoch
        else:
            ports = cache.get(dst_fa)
            if ports is not None:
                return ports
        if self._tables_dirty:
            self._rebuild_tables()
        down = [
            p for p in self._down_map.get(dst_fa, ()) if p.out.up
        ]
        if down:
            ports = down
        elif self._static_up_all:
            ports = [p for p in self.up_ports if p.out.up]
        else:
            ports = [p for p in self._up_map.get(dst_fa, ()) if p.out.up]
        cache[dst_fa] = ports
        return ports

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop protocol tasks (teardown)."""
        if self._advertiser is not None:
            self._advertiser.stop()
        if self._monitor is not None:
            self._monitor.stop()
