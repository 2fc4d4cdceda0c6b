"""A standard Ethernet packet switch: the fabric Stardust replaces.

Autonomous output-queued switch with:

* per-output drop-tail buffers (finite, shared nothing);
* ECMP: flows are hashed onto one uplink and stay there (§5.3's
  "flow hashing ... 40%-80% utilization" observation), with an optional
  per-packet spraying mode used by ablations;
* ECN marking above a configurable queue threshold (for DCTCP/DCQCN);
* strict-priority awareness only in the drop decision (a pushed fabric
  has no scheduler — that is the point of Fig 7/Fig 12).

Hot-path design: one frame per hop
----------------------------------

:meth:`EthernetSwitch.receive` is the whole per-packet hop — route,
ECMP pick, drop-tail/ECN, send — in one Python frame, the way
``FabricElement.receive`` is for cells.  Two per-packet computations
are memoized, both exactly:

* the ECMP candidate list toward a destination ToR is a pure function
  of port liveness, so it is cached per destination and flushed when
  ``sim.topology_epoch`` moves (every ``Link.fail``/``restore``, every
  ``add_port``/``add_down_route``).  It is *not* cached while it depends
  on the clock: with ``ecmp_rehash_ns > 0`` and one of this switch's
  ports down, a dead port stays a candidate until
  ``failed_at_ns + rehash`` and nothing bumps the epoch when that window
  closes — a list cached inside it would blackhole the flow forever;
* the md5 ECMP hash is a pure function of ``(flow, salt, fan-out)``,
  so each switch remembers ``(flow_id, fan_out) -> index``.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.addressing import DeviceId
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.entity import Device
from repro.sim.link import Link
from repro.sim.stats import Histogram


@dataclass(slots=True)
class EthConfig:
    """Ethernet switch knobs."""

    #: Per-output-port buffer (the paper's comparisons use 100 full
    #: packets; 100 x 9000B for jumbo runs).
    port_buffer_bytes: int = 150_000
    #: Queue depth above which departing packets are ECN-marked
    #: (DCTCP-style marking at ~K packets).  None disables marking.
    ecn_threshold_bytes: Optional[int] = 30_000
    #: "flow" = ECMP per-flow hash; "packet" = per-packet spray
    #: (ablation; reorders packets).
    load_balance: str = "flow"
    #: How long after a link failure the switch keeps hashing flows
    #: onto the dead path (§5.10: a pushed fabric blackholes flows
    #: until routing/ECMP rehash converges).  Packets picked onto a
    #: dead-but-not-yet-rehashed port are dropped and their flows
    #: counted as blackholed.  0 = instant rehash (the historical,
    #: optimistic behavior; keeps no-fault runs byte-identical).
    ecmp_rehash_ns: int = 0

    def __post_init__(self) -> None:
        if self.port_buffer_bytes <= 0:
            raise ValueError("buffer must be positive")
        if self.load_balance not in ("flow", "packet"):
            raise ValueError(f"unknown load_balance {self.load_balance!r}")
        if self.ecmp_rehash_ns < 0:
            raise ValueError("ecmp_rehash_ns must be non-negative")


@dataclass(eq=False, slots=True)
class EthPort:
    """One output port of an Ethernet switch."""

    neighbor: Optional[DeviceId]
    out: Link
    direction: str  # "up", "down", or "host"

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down", "host"):
            raise ValueError(f"bad direction {self.direction!r}")


#: A ``failed_at_ns`` horizon no link failure is ever later than.
_NEVER = sys.maxsize


def _flow_hash(flow_id: int, salt: int, buckets: int) -> int:
    """Deterministic ECMP hash (stable across runs)."""
    digest = hashlib.md5(f"{flow_id}:{salt}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % buckets


class EthernetSwitch(Device):
    """Output-queued packet switch with ECMP."""

    __slots__ = (
        "config", "switch_id", "tier", "_ports", "_up_ports", "_host_ports",
        "_down_map", "_cand_cache", "_cand_epoch", "_cand_volatile",
        "_hash_memo", "_spray_cursor", "_rehash_ns",
        "_spray", "_buffer_bytes", "_ecn_bytes",
        "forwarded", "dropped", "ecn_marked", "no_route_drops",
        "delivered_host_bytes", "queue_depth", "sample_queues",
        "blackholed", "blackholed_flow_ids",
    )

    def __init__(
        self,
        sim: Simulator,
        config: EthConfig,
        switch_id: DeviceId,
        name: str,
        tier: int = 0,
    ) -> None:
        super().__init__(sim, name)
        self.config = config
        self.switch_id = switch_id
        self.tier = tier
        self._ports: List[EthPort] = []
        self._up_ports: List[EthPort] = []
        self._host_ports: Dict[int, EthPort] = {}
        #: dst ToR id -> candidate down ports.
        self._down_map: Dict[DeviceId, List[EthPort]] = {}
        # ECMP candidate lists memoized per destination ToR, keyed on
        # the simulator's topology epoch (see the module docstring);
        # ``_cand_volatile`` is the epoch's "do not memoize" verdict.
        self._cand_cache: Dict[DeviceId, List[EthPort]] = {}
        self._cand_epoch = -1
        self._cand_volatile = False
        #: (flow id, fan-out) -> ECMP index: md5 once per flow, not
        #: once per packet.
        self._hash_memo: Dict[Tuple[int, int], int] = {}
        self._spray_cursor = 0
        # Accounting.
        self.forwarded = 0
        self.dropped = 0
        self.ecn_marked = 0
        self.no_route_drops = 0
        #: Payload bytes accepted onto host-facing ports (drops excluded).
        self.delivered_host_bytes = 0
        self.queue_depth = Histogram(f"{name}.queue_bytes")
        self.sample_queues = False
        # The config values the per-packet path reads (see receive).
        self._spray = config.load_balance == "packet"
        self._buffer_bytes = config.port_buffer_bytes
        self._ecn_bytes = config.ecn_threshold_bytes
        # Failure modelling: packets hashed onto a failed-but-not-yet-
        # rehashed ECMP path are blackholed (dropped + flow recorded);
        # a dead switch drops everything it receives.
        self._rehash_ns = config.ecmp_rehash_ns
        self.blackholed = 0
        self.blackholed_flow_ids: set = set()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_port(
        self,
        out: Link,
        direction: str,
        neighbor: Optional[DeviceId] = None,
        host_port_index: Optional[int] = None,
    ) -> EthPort:
        """Attach an output port (up/down/host)."""
        port = EthPort(neighbor=neighbor, out=out, direction=direction)
        self._ports.append(port)
        if direction == "up":
            self._up_ports.append(port)
        elif direction == "host":
            if host_port_index is None:
                raise ValueError("host ports need an index")
            self._host_ports[host_port_index] = port
        self.sim.topology_epoch += 1
        return port

    def add_down_route(self, dst_tor: DeviceId, port: EthPort) -> None:
        """Route ``dst_tor`` through ``port`` (down-table entry)."""
        self._down_map.setdefault(dst_tor, []).append(port)
        self.sim.topology_epoch += 1

    @property
    def up_ports(self) -> List[EthPort]:
        """Ports toward the next tier up."""
        return list(self._up_ports)

    @property
    def eth_ports(self) -> List[EthPort]:
        """All attached ports."""
        return list(self._ports)

    def out_links(self) -> List[Link]:
        """Every port's output link (host ports included), in
        attachment order."""
        return [port.out for port in self._ports]

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def receive(self, payload: Packet, link: Optional[Link] = None) -> None:
        """Route ``payload`` and enqueue it on an output port.

        This *is* the per-packet per-hop hot path, one frame: route via
        the epoch-memoized candidate list, ECMP pick via the per-flow
        hash memo, blackhole / drop-tail / ECN checks, send.  The load
        balance mode, port buffer and ECN threshold come from slots set
        at construction: nothing mutates an :class:`EthConfig` after its
        switches are built.  :meth:`route` is the same decision without
        the side effects.
        """
        if not self.alive:
            self.dead_drops += 1
            return
        dst = payload.dst
        dst_tor = dst.fa
        if dst_tor == self.switch_id and self._host_ports:
            port = self._host_ports.get(dst.port)
            if port is None:
                self.no_route_drops += 1
                return
        else:
            # Inlined _candidates cache hit.
            if self.sim.topology_epoch == self._cand_epoch:
                candidates = self._cand_cache.get(dst_tor)
                if candidates is None:
                    candidates = self._candidates(dst_tor)
            else:
                candidates = self._candidates(dst_tor)
            fan_out = len(candidates)
            if fan_out == 1:
                port = candidates[0]
            elif not fan_out:
                self.no_route_drops += 1
                return
            elif self._spray:
                cursor = self._spray_cursor = (
                    self._spray_cursor + 1
                ) % fan_out
                port = candidates[cursor]
            else:
                flow_id = payload.flow_id
                index = self._hash_memo.get((flow_id, fan_out))
                if index is None:
                    index = self._ecmp_index(flow_id, fan_out)
                port = candidates[index]
        out = port.out
        if not out.up:
            # ECMP still hashes this flow onto the dead path: the
            # packet is blackholed until the rehash interval elapses.
            self.blackholed += 1
            self.blackholed_flow_ids.add(payload.flow_id)
            return
        queued = out._queued_bytes
        if self.sample_queues:
            self.queue_depth.record(queued)
        wire_bytes = payload.wire_bytes
        if queued + wire_bytes > self._buffer_bytes:
            self.dropped += 1
            return
        threshold = self._ecn_bytes
        if threshold is not None and queued >= threshold:
            payload.ecn = True
            self.ecn_marked += 1
        self.forwarded += 1
        if port.direction == "host":
            self.delivered_host_bytes += payload.size_bytes
        out.send(payload, wire_bytes)

    def route(self, packet: Packet) -> Optional[EthPort]:
        """The port :meth:`receive` would pick for ``packet`` right now.

        Side-effect free (no counters, no spray-cursor advance); shares
        the candidate and hash memos with the data path.  The port may
        be down — that is a packet the data path would blackhole.
        """
        dst = packet.dst
        if dst.fa == self.switch_id and self._host_ports:
            return self._host_ports.get(dst.port)
        candidates = self._candidates(dst.fa)
        fan_out = len(candidates)
        if fan_out <= 1:
            return candidates[0] if candidates else None
        if self._spray:
            return candidates[(self._spray_cursor + 1) % fan_out]
        return candidates[self._ecmp_index(packet.flow_id, fan_out)]

    def _candidates(self, dst_tor: DeviceId) -> List[EthPort]:
        """ECMP candidate set toward ``dst_tor``: down-routes preferred,
        else up ports; live ones, plus — while the rehash delay has not
        elapsed — recently failed ones (whose packets blackhole),
        modelling slow ECMP convergence.

        Memoized per destination until the topology epoch moves, except
        while the set is time-dependent (see the module docstring).
        """
        cache = self._cand_cache
        if self.sim.topology_epoch != self._cand_epoch:
            cache.clear()
            self._cand_epoch = self.sim.topology_epoch
            self._cand_volatile = bool(self._rehash_ns) and not all(
                p.out.up for p in self._ports
            )
        elif dst_tor in cache:
            return cache[dst_tor]
        volatile = self._cand_volatile
        # A dead port stays a candidate while now < failed_at + rehash,
        # i.e. failed_at > horizon; outside a rehash window none does.
        horizon = self.sim.now - self._rehash_ns if volatile else _NEVER
        candidates = [
            p for p in self._down_map.get(dst_tor, ())
            if p.out.up or p.out.failed_at_ns > horizon
        ] or [
            p for p in self._up_ports
            if p.out.up or p.out.failed_at_ns > horizon
        ]
        if not volatile:
            cache[dst_tor] = candidates
        return candidates

    def _ecmp_index(self, flow_id: int, fan_out: int) -> int:
        """Memoized :func:`_flow_hash` of ``flow_id`` over ``fan_out``."""
        key = (flow_id, fan_out)
        index = self._hash_memo.get(key)
        if index is None:
            index = self._hash_memo[key] = _flow_hash(
                flow_id, self.switch_id, fan_out
            )
        return index
