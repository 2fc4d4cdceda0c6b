"""Hosts: where transports live.

A :class:`Host` owns one NIC port into whichever fabric it was attached
to, demultiplexes arriving packets to per-flow senders/receivers, and
feeds the shared :class:`~repro.net.flow.FlowTracker` that experiments
read their results from.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.addressing import PortAddress
from repro.net.flow import Flow, FlowTracker
from repro.net.packet import Packet, PauseFrame
from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.sim.link import Link
from repro.transport.tcp import TcpReceiver, TcpSender


class Host(Entity):
    """An end host with a single fabric-facing NIC port."""

    #: NIC transmit buffer: 100 jumbo frames, matching the "100 packet
    #: output queues" of the paper's §6.3 comparison setup.
    nic_buffer_bytes = 100 * 9000
    #: Senders are asked to defer (qdisc backpressure / TCP small
    #: queues) once this much is queued in the NIC, long before the
    #: hard drop limit.  Keeps self-inflicted host queueing — and so
    #: RTT on a lossless fabric — bounded.
    tx_backpressure_bytes = 4 * 9000

    __slots__ = (
        "address", "tracker", "_senders", "_receivers", "_blocked_senders",
        "packets_received", "bytes_received", "nic_drops", "_fc_paused",
        "span_recorder",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        address: PortAddress,
        tracker: Optional[FlowTracker] = None,
    ) -> None:
        super().__init__(sim, name)
        self.address = address
        self.tracker = tracker or FlowTracker()
        self._senders: Dict[int, object] = {}
        self._receivers: Dict[int, TcpReceiver] = {}
        self._blocked_senders: list = []
        #: Registry of flows this host receives, for tracker lookups.
        self.packets_received = 0
        self.bytes_received = 0
        self.nic_drops = 0
        #: Set while the Fabric Adapter has PAUSEd us (§5.4).
        self._fc_paused = False
        #: Telemetry hook (see repro.telemetry.spans): when set, every
        #: data packet leaving / arriving at this host is reported.
        #: None by default — the hot paths pay one attribute test.
        self.span_recorder = None

    # ------------------------------------------------------------------
    # NIC
    # ------------------------------------------------------------------
    def nic_ready(self) -> bool:
        """Whether a windowed sender should emit more data now."""
        ports = self.ports
        if not ports or self._fc_paused:
            return False
        return ports[0]._queued_bytes < self.tx_backpressure_bytes

    def block_on_nic(self, sender) -> None:
        """Register ``sender`` to be woken when the NIC drains.

        The NIC link carries the wake hook only while a sender waits, so
        an unblocked NIC serializes on the link's train path.
        """
        if sender not in self._blocked_senders:
            self._blocked_senders.append(sender)
            ports = self.ports
            if ports:
                ports[0].on_transmit = self._on_nic_transmit

    def _on_nic_transmit(self, _payload) -> None:
        if self._blocked_senders and self.nic_ready():
            ready, self._blocked_senders = self._blocked_senders, []
            # Unhooked before the wake-ups: a sender that blocks again
            # puts the hook back.
            self.ports[0].on_transmit = None
            for sender in ready:
                sender.nic_unblocked()

    def output(self, packet: Packet) -> None:
        """Hand a packet to the NIC (the attached fabric link).

        The NIC transmit queue is finite: anything beyond the hard cap
        is dropped (a backstop — windowed senders defer via
        :meth:`nic_ready` long before hitting it).
        """
        ports = self.ports
        if not ports:
            raise RuntimeError(f"{self.name} is not attached to a fabric")
        link = ports[0]
        wire_bytes = packet.wire_bytes
        if link._queued_bytes + wire_bytes > self.nic_buffer_bytes:
            self.nic_drops += 1
            return
        if self.span_recorder is not None:
            self.span_recorder.packet_out(self.sim.now, packet)
        link.send(packet, wire_bytes)

    def receive(self, packet: Packet, link: Link) -> None:
        """Demultiplex an arriving frame to flow state."""
        if isinstance(packet, PauseFrame):
            # §5.4: the Fabric Adapter backpressures the host.
            self._fc_paused = packet.pause
            if not packet.pause:
                self._on_nic_transmit(None)  # wake deferred senders
            return
        if packet.is_cnp:
            sender = self._senders.get(packet.flow_id)
            if sender is not None:
                sender.on_cnp(packet)  # type: ignore[attr-defined]
            return
        if packet.is_ack:
            sender = self._senders.get(packet.flow_id)
            if sender is not None:
                sender.on_ack(packet)  # type: ignore[attr-defined]
            return
        # Data packet.
        self.packets_received += 1
        self.bytes_received += packet.size_bytes
        if self.span_recorder is not None:
            self.span_recorder.packet_in(self.sim.now, packet)
        receiver = self._receivers.get(packet.flow_id)
        if receiver is None:
            receiver = TcpReceiver(self, packet.flow_id)
            self._receivers[packet.flow_id] = receiver
        fresh = receiver.on_data(packet)
        if fresh > 0:
            try:
                self.tracker.record_delivery(
                    packet.flow_id, self.sim.now, fresh
                )
            except KeyError:
                pass  # untracked background flow

    # ------------------------------------------------------------------
    # Flow management
    # ------------------------------------------------------------------
    def start_flow(
        self,
        flow: Flow,
        sender_cls=TcpSender,
        start_delay_ns: int = 0,
        **sender_kwargs,
    ):
        """Create a sender for ``flow`` and schedule its start.

        The *destination* host must share this host's ``tracker`` for
        completion times to be recorded (see :func:`make_hosts`).
        """
        if flow.src != self.address:
            raise ValueError(
                f"flow source {flow.src} is not this host ({self.address})"
            )
        self.tracker.register(flow)
        sender = sender_cls(self, flow, **sender_kwargs)
        self._senders[flow.flow_id] = sender
        self.sim.call_later(start_delay_ns, sender.start)
        return sender

    def register_subflow_sender(self, flow_id: int, sender) -> None:
        """Route ACKs for ``flow_id`` to ``sender`` (MPTCP subflows)."""
        self._senders[flow_id] = sender

    def install_receiver(self, receiver: TcpReceiver) -> None:
        """Pre-install a custom receiver (e.g. a DCQCN notification
        point) for a flow about to arrive."""
        self._receivers[receiver.flow_id] = receiver

    def sender(self, flow_id: int):
        """The sender object registered for ``flow_id`` (or None)."""
        return self._senders.get(flow_id)


def make_hosts(network, addresses, tracker: Optional[FlowTracker] = None):
    """Create and attach one :class:`Host` per address on ``network``.

    Works with every :class:`~repro.fabrics.base.FabricNetwork`
    (anything with ``sim`` and ``attach_host``).  All hosts share one
    tracker.
    """
    tracker = tracker or FlowTracker()
    hosts = {}
    for address in addresses:
        host = Host(
            network.sim,
            f"host{address.fa}.{address.port}",
            address,
            tracker,
        )
        network.attach_host(address, host)
        hosts[address] = host
    return hosts, tracker
