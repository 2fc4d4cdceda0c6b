"""The transport table: how a flow starts under each named transport.
The one place that knows; adding a transport is one row here."""

from typing import Dict, NamedTuple, Optional

from repro.transport.dcqcn import DcqcnNotificationPoint, DcqcnSender
from repro.transport.dctcp import DctcpSender
from repro.transport.mptcp import MptcpConnection
from repro.transport.tcp import TcpSender


class Transport(NamedTuple):
    """One row: what :func:`start_flow` builds for a flow."""

    sender_cls: type = TcpSender
    receiver_cls: Optional[type] = None  # pre-installed on the sink, per flow
    paced: bool = False  # the sender takes the NIC's ``line_rate_bps``
    multipath: bool = False  # striped over subflows by an MptcpConnection


TRANSPORT_TABLE: Dict[str, Transport] = {
    "tcp": Transport(),
    "dctcp": Transport(DctcpSender),
    "mptcp": Transport(multipath=True),
    "dcqcn": Transport(DcqcnSender, DcqcnNotificationPoint, paced=True),
}


def start_flow(
    hosts, flow, transport: str = "tcp", *, delay_ns: int = 0,
    line_rate_bps: Optional[int] = None, mptcp_subflows: int = 8,
    **sender_kwargs,
):
    """Start ``flow`` from ``hosts[flow.src]``, ``delay_ns`` from now;
    returns the sender (the connection, for a multipath transport).

    ``flow.start_ns`` is never read: some callers keep a delay there,
    others an absolute stamp, so each passes ``delay_ns`` itself.
    """
    entry = TRANSPORT_TABLE.get(transport)
    if entry is None:
        known = ", ".join(sorted(TRANSPORT_TABLE))
        raise ValueError(f"unknown transport {transport!r}; registered: {known}")
    host = hosts[flow.src]
    if entry.multipath:
        conn = MptcpConnection(host, flow, n_subflows=mptcp_subflows, **sender_kwargs)
        # An undelayed connection starts in place, not through an event.
        if delay_ns:
            host.sim.call_later(delay_ns, conn.start)
        else:
            conn.start()
        return conn
    if entry.receiver_cls is not None:
        sink = hosts[flow.dst]
        sink.install_receiver(entry.receiver_cls(sink, flow.flow_id))
    if entry.paced and line_rate_bps is not None:
        sender_kwargs["line_rate_bps"] = line_rate_bps
    return host.start_flow(
        flow, entry.sender_cls, start_delay_ns=delay_ns, **sender_kwargs
    )
