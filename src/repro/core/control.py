"""The control crossbar: credit-loop status reports and grants.

A Fabric Element is "essentially two k x k crossbars, one for data cells
and one for control messages" (§4.2).  Data cells get the full
event-level treatment; the control crossbar — which carries only tiny,
strictly-paced credit requests and grants — is modelled as a fixed
per-hop latency between Fabric Adapters.  This preserves exactly what
matters to the results (the credit loop delay) without doubling the
event count of every experiment.

It carries two kinds of message, each with a typed send that hands its
fields straight to the receiver's handler: an ingress VOQ's cumulative
enqueued byte count (``status``; cumulative, so a late or duplicated
report can never inflate the scheduler's demand estimate) and an egress
scheduler's credit (``grant``).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Protocol, Tuple

from repro.core.cell import VoqId
from repro.net.addressing import DeviceId
from repro.sim.engine import Simulator


class ControlEndpoint(Protocol):
    """What the control plane delivers to (Fabric Adapters)."""

    def on_status(
        self, ingress_fa: DeviceId, voq: VoqId, enqueued_bytes: int
    ) -> None: ...

    def on_grant(self, voq: VoqId, nbytes: int) -> None: ...


#: One direction of one FA pair: (delay_ns, dst's on_status, on_grant).
_Route = Tuple[int, Callable[..., None], Callable[..., None]]


class ControlPlane:
    """Delivers status reports and grants between Fabric Adapters.

    ``delay_fn(src, dst)`` returns the one-way control-path latency in
    nanoseconds; the network builder derives it from the topology (hops
    x per-hop latency + fiber propagation).  It is a pure function of
    the pair, so it is asked once per pair, on the pair's first message.
    """

    __slots__ = ("sim", "_delay_fn", "_endpoints", "_routes", "messages_sent")

    def __init__(
        self,
        sim: Simulator,
        delay_fn: Callable[[DeviceId, DeviceId], int],
    ) -> None:
        self.sim = sim
        self._delay_fn = delay_fn
        self._endpoints: Dict[DeviceId, ControlEndpoint] = {}
        self._routes: Dict[Tuple[DeviceId, DeviceId], _Route] = {}
        self.messages_sent = 0

    def register(self, fa_id: DeviceId, endpoint: ControlEndpoint) -> None:
        """Register the control endpoint for Fabric Adapter ``fa_id``."""
        if fa_id in self._endpoints:
            raise ValueError(f"fa {fa_id} already registered")
        self._endpoints[fa_id] = endpoint

    def _route(self, src: DeviceId, dst: DeviceId) -> _Route:
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            raise KeyError(f"no control endpoint for fa {dst}")
        route = (self._delay_fn(src, dst), endpoint.on_status, endpoint.on_grant)
        self._routes[src, dst] = route
        return route

    # Control messages are never cancelled, so both sends ride the
    # engine's calendar wheel (``call_later``) without an Event handle;
    # the partial is the message: its fields, bound to the handler.
    def status(
        self, src: DeviceId, dst: DeviceId, voq: VoqId, enqueued_bytes: int
    ) -> None:
        """Report ``src``'s VOQ ``voq`` holds ``enqueued_bytes`` (cumulative)."""
        route = self._routes.get((src, dst)) or self._route(src, dst)
        self.messages_sent += 1
        self.sim.call_later(
            route[0], partial(route[1], src, voq, enqueued_bytes)
        )

    def grant(
        self, src: DeviceId, dst: DeviceId, voq: VoqId, nbytes: int
    ) -> None:
        """Release ``nbytes`` of credit from ``src`` to ``dst``'s ``voq``."""
        route = self._routes.get((src, dst)) or self._route(src, dst)
        self.messages_sent += 1
        self.sim.call_later(route[0], partial(route[2], voq, nbytes))
