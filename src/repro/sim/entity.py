"""Base classes for simulated devices.

An :class:`Entity` is anything with a name that receives objects from
:class:`repro.sim.link.Link` endpoints: hosts, Fabric Adapters, Fabric
Elements, Ethernet switches.  A :class:`Device` is an entity a fabric
is built from — one that can die and come back (§5.10).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.link import Link


class Entity:
    """A named participant in the simulation.

    Subclasses implement :meth:`receive` to handle arriving frames and
    may use :meth:`attach_port` bookkeeping to learn their ports.

    The base declares ``__slots__``: the hot-core device classes (FAs,
    FEs) stay dict-free end to end, while edge/baseline subclasses
    that skip ``__slots__`` simply get a ``__dict__`` back.
    """

    __slots__ = ("sim", "name", "ports")

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: list["Link"] = []

    def attach_port(self, link: "Link") -> int:
        """Register ``link`` as the next port; returns the port index."""
        self.ports.append(link)
        return len(self.ports) - 1

    def port_index(self, link: "Link") -> int:
        """Index of ``link`` among this entity's ports."""
        return self.ports.index(link)

    def receive(self, payload: Any, link: "Link") -> None:
        """Handle an object delivered by ``link``.  Subclasses override."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement receive()"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Device(Entity):
    """A fabric device (FA, FE, Ethernet switch): the liveness half of
    the fabric contract, defined once.

    A dead device's ``receive`` counts the arrival in ``dead_drops``
    and returns (each subclass checks ``alive`` first — that test sits
    on the per-hop hot path, so it is not wrapped).  Links *into* a
    dead device belong to its neighbors; the fault injector fails
    those too.
    """

    __slots__ = ("alive", "dead_drops")

    def __init__(self, sim: "Simulator", name: str) -> None:
        super().__init__(sim, name)
        self.alive = True
        self.dead_drops = 0

    def out_links(self) -> list["Link"]:
        """Every link this device transmits on and takes down with it,
        in attachment order.  Subclasses override."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement out_links()"
        )

    def fail(self) -> int:
        """Kill the device: its :meth:`out_links` go down and arriving
        traffic is dropped.  Returns frames lost from their queues."""
        self.alive = False
        return sum(link.fail() for link in self.out_links())

    def restore(self) -> None:
        """Bring the device (and its :meth:`out_links`) back up."""
        self.alive = True
        for link in self.out_links():
            link.restore()
