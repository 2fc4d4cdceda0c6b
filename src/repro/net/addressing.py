"""Addressing used across the fabric.

Stardust routes on *destination Fabric Adapter* identity, not on end-host
addresses: the Fabric Adapter maps each host-facing destination to a
``PortAddress`` (Fabric Adapter id + downlink port number), and everything
inside the fabric only ever sees the Fabric Adapter id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DeviceId = int


@dataclass(frozen=True, order=True, slots=True)
class PortAddress:
    """A (Fabric Adapter, downlink port) pair — a VOQ's destination."""

    fa: DeviceId
    port: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.fa < 0:
            raise ValueError(f"fa id must be non-negative, got {self.fa}")
        if self.port < 0:
            raise ValueError(f"port must be non-negative, got {self.port}")
        # Addresses sit inside every VoqId and flow key; caching the
        # hash (same value the generated __hash__ computes) makes those
        # nested hashes one attribute read.
        object.__setattr__(self, "_hash", hash((self.fa, self.port)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"fa{self.fa}:p{self.port}"
