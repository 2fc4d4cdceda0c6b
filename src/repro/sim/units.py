"""Time, size and rate units used throughout the simulator.

All simulation time is kept in **integer nanoseconds** so that event
ordering is exact and runs are bit-for-bit reproducible.  All data sizes
are kept in **bytes** and all rates in **bits per second**.
"""

from __future__ import annotations

NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000

KB = 1_000
KIB = 1_024
MB = 1_000_000
MIB = 1_048_576
GB = 1_000_000_000

GBPS = 1_000_000_000


def gbps(value: float) -> int:
    """Return a rate in bits/second for ``value`` gigabits per second."""
    return int(value * GBPS)


def bits_to_time_ns(bits: int, rate_bps: int) -> int:
    """Time (ns) to serialize ``bits`` on a link of ``rate_bps``.

    Rounds up so a transmission never finishes early; this keeps queues
    conservative (slightly pessimistic) and avoids zero-duration sends.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    if bits < 0:
        raise ValueError(f"bits must be non-negative, got {bits}")
    return -(-bits * SECOND // rate_bps)


def time_ns_for_bytes(num_bytes: int, rate_bps: int) -> int:
    """Time (ns) to serialize ``num_bytes`` on a link of ``rate_bps``."""
    return bits_to_time_ns(num_bytes * 8, rate_bps)
