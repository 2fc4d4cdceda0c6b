"""Remnant of the engine-kernel registry (there is one engine now): ``bench/``
still imports :func:`build_simulator`; the next benchmark change removes it."""

from typing import Optional

from repro.sim.engine import KERNEL_GONE, Simulator


def build_simulator(name: Optional[str] = None) -> Simulator:
    if name is not None:
        raise ValueError(KERNEL_GONE.format(name))
    return Simulator()
