"""Remnant of the engine-kernel registry (there is one engine now): ``bench/``
still imports :func:`build_simulator`; the next benchmark change removes it."""

from typing import Optional

from repro.sim.engine import Simulator

KERNEL_GONE = "no engine kernel {!r}: PR 21 left one run loop (results never differed)"


def build_simulator(name: Optional[str] = None) -> Simulator:
    if name is not None:
        raise ValueError(KERNEL_GONE.format(name))
    return Simulator()
