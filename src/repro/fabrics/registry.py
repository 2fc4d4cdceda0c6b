"""The fabric registry: fabrics are named plugins, not special cases.

Mirrors the scenario registry of :mod:`repro.experiments.registry`:
a fabric class registers itself under a name (plus optional aliases)::

    @fabric("stardust")
    class StardustNetwork(FabricNetwork):
        ...

and everything downstream — ``builders.build_network``, the experiments
CLI, spec validation — resolves fabrics with :func:`get_fabric`
(``get_fabric(name).cls`` is the class: construct it, or call its
``for_experiment``).  A third fabric drops in by registering itself; no
runner or builder code changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Type


class UnknownFabricError(KeyError, ValueError):
    """Raised when a fabric name is not in the registry.

    Inherits ``ValueError`` too: spec validation historically raised
    ``ValueError`` for bad fabric names, and callers catching that
    must keep working.
    """

    def __init__(self, name: str, known: List[str]) -> None:
        super().__init__(name)
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return (
            f"unknown fabric {self.name!r}; "
            f"registered: {', '.join(self.known) or '(none)'}"
        )


@dataclass
class FabricEntry:
    """One registered fabric backend."""

    name: str
    cls: Type
    description: str = ""
    aliases: Tuple[str, ...] = ()


_REGISTRY: Dict[str, FabricEntry] = {}
_ALIASES: Dict[str, str] = {}


def fabric(name: str, description: str = "", aliases: Tuple[str, ...] = ()):
    """Class decorator registering a :class:`FabricNetwork` under ``name``."""

    def register(cls):
        for candidate in (name, *aliases):
            if candidate in _REGISTRY or candidate in _ALIASES:
                raise ValueError(f"fabric {candidate!r} already registered")
        doc = (cls.__doc__ or "").strip()
        _REGISTRY[name] = FabricEntry(
            name,
            cls,
            description or (doc.splitlines()[0] if doc else ""),
            tuple(aliases),
        )
        for alias in aliases:
            _ALIASES[alias] = name
        cls.fabric_name = name
        return cls

    return register


def get_fabric(name: str) -> FabricEntry:
    """The registry entry for ``name`` (UnknownFabricError if absent)."""
    try:
        return _REGISTRY[_ALIASES.get(name, name)]
    except KeyError:
        raise UnknownFabricError(name, known_fabric_names()) from None


def fabric_names() -> List[str]:
    """All registered canonical fabric names, sorted (aliases excluded)."""
    return sorted(_REGISTRY)


def known_fabric_names() -> List[str]:
    """Every name :func:`get_fabric` accepts: canonical names + aliases."""
    return sorted(_REGISTRY) + sorted(_ALIASES)
