"""Declarative, JSON-serializable experiment specifications.

A :class:`ScenarioSpec` pins down everything one simulation run needs —
topology shape, fabric kind, transport, workload, seed, warmup/measure
windows and config overrides — as plain data.  Two specs with the same
content always hash to the same value (:meth:`ScenarioSpec.content_hash`),
which is what the result store keys cache cells by, and what makes a
spec a reproducible claim rather than a pile of keyword arguments.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any, Dict, Optional, Tuple

from repro.fabrics.registry import get_fabric
from repro.fabrics.wiring import OneTierSpec, ThreeTierSpec, TwoTierSpec
from repro.sim.units import MILLISECOND, gbps
from repro.transport.table import TRANSPORT_TABLE

#: Topology kind -> the concrete spec dataclass it materializes into.
TOPOLOGY_KINDS = {
    "one_tier": OneTierSpec,
    "two_tier": TwoTierSpec,
    "three_tier": ThreeTierSpec,
}

#: Shorthand experiment "kind" -> (fabric, transport).  These mirror the
#: historical ``benchmarks/harness.py`` vocabulary: "stardust" is the
#: pull fabric under plain TCP; everything else runs on the pushed
#: Ethernet ECMP fabric under the named transport.
KIND_PRESETS: Dict[str, Tuple[str, str]] = {
    "stardust": ("stardust", "tcp"),
    "tcp": ("push", "tcp"),
    "ethernet": ("push", "tcp"),
    "dctcp": ("push", "dctcp"),
    "mptcp": ("push", "mptcp"),
    "dcqcn": ("push", "dcqcn"),
}

#: What ``ScenarioSpec.transport`` may name: every row of the transport
#: table, plus ``"none"`` for workloads that inject packets directly.
TRANSPORTS = (*TRANSPORT_TABLE, "none")


def resolve_kind(kind: str) -> Tuple[str, str]:
    """Translate a harness-style ``kind`` into (fabric, transport)."""
    try:
        return KIND_PRESETS[kind]
    except KeyError:
        raise ValueError(
            f"unknown kind {kind!r}; choose from {sorted(KIND_PRESETS)}"
        ) from None


def kind_for_fabric(fabric_name: str) -> str:
    """The ``kind`` preset that runs ``fabric_name`` under plain TCP.

    Lets callers (the CLI's ``--fabric`` flag) pick a fabric directly;
    aliases resolve through the fabric registry.  Scenario factories
    take a ``kind``, and translating *before* the factory runs keeps
    fabric-conditional config overrides correct.
    """
    canonical = get_fabric(fabric_name).name
    for kind, (fabric, transport) in KIND_PRESETS.items():
        if fabric == canonical and transport == "tcp":
            return kind
    raise ValueError(
        f"no kind preset runs fabric {canonical!r}; "
        f"presets: {sorted(KIND_PRESETS)}"
    )


# ----------------------------------------------------------------------
# Plain-dict forms
# ----------------------------------------------------------------------

#: ``dataclasses.field(metadata=...)`` flags read by :func:`field_table`.
#: ``OMIT_NONE``: the member is left out of the plain dict while it is
#: ``None``, so a field added later changes no existing JSON or hash.
#: ``HASH_NEUTRAL``: the member never reaches :meth:`ScenarioSpec.content_hash`
#: — it says how a run is observed or executed, not which run it is.
OMIT_NONE = "omit_none"
HASH_NEUTRAL = "hash_neutral"

_ATOMS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def field_table(cls: type) -> Tuple[Tuple[str, bool, bool], ...]:
    """``(name, omit_none, hash_neutral)`` per dataclass field, in order."""
    return tuple(
        (
            f.name,
            bool(f.metadata.get(OMIT_NONE)),
            bool(f.metadata.get(HASH_NEUTRAL)),
        )
        for f in fields(cls)
    )


def plain_copy(value: Any) -> Any:
    """``value`` as ``dataclasses.asdict`` would leave it inside a dict.

    Equal to the ``asdict`` form and sharing nothing mutable with
    ``value``: dicts, lists and tuples are rebuilt member by member,
    JSON scalars are handed over as they are, a nested dataclass (the
    topology) becomes its own plain dict, and only what is none of
    these (nothing a spec or result holds today) pays for a ``deepcopy``.
    """
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is dict:
        return {
            k: v if type(v) in _ATOMS else plain_copy(v)
            for k, v in value.items()
        }
    if kind is list:
        return [v if type(v) in _ATOMS else plain_copy(v) for v in value]
    if kind is tuple:
        return tuple(plain_copy(v) for v in value)
    if is_dataclass(value):
        return plain_fields(value, field_table(kind))
    return copy.deepcopy(value)


def plain_fields(
    obj: Any,
    table: Tuple[Tuple[str, bool, bool], ...],
    hashed_only: bool = False,
) -> Dict[str, Any]:
    """The plain-dict form of a dataclass instance: one walk over its
    :func:`field_table`.  Unset ``OMIT_NONE`` members are left out, and
    with ``hashed_only`` so is every ``HASH_NEUTRAL`` one."""
    data: Dict[str, Any] = {}
    for name, omit_none, hash_neutral in table:
        if hashed_only and hash_neutral:
            continue
        value = getattr(obj, name)
        if value is None and omit_none:
            continue
        data[name] = plain_copy(value)
    return data


@dataclass
class TopologySpec:
    """A declarative topology: a kind plus its constructor parameters."""

    kind: str = "two_tier"
    params: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; "
                f"choose from {sorted(TOPOLOGY_KINDS)}"
            )

    @classmethod
    def of(cls, topology) -> "TopologySpec":
        """Wrap a concrete ``OneTierSpec``/``TwoTierSpec``/``ThreeTierSpec``."""
        for kind, spec_cls in TOPOLOGY_KINDS.items():
            if isinstance(topology, spec_cls):
                params = {
                    k: v for k, v in asdict(topology).items() if v is not None
                }
                return cls(kind=kind, params=params)
        raise TypeError(f"unknown topology {type(topology).__name__}")

    def build(self):
        """Materialize the concrete (validated) topology dataclass."""
        return TOPOLOGY_KINDS[self.kind](**self.params)

    def addresses(self):
        """All host port addresses of this topology, in attach order."""
        from repro.net.addressing import PortAddress

        topo = self.build()
        return [
            PortAddress(fa, port)
            for fa in range(topo.num_fas)
            for port in range(topo.hosts_per_fa)
        ]


@dataclass
class ScenarioSpec:
    """Everything one run needs, as JSON-serializable data.

    ``workload`` is a dict with at least a ``"kind"`` key; the runner
    dispatches on it.  ``config_overrides`` are applied on top of the
    fabric's config (:class:`~repro.core.config.StardustConfig` fields
    for the Stardust fabric, :class:`~repro.baselines.ethernet.EthConfig`
    fields for the pushed fabric).
    """

    scenario: str
    topology: TopologySpec
    fabric: str = "stardust"
    transport: str = "tcp"
    workload: Dict[str, Any] = field(default_factory=lambda: {"kind": "permutation"})
    seed: int = 1
    warmup_ns: int = 2 * MILLISECOND
    measure_ns: int = 6 * MILLISECOND
    link_rate_bps: int = gbps(10)
    mss: int = 9000 - 40
    config_overrides: Dict[str, Any] = field(default_factory=dict)
    #: Optional fault schedule (a ``FaultPlan.to_dict()``; see
    #: :mod:`repro.faults`).  ``None`` — the default — serializes to
    #: *nothing*: :meth:`to_dict` omits the key, so every pre-fault
    #: spec hash (and with it the result store and the no-fault golden
    #: traces) is untouched by this field existing.
    faults: Optional[Dict[str, Any]] = field(
        default=None, metadata={OMIT_NONE: True}
    )
    #: Optional telemetry configuration (a
    #: :meth:`~repro.telemetry.probes.TelemetryConfig.to_dict`; see
    #: :mod:`repro.telemetry`).  Hash-neutral: ``None`` serializes to
    #: nothing (the ``faults`` trick), and :meth:`content_hash` skips
    #: the field even when set — instrumenting a run never changes its
    #: identity, so golden digests and cache cells are shared between
    #: an instrumented spec and its plain twin.
    telemetry: Optional[Dict[str, Any]] = field(
        default=None, metadata={OMIT_NONE: True, HASH_NEUTRAL: True}
    )

    def __post_init__(self) -> None:
        if isinstance(self.topology, dict):
            self.topology = TopologySpec(**self.topology)
        get_fabric(self.fabric)  # UnknownFabricError lists known names
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; "
                f"choose from {TRANSPORTS}"
            )
        if "kind" not in self.workload:
            raise ValueError("workload needs a 'kind' key")
        if self.warmup_ns < 0 or self.measure_ns <= 0:
            raise ValueError("windows must be positive")
        if self.faults is not None:
            from repro.faults.plan import FaultPlan

            if isinstance(self.faults, FaultPlan):
                self.faults = self.faults.to_dict()
            else:
                FaultPlan.from_dict(self.faults)  # validate eagerly
        if self.telemetry is not None:
            from repro.telemetry.probes import TelemetryConfig

            if isinstance(self.telemetry, TelemetryConfig):
                self.telemetry = self.telemetry.to_dict()
            else:
                TelemetryConfig.from_dict(self.telemetry)  # validate

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict form that round-trips through JSON.

        What ``dataclasses.asdict`` gives, minus every ``OMIT_NONE``
        field that is unset: an unset fault plan is omitted entirely,
        so unfaulted specs keep the exact content hashes they had
        before fault injection existed (the result-store cache and
        golden traces depend on that stability).
        """
        return plain_fields(self, _SPEC_FIELDS)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Stores written while the engine had selectable kernels (before
        PR 21) carry a ``"kernel"`` key.  It never entered the content
        hash and every kernel computed the same results, so it is
        dropped and the record keeps its identity.
        """
        if "kernel" in data:
            data = {k: v for k, v in data.items() if k != "kernel"}
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (sorted keys) for storage and hashing."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def content_hash(self) -> str:
        """Hex digest identifying this exact spec (store cache key).

        ``HASH_NEUTRAL`` fields are excluded.  Instrumentation observes
        a run without defining it (probes ride the event stream and
        never schedule), so an instrumented spec is the *same
        experiment* — same cache cell, same golden digest — as its
        plain twin.
        """
        data = plain_fields(self, _SPEC_FIELDS, hashed_only=True)
        payload = json.dumps(data, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    # ------------------------------------------------------------------
    def with_updates(self, **changes) -> "ScenarioSpec":
        """A copy of this spec with fields replaced."""
        data = self.to_dict()
        data.update(changes)
        return ScenarioSpec(**data)


_SPEC_FIELDS = field_table(ScenarioSpec)
