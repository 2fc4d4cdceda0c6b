"""The ``@rule`` registry and the shipped invariant rules.

The registry mirrors :mod:`repro.fabrics.registry`: a decorator
registers each rule under a stable ID, the analyzer iterates
``RULES``, and the CLI lists them with ``--list-rules``.  A rule is a
generator over a :class:`ModuleContext` yielding ``(node, message)``
pairs; the analyzer owns zoning, suppression and fingerprinting so the
rules stay pure AST pattern matchers.

Shipped rules:

========  ==========  =====================================================
ID        Zone        Contract
========  ==========  =====================================================
DET001    all         randomness is a seeded ``random.Random(<seed>)``
DET002    det         no wall-clock reads inside simulations
DET003    det         no set/dict-keys iteration feeding the scheduler
DET004    det         no ``id()``/``hash()`` in ordering or as dict keys
DET005    det         ``*_ns`` times are integers: no float math/equality
DET006    all         no OS entropy (``os.urandom``/``uuid4``/``secrets``)
HOT001    hot pkgs    hot-path classes declare ``__slots__`` (both fabrics)
HOT002    hot table   no closure allocation inside known hot functions
API001    all         ``heapq``/``bisect`` only in ``sim/engine.py``
DEAD001   src/repro   public top-level defs are loaded somewhere in the package
========  ==========  =====================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.lint.zones import DETERMINISTIC, module_parts, zone_for_path

RuleHit = Tuple[ast.AST, str]
#: ``name -> {(file, index of the top-level statement)}``: where a
#: package loads each name (see :func:`_load_sites`).
LoadSites = Dict[str, Set[Tuple[str, int]]]


@dataclass
class ModuleContext:
    """Everything a rule needs about one parsed module."""

    path: str
    rel: Tuple[str, ...]
    zone: str
    tree: ast.Module
    lines: List[str]
    #: ``alias -> dotted module`` from ``import x.y as z``.
    imported_modules: Dict[str, str] = field(default_factory=dict)
    #: ``name -> dotted origin`` from ``from x.y import z [as w]``.
    imported_names: Dict[str, str] = field(default_factory=dict)
    #: child AST node -> parent AST node, for ancestor walks.
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: package root -> its :data:`LoadSites`, shared by every module of
    #: one analyzer run so each package is scanned once per run.
    package_sites: Dict[Path, LoadSites] = field(default_factory=dict)

    @classmethod
    def build(
        cls, path: str, tree: ast.Module, lines: List[str],
        package_sites: Optional[Dict[Path, LoadSites]] = None,
    ) -> "ModuleContext":
        ctx = cls(
            path=path,
            rel=module_parts(path),
            zone=zone_for_path(path),
            tree=tree,
            lines=lines,
            package_sites={} if package_sites is None else package_sites,
        )
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                ctx.parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    ctx.imported_modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    ctx.imported_names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        return ctx

    def dotted(self, node: ast.AST) -> Optional[str]:
        """Resolve an expression to a dotted name through the imports.

        ``np.random.shuffle`` -> ``numpy.random.shuffle`` when numpy
        was imported as ``np``; unresolvable expressions return None.
        """
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        root = self.imported_modules.get(base) or self.imported_names.get(base) or base
        chain.append(root)
        return ".".join(reversed(chain))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        seen = node
        while seen in self.parents:
            seen = self.parents[seen]
            yield seen


CheckFn = Callable[[ModuleContext], Iterator[RuleHit]]


@dataclass(frozen=True)
class RuleInfo:
    """One registered rule: a stable ID, a summary, a zone scope."""

    id: str
    summary: str
    #: ``None`` applies everywhere; otherwise the set of zones checked.
    zones: Optional[FrozenSet[str]]
    check: CheckFn

    def applies_to(self, ctx: ModuleContext) -> bool:
        return self.zones is None or ctx.zone in self.zones


#: Rule registry, keyed by rule ID (insertion order == report order).
RULES: Dict[str, RuleInfo] = {}

_DET_ONLY = frozenset({DETERMINISTIC})


def rule(
    rule_id: str, summary: str, zones: Optional[FrozenSet[str]] = None
) -> Callable[[CheckFn], CheckFn]:
    """Register ``fn`` as the check for ``rule_id`` (mirrors ``@fabric``)."""

    def decorate(fn: CheckFn) -> CheckFn:
        if rule_id in RULES:
            raise ValueError(f"duplicate lint rule id: {rule_id!r}")
        RULES[rule_id] = RuleInfo(id=rule_id, summary=summary, zones=zones, check=fn)
        return fn

    return decorate


# ----------------------------------------------------------------------
# DET001: unseeded module-level randomness
# ----------------------------------------------------------------------

_RANDOM_MODULE_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "betavariate", "expovariate",
        "gammavariate", "gauss", "lognormvariate", "normalvariate",
        "vonmisesvariate", "paretovariate", "weibullvariate",
        "getrandbits", "randbytes", "seed", "binomialvariate",
    }
)


@rule(
    "DET001",
    "construct random.Random(<seed>); module-level random.* / "
    "numpy.random and unseeded constructors are flagged",
)
def _det001(ctx: ModuleContext) -> Iterator[RuleHit]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = ctx.dotted(node.func)
        if dotted is None:
            continue
        if dotted.startswith("random."):
            tail = dotted.split(".", 1)[1]
            if tail in _RANDOM_MODULE_FNS:
                yield node, (
                    f"module-level random.{tail}() shares global state; "
                    "draw from a random.Random(<seed>) instance instead"
                )
            elif tail == "Random" and not node.args and not node.keywords:
                yield node, (
                    "random.Random() without a seed is entropy-seeded; "
                    "pass an explicit seed derived from the run seed"
                )
        elif dotted.startswith("numpy.random."):
            tail = dotted.split(".", 2)[2]
            seeded_ctors = {"default_rng", "Generator", "RandomState", "SeedSequence"}
            if tail in seeded_ctors and (node.args or node.keywords):
                continue
            yield node, (
                f"numpy.random.{tail} is unseeded global (or default-seeded) "
                "state; construct a generator from the run seed"
            )


# ----------------------------------------------------------------------
# DET002: wall-clock reads in the deterministic zone
# ----------------------------------------------------------------------

_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)


@rule(
    "DET002",
    "no wall-clock reads (time.time/perf_counter/datetime.now) inside "
    "the deterministic zone; simulated time is sim.now",
    zones=_DET_ONLY,
)
def _det002(ctx: ModuleContext) -> Iterator[RuleHit]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = ctx.dotted(node.func)
        if dotted in _CLOCK_CALLS:
            yield node, (
                f"{dotted}() reads the wall clock; deterministic-zone code "
                "must use the simulator clock (sim.now)"
            )


# ----------------------------------------------------------------------
# DET003: set/dict-keys iteration feeding the scheduler
# ----------------------------------------------------------------------

_SCHED_SINKS = frozenset(
    {"schedule_at", "call_later", "rearm_at", "at", "schedule", "call_soon"}
)
_SET_METHODS = frozenset(
    {"keys", "intersection", "union", "difference", "symmetric_difference"}
)


def _called_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _set_iteration_reason(expr: ast.AST) -> Optional[str]:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if isinstance(expr, ast.Call):
        name = _called_name(expr)
        if name in {"set", "frozenset"}:
            return f"{name}(...)"
        if name in _SET_METHODS and isinstance(expr.func, ast.Attribute):
            return f".{name}() (set/dict-view order)"
    return None


@rule(
    "DET003",
    "no iteration over sets / dict views inside functions that schedule "
    "events; insertion-ordered containers or sorted() only",
    zones=_DET_ONLY,
)
def _det003(ctx: ModuleContext) -> Iterator[RuleHit]:
    for fn in ast.walk(ctx.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        schedules = any(
            isinstance(n, ast.Call) and _called_name(n) in _SCHED_SINKS
            for n in ast.walk(fn)
        )
        if not schedules:
            continue
        for loop in ast.walk(fn):
            if not isinstance(loop, (ast.For, ast.AsyncFor)):
                continue
            reason = _set_iteration_reason(loop.iter)
            if reason is not None:
                yield loop, (
                    f"iterating {reason} in {fn.name}(), which schedules "
                    "events; set/dict-view order is PYTHONHASHSEED-dependent"
                )


# ----------------------------------------------------------------------
# DET004: id()/hash() in ordering or as container keys
# ----------------------------------------------------------------------


@rule(
    "DET004",
    "no id()/hash() for ordering or as dict/set keys in scheduling "
    "paths; use stable indices assigned at wiring time",
    zones=_DET_ONLY,
)
def _det004(ctx: ModuleContext) -> Iterator[RuleHit]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        name = node.func.id
        if name == "id" and len(node.args) == 1:
            yield node, (
                "id() values depend on allocation order; key containers by "
                "a stable wiring-time index instead"
            )
        elif name == "hash" and len(node.args) == 1:
            for parent in ctx.ancestors(node):
                if isinstance(parent, (ast.BinOp, ast.Compare, ast.Subscript)):
                    yield node, (
                        "hash() feeding arithmetic/indexing/comparison is "
                        "PYTHONHASHSEED-dependent for str keys; use an "
                        "integer identity"
                    )
                    break
                if isinstance(parent, ast.stmt):
                    break


# ----------------------------------------------------------------------
# DET005: float arithmetic / equality on *_ns time values
# ----------------------------------------------------------------------


def _is_ns_target(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id.endswith("_ns")
    if isinstance(node, ast.Attribute):
        return node.attr.endswith("_ns")
    return False


def _float_taint(expr: ast.AST) -> Optional[str]:
    """Why ``expr`` produces a float, or None if it looks integral."""
    for node in ast.walk(expr):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return "true division (use //)"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return f"float literal {node.value!r}"
    return None


def _int_wrapped_float_math(expr: ast.AST) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "int"
        and len(expr.args) == 1
        and isinstance(expr.args[0], ast.BinOp)
        and isinstance(expr.args[0].op, (ast.Mult, ast.Div))
    )


@rule(
    "DET005",
    "*_ns time values are integers: no float arithmetic, float "
    "literals, or float equality on them",
    zones=_DET_ONLY,
)
def _det005(ctx: ModuleContext) -> Iterator[RuleHit]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            else:
                targets, value = [node.target], node.value
            if value is None or not any(_is_ns_target(t) for t in targets):
                continue
            taint = _float_taint(value)
            if taint is not None:
                yield node, (
                    f"float math assigned to a *_ns time value ({taint}); "
                    "nanosecond timestamps must stay integral"
                )
            elif _int_wrapped_float_math(value):
                yield node, (
                    "int(...) truncation of arithmetic assigned to a *_ns "
                    "value hides float rounding; compute in integers"
                )
        elif isinstance(node, ast.Call):
            if _called_name(node) not in _SCHED_SINKS:
                continue
            for arg in node.args:
                taint = _float_taint(arg)
                if taint is not None:
                    yield arg, (
                        f"float math in a scheduling-time argument ({taint}); "
                        "event times must be integer nanoseconds"
                    )
        elif isinstance(node, ast.Compare):
            ok_ops = all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            if not ok_ops:
                continue
            sides = [node.left, *node.comparators]
            if not any(_is_ns_target(s) for s in sides):
                continue
            for s in sides:
                if isinstance(s, ast.Constant) and isinstance(s.value, float):
                    yield node, (
                        "float equality against a *_ns time value; compare "
                        "integer nanoseconds exactly"
                    )
                    break


# ----------------------------------------------------------------------
# DET006: OS entropy sources
# ----------------------------------------------------------------------

_ENTROPY_PREFIXES = ("secrets.",)
_ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})


@rule(
    "DET006",
    "no OS entropy (os.urandom, uuid.uuid4, secrets.*): identifiers "
    "must derive from the run seed",
)
def _det006(ctx: ModuleContext) -> Iterator[RuleHit]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = ctx.dotted(node.func)
        if dotted is None:
            continue
        if dotted in _ENTROPY_CALLS or dotted.startswith(_ENTROPY_PREFIXES):
            yield node, (
                f"{dotted}() draws OS entropy; derive identifiers from the "
                "run seed so runs replay"
            )


# ----------------------------------------------------------------------
# HOT001: hot-core classes must declare __slots__
# ----------------------------------------------------------------------

_SLOTLESS_OK_BASES = frozenset(
    {
        "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "Protocol",
        "ABC", "Exception", "BaseException", "NamedTuple", "TypedDict",
        "Generic",
    }
)


def _base_name(base: ast.AST) -> Optional[str]:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    if isinstance(base, ast.Subscript):
        return _base_name(base.value)
    return None


def _hot001_exempt(node: ast.ClassDef) -> bool:
    if node.name.endswith(("Error", "Exception")):
        return True
    for base in node.bases:
        name = _base_name(base)
        if name in _SLOTLESS_OK_BASES or (
            name is not None and name.endswith(("Error", "Exception"))
        ):
            return True
    return False


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return dec
    return None


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            ):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                return True
    return False


#: Packages whose classes sit on a per-event path of either fabric:
#: the engine and links, the pull fabric's devices, and the push
#: fabric's switch, transports and packets.
_HOT_PACKAGES = frozenset(
    ("repro", package)
    for package in ("sim", "core", "baselines", "transport", "net")
)


@rule(
    "HOT001",
    "classes in sim/, core/, baselines/, transport/ and net/ declare "
    "__slots__ (or @dataclass(slots=True)); instance dicts cost the "
    "hot path",
)
def _hot001(ctx: ModuleContext) -> Iterator[RuleHit]:
    if ctx.rel[:2] not in _HOT_PACKAGES:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef) or _hot001_exempt(node):
            continue
        dec = _dataclass_decorator(node)
        if dec is not None:
            slots_true = isinstance(dec, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in dec.keywords
            )
            if not slots_true:
                yield node, (
                    f"dataclass {node.name} lacks slots=True; hot-core "
                    "instances must not carry a __dict__"
                )
        elif not _declares_slots(node):
            yield node, (
                f"class {node.name} lacks __slots__; hot-core instances "
                "must not carry a __dict__"
            )


# ----------------------------------------------------------------------
# HOT002: closure allocation inside known hot functions
# ----------------------------------------------------------------------

#: (package, module) -> class (``None`` for module-level functions) ->
#: the functions on the per-cell/per-event critical path, where
#: allocating a closure per call is a measured regression (see the
#: benchmark in ``bench/``).
HOT_METHODS: Dict[Tuple[str, str], Dict[Optional[str], FrozenSet[str]]] = {
    ("sim", "engine.py"): {
        "Simulator": frozenset(
            {"run", "run_for", "schedule_at", "call_later", "rearm_at"}
        ),
        "Event": frozenset({"rearm_at"}),
    },
    ("sim", "link.py"): {
        "Link": frozenset(
            {"send", "_start_next", "_tx_done", "_take_serialized"}
        ),
    },
    ("core", "fabric_element.py"): {
        "FabricElement": frozenset({"receive", "eligible_ports"}),
    },
    ("core", "fabric_adapter.py"): {
        "FabricAdapter": frozenset({
            "receive", "_spray_cells", "ingress_packet", "_apply_grant",
            "_maybe_report", "_deliver_to_port",
        }),
    },
    ("core", "credit.py"): {
        "EgressScheduler": frozenset({"_pump"}),
    },
    ("core", "packing.py"): {
        None: frozenset({"pack_burst"}),
    },
    ("core", "reassembly.py"): {
        "ReassemblyEngine": frozenset({"receive", "_consume"}),
    },
    ("core", "spray.py"): {
        "SprayArbiter": frozenset({"pick"}),
    },
    ("baselines", "ethernet.py"): {
        "EthernetSwitch": frozenset({"receive", "forward"}),
    },
    ("transport", "host.py"): {
        "Host": frozenset({
            "output", "receive", "nic_ready", "block_on_nic",
            "_on_nic_transmit",
        }),
    },
    ("transport", "tcp.py"): {
        "TcpSender": frozenset({"_try_send", "_emit", "on_ack", "_arm_rto"}),
        "TcpReceiver": frozenset({"on_data"}),
    },
}


def _hot_functions(
    tree: ast.Module, table: Dict[Optional[str], FrozenSet[str]]
) -> Iterator[Tuple[str, ast.AST]]:
    """``(qualified name, def)`` of every hot function the table names,
    methods of top-level classes and module-level functions alike."""
    for node in tree.body:
        owner: Optional[str] = None
        body: List[ast.stmt] = [node]
        if isinstance(node, ast.ClassDef):
            owner, body = node.name, node.body
        hot = table.get(owner, frozenset())
        for func in body:
            if (
                isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                and func.name in hot
            ):
                yield (f"{owner}.{func.name}" if owner else func.name), func


@rule(
    "HOT002",
    "no per-call closure allocation (lambda / nested def / "
    "functools.partial) inside the known hot functions",
)
def _hot002(ctx: ModuleContext) -> Iterator[RuleHit]:
    table = HOT_METHODS.get(ctx.rel[1:3]) if len(ctx.rel) >= 3 else None
    if not table:
        return
    for name, func in _hot_functions(ctx.tree, table):
        for inner in ast.walk(func):
            kind = None
            if isinstance(inner, ast.Lambda):
                kind = "a lambda"
            elif (
                isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                and inner is not func
            ):
                kind = f"a nested function {inner.name}()"
            elif isinstance(inner, ast.Call):
                dotted = ctx.dotted(inner.func)
                if dotted in {"functools.partial", "partial"}:
                    kind = "functools.partial"
            if kind is not None:
                yield inner, (
                    f"{name}() allocates {kind} per call; bind state "
                    "ahead of the hot path"
                )


# ----------------------------------------------------------------------
# API001: heapq/bisect stay behind the engine API
# ----------------------------------------------------------------------

_ORDERING_MODULES = frozenset({"heapq", "bisect"})


@rule(
    "API001",
    "heapq/bisect are scheduler internals: only sim/engine.py touches "
    "them; everything else goes through the Simulator API",
)
def _api001(ctx: ModuleContext) -> Iterator[RuleHit]:
    if ctx.rel[-2:] == ("sim", "engine.py"):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".", 1)[0] in _ORDERING_MODULES:
                    yield node, (
                        f"import {alias.name}: priority-queue ordering "
                        "belongs to sim/engine.py; use the Simulator API"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".", 1)[0] in _ORDERING_MODULES:
                yield node, (
                    f"from {node.module} import ...: priority-queue "
                    "ordering belongs to sim/engine.py"
                )
        elif isinstance(node, ast.Call):
            dotted = ctx.dotted(node.func)
            if dotted and dotted.split(".", 1)[0] in _ORDERING_MODULES:
                yield node, (
                    f"{dotted}() outside sim/engine.py; event/order "
                    "maintenance goes through the Simulator API"
                )


# ----------------------------------------------------------------------
# DEAD001: public top-level definitions nothing in the package loads
# ----------------------------------------------------------------------

#: Paper-model surfaces: closed forms and device models that exist *for*
#: ``benchmarks/test_fig*`` / ``test_sec*`` / ``test_table2*``.  Those
#: live outside the package, so "no caller under src/repro" is these
#: modules' normal state, not debt.
_DEAD_ALLOWED = (("analysis",), ("pipeline",), ("topology",), ("core", "nic.py"))


def _is_reexport(stmt: ast.stmt) -> bool:
    """An ``__init__`` statement that only republishes names."""
    if isinstance(stmt, ast.Assign):
        return any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        )
    return isinstance(stmt, (ast.Import, ast.ImportFrom))


def _load_sites(root: Path) -> LoadSites:
    """Every place under ``root`` that loads a name: a ``Name`` read, an
    attribute, an import alias or an identifier-valued string (``getattr``
    targets, ``__all__``) — re-export statements of ``__init__`` modules
    excepted, since republishing a name is not using it."""
    sites: LoadSites = {}
    for path in sorted(root.rglob("*.py")):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError, ValueError):
            continue  # the analyzer reports the file itself (LINT002)
        for index, stmt in enumerate(tree.body):
            if path.name == "__init__.py" and _is_reexport(stmt):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if name.isidentifier():
                    sites.setdefault(name, set()).add((str(path), index))
    return sites


@rule(
    "DEAD001",
    "a public, undecorated top-level def/class under src/repro must be "
    "loaded somewhere in the package (outside its own body and "
    "__init__ re-exports)",
)
def _dead001(ctx: ModuleContext) -> Iterator[RuleHit]:
    rel = ctx.rel
    if rel[0] != "repro" or rel[-1] in ("__init__.py", "__main__.py"):
        return
    if any(rel[1 : 1 + len(allowed)] == allowed for allowed in _DEAD_ALLOWED):
        return
    path = Path(ctx.path).resolve()
    root = path.parents[len(rel) - 2]
    sites = ctx.package_sites.get(root)
    if sites is None:
        sites = ctx.package_sites[root] = _load_sites(root)
    for index, stmt in enumerate(ctx.tree.body):
        if (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.decorator_list
            and not stmt.name.startswith("_")
            and not sites.get(stmt.name, set()) - {(str(path), index)}
        ):
            yield stmt, (
                f"{stmt.name} is loaded nowhere under {root.name}/ outside "
                "its own body and __init__ re-exports; delete it or give "
                "it a caller"
            )
