"""The simlint rule battery (SIM001..SIM010, plus graph rules).

Each rule encodes one invariant the simulator's determinism, spawn
safety, or bookkeeping depends on.  DESIGN.md section 10 documents the
rationale and the incidents behind them (notably PR 3's fig9 seed drift,
which SIM002/SIM003 exist to make unrepresentable); section 16 covers
the whole-program layer — SIM001/SIM002/SIM004/SIM010 gain
interprocedural ``finalize`` passes here, and the graph-native rules
SIM012 and SIM013 live in :mod:`repro.analysis.rules_graph`.

Adding a rule: subclass :class:`~repro.analysis.engine.Rule`, set
``code``/``name``/``severity``/``description``, implement
``check_module`` (and ``finalize`` for cross-file analysis), and
decorate with :func:`register`.  Add fixture tests in
``tests/test_analysis.py`` proving it fires and does not over-fire.
"""

from __future__ import annotations

import ast
import re
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple, Type)

from .engine import (
    Finding,
    ModuleContext,
    Project,
    Rule,
    enclosing_function,
    node_parent,
    qualified_call_name,
)

__all__ = ["register", "all_rules", "RULES"]

RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


def all_rules() -> List[Rule]:
    return [RULES[code]() for code in sorted(RULES)]


#: Packages whose code runs *inside* simulated time.  Wall-clock reads
#: here are never acceptable, pragma or not in spirit (the pragma still
#: works mechanically, but review should reject it).
SIM_TIME_PACKAGES = ("repro.sim", "repro.core", "repro.flash")

#: Packages that sit on the simulator's hot request path; telemetry
#: hooks here must stay nil-by-default (SIM006).
HOT_PATH_PACKAGES = SIM_TIME_PACKAGES + ("repro.dram", "repro.disk")

#: The typed error hierarchy of repro.core.errors (SIM008).
CORE_ERROR_NAMES = {
    "CacheError",
    "CacheCapacityError",
    "CacheDegradedError",
    "ReserveBlockLostError",
    "NoEvictableBlockError",
}


def _call_name(node: ast.Call, ctx: ModuleContext) -> Optional[str]:
    return qualified_call_name(node.func, ctx)


def _last_segment(qualified: str) -> str:
    return qualified.rsplit(".", 1)[-1]


def _enclosing_qualname(analysis, ctx: ModuleContext,
                        node: ast.AST) -> Optional[str]:
    """Qualname of the function/method whose body contains *node*."""
    fn = enclosing_function(node)
    if fn is None:
        return None
    cursor = node_parent(fn)
    while cursor is not None:
        parent, _ = cursor
        if isinstance(parent, ast.ClassDef):
            return f"{ctx.module}.{parent.name}.{fn.name}"
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function: attribute to the enclosing symbol.
            return _enclosing_qualname(analysis, ctx, fn)
        cursor = node_parent(parent)
    return f"{ctx.module}.{fn.name}"


# ---------------------------------------------------------------------------
# SIM001 — wall clock
# ---------------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


@register
class WallClockRule(Rule):
    """No wall-clock reads: simulated time comes from the event flow.

    Inside ``repro.sim``/``repro.core``/``repro.flash`` any wall-clock
    read is a determinism bug — two runs of the same trace would observe
    different "time".  Outside those packages the only legitimate use is
    orchestration interval timing (progress lines, report footnotes),
    which must use a monotonic counter and carry an explicit pragma so
    every wall-clock read in the tree is a reviewed decision.
    """

    code = "SIM001"
    name = "wall-clock"
    severity = "error"
    description = ("wall-clock reads (time.time, datetime.now, "
                   "perf_counter, ...) are forbidden in simulation "
                   "packages and must be pragma'd as orchestration "
                   "timing elsewhere; sweep entry points "
                   "(run_shard/run_cluster) may not reach one "
                   "transitively either")

    def finalize(self, project: Project) -> Iterator[Finding]:
        """Whole-program extension: entry points stay clock-free.

        ``run_shard``/``run_cluster`` are the result-bearing spines of
        the cluster experiments; any *unpragma'd* wall-clock read (or
        ``advance_clock`` call) in their transitive call tree would make
        results depend on host speed.  Direct reads in the entry's own
        body are the file-local check's job, so chains start at depth 1;
        a pragma at the source kills the taint — it is the review
        record, not a loophole.
        """
        analysis = project.analysis()
        for entry in analysis.cluster_entry_points():
            trace = analysis.trace(
                entry,
                lambda s: analysis.time_sources(s, codes=("SIM001",)),
                min_depth=1)
            if trace is None:
                continue
            yield self.finding(
                entry.ctx, entry.node,
                f"{entry.name}() reaches {trace.source.detail} "
                f"({trace.source.kind}) via {trace.summary()}; "
                "simulated results must not depend on the host clock",
                chain=trace.chain())

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        hard = ctx.in_packages(SIM_TIME_PACKAGES)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, ctx)
            if name not in _WALL_CLOCK:
                continue
            if hard:
                yield self.finding(
                    ctx, node,
                    f"{name}() inside {ctx.module}: wall clock must never "
                    "leak into simulated time (use the event flow's "
                    "latency accounting instead)")
            else:
                yield self.finding(
                    ctx, node,
                    f"{name}() is a wall-clock read; orchestration "
                    "interval timing must use time.perf_counter() and "
                    "carry '# simlint: ignore[SIM001] -- <why>'")


# ---------------------------------------------------------------------------
# SIM002 — RNG seeding discipline
# ---------------------------------------------------------------------------

_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "sample", "shuffle", "seed", "getrandbits", "gauss", "normalvariate",
    "expovariate", "betavariate", "paretovariate", "triangular",
    "vonmisesvariate", "weibullvariate", "lognormvariate", "randbytes",
}

_NUMPY_GLOBAL_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "seed",
    "choice", "shuffle", "permutation", "normal", "uniform",
    "exponential", "poisson", "binomial",
}

_RNG_CONSTRUCTORS = {"random.Random", "random.SystemRandom",
                     "numpy.random.default_rng",
                     "numpy.random.RandomState"}


@register
class RngSeedRule(Rule):
    """Every RNG flows from an explicit seed or ``parallel.derive_seed``.

    The process-global ``random`` module and ``numpy.random`` functions
    are spawn-hostile (worker processes fork/spawn with unrelated global
    state) and invisible to sweep reproducibility.  Ad-hoc seed
    arithmetic (``seed + 1``, ``(seed << 2) | 1``) is how PR 3's fig9
    drift happened: two streams that were meant to be identical (or
    independent) silently shared structure.  ``derive_seed(base, key)``
    makes the derivation explicit, collision-resistant, and
    PYTHONHASHSEED-immune.
    """

    code = "SIM002"
    name = "rng-seed"
    severity = "error"
    description = ("RNGs must be seeded from an explicit seed "
                   "parameter or parallel.derive_seed; no global-state "
                   "random functions, no module-level RNGs, no ad-hoc "
                   "seed arithmetic")

    def finalize(self, project: Project) -> Iterator[Finding]:
        """Whole-program extension: cross-module seed provenance.

        The file-local check sees ``Random(seed * 31)``; this pass sees
        ``Random(shifted(seed))`` where ``shifted`` lives two modules
        away and returns the same ad-hoc arithmetic — the fig9 bug
        shape, laundered through a helper.  Helper detection and call
        resolution both ride on the project call graph.
        """
        analysis = project.analysis()
        helpers = analysis.seed_arith_helpers()
        if not helpers:
            return
        from .dataflow import Trace
        for ctx in project.modules:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node, ctx)
                if name not in _RNG_CONSTRUCTORS:
                    continue
                seed_arg = node.args[0] if node.args else (
                    node.keywords[0].value if node.keywords else None)
                if not isinstance(seed_arg, ast.Call):
                    continue
                target = analysis.symbols.resolve_expr(ctx, seed_arg.func)
                if target is None or target.qualname not in helpers:
                    continue
                source = helpers[target.qualname]
                edges = tuple(
                    e for e in analysis.graph.out.get(
                        _enclosing_qualname(analysis, ctx, node) or "", ())
                    if e.callee == target.qualname
                    and e.line == seed_arg.lineno)
                root = analysis.symbols.functions.get(
                    _enclosing_qualname(analysis, ctx, node) or "")
                chain: Tuple[str, ...] = ()
                if root is not None:
                    chain = Trace(root=root, edges=edges,
                                  source=source).chain()
                yield self.finding(
                    ctx, node,
                    f"{_last_segment(name)}(...) seeded from "
                    f"{target.qualname}(), which {source.detail}; "
                    "ad-hoc seed arithmetic hides stream collisions — "
                    "use parallel.derive_seed(base, key)",
                    chain=chain)

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, ctx)
            if name is None:
                continue
            if (name.startswith("random.")
                    and _last_segment(name) in _GLOBAL_RANDOM_FNS
                    and name.count(".") == 1):
                yield self.finding(
                    ctx, node,
                    f"{name}() uses the process-global RNG; construct a "
                    "seeded random.Random(seed) instead")
                continue
            if (name.startswith("numpy.random.")
                    and _last_segment(name) in _NUMPY_GLOBAL_FNS):
                yield self.finding(
                    ctx, node,
                    f"{name}() uses numpy's global RNG state; use "
                    "numpy.random.default_rng(seed) with an explicit "
                    "seed")
                continue
            if name in _RNG_CONSTRUCTORS:
                yield from self._check_constructor(ctx, node, name)

    def _check_constructor(self, ctx: ModuleContext, node: ast.Call,
                           name: str) -> Iterator[Finding]:
        short = _last_segment(name)
        if enclosing_function(node) is None:
            yield self.finding(
                ctx, node,
                f"module-level {short}(...) is shared mutable state and "
                "breaks process-pool spawn safety; construct RNGs inside "
                "the function that owns the stream")
            return
        if not node.args and not node.keywords:
            yield self.finding(
                ctx, node,
                f"unseeded {short}(): every stream must take an explicit "
                "seed parameter or parallel.derive_seed(base, key)")
            return
        seed_arg = node.args[0] if node.args else node.keywords[0].value
        yield from self._check_seed_expr(ctx, node, short, seed_arg)

    def _check_seed_expr(self, ctx: ModuleContext, node: ast.Call,
                         short: str, seed: ast.expr) -> Iterator[Finding]:
        if isinstance(seed, (ast.BinOp, ast.UnaryOp, ast.BoolOp)):
            yield self.finding(
                ctx, node,
                f"{short}(...) seeded with ad-hoc arithmetic; derive "
                "per-stream seeds via parallel.derive_seed(base, key) "
                "(the fig9 seed-drift class of bug)")
            return
        if isinstance(seed, ast.Call):
            inner = _call_name(seed, ctx)
            if inner is not None and _last_segment(inner) == "hash":
                yield self.finding(
                    ctx, node,
                    f"{short}(hash(...)) depends on PYTHONHASHSEED; use "
                    "parallel.derive_seed(base, key)")
            elif inner in _WALL_CLOCK:
                yield self.finding(
                    ctx, node,
                    f"{short}(...) seeded from the wall clock is "
                    "unreproducible by construction")
        # Name / Attribute / int constant / derive_seed(...) / rng
        # method calls are the approved forms.


# ---------------------------------------------------------------------------
# SIM003 — PYTHONHASHSEED / ordering hazards
# ---------------------------------------------------------------------------


@register
class HashOrderRule(Rule):
    """No ``hash()``/``id()``/raw-set ordering feeding simulator state.

    ``hash(str)`` is salted per process (PYTHONHASHSEED), ``id()`` is an
    address, and set iteration order follows the hash — all three make
    output depend on the interpreter invocation rather than the seed.
    ``hash`` inside a ``__hash__`` implementation is the protocol itself
    and is allowed; everything else must use ``parallel.derive_seed``
    (seeds) or ``sorted(...)`` (ordering).
    """

    code = "SIM003"
    name = "hash-order"
    severity = "error"
    description = ("hash()/id() results and raw set iteration order are "
                   "process-dependent; never feed them into seeds, "
                   "ordering, or telemetry keys")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        is_set = _set_typed(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, is_set)
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                if self._is_raw_set(iterable, ctx) or is_set(iterable):
                    yield self.finding(
                        ctx, iterable,
                        "iterating a set directly has hash-dependent "
                        "order; wrap it in sorted(...)")

    def _check_call(self, ctx: ModuleContext, node: ast.Call,
                    is_set: Callable[[ast.expr], bool]) -> Iterator[Finding]:
        if isinstance(node.func, ast.Name):
            if node.func.id == "hash" and not self._inside_dunder_hash(node):
                yield self.finding(
                    ctx, node,
                    "hash() is salted by PYTHONHASHSEED; outside __hash__ "
                    "use parallel.derive_seed for seeds and stable keys "
                    "for ordering")
            elif node.func.id == "id" and ctx.imports.resolve("id") is None:
                yield self.finding(
                    ctx, node,
                    "id() is a process-local address; never let it reach "
                    "seeds, ordering, or telemetry keys")
            elif node.func.id in ("list", "tuple", "enumerate", "iter",
                                  "deque"):
                if node.args and (self._is_raw_set(node.args[0], ctx)
                                  or is_set(node.args[0])):
                    yield self.finding(
                        ctx, node,
                        f"{node.func.id}() of a set materialises "
                        "hash-dependent order; use sorted(...)")

    @staticmethod
    def _is_raw_set(node: ast.expr, ctx: ModuleContext) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return (node.func.id in ("set", "frozenset")
                    and ctx.imports.resolve(node.func.id) is None)
        return False

    @staticmethod
    def _inside_dunder_hash(node: ast.AST) -> bool:
        fn = enclosing_function(node)
        return fn is not None and getattr(fn, "name", "") == "__hash__"


_SET_TYPES = {"Set", "set", "FrozenSet", "frozenset", "AbstractSet",
              "MutableSet"}
_DICT_TYPES = {"Dict", "dict", "DefaultDict", "defaultdict", "Mapping",
               "MutableMapping", "OrderedDict"}


def _set_kind(node: Optional[ast.expr]) -> Optional[str]:
    """``"set"`` for a ``Set[...]`` annotation, ``"dict-of-sets"`` for
    ``Dict[_, Set[...]]``, else None."""
    head = node.value if isinstance(node, ast.Subscript) else node
    name = getattr(head, "id", None) or getattr(head, "attr", None)
    args = getattr(getattr(node, "slice", None), "elts", ())
    if name in _DICT_TYPES and len(args) == 2 and _set_kind(args[1]) == "set":
        return "dict-of-sets"
    return "set" if name in _SET_TYPES else None


def _set_typed(tree: ast.Module) -> Callable[[ast.expr], bool]:
    """Whether an expression of ``tree`` is annotated as a set: a name
    in the function (or module) that annotates it, an attribute by name
    (``self.x: Set[int]`` or a class-level ``x: Set[int]``), or ``d[k]``
    and ``d.get(k, ...)`` of a ``Dict[_, Set[_]]``.  A name annotated two
    ways is unknown."""
    kinds: Dict[Tuple[object, str], Optional[str]] = {}

    def note(scope: object, name: str, annotation: Optional[ast.expr]) -> None:
        kind = _set_kind(annotation)
        kinds[(scope, name)] = (
            kind if kinds.get((scope, name), kind) == kind else None)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (a.posonlyargs + a.args + a.kwonlyargs
                        + [x for x in (a.vararg, a.kwarg) if x]):
                note(node, arg.arg, arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if isinstance(target, ast.Attribute):
                note("attr", target.attr, node.annotation)
            elif isinstance(target, ast.Name):
                parent = (node_parent(node) or (None, ""))[0]
                note("attr" if isinstance(parent, ast.ClassDef)
                     else enclosing_function(node), target.id,
                     node.annotation)

    def kind(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            return kinds.get(("attr", node.attr))
        if isinstance(node, ast.Name):
            return (kinds.get((enclosing_function(node), node.id))
                    or kinds.get((None, node.id)))
        return None

    def is_set(node: ast.expr) -> bool:
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get":
            return kind(node.func.value) == "dict-of-sets"
        if isinstance(node, ast.Subscript):
            return kind(node.value) == "dict-of-sets"
        return kind(node) == "set"
    return is_set


# ---------------------------------------------------------------------------
# SIM004 — sweep-task payload picklability
# ---------------------------------------------------------------------------


@register
class PicklableTaskRule(Rule):
    """``SweepTask`` payloads must be picklable by construction.

    Workers import ``fn`` by qualified name and receive ``kwargs`` over
    a pipe; a lambda, closure, or bound method pickles either not at all
    (spawn) or by accident (fork), and the failure appears only at
    ``--workers 2``.  The rule demands ``fn`` be a module-level function
    (local name or ``module.attr``) and bans lambdas anywhere in the
    constructor.
    """

    code = "SIM004"
    name = "picklable-task"
    severity = "error"
    description = ("SweepTask payloads must be picklable: fn must be a "
                   "module-level callable and no lambdas/closures/bound "
                   "methods may ride in the task")

    def finalize(self, project: Project) -> Iterator[Finding]:
        """Whole-program extension: transitively unpicklable payloads.

        A payload value built by calling a helper that *returns* a
        lambda, nested function, open file handle, or EventLoop is just
        as unpicklable as writing the lambda inline — but the file-local
        check cannot see through the call.  Helper poisoning is
        transitive (``return make_cb()`` forwards it), computed once on
        the project graph.
        """
        analysis = project.analysis()
        poisoned = analysis.unpicklable_returns()
        if not poisoned:
            return
        from .dataflow import Trace
        for ctx in project.modules:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node, ctx)
                target = name if name is not None else self._bare_name(node)
                if target is None or _last_segment(target) != "SweepTask":
                    continue
                for value in self._payload_values(node):
                    if not isinstance(value, ast.Call):
                        continue
                    helper = analysis.symbols.resolve_expr(
                        ctx, value.func)
                    if helper is None or helper.qualname not in poisoned:
                        continue
                    source = poisoned[helper.qualname]
                    root = analysis.symbols.functions.get(
                        _enclosing_qualname(analysis, ctx, node) or "")
                    chain: Tuple[str, ...] = ()
                    if root is not None:
                        chain = Trace(root=root, edges=(),
                                      source=source).chain()
                    yield self.finding(
                        ctx, value,
                        f"SweepTask payload calls {helper.qualname}(), "
                        f"which {source.detail}; the task cannot cross "
                        "a process boundary — ship plain data and "
                        "rebuild the object worker-side",
                        chain=chain)

    @staticmethod
    def _payload_values(task: ast.Call) -> Iterator[ast.expr]:
        """Expressions that ride inside a SweepTask's kwargs payload."""
        payload: List[ast.expr] = list(task.args[2:])
        for kw in task.keywords:
            if kw.arg != "fn":
                payload.append(kw.value)
        for value in payload:
            if isinstance(value, ast.Dict):
                yield from value.values
            else:
                yield value

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        nested = self._nested_function_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, ctx)
            target = name if name is not None else self._bare_name(node)
            if target is None or _last_segment(target) != "SweepTask":
                continue
            yield from self._check_task(ctx, node, nested)

    @staticmethod
    def _bare_name(node: ast.Call) -> Optional[str]:
        return node.func.id if isinstance(node.func, ast.Name) else None

    def _check_task(self, ctx: ModuleContext, node: ast.Call,
                    nested: Set[str]) -> Iterator[Finding]:
        for child in ast.walk(node):
            if isinstance(child, ast.Lambda):
                yield self.finding(
                    ctx, child,
                    "lambda inside a SweepTask cannot cross a process "
                    "boundary; hoist it to a module-level function")
        fn_value: Optional[ast.expr] = None
        if len(node.args) >= 2:
            fn_value = node.args[1]
        for kw in node.keywords:
            if kw.arg == "fn":
                fn_value = kw.value
        if fn_value is None or isinstance(fn_value, ast.Lambda):
            return
        if isinstance(fn_value, ast.Name):
            if fn_value.id in nested:
                yield self.finding(
                    ctx, fn_value,
                    f"SweepTask fn={fn_value.id!r} is a nested function "
                    "(closure); workers import fn by qualified name, so "
                    "it must live at module level")
        elif isinstance(fn_value, ast.Attribute):
            qualified = qualified_call_name(fn_value, ctx)
            if qualified is None:
                yield self.finding(
                    ctx, fn_value,
                    "SweepTask fn is an attribute of a local object "
                    "(bound method?); pass a module-level function "
                    "instead")

    @staticmethod
    def _nested_function_names(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if enclosing_function(node) is not None:
                    names.add(node.name)
        return names


# ---------------------------------------------------------------------------
# SIM005 — latency unit discipline
# ---------------------------------------------------------------------------

_UNIT_RE = re.compile(r"_(ns|us|ms|s)$")

#: Call names that convert between units — their result deliberately
#: carries the unit of their *name*, whatever went in.
_CONVERSION_RE = re.compile(r"(^|_)(to|as|from)_(ns|us|ms|s)$|_(ns|us|ms|s)_to_")


def _identifier_unit(identifier: str) -> Optional[str]:
    match = _UNIT_RE.search(identifier)
    return match.group(1) if match else None


@register
class UnitMixRule(Rule):
    """``_us``/``_ms``/``_s`` values may not mix without conversion.

    The simulator carries latency in microseconds, orchestration elapsed
    time in seconds, and some timing tables in milliseconds.  Adding or
    comparing across suffixes without an explicit conversion call (or a
    multiplicative factor, which clears the unit) is a silent
    10^3/10^6-scale error — exactly the class of bug that corrupts
    figure axes without failing any test.
    """

    code = "SIM005"
    name = "unit-mix"
    severity = "error"
    description = ("identifiers suffixed _ns/_us/_ms/_s may not meet in "
                   "+,-,comparison or assignment across units without "
                   "an explicit conversion")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        reported: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Add, ast.Sub)):
                yield from self._check_pair(
                    ctx, node, self._unit_of(node.left),
                    self._unit_of(node.right), reported)
            elif isinstance(node, ast.Compare):
                units = [self._unit_of(node.left)] + [
                    self._unit_of(c) for c in node.comparators]
                concrete = [u for u in units if u is not None]
                if len(set(concrete)) > 1:
                    yield from self._check_pair(
                        ctx, node, concrete[0], concrete[1], reported)
            elif isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Add, ast.Sub)):
                yield from self._check_pair(
                    ctx, node, self._target_unit(node.target),
                    self._unit_of(node.value), reported)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                yield from self._check_pair(
                    ctx, node, self._target_unit(node.targets[0]),
                    self._unit_of(node.value), reported)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                yield from self._check_pair(
                    ctx, node.value, _identifier_unit(node.arg),
                    self._unit_of(node.value), reported)

    def _check_pair(self, ctx: ModuleContext, node: ast.AST,
                    left: Optional[str], right: Optional[str],
                    reported: Set[int]) -> Iterator[Finding]:
        if left is None or right is None or left == right:
            return
        line = getattr(node, "lineno", 1)
        if line in reported:
            return
        reported.add(line)
        yield self.finding(
            ctx, node,
            f"mixes units _{left} and _{right} without an explicit "
            "conversion (suffix-changing call or scale factor)")

    @classmethod
    def _target_unit(cls, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return _identifier_unit(node.id)
        if isinstance(node, ast.Attribute):
            return _identifier_unit(node.attr)
        return None

    @classmethod
    def _unit_of(cls, node: ast.expr) -> Optional[str]:
        """Unit of an expression, or None when unknown/cleared."""
        if isinstance(node, ast.Name):
            return _identifier_unit(node.id)
        if isinstance(node, ast.Attribute):
            return _identifier_unit(node.attr)
        if isinstance(node, ast.Call):
            func = node.func
            fn_name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            if _CONVERSION_RE.search(fn_name):
                return _identifier_unit(fn_name)
            if fn_name in ("min", "max", "sum", "abs", "round"):
                units = {cls._unit_of(a) for a in node.args}
                units.discard(None)
                if len(units) == 1:
                    return units.pop()
                return None
            return _identifier_unit(fn_name)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                return cls._unit_of(node.left) or cls._unit_of(node.right)
            # Multiplication/division is how conversions are written:
            # the factor clears the unit.
            return None
        if isinstance(node, ast.UnaryOp):
            return cls._unit_of(node.operand)
        if isinstance(node, ast.IfExp):
            return cls._unit_of(node.body) or cls._unit_of(node.orelse)
        return None


# ---------------------------------------------------------------------------
# SIM006 — telemetry hooks stay nil-by-default
# ---------------------------------------------------------------------------


@register
class TelemetryGuardRule(Rule):
    """Hot-path telemetry calls must be guarded by an ``is not None`` test.

    The telemetry contract (DESIGN.md section 8) is that an unobserved
    simulation pays nothing: hooks read ``self.telemetry`` into a local,
    test it, and only then construct events.  An unguarded call (or
    unconditional event construction) puts allocation on every request
    of every untelemetered run — and the <=10% overhead benchmark only
    polices the *observed* configuration.
    """

    code = "SIM006"
    name = "telemetry-guard"
    severity = "error"
    description = ("calls through .telemetry on hot-path packages must "
                   "sit under an 'is not None' (or truthiness) guard")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_packages(HOT_PATH_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_telemetry_call(node, ctx):
                continue
            if not self._guarded(node):
                yield self.finding(
                    ctx, node,
                    "unguarded telemetry call on a hot path; read the "
                    "handle into a local and guard with 'if telemetry "
                    "is not None:' so unobserved runs pay nothing")

    @staticmethod
    def _is_telemetry_call(node: ast.Call, ctx: ModuleContext) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        base = func.value
        if isinstance(base, ast.Attribute) and base.attr == "telemetry":
            return True
        if isinstance(base, ast.Name) and base.id == "telemetry":
            # A local named ``telemetry`` (the idiomatic hook shape) —
            # unless it is actually the imported module.
            return ctx.imports.resolve("telemetry") is None
        return False

    @staticmethod
    def _guarded(node: ast.AST) -> bool:
        cursor, child = node_parent(node), node
        while cursor is not None:
            parent, fieldname = cursor
            if isinstance(parent, (ast.If, ast.IfExp)):
                mentions = TelemetryGuardRule._test_mentions_telemetry(
                    parent.test)
                if fieldname == "body" and mentions:
                    return True
                # ``if telemetry is None: ... else: telemetry.hook()`` —
                # the orelse branch is the guarded one for inverted tests.
                if fieldname == "orelse" and mentions \
                        and TelemetryGuardRule._test_is_inverted(parent.test):
                    return True
            if isinstance(parent, ast.BoolOp) and isinstance(
                    parent.op, ast.And):
                # ``telemetry is not None and telemetry.hook(...)``
                index = parent.values.index(child) \
                    if child in parent.values else -1
                if index > 0 and any(
                        TelemetryGuardRule._test_mentions_telemetry(v)
                        for v in parent.values[:index]):
                    return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Module)):
                return False
            child = parent
            cursor = node_parent(parent)
        return False

    @staticmethod
    def _test_is_inverted(test: ast.expr) -> bool:
        """True for ``X is None`` / ``not X`` shapes."""
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return True
        return (isinstance(test, ast.Compare)
                and any(isinstance(op, ast.Is) for op in test.ops)
                and any(isinstance(c, ast.Constant) and c.value is None
                        for c in test.comparators))

    @staticmethod
    def _test_mentions_telemetry(test: ast.expr) -> bool:
        for node in ast.walk(test):
            if isinstance(node, ast.Name) and node.id == "telemetry":
                return True
            if isinstance(node, ast.Attribute) and node.attr == "telemetry":
                return True
        return False


# ---------------------------------------------------------------------------
# SIM007 — dead counters
# ---------------------------------------------------------------------------

#: Stats containers whose declared fields must be written somewhere.
_STATS_CLASSES = {"ControllerStats", "CacheStats", "SimulationReport",
                  "FaultStats"}


@register
class DeadCounterRule(Rule):
    """Every declared stats counter must be written somewhere.

    A counter that exists in ``ControllerStats``/``CacheStats``/
    ``SimulationReport`` but is never assigned anywhere in the tree is
    worse than missing: reports render it as a confident zero.  The rule
    collects dataclass fields in pass one and attribute stores plus
    constructor keywords across the whole project in finalize.
    """

    code = "SIM007"
    name = "dead-counter"
    severity = "warning"
    description = ("fields declared on stats dataclasses "
                   "(ControllerStats, CacheStats, SimulationReport, "
                   "FaultStats) must be written by some code path")

    def __init__(self) -> None:
        self._declared: List[Tuple[str, str, str, int]] = []  # cls, field, path, line
        self._written: Set[str] = set()

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.name in _STATS_CLASSES:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                            stmt.target, ast.Name):
                        fieldname = stmt.target.id
                        if fieldname.startswith("_"):
                            continue
                        self._declared.append(
                            (node.name, fieldname, ctx.relpath, stmt.lineno))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Attribute):
                            self._written.add(sub.attr)
            elif isinstance(node, ast.Call):
                name = _call_name(node, ctx)
                target = name if name is not None else (
                    node.func.id if isinstance(node.func, ast.Name) else None)
                if target is not None and _last_segment(target) in _STATS_CLASSES:
                    for kw in node.keywords:
                        if kw.arg is not None:
                            self._written.add(kw.arg)
        return iter(())

    def finalize(self, project: Project) -> Iterator[Finding]:
        for clsname, fieldname, path, line in self._declared:
            if fieldname in self._written:
                continue
            yield Finding(
                rule=self.code, severity=self.severity, path=path,
                line=line, col=0,
                message=(f"{clsname}.{fieldname} is declared but never "
                         "written by any code path; a report would show "
                         "a confident zero — wire it up or remove it"))


# ---------------------------------------------------------------------------
# SIM008 — exception discipline
# ---------------------------------------------------------------------------


@register
class ExceptionDisciplineRule(Rule):
    """No bare ``except:`` / silently swallowed degradation errors.

    The typed hierarchy in ``repro.core.errors`` exists so the cache can
    tell "degrade and keep serving" from "genuine bug".  A bare except
    (or an ``except CacheDegradedError: pass``) re-flattens that
    distinction and hides capacity loss from the stats — the silent
    failure mode graceful degradation was built to avoid.
    """

    code = "SIM008"
    name = "exception-discipline"
    severity = "error"
    description = ("no bare except: in repro.core/repro.sim, and typed "
                   "cache errors may not be swallowed with a pass-only "
                   "handler")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_packages(("repro.core", "repro.sim")):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt "
                    "and hides degradation; name the exception types")
                continue
            caught = self._caught_names(node.type, ctx)
            swallowed = self._body_swallows(node)
            if swallowed and caught & CORE_ERROR_NAMES:
                names = ", ".join(sorted(caught & CORE_ERROR_NAMES))
                yield self.finding(
                    ctx, node,
                    f"swallowed {names} with a pass-only handler; "
                    "degradation errors must update stats or degrade "
                    "state, never vanish")
            elif swallowed and caught & {"Exception", "BaseException"}:
                yield self.finding(
                    ctx, node,
                    "'except Exception: pass' in a simulation package "
                    "hides real failures; handle or re-raise")

    @staticmethod
    def _caught_names(type_node: ast.expr, ctx: ModuleContext) -> Set[str]:
        names: Set[str] = set()
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) \
            else [type_node]
        for node in nodes:
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        return names

    @staticmethod
    def _body_swallows(handler: ast.ExceptHandler) -> bool:
        meaningful = [stmt for stmt in handler.body
                      if not (isinstance(stmt, ast.Expr)
                              and isinstance(stmt.value, ast.Constant))]
        return all(isinstance(stmt, ast.Pass) for stmt in meaningful)


# ---------------------------------------------------------------------------
# SIM009 — atomic artifact writes
# ---------------------------------------------------------------------------

#: The sanctioned tmp + os.replace implementation lives here; its own
#: internal ``open(tmp, "w")`` is the mechanism, not a violation.
_ATOMICIO_MODULE = "repro.atomicio"


@register
class AtomicWriteRule(Rule):
    """Artifacts are written atomically, or the write is pragma'd.

    A bare ``open(path, "w")`` (or ``Path.write_text``) truncates the
    destination before writing, so a crash mid-write destroys the
    previous artifact *and* leaves a torn new one — the resilience
    layer's checkpoint/resume guarantees are only as strong as the
    weakest artifact write.  :mod:`repro.atomicio` provides the
    ``tmp + os.replace`` discipline; append mode is exempt (the sweep
    journal's fsync'd appends are a reviewed durability design of their
    own), as is the atomicio module itself.
    """

    code = "SIM009"
    name = "atomic-write"
    severity = "error"
    description = ("truncating file writes (open(..., 'w'/'wb'/'x'), "
                   "Path.write_text/write_bytes) must go through "
                   "repro.atomicio or carry a pragma; append mode is "
                   "exempt")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_packages((_ATOMICIO_MODULE,)):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if self._is_truncating_open(node, ctx):
                yield self.finding(
                    ctx, node,
                    "open(..., 'w') truncates before writing; a crash "
                    "mid-write loses both old and new artifact — use "
                    "repro.atomicio.atomic_write_text/bytes (or pragma "
                    "a reviewed exception)")
            elif self._is_path_write(node):
                method = node.func.attr  # type: ignore[union-attr]
                yield self.finding(
                    ctx, node,
                    f".{method}() truncates before writing; use "
                    "repro.atomicio.atomic_write_text/bytes (or pragma "
                    "a reviewed exception)")

    @classmethod
    def _is_truncating_open(cls, node: ast.Call,
                            ctx: ModuleContext) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id != "open" or ctx.imports.resolve("open") is not None:
                return False
        elif _call_name(node, ctx) not in ("io.open", "pathlib.Path.open"):
            return False
        mode = node.args[1] if len(node.args) >= 2 else None
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if not isinstance(mode, ast.Constant) or not isinstance(
                mode.value, str):
            return False  # default "r", or dynamic (cannot judge)
        return any(flag in mode.value for flag in ("w", "x"))

    @staticmethod
    def _is_path_write(node: ast.Call) -> bool:
        return (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("write_text", "write_bytes"))


# ---------------------------------------------------------------------------
# SIM010 — event-loop time discipline
# ---------------------------------------------------------------------------

#: Packages whose modules register handlers on the simulated event
#: loop — repro.sim owns the engine, repro.cluster's shard engine
#: reuses it.
_EVENT_LOOP_PACKAGES = ("repro.sim", "repro.cluster")
_CLOCK_ATTRS = ("clock_us", "now_us")


@register
class EventHandlerTimeRule(Rule):
    """Event handlers take *now* from the loop; they never make time.

    The concurrent engine's determinism rests on a single time
    authority: :class:`repro.sim.events.EventLoop` advances ``now_us``
    as it pops events and hands it to every handler.  A handler
    that reads a wall clock, calls ``advance_clock`` on a device, or
    writes a ``clock_us``/``now_us`` attribute forks the timeline —
    the same trace would replay with different timings depending on
    host speed or handler ordering.  Handlers are found syntactically:
    any function passed as the second argument of an
    ``EventType``-keyed ``.register(...)`` call in a ``repro.sim``
    module.
    """

    code = "SIM010"
    name = "event-handler-time"
    severity = "error"
    description = ("event-loop handlers must take time from the loop: "
                   "no wall-clock reads, no .advance_clock() calls, no "
                   "writes to clock_us/now_us attributes inside "
                   "registered handlers")

    def finalize(self, project: Project) -> Iterator[Finding]:
        """Whole-program extension: handlers' *callees* stay time-clean.

        The file-local check inspects a handler's own body; this pass
        resolves every registered handler project-wide (including
        ``self._on_x`` methods registered from another module) and walks
        its transitive callees for wall-clock reads, ``advance_clock``
        calls, and clock-attribute writes.  Chains start at depth 1 so
        direct violations stay with the file-local check; a source
        pragma'd ``ignore[SIM010]`` is a reviewed decision and does not
        taint (an ``ignore[SIM001]`` orchestration-timing pragma waives
        only the read, not a handler reaching it).
        """
        analysis = project.analysis()
        for handler in analysis.event_handlers(_EVENT_LOOP_PACKAGES):
            trace = analysis.trace(
                handler,
                lambda s: analysis.time_sources(s, codes=("SIM010",)),
                min_depth=1)
            if trace is None:
                continue
            yield self.finding(
                handler.ctx, handler.node,
                f"event handler {handler.name}() reaches "
                f"{trace.source.detail} ({trace.source.kind}) via "
                f"{trace.summary()}; handlers take time only from the "
                "loop's now_us argument — model latency as event delays",
                chain=trace.chain())

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_packages(_EVENT_LOOP_PACKAGES):
            return
        handlers = self._handler_names(ctx.tree)
        if not handlers:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if node.name not in handlers:
                continue
            yield from self._check_handler(ctx, node)

    @staticmethod
    def _handler_names(tree: ast.AST) -> set:
        """Names of functions registered as event handlers.

        Matches ``<loop>.register(EventType.X, <handler>)`` where the
        handler is a bare name or a ``self.<name>``-style attribute.
        """
        names = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "register"
                    and len(node.args) == 2):
                continue
            key = node.args[0]
            if not (isinstance(key, ast.Attribute)
                    and isinstance(key.value, ast.Name)
                    and key.value.id == "EventType"):
                continue
            handler = node.args[1]
            if isinstance(handler, ast.Attribute):
                names.add(handler.attr)
            elif isinstance(handler, ast.Name):
                names.add(handler.id)
        return names

    def _check_handler(self, ctx: ModuleContext,
                       func: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = _call_name(node, ctx)
                if name in _WALL_CLOCK:
                    yield self.finding(
                        ctx, node,
                        f"{name}() inside event handler "
                        f"{func.name}(): handlers take time from the "
                        "loop's now_us argument, never from the host clock")
                elif (isinstance(node.func, ast.Attribute)
                      and node.func.attr == "advance_clock"):
                    yield self.finding(
                        ctx, node,
                        f".advance_clock() inside event handler "
                        f"{func.name}(): the loop is the only time "
                        "authority; model latency as event delays")
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and target.attr in _CLOCK_ATTRS):
                        yield self.finding(
                            ctx, target,
                            f"write to .{target.attr} inside event "
                            f"handler {func.name}(): handlers must not "
                            "advance clocks directly — post an event "
                            "at the target time instead")


# The graph-based rules register themselves on import; keep this at the
# bottom so ``register`` and ``RULES`` exist when the module loads.
from . import rules_graph as _rules_graph  # noqa: E402,F401  (registration import)
