"""Interprocedural dataflow on top of the call graph.

Three properties propagate through :class:`CallGraph` edges (DESIGN.md
section 16):

* **time-source taint** — wall-clock reads, ``.advance_clock()`` calls,
  and writes to clock attributes, reachable from event handlers and the
  cluster entry points (``run_shard``/``run_cluster``).  A site that
  carries a reviewed pragma is *not* a source: the pragma is the
  decision record, and taint must not resurrect it two calls upstream.
* **seed provenance** — helper functions that turn a seed parameter
  into ad-hoc arithmetic (the fig9 bug shape) poison any RNG
  constructed from their result, across modules.
* **pickle-safety** — helper functions returning lambdas, nested
  functions, open file handles, or :class:`EventLoop` instances poison
  any ``SweepTask`` payload built from their result.

Traces are breadth-first with predecessor links, so every finding can
carry its full call chain (surfaced by ``repro lint --why``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph, Edge
from .engine import ModuleContext, Project, qualified_call_name
from .symbols import Symbol, SymbolTable

__all__ = ["SourceSite", "Trace", "WholeProgramAnalysis"]

#: Wall-clock reads (kept in sync with rules._WALL_CLOCK; re-declared
#: here so the dataflow layer has no import cycle with the rule battery).
WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

CLOCK_ATTRS = ("clock_us", "now_us")

#: Container-mutating method names for the shared-global rule (SIM013).
MUTATOR_METHODS = frozenset({
    "append", "add", "extend", "insert", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort",
    "appendleft", "extendleft",
})

#: Module-level constructors that build mutable containers.
MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
    "deque",
})


@dataclass(frozen=True)
class SourceSite:
    """One taint source inside one function."""

    kind: str        # "wall-clock" | "advance-clock" | "clock-write" | ...
    detail: str      # human-readable, e.g. "time.monotonic()"
    path: str
    line: int
    col: int


@dataclass(frozen=True)
class Trace:
    """A root symbol, the call chain walked, and the source reached."""

    root: Symbol
    edges: Tuple[Edge, ...]
    source: SourceSite

    @property
    def depth(self) -> int:
        return len(self.edges)

    def chain(self) -> Tuple[str, ...]:
        """Printable hops, entry point first, source last."""
        hops = [f"{self.root.path}:{self.root.line}: {self.root.qualname}"]
        for edge in self.edges:
            hops.append(f"{edge.path}:{edge.line}: calls {edge.callee}")
        hops.append(f"{self.source.path}:{self.source.line}: "
                    f"{self.source.detail}")
        return tuple(hops)

    def summary(self) -> str:
        """The chain as a one-line arrow list of bare function names."""
        names = [self.root.name]
        names += [edge.callee.rsplit(".", 1)[-1] for edge in self.edges]
        return " -> ".join(names)


def _pragma_covers(ctx: ModuleContext, line: int,
                   codes: Sequence[str]) -> bool:
    active = ctx.pragmas.get(line)
    if not active:
        return False
    return "*" in active or any(code in active for code in codes)


class WholeProgramAnalysis:
    """Symbol table + call graph + cached per-function facts."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.symbols = SymbolTable.build(project)
        self.graph = CallGraph.build(project, self.symbols)
        self._fact_cache: Dict[str, Dict[str, List[SourceSite]]] = {}
        self._unpicklable: Optional[Dict[str, SourceSite]] = None
        self._seed_arith: Optional[Dict[str, SourceSite]] = None
        self._set_returning: Optional[Dict[str, SourceSite]] = None

    # -- generic reachability ---------------------------------------------

    def trace(self, root: Symbol,
              sources_of: Callable[[Symbol], List[SourceSite]],
              *, min_depth: int = 0) -> Optional[Trace]:
        """First source reachable from *root* along confident edges."""
        queue: List[Tuple[str, Tuple[Edge, ...]]] = [(root.qualname, ())]
        seen: Set[str] = {root.qualname}
        while queue:
            qualname, walked = queue.pop(0)
            symbol = self.symbols.functions.get(qualname)
            if symbol is not None and len(walked) >= min_depth:
                sites = sources_of(symbol)
                if sites:
                    return Trace(root=root, edges=walked,
                                 source=sites[0])
            if len(walked) >= 12:   # depth guard; real chains are short
                continue
            for edge in self.graph.callees(qualname):
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    queue.append((edge.callee, walked + (edge,)))
        return None

    def reachable_from(self, roots: Sequence[Symbol],
                       ) -> Dict[str, Tuple[Symbol, Tuple[Edge, ...]]]:
        """qualname -> (entry root, chain) for everything reachable."""
        result: Dict[str, Tuple[Symbol, Tuple[Edge, ...]]] = {}
        for root in roots:
            queue: List[Tuple[str, Tuple[Edge, ...]]] = [
                (root.qualname, ())]
            while queue:
                qualname, walked = queue.pop(0)
                if qualname in result:
                    continue
                result[qualname] = (root, walked)
                if len(walked) >= 12:
                    continue
                for edge in self.graph.callees(qualname):
                    if edge.callee not in result:
                        queue.append((edge.callee, walked + (edge,)))
        return result

    # -- per-function facts -----------------------------------------------

    def _facts(self, symbol: Symbol, kind: str,
               extractor: Callable[[Symbol], List[SourceSite]],
               ) -> List[SourceSite]:
        per_symbol = self._fact_cache.setdefault(symbol.qualname, {})
        if kind not in per_symbol:
            per_symbol[kind] = extractor(symbol)
        return per_symbol[kind]

    def time_sources(self, symbol: Symbol,
                     codes: Sequence[str] = ("SIM001", "SIM010"),
                     ) -> List[SourceSite]:
        """Unpragma'd wall-clock reads, advance_clock calls, clock writes.

        ``__init__`` bodies are exempt from the clock-write kind:
        constructing an engine *establishes* the simulated clock, which
        is the opposite of forking an already-running timeline.
        """

        def extract(sym: Symbol) -> List[SourceSite]:
            ctx = sym.ctx
            sites: List[SourceSite] = []
            in_init = sym.name == "__init__"
            for node in ast.walk(sym.node):
                if isinstance(node, ast.Call):
                    name = qualified_call_name(node.func, ctx)
                    if name in WALL_CLOCK_CALLS:
                        if not _pragma_covers(ctx, node.lineno, codes):
                            sites.append(SourceSite(
                                "wall-clock", f"{name}()", ctx.relpath,
                                node.lineno, node.col_offset))
                    elif isinstance(node.func, ast.Attribute) \
                            and node.func.attr == "advance_clock":
                        if not _pragma_covers(ctx, node.lineno, codes):
                            sites.append(SourceSite(
                                "advance-clock", ".advance_clock()",
                                ctx.relpath, node.lineno,
                                node.col_offset))
                elif isinstance(node, (ast.Assign, ast.AugAssign)) \
                        and not in_init:
                    targets = node.targets if isinstance(
                        node, ast.Assign) else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) \
                                and target.attr in CLOCK_ATTRS \
                                and not _pragma_covers(
                                    ctx, target.lineno, codes):
                            sites.append(SourceSite(
                                "clock-write", f"write to .{target.attr}",
                                ctx.relpath, target.lineno,
                                target.col_offset))
            return sites

        return self._facts(symbol, "time:" + ",".join(sorted(codes)),
                           extract)

    # -- summaries over every function ------------------------------------

    def unpicklable_returns(self) -> Dict[str, SourceSite]:
        """qualname -> why the function's return can't cross a pipe."""
        if self._unpicklable is not None:
            return self._unpicklable
        facts: Dict[str, SourceSite] = {}
        for symbol in self.symbols.functions.values():
            site = _direct_unpicklable_return(symbol, self.symbols)
            if site is not None:
                facts[symbol.qualname] = site
        # ``return make_cb()`` forwards another factory's poison.
        for _ in range(4):
            grew = False
            for symbol in self.symbols.functions.values():
                if symbol.qualname in facts:
                    continue
                for ret in _returns(symbol.node):
                    if not isinstance(ret.value, ast.Call):
                        continue
                    target = self.symbols.resolve_expr(
                        symbol.ctx, ret.value.func)
                    if target is not None and target.qualname in facts:
                        facts[symbol.qualname] = facts[target.qualname]
                        grew = True
                        break
            if not grew:
                break
        self._unpicklable = facts
        return facts

    def seed_arith_helpers(self) -> Dict[str, SourceSite]:
        """qualname -> the ad-hoc seed arithmetic a helper returns."""
        if self._seed_arith is not None:
            return self._seed_arith
        facts: Dict[str, SourceSite] = {}
        for symbol in self.symbols.functions.values():
            site = _seed_arith_return(symbol)
            if site is not None:
                facts[symbol.qualname] = site
        self._seed_arith = facts
        return facts

    def set_returning(self) -> Dict[str, SourceSite]:
        """qualname -> the raw-set return of an order-hazardous helper."""
        if self._set_returning is not None:
            return self._set_returning
        facts: Dict[str, SourceSite] = {}
        for symbol in self.symbols.functions.values():
            site = _raw_set_return(symbol)
            if site is not None:
                facts[symbol.qualname] = site
        self._set_returning = facts
        return facts

    # -- entry points ------------------------------------------------------

    def event_handlers(self, packages: Sequence[str] = ("repro.sim",
                                                        "repro.cluster"),
                       ) -> List[Symbol]:
        """Functions registered on an EventType-keyed event loop."""
        handlers: List[Symbol] = []
        seen: Set[str] = set()
        for ctx in self.project.modules:
            if not ctx.in_packages(packages):
                continue
            for node in ast.walk(ctx.tree):
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
                symbol = self._handler_symbol(ctx, node.args[1], node)
                if symbol is not None and symbol.qualname not in seen:
                    seen.add(symbol.qualname)
                    handlers.append(symbol)
        return sorted(handlers, key=lambda s: s.qualname)

    def _handler_symbol(self, ctx: ModuleContext, handler: ast.expr,
                        call: ast.Call) -> Optional[Symbol]:
        if isinstance(handler, ast.Attribute) and isinstance(
                handler.value, ast.Name) and handler.value.id == "self":
            from .engine import enclosing_function, node_parent
            cursor = node_parent(call)
            while cursor is not None:
                parent, _ = cursor
                if isinstance(parent, ast.ClassDef):
                    return self.symbols.method_on(
                        f"{ctx.module}.{parent.name}", handler.attr)
                cursor = node_parent(parent)
            return None
        return self.symbols.resolve_expr(ctx, handler)

    def cluster_entry_points(self) -> List[Symbol]:
        """``run_shard``/``run_cluster``-style sweep-driven entry points."""
        entries = [
            symbol for symbol in self.symbols.functions.values()
            if symbol.kind == "function"
            and symbol.name in ("run_shard", "run_cluster")
            and symbol.module.startswith("repro.")
        ]
        return sorted(entries, key=lambda s: s.qualname)

    def sweep_task_functions(self) -> List[Symbol]:
        """Every function shipped to workers as a SweepTask ``fn``."""
        found: Dict[str, Symbol] = {}
        for ctx in self.project.modules:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = qualified_call_name(node.func, ctx)
                bare = node.func.id if isinstance(node.func, ast.Name) \
                    else None
                label = name if name is not None else bare
                if label is None or label.rsplit(".", 1)[-1] != "SweepTask":
                    continue
                fn_value: Optional[ast.expr] = None
                if len(node.args) >= 2:
                    fn_value = node.args[1]
                for kw in node.keywords:
                    if kw.arg == "fn":
                        fn_value = kw.value
                if fn_value is None:
                    continue
                symbol = self.symbols.resolve_expr(ctx, fn_value)
                if symbol is not None and symbol.kind != "class":
                    found.setdefault(symbol.qualname, symbol)
        return sorted(found.values(), key=lambda s: s.qualname)

    def worker_side_functions(self) -> Dict[
            str, Tuple[Symbol, Tuple[Edge, ...]]]:
        """Everything reachable from a worker entry, with chains."""
        roots = {s.qualname: s for s in self.sweep_task_functions()}
        for entry in self.cluster_entry_points():
            if entry.name == "run_shard":
                roots.setdefault(entry.qualname, entry)
        return self.reachable_from(sorted(roots.values(),
                                          key=lambda s: s.qualname))


# -- fact extractors ------------------------------------------------------


def _returns(node: ast.AST) -> Iterator[ast.Return]:
    for child in ast.walk(node):
        if isinstance(child, ast.Return) and child.value is not None:
            yield child


def _direct_unpicklable_return(symbol: Symbol,
                               table: SymbolTable) -> Optional[SourceSite]:
    node = symbol.node
    nested = {child.name for child in ast.walk(node)
              if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
              and child is not node}
    for ret in _returns(node):
        value = ret.value
        assert value is not None
        if isinstance(value, ast.Lambda):
            return SourceSite("unpicklable", "returns a lambda",
                              symbol.path, value.lineno,
                              value.col_offset)
        if isinstance(value, ast.Name) and value.id in nested:
            return SourceSite(
                "unpicklable", f"returns nested function {value.id}()",
                symbol.path, value.lineno, value.col_offset)
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name) and func.id == "open" \
                    and symbol.ctx.imports.resolve("open") is None:
                return SourceSite("unpicklable",
                                  "returns an open file handle",
                                  symbol.path, value.lineno,
                                  value.col_offset)
            target = table.resolve_expr(symbol.ctx, func)
            if target is not None and target.kind == "class" \
                    and target.name == "EventLoop":
                return SourceSite("unpicklable",
                                  "returns an EventLoop instance",
                                  symbol.path, value.lineno,
                                  value.col_offset)
        if isinstance(value, ast.Attribute) and not isinstance(
                value.value, ast.Name):
            continue
        if isinstance(value, ast.Attribute) \
                and isinstance(value.value, ast.Name) \
                and value.value.id == "self":
            owner = table.class_of(symbol)
            if owner is not None and table.method_on(
                    owner.qualname, value.attr) is not None:
                return SourceSite(
                    "unpicklable",
                    f"returns bound method self.{value.attr}",
                    symbol.path, value.lineno, value.col_offset)
    return None


def _seed_arith_return(symbol: Symbol) -> Optional[SourceSite]:
    node = symbol.node
    args = getattr(node, "args", None)
    if args is None:
        return None
    params = [a.arg for a in (list(args.posonlyargs) + list(args.args)
                              + list(args.kwonlyargs))]
    seed_params = {p for p in params if "seed" in p.lower()}
    if not seed_params:
        return None
    for ret in _returns(node):
        value = ret.value
        if not isinstance(value, (ast.BinOp, ast.UnaryOp, ast.BoolOp)):
            continue
        mentioned = {child.id for child in ast.walk(value)
                     if isinstance(child, ast.Name)}
        if mentioned & seed_params:
            return SourceSite(
                "seed-arith",
                f"returns ad-hoc arithmetic on "
                f"{sorted(mentioned & seed_params)[0]!r}",
                symbol.path, value.lineno, value.col_offset)
    return None


def _raw_set_return(symbol: Symbol) -> Optional[SourceSite]:
    node = symbol.node
    set_locals: Set[str] = set()
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and _is_raw_set_expr(stmt.value, symbol.ctx):
            set_locals.add(stmt.targets[0].id)
    for ret in _returns(node):
        value = ret.value
        assert value is not None
        if _is_raw_set_expr(value, symbol.ctx):
            return SourceSite("set-return", "returns a raw set",
                              symbol.path, value.lineno,
                              value.col_offset)
        if isinstance(value, ast.Name) and value.id in set_locals:
            return SourceSite(
                "set-return", f"returns set-valued local {value.id!r}",
                symbol.path, value.lineno, value.col_offset)
    return None


def _is_raw_set_expr(node: ast.expr, ctx: ModuleContext) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return (node.func.id in ("set", "frozenset")
                and ctx.imports.resolve(node.func.id) is None)
    return False
