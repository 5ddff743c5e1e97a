"""Whole-program call graph over the :class:`SymbolTable`.

Edges connect function/method symbols; each records its call site and
whether the call is *deferred* (written inside a lambda or nested
function, so it runs later — or never — rather than as part of the
caller's own control flow).  The taint walks follow deferred edges like
any other; the flag is kept for ``repro lint --graph-out``.

Resolution strategy, in order of confidence:

1. bare names — local defs and import aliases (re-exports included);
2. dotted names through the import table (``module.attr(...)``);
3. ``self.method()`` / ``cls.method()`` / ``super().method()`` against
   the enclosing class, walking project base classes;
4. typed dispatch — parameter annotations, ``x: T`` / ``x = T(...)``
   locals, annotated dataclass fields, and ``self.attr`` types
   inferred from ``__init__`` assignments (``X | Y`` unions fan out to
   every named class);
5. unique-name fallback — an attribute call whose method name exactly
   one project class defines binds to it;
6. anything left on a receiver of unknown type whose name looks like a
   builtin-container method (``append``, ``items``, ...) is external.

Calls that match several project methods and nothing pins the receiver
type are *ambiguous*: they are kept out of the taint analyses (a wrong
edge would invent findings) and counted against the resolution rate the
meta-test enforces.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import ModuleContext, Project
from .symbols import Symbol, SymbolTable

__all__ = ["Edge", "CallGraph"]

#: Receiver-less method names that belong to builtin containers, files,
#: futures, and stdlib objects; with an unknown receiver type these are
#: classified external rather than guessed at.
_BUILTIN_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "index",
    "count", "sort", "reverse", "copy", "add", "discard", "update",
    "union", "intersection", "difference", "symmetric_difference",
    "keys", "values", "items", "get", "setdefault", "popitem",
    "split", "rsplit", "join", "strip", "lstrip", "rstrip", "replace",
    "startswith", "endswith", "format", "encode", "decode", "lower",
    "upper", "title", "zfill", "ljust", "rjust", "splitlines", "center",
    "read", "readline", "readlines", "write", "writelines", "close",
    "flush", "seek", "tell", "fileno", "most_common", "elements",
    "put", "put_nowait", "get_nowait", "empty", "qsize", "task_done",
    "cancel", "cancelled", "done", "result", "exception", "set_result",
    "add_done_callback", "exists", "mkdir", "rmdir", "touch", "rename",
    "rglob", "glob", "iterdir", "resolve", "relative_to", "with_suffix",
    "with_name", "as_posix", "read_text", "read_bytes", "write_text",
    "write_bytes", "unlink", "is_dir", "is_file", "samefile", "open",
    "match", "search", "findall", "finditer", "sub", "fullmatch",
    "group", "groups", "groupdict", "start", "end", "span",
    "hexdigest", "digest", "to_bytes", "from_bytes", "bit_length",
    "isoformat", "total_seconds", "timestamp", "strftime", "strip_dirs",
    "sort_stats", "print_stats", "dump_stats", "writerow", "writerows",
    "getvalue", "getbuffer", "isdigit", "isalpha", "isidentifier",
    "set_start_method", "get_context", "cpu_count", "terminate",
    "kill", "wait", "communicate", "poll", "send_signal", "as_integer_ratio",
    # argparse
    "add_argument", "add_parser", "add_subparsers", "parse_args",
    "parse_known_args", "set_defaults", "add_argument_group",
    "add_mutually_exclusive_group", "error",
    # random.Random
    "random", "randrange", "randint", "getrandbits", "gauss",
    "expovariate", "uniform", "shuffle", "sample", "choice", "choices",
    "seed", "normalvariate", "lognormvariate", "betavariate",
    "triangular", "vonmisesvariate", "paretovariate", "weibullvariate",
    # deque / OrderedDict
    "popleft", "appendleft", "extendleft", "rotate", "move_to_end",
    # statistics.NormalDist
    "cdf", "inv_cdf", "pdf", "quantiles",
    # str extras
    "removesuffix", "removeprefix", "rfind", "rindex", "find",
    "partition", "rpartition", "casefold", "capitalize", "swapcase",
    "expandtabs", "translate", "maketrans",
    # concurrent.futures / asyncio loops / profilers / files
    "submit", "shutdown", "run_in_executor", "call_soon",
    "call_soon_threadsafe", "call_later", "call_at", "create_task",
    "run_until_complete", "run_forever", "is_running", "is_closed",
    "stop", "enable", "disable", "create_stats", "runcall",
    "truncate", "sum",
})

_BUILTIN_NAMES = frozenset(dir(builtins))

#: Sentinel "class" for receivers known to be stdlib/builtin values
#: (file handles, set literals, ``io.StringIO`` annotations).  It never
#: matches a project method, so dispatch on it lands in the external
#: bucket instead of guessing by name.
_EXTERNAL = ("<external>",)


@dataclass(frozen=True)
class Edge:
    """One call site linking two project symbols."""

    caller: str          # qualname of the enclosing symbol
    callee: str          # qualname of the resolved target
    path: str            # caller's file
    line: int
    col: int
    kind: str            # "direct"|"self"|"typed"|"unique"|"ctor"|"ambiguous"
    deferred: bool = False

    @property
    def confident(self) -> bool:
        return self.kind != "ambiguous"

    def as_dict(self) -> Dict[str, object]:
        return {"caller": self.caller, "callee": self.callee,
                "path": self.path, "line": self.line, "kind": self.kind,
                "deferred": self.deferred}


@dataclass
class CallGraph:
    """Edges plus resolution accounting for a whole project."""

    symbols: SymbolTable
    edges: List[Edge] = field(default_factory=list)
    #: caller qualname -> outgoing edges, call-site order.
    out: Dict[str, List[Edge]] = field(default_factory=dict)
    #: resolution accounting: resolved / external / dynamic /
    #: ambiguous / unresolved call sites.
    stats: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(cls, project: Project, symbols: SymbolTable) -> "CallGraph":
        graph = cls(symbols=symbols)
        for bucket in ("resolved", "external", "dynamic", "ambiguous",
                       "unresolved"):
            graph.stats[bucket] = 0
        inference = _TypeInference(symbols)
        for symbol in sorted(symbols.functions.values(),
                             key=lambda s: s.qualname):
            graph._scan_function(symbol, inference)
        for edge in graph.edges:
            graph.out.setdefault(edge.caller, []).append(edge)
        return graph

    @property
    def resolution_rate(self) -> float:
        """Resolved fraction of the call sites we were expected to bind.

        External and dynamic sites (stdlib, builtins, callable-valued
        parameters) are out of scope by construction; ambiguous and
        unresolved ones are misses.
        """
        hit = self.stats["resolved"]
        miss = self.stats["ambiguous"] + self.stats["unresolved"]
        return hit / (hit + miss) if hit + miss else 1.0

    def callees(self, qualname: str, *,
                confident_only: bool = True) -> Iterator[Edge]:
        for edge in self.out.get(qualname, ()):
            if confident_only and not edge.confident:
                continue
            yield edge

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "functions": sorted(self.symbols.functions),
            "classes": sorted(self.symbols.classes),
            "edges": [e.as_dict() for e in self.edges],
            "stats": dict(sorted(self.stats.items())),
            "resolution_rate": round(self.resolution_rate, 4),
        }

    # -- construction ------------------------------------------------------

    def _scan_function(self, symbol: Symbol,
                       inference: "_TypeInference") -> None:
        env = inference.local_env(symbol)
        for call, deferred in _iter_calls(symbol.node):
            edges, bucket = self._resolve_call(symbol, call, env, inference)
            self.stats[bucket] += 1
            for callee, kind in edges:
                self.edges.append(Edge(
                    caller=symbol.qualname, callee=callee,
                    path=symbol.path, line=call.lineno,
                    col=call.col_offset, kind=kind, deferred=deferred))

    def _resolve_call(self, symbol: Symbol, call: ast.Call,
                      env: Dict[str, Tuple[str, ...]],
                      inference: "_TypeInference",
                      ) -> Tuple[List[Tuple[str, str]], str]:
        """-> ([(callee qualname, edge kind), ...], stats bucket)."""
        func = call.func
        table = self.symbols
        ctx = symbol.ctx
        if isinstance(func, ast.Name):
            if func.id in env:
                return [], "dynamic"
            target = table.resolve_local(ctx, func.id)
            if target is not None:
                return self._edges_for(target, "direct"), "resolved"
            alias = ctx.imports.resolve(func.id)
            if alias is not None or func.id in _BUILTIN_NAMES:
                return [], "external"
            return [], "unresolved"
        if isinstance(func, ast.Attribute):
            dotted = _dotted_name(func, ctx)
            if dotted is not None:
                target = table.resolve_qualname(dotted)
                if target is not None:
                    return self._edges_for(target, "direct"), "resolved"
                return [], "external"
            return self._resolve_method(symbol, func, env, inference)
        # Calls of calls, subscripts, lambdas called inline, ...
        return [], "dynamic"

    def _resolve_method(self, symbol: Symbol, func: ast.Attribute,
                        env: Dict[str, Tuple[str, ...]],
                        inference: "_TypeInference",
                        ) -> Tuple[List[Tuple[str, str]], str]:
        table = self.symbols
        base = func.value
        owner = table.class_of(symbol)
        # self.method() / cls.method() / super().method()
        if isinstance(base, ast.Name) and base.id in ("self", "cls") \
                and owner is not None:
            found = table.method_on(owner.qualname, func.attr)
            if found is not None:
                return [(found.qualname, "self")], "resolved"
            if func.attr in inference.attr_names(owner.qualname):
                # A stored callable (self.cb = ...; self.cb()), not a
                # method: the target is whatever got assigned at runtime.
                return [], "dynamic"
        if isinstance(base, ast.Call) and isinstance(base.func, ast.Name) \
                and base.func.id == "super" and owner is not None:
            for base_qual in table.bases.get(owner.qualname, []):
                found = table.method_on(base_qual, func.attr)
                if found is not None:
                    return [(found.qualname, "self")], "resolved"
            return [], "external"
        # Typed dispatch: receiver with a known class.
        candidates = self._receiver_types(symbol, base, env, inference)
        if candidates:
            edges: List[Tuple[str, str]] = []
            for class_qual in candidates:
                found = table.method_on(class_qual, func.attr)
                if found is not None:
                    edges.append((found.qualname, "typed"))
            if edges:
                return edges, "resolved"
            return [], "external"  # typed receiver, inherited/builtin attr
        # Unknown receiver: unique project method name, else builtin.
        named = table.methods_by_name.get(func.attr, [])
        if len(named) == 1:
            return [(named[0].qualname, "unique")], "resolved"
        if len(named) > 1:
            return [(s.qualname, "ambiguous") for s in named], "ambiguous"
        if func.attr in _BUILTIN_METHODS or func.attr.startswith("__"):
            return [], "external"
        return [], "unresolved"

    def _receiver_types(self, symbol: Symbol, base: ast.expr,
                        env: Dict[str, Tuple[str, ...]],
                        inference: "_TypeInference") -> Tuple[str, ...]:
        if isinstance(base, ast.Name):
            if base.id in ("self", "cls"):
                owner = self.symbols.class_of(symbol)
                return (owner.qualname,) if owner is not None else ()
            return env.get(base.id, ())
        if isinstance(base, ast.Call):
            # Chained construction: ``Simulator(config).run()``.
            return inference._value_classes(base, symbol.ctx)
        if isinstance(base, ast.Attribute):
            inner = self._receiver_types(symbol, base.value, env,
                                         inference)
            merged: List[str] = []
            for class_qual in inner:
                merged.extend(inference.attr_types(class_qual).get(
                    base.attr, ()))
            return tuple(dict.fromkeys(merged))
        return ()

    def _edges_for(self, target: Symbol,
                   kind: str) -> List[Tuple[str, str]]:
        if target.kind == "class":
            init = self.symbols.method_on(target.qualname, "__init__")
            if init is not None:
                return [(init.qualname, "ctor")]
            return [(target.qualname, "ctor")]
        return [(target.qualname, kind)]


def _iter_calls(node: ast.AST) -> Iterator[Tuple[ast.Call, bool]]:
    """Every Call in a function body, with its deferred flag.

    Descends into lambdas and nested defs (their sites belong to the
    enclosing symbol, marked deferred) but not into the function's own
    decorator list, which runs at import time.
    """

    def walk(current: ast.AST, deferred: bool) -> Iterator[
            Tuple[ast.Call, bool]]:
        for child in ast.iter_child_nodes(current):
            child_deferred = deferred or isinstance(
                child, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.Call):
                yield child, deferred
            yield from walk(child, child_deferred)

    body = getattr(node, "body", [])
    for stmt in body if isinstance(body, list) else [body]:
        yield from walk(stmt, False)
        if isinstance(stmt, ast.Call):
            yield stmt, False


def _target_names(target: ast.expr) -> Iterator[str]:
    """Plain names bound by an assignment/for/with target."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _dotted_name(node: ast.expr, ctx: ModuleContext) -> Optional[str]:
    """``a.b.c`` resolved through the import table, else None."""
    chain: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        chain.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    root = ctx.imports.resolve(cursor.id)
    if root is None:
        return None
    return ".".join([root] + list(reversed(chain)))


class _TypeInference:
    """Annotation-driven nominal types, just deep enough for dispatch."""

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self._attr_cache: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        self._name_cache: Dict[str, Set[str]] = {}

    # -- public ------------------------------------------------------------

    def local_env(self, symbol: Symbol) -> Dict[str, Tuple[str, ...]]:
        """name -> candidate class qualnames for params and locals."""
        env: Dict[str, Tuple[str, ...]] = {}
        node = symbol.node
        args = getattr(node, "args", None)
        if args is not None:
            params = (list(args.posonlyargs) + list(args.args)
                      + list(args.kwonlyargs))
            for extra in (args.vararg, args.kwarg):
                if extra is not None:
                    params.append(extra)
            for param in params:
                env[param.arg] = self._annotation_classes(
                    param.annotation, symbol.ctx) \
                    if param.annotation else ()
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                env[stmt.target.id] = self._annotation_classes(
                    stmt.annotation, symbol.ctx)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                inferred = self._value_classes(stmt.value, symbol.ctx)
                env[stmt.targets[0].id] = inferred
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and stmt is not node:
                # Calls to a nested def resolve lexically, not through
                # the graph; its own sites are scanned as deferred.
                env.setdefault(stmt.name, ())
            elif isinstance(stmt, ast.Lambda):
                for param in stmt.args.args:
                    env.setdefault(param.arg, ())
            elif isinstance(stmt, ast.For):
                for name in _target_names(stmt.target):
                    env.setdefault(name, ())
            elif isinstance(stmt, ast.withitem):
                bound = self._value_classes(stmt.context_expr, symbol.ctx)
                if stmt.optional_vars is not None:
                    for name in _target_names(stmt.optional_vars):
                        env.setdefault(name, bound)
            elif isinstance(stmt, ast.comprehension):
                for name in _target_names(stmt.target):
                    env.setdefault(name, ())
        return env

    def attr_types(self, class_qual: str) -> Dict[str, Tuple[str, ...]]:
        """attr name -> candidate classes, from fields and __init__."""
        cached = self._attr_cache.get(class_qual)
        if cached is not None:
            return cached
        result: Dict[str, Tuple[str, ...]] = {}
        self._attr_cache[class_qual] = result
        symbol = self.symbols.classes.get(class_qual)
        if symbol is None:
            return result
        node = symbol.node
        assert isinstance(node, ast.ClassDef)
        for stmt in node.body:
            # Dataclass fields / annotated class attributes.
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                result[stmt.target.id] = self._annotation_classes(
                    stmt.annotation, symbol.ctx)
        for method in self.symbols.methods.get(class_qual, {}).values():
            env = self.local_env(method)
            for stmt in ast.walk(method.node):
                target = None
                value_classes: Tuple[str, ...] = ()
                if isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                    value_classes = self._annotation_classes(
                        stmt.annotation, symbol.ctx)
                elif isinstance(stmt, ast.Assign) \
                        and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    value = stmt.value
                    if isinstance(value, ast.Name):
                        value_classes = env.get(value.id, ())
                    else:
                        value_classes = self._value_classes(
                            value, symbol.ctx)
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and value_classes
                        and not result.get(target.attr)):
                    result[target.attr] = value_classes
        for base_qual in self.symbols.bases.get(class_qual, []):
            for attr, classes in self.attr_types(base_qual).items():
                result.setdefault(attr, classes)
        return result

    def attr_names(self, class_qual: str) -> Set[str]:
        """Every instance attribute the class ever assigns on self."""
        cached = self._name_cache.get(class_qual)
        if cached is not None:
            return cached
        names: Set[str] = set()
        self._name_cache[class_qual] = names
        symbol = self.symbols.classes.get(class_qual)
        if symbol is None:
            return names
        assert isinstance(symbol.node, ast.ClassDef)
        for stmt in symbol.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                names.add(stmt.target.id)
        for method in self.symbols.methods.get(class_qual, {}).values():
            for stmt in ast.walk(method.node):
                targets: List[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = list(stmt.targets)
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    targets = [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        names.add(target.attr)
        for base_qual in self.symbols.bases.get(class_qual, []):
            names.update(self.attr_names(base_qual))
        return names

    # -- internals ---------------------------------------------------------

    def _value_classes(self, value: ast.expr,
                       ctx: ModuleContext) -> Tuple[str, ...]:
        """Classes a right-hand side constructs or returns.

        Builtin container literals and calls into the stdlib yield the
        ``<external>`` sentinel: the receiver type is *known*, it just
        is not a project class, so method dispatch on it must not fall
        back to name matching.
        """
        if isinstance(value, (ast.Set, ast.SetComp, ast.Dict,
                              ast.DictComp, ast.List, ast.ListComp,
                              ast.JoinedStr)):
            return _EXTERNAL
        if isinstance(value, ast.Constant):
            return _EXTERNAL if value.value is not None else ()
        if not isinstance(value, ast.Call):
            return ()
        target = self.symbols.resolve_expr(ctx, value.func)
        if target is None:
            root = value.func
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and (
                    ctx.imports.resolve(root.id) is not None
                    or root.id in _BUILTIN_NAMES):
                return _EXTERNAL
            return ()
        if target.kind == "class":
            return (target.qualname,)
        returns = getattr(target.node, "returns", None)
        if returns is not None:
            return self._annotation_classes(returns, target.ctx)
        return ()

    def _annotation_classes(self, annotation: Optional[ast.expr],
                            ctx: ModuleContext) -> Tuple[str, ...]:
        if annotation is None:
            return ()
        if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str):
            try:
                annotation = ast.parse(annotation.value,
                                       mode="eval").body
            except SyntaxError:
                return ()
        if isinstance(annotation, ast.BinOp) and isinstance(
                annotation.op, ast.BitOr):
            return (self._annotation_classes(annotation.left, ctx)
                    + self._annotation_classes(annotation.right, ctx))
        if isinstance(annotation, ast.Subscript):
            # Optional/Union unwrap; any other subscripted annotation
            # (List[T], Dict[K, V], IO[str], ...) types the receiver
            # itself as a stdlib container, whatever the elements are.
            head = annotation.value
            head_name = head.id if isinstance(head, ast.Name) else (
                head.attr if isinstance(head, ast.Attribute) else "")
            if head_name == "Optional":
                return self._annotation_classes(annotation.slice, ctx)
            if head_name == "Union":
                arms = annotation.slice
                elts = arms.elts if isinstance(arms, ast.Tuple) else [arms]
                merged: Tuple[str, ...] = ()
                for elt in elts:
                    merged += self._annotation_classes(elt, ctx)
                return merged
            return _EXTERNAL
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            target = self.symbols.resolve_expr(ctx, annotation)
            if target is not None and target.kind == "class":
                return (target.qualname,)
            root = annotation
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and (
                    ctx.imports.resolve(root.id) is not None
                    or root.id in _BUILTIN_NAMES):
                # io.StringIO, typing.TextIO, str, ... a known
                # non-project type.
                return _EXTERNAL
        return ()
