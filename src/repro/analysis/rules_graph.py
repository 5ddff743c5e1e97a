"""Graph-based rules SIM012 and SIM013 (simlint v2, DESIGN.md section 16).

These rules only make sense whole-program: each one runs in
``finalize`` against the :class:`~repro.analysis.dataflow.
WholeProgramAnalysis` cached on the :class:`~repro.analysis.engine.
Project`, and every finding carries the call chain that produced it
(``repro lint --why`` prints it).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .dataflow import (
    MUTABLE_CONSTRUCTORS,
    MUTATOR_METHODS,
    SourceSite,
    Trace,
    WholeProgramAnalysis,
)
from .engine import Finding, Project, Rule
from .rules import register
from .symbols import Symbol

__all__ = ["SetOrderEscapeRule", "SharedMutableGlobalRule"]

#: Modules whose output is part of the byte-identity contract: the
#: cluster feed, figure/report writers, telemetry export, and simlint's
#: own reporters (SIM012 sinks), plus anything matching _SINK_NAME_RE.
_OUTPUT_MODULES = ("repro.cluster.feed", "repro.experiments.report",
                   "repro.telemetry.export", "repro.analysis.reporters")

_SINK_NAME_RE = re.compile(r"^(write|render|emit|export|dump)_")


# ---------------------------------------------------------------------------
# SIM012 — set iteration order escaping into output paths
# ---------------------------------------------------------------------------


@register
class SetOrderEscapeRule(Rule):
    """Hash-ordered sets may not feed report/feed output, even laundered.

    SIM003 catches ``for x in {...}`` in one file; this rule catches the
    interprocedural version: a helper *returns* a raw set and an output
    path (feed writer, report renderer, telemetry export) iterates the
    result.  The emitted bytes then depend on PYTHONHASHSEED, which is
    exactly what the byte-identity contract forbids.  ``sorted(...)``
    around the call clears the hazard.
    """

    code = "SIM012"
    name = "set-order-escape"
    severity = "error"
    description = ("iterating a set returned by a helper inside an "
                   "output path (feed/report/export/render functions) "
                   "makes emitted bytes hash-order dependent; wrap the "
                   "call in sorted(...)")

    def finalize(self, project: Project) -> Iterator[Finding]:
        analysis = project.analysis()
        set_helpers = analysis.set_returning()
        if not set_helpers:
            return
        sinks = self._sink_roots(analysis)
        reachable = analysis.reachable_from(sinks)
        for qualname in sorted(reachable):
            symbol = analysis.symbols.functions.get(qualname)
            if symbol is None:
                continue
            root, walked = reachable[qualname]
            yield from self._check_sink_body(
                analysis, symbol, set_helpers, root, walked)

    @staticmethod
    def _sink_roots(analysis: WholeProgramAnalysis) -> List[Symbol]:
        roots = [
            symbol for symbol in analysis.symbols.functions.values()
            if symbol.ctx.module in _OUTPUT_MODULES
            or _SINK_NAME_RE.match(symbol.name)
        ]
        return sorted(roots, key=lambda s: s.qualname)

    def _check_sink_body(self, analysis: WholeProgramAnalysis,
                         symbol: Symbol,
                         set_helpers: Dict[str, SourceSite],
                         root: Symbol,
                         walked: Tuple, ) -> Iterator[Finding]:
        ctx = symbol.ctx
        set_calls: Dict[str, Tuple[str, SourceSite]] = {}

        def helper_for(expr: ast.expr) -> Optional[Tuple[str, SourceSite]]:
            if not isinstance(expr, ast.Call):
                return None
            target = analysis.symbols.resolve_expr(ctx, expr.func)
            if target is not None and target.qualname in set_helpers:
                return target.qualname, set_helpers[target.qualname]
            return None

        for stmt in ast.walk(symbol.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                hit = helper_for(stmt.value)
                if hit is not None:
                    set_calls[stmt.targets[0].id] = hit

        def hazardous(expr: ast.expr) -> Optional[Tuple[str, SourceSite]]:
            direct = helper_for(expr)
            if direct is not None:
                return direct
            if isinstance(expr, ast.Name):
                return set_calls.get(expr.id)
            return None

        for node in ast.walk(symbol.node):
            iterables: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.comprehension)):
                iterables.append(node.iter)
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name) and node.func.id in (
                        "list", "tuple", "enumerate", "iter") and node.args:
                iterables.append(node.args[0])
            for iterable in iterables:
                hit = hazardous(iterable)
                if hit is None:
                    continue
                helper_qual, site = hit
                trace = Trace(root=root, edges=walked, source=site)
                yield self.finding(
                    ctx, iterable,
                    f"iterates the raw set returned by "
                    f"{helper_qual}() inside output path "
                    f"{symbol.name}(); emitted bytes become "
                    "hash-order dependent — wrap in sorted(...)",
                    chain=trace.chain())


# ---------------------------------------------------------------------------
# SIM013 — module-level mutables written by worker-side code
# ---------------------------------------------------------------------------


@register
class SharedMutableGlobalRule(Rule):
    """Worker-side code must not write module-level mutable state.

    Each sweep worker is its own process: a module-level dict or list
    mutated inside a task function (or anything it calls) diverges per
    process, silently reads back empty in the parent, and — worse —
    *does* share under ``--workers 1``, so the bug only appears at
    scale.  State a worker produces must travel in its return value.
    """

    code = "SIM013"
    name = "shared-mutable-global"
    severity = "error"
    description = ("module-level mutable globals (dict/list/set/...) "
                   "must not be written by SweepTask/run_shard worker "
                   "code; per-process copies diverge — return the "
                   "state instead")

    def finalize(self, project: Project) -> Iterator[Finding]:
        analysis = project.analysis()
        mutables = self._module_mutables(project)
        if not mutables:
            return
        workers = analysis.worker_side_functions()
        for qualname in sorted(workers):
            symbol = analysis.symbols.functions.get(qualname)
            if symbol is None:
                continue
            root, walked = workers[qualname]
            yield from self._check_worker(
                analysis, symbol, mutables, root, walked)

    @staticmethod
    def _module_mutables(project: Project) -> Dict[str, int]:
        """``module.NAME`` -> declaration line, for mutable globals."""
        found: Dict[str, int] = {}
        for ctx in project.modules:
            for stmt in ctx.tree.body:
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) \
                        and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                if value is None or not _is_mutable_literal(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        found[f"{ctx.module}.{target.id}"] = stmt.lineno
        return found

    def _check_worker(self, analysis: WholeProgramAnalysis,
                      symbol: Symbol, mutables: Dict[str, int],
                      root: Symbol, walked: Tuple) -> Iterator[Finding]:
        ctx = symbol.ctx
        node = symbol.node
        declared_global: Set[str] = set()
        local_names: Set[str] = set()
        args = getattr(node, "args", None)
        if args is not None:
            local_names.update(a.arg for a in (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)))
            for extra in (args.vararg, args.kwarg):
                if extra is not None:
                    local_names.add(extra.arg)
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Global):
                declared_global.update(stmt.names)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign,
                                   ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name) \
                            and target.id not in declared_global:
                        local_names.add(target.id)
            elif isinstance(stmt, (ast.For, ast.comprehension)):
                for target in ast.walk(stmt.target):
                    if isinstance(target, ast.Name):
                        local_names.add(target.id)
            elif isinstance(stmt, ast.withitem) \
                    and stmt.optional_vars is not None:
                for target in ast.walk(stmt.optional_vars):
                    if isinstance(target, ast.Name):
                        local_names.add(target.id)

        def global_target(name_node: ast.expr) -> Optional[str]:
            """The mutable global a Name refers to, if any."""
            if not isinstance(name_node, ast.Name):
                return None
            name = name_node.id
            if name in declared_global:
                qual = f"{ctx.module}.{name}"
                return qual if qual in mutables else None
            if name in local_names:
                return None
            qual = f"{ctx.module}.{name}"
            if qual in mutables:
                return qual
            imported = ctx.imports.resolve(name)
            if imported is not None and imported in mutables:
                return imported
            return None

        def emit(site: ast.AST, qual: str, how: str) -> Finding:
            trace = Trace(root=root, edges=walked, source=SourceSite(
                "global-write", f"{how} {qual}", ctx.relpath,
                getattr(site, "lineno", 1),
                getattr(site, "col_offset", 0)))
            entry = "" if not walked and root.qualname == symbol.qualname \
                else f" (reached from worker entry {root.name}())"
            return self.finding(
                ctx, site,
                f"{how} module-level mutable {qual} inside worker-side "
                f"{symbol.name}(){entry}; per-process copies diverge — "
                "return the state to the parent instead",
                chain=trace.chain())

        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        qual = global_target(target.value)
                        if qual is not None:
                            yield emit(stmt, qual, "writes into")
                    elif isinstance(target, ast.Name) \
                            and target.id in declared_global:
                        qual = f"{ctx.module}.{target.id}"
                        if qual in mutables:
                            yield emit(stmt, qual, "rebinds")
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    if isinstance(target, ast.Subscript):
                        qual = global_target(target.value)
                        if qual is not None:
                            yield emit(stmt, qual, "deletes from")
            elif isinstance(stmt, ast.Call) \
                    and isinstance(stmt.func, ast.Attribute) \
                    and stmt.func.attr in MUTATOR_METHODS:
                qual = global_target(stmt.func.value)
                if qual is not None:
                    yield emit(stmt, qual, f".{stmt.func.attr}() on")


def _is_mutable_literal(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in MUTABLE_CONSTRUCTORS
    return False
