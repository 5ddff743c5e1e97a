"""Project-wide symbol table: the ground layer of simlint v2.

The file-local rule battery (SIM001..SIM010) sees one module at a time;
the whole-program analyses (DESIGN.md section 16) need to answer "what
does this name denote *anywhere in the tree*?" first.  This module
collects every top-level function, class, and method of a lint run into
:class:`SymbolTable`, keyed by dotted qualname
(``repro.sim.events.EventLoop.post``), and resolves references through
import aliases — including re-exports through package ``__init__``
modules (``from repro.parallel import derive_seed`` lands on
``repro.parallel.runner.derive_seed``).

Nested functions and lambdas are deliberately *not* symbols: they only
run when their enclosing function does, so the call graph attributes
their call sites to the enclosing symbol (flagged as deferred edges).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .engine import ModuleContext, Project

__all__ = ["Symbol", "SymbolTable"]


@dataclass
class Symbol:
    """One named definition somewhere in the project."""

    qualname: str                  # repro.sim.events.EventLoop.post
    module: str                    # repro.sim.events
    name: str                      # post
    kind: str                      # "function" | "method" | "class"
    ctx: ModuleContext
    node: ast.AST                  # the def/class node
    class_name: Optional[str] = None   # owning class, methods only

    @property
    def path(self) -> str:
        return self.ctx.relpath

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class SymbolTable:
    """Every function/class/method of a :class:`Project`, resolvable."""

    #: qualname -> symbol, functions and methods together.
    functions: Dict[str, Symbol] = field(default_factory=dict)
    #: qualname -> class symbol.
    classes: Dict[str, Symbol] = field(default_factory=dict)
    #: class qualname -> {method name -> symbol}.
    methods: Dict[str, Dict[str, Symbol]] = field(default_factory=dict)
    #: class qualname -> base class qualnames (project classes only).
    bases: Dict[str, List[str]] = field(default_factory=dict)
    #: bare method name -> every project method with that name.
    methods_by_name: Dict[str, List[Symbol]] = field(default_factory=dict)
    #: bare class name -> every project class with that name.
    classes_by_name: Dict[str, List[Symbol]] = field(default_factory=dict)
    #: module name -> its parsed context (for re-export chasing).
    module_ctx: Dict[str, ModuleContext] = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, project: Project) -> "SymbolTable":
        table = cls()
        for ctx in project.modules:
            table.module_ctx.setdefault(ctx.module, ctx)
            for stmt in ctx.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    table._add_function(ctx, stmt)
                elif isinstance(stmt, ast.ClassDef):
                    table._add_class(ctx, stmt)
        table._link_bases()
        return table

    def _add_function(self, ctx: ModuleContext,
                      node: ast.AST) -> None:
        qualname = f"{ctx.module}.{node.name}"  # type: ignore[attr-defined]
        self.functions.setdefault(qualname, Symbol(
            qualname=qualname, module=ctx.module,
            name=node.name, kind="function",  # type: ignore[attr-defined]
            ctx=ctx, node=node))

    def _add_class(self, ctx: ModuleContext, node: ast.ClassDef) -> None:
        qualname = f"{ctx.module}.{node.name}"
        symbol = Symbol(qualname=qualname, module=ctx.module,
                        name=node.name, kind="class", ctx=ctx, node=node)
        self.classes.setdefault(qualname, symbol)
        self.classes_by_name.setdefault(node.name, []).append(symbol)
        table = self.methods.setdefault(qualname, {})
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method_qual = f"{qualname}.{stmt.name}"
            method = Symbol(
                qualname=method_qual, module=ctx.module, name=stmt.name,
                kind="method", ctx=ctx, node=stmt, class_name=node.name)
            self.functions.setdefault(method_qual, method)
            table.setdefault(stmt.name, method)
            self.methods_by_name.setdefault(stmt.name, []).append(method)

    def _link_bases(self) -> None:
        for qualname, symbol in self.classes.items():
            node = symbol.node
            assert isinstance(node, ast.ClassDef)
            resolved: List[str] = []
            for base in node.bases:
                base_symbol = self.resolve_expr(symbol.ctx, base)
                if base_symbol is not None and base_symbol.kind == "class":
                    resolved.append(base_symbol.qualname)
            self.bases[qualname] = resolved

    # -- resolution --------------------------------------------------------

    def resolve_local(self, ctx: ModuleContext,
                      name: str) -> Optional[Symbol]:
        """A bare name in *ctx*: local def, or import alias."""
        direct = (self.functions.get(f"{ctx.module}.{name}")
                  or self.classes.get(f"{ctx.module}.{name}"))
        if direct is not None:
            return direct
        target = ctx.imports.resolve(name)
        if target is not None:
            return self.resolve_qualname(target)
        return None

    def resolve_qualname(self, qualname: str,
                         _seen: Tuple[str, ...] = ()) -> Optional[Symbol]:
        """A dotted name, chasing re-exports through ``__init__`` tables."""
        if qualname in _seen or len(_seen) > 8:
            return None
        found = self.functions.get(qualname) or self.classes.get(qualname)
        if found is not None:
            return found
        head, _, name = qualname.rpartition(".")
        if not head:
            return None
        seen = _seen + (qualname,)
        # ``repro.parallel.derive_seed`` where repro.parallel re-exports.
        ctx = self.module_ctx.get(head)
        if ctx is not None:
            target = ctx.imports.resolve(name)
            return self.resolve_qualname(target, seen) if target else None
        # ``module.Class.method`` where Class itself needs resolution.
        owner = self.resolve_qualname(head, seen)
        if owner is not None and owner.kind == "class":
            return self.method_on(owner.qualname, name)
        return None

    def resolve_expr(self, ctx: ModuleContext,
                     node: ast.expr) -> Optional[Symbol]:
        """A Name/Attribute expression appearing in *ctx*."""
        if isinstance(node, ast.Name):
            return self.resolve_local(ctx, node.id)
        if isinstance(node, ast.Attribute):
            chain: List[str] = []
            cursor: ast.expr = node
            while isinstance(cursor, ast.Attribute):
                chain.append(cursor.attr)
                cursor = cursor.value
            if not isinstance(cursor, ast.Name):
                return None
            root = ctx.imports.resolve(cursor.id)
            if root is None:
                # ``Class.method`` on a locally defined class.
                owner = self.resolve_local(ctx, cursor.id)
                if owner is not None and owner.kind == "class" \
                        and len(chain) == 1:
                    return self.method_on(owner.qualname, chain[0])
                return None
            return self.resolve_qualname(
                ".".join([root] + list(reversed(chain))))
        return None

    def method_on(self, class_qual: str, name: str) -> Optional[Symbol]:
        """Look *name* up on a class, walking project base classes."""
        queue, seen = [class_qual], set()
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            found = self.methods.get(current, {}).get(name)
            if found is not None:
                return found
            queue.extend(self.bases.get(current, []))
        return None

    def class_of(self, method: Symbol) -> Optional[Symbol]:
        if method.class_name is None:
            return None
        return self.classes.get(f"{method.module}.{method.class_name}")
