"""Project-wide symbol table and call graph for the flow analysis.

The per-module rules see one file at a time; everything in this package
sees the *program*. :class:`ProjectIndex` is built once per ``analyze_paths``
run from the already-parsed :class:`~repro.analysis.context.ModuleContext`
objects and answers three questions the interprocedural rules need:

- which functions exist, and under what qualified name
  (``repro.serve.session.SecureChannel.seal``; a def nested in a function is
  ``outer.<locals>.inner``, as in Python's ``__qualname__``), plus each
  module's code outside them as one more unit
  (``repro.serve.session.<module>``);
- what does a given ``ast.Call`` inside a given function resolve to
  (import aliases, ``self.method``, module-level names, and — as a
  deliberately over-approximate fallback — any method of the same name
  anywhere in the project, unless the receiver is a builtin container the
  function or its class's ``__init__`` declared or built);
- which module/package imports which (the observed layer graph that
  ``flow-layer-drift`` diffs against the documented DAG).

Everything is ordered: modules, functions and call candidates are kept in
sorted containers so two runs over the same tree produce byte-identical
reports (the determinism bar the rest of the repo holds itself to).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.context import ModuleContext, dotted_source

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
ScopeNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# `x.meth(...)` on an object of unknown type matches every method named
# `meth`; past this many candidates the name is too generic to be a useful
# edge and we drop it rather than spray taint across the project.
_MAX_NAME_CANDIDATES = 6

# A receiver annotated as, or built as, one of these builtin containers
# never takes the same-name fallback: `state.get(k)` on a `state: dict` is
# dict.get, not some project class's `get`.
_CONTAINER_TYPES = frozenset(
    {"dict", "list", "set", "frozenset", "tuple", "Dict", "List", "Set", "FrozenSet", "Tuple"}
)
_CONTAINER_CALLS = frozenset({"dict", "list", "set", "frozenset", "tuple", "sorted"})
_CONTAINER_DISPLAYS = (
    ast.Dict, ast.List, ast.Set, ast.Tuple, ast.DictComp, ast.ListComp, ast.SetComp
)


@dataclass
class FunctionInfo:
    """One function or method, or one module's own code, anchored to its
    module context."""

    qname: str  # "repro.serve.session.SecureChannel.seal"
    module: str  # dotted module name
    name: str  # bare name ("seal"; "<module>" for a module's own code)
    class_qname: Optional[str]  # "repro.serve.session.SecureChannel" or None
    node: Union[FunctionNode, ast.Module]
    ctx: ModuleContext
    params: Tuple[str, ...] = ()  # positional params, `self`/`cls` included
    # names and `self.X` attributes every binding in the function makes a
    # builtin container
    containers: FrozenSet[str] = frozenset()

    @property
    def is_method(self) -> bool:
        return self.class_qname is not None

    @property
    def self_name(self) -> Optional[str]:
        """The receiver parameter name for methods (usually ``self``)."""
        if self.class_qname is not None and self.params:
            return self.params[0]
        return None

    def walk(self) -> Iterator[ast.AST]:
        """Every node of this unit's own code, breadth first like ``ast.walk``.

        A class body runs in the unit that defines it. A nested def's body
        is a unit of its own, so only the def's decorators, defaults and
        annotations are walked here.
        """
        todo: deque[ast.AST] = deque(self.node.body)
        while todo:
            node = todo.popleft()
            yield node
            children: Iterator[ast.AST] = ast.iter_child_nodes(node)
            if isinstance(node, _DEFS):
                children = (c for c in children if not isinstance(c, ast.stmt))
            todo.extend(children)


@dataclass
class ClassInfo:
    """One class: its methods by bare name, in definition order."""

    qname: str
    module: str
    name: str
    methods: Dict[str, str] = field(default_factory=dict)  # bare -> fn qname


@dataclass
class ModuleInfo:
    """Per-module symbol state: import aliases, top-level defs among them."""

    ctx: ModuleContext
    aliases: Dict[str, str] = field(default_factory=dict)  # local -> dotted

    @property
    def module(self) -> str:
        return self.ctx.module

    @property
    def package(self) -> str:
        return self.ctx.package


def _params_of(node: FunctionNode) -> Tuple[str, ...]:
    args = node.args
    ordered = [*args.posonlyargs, *args.args]
    names = [a.arg for a in ordered]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    return tuple(names)


def _is_container_annotation(node: ast.expr) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    return dotted_source(node).split(".")[-1] in _CONTAINER_TYPES


def _builds_container(node: ast.expr) -> bool:
    if isinstance(node, _CONTAINER_DISPLAYS):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _CONTAINER_CALLS
    )


def _container_bindings(node: FunctionNode) -> FrozenSet[str]:
    """Targets (``x``, ``self.x``) every binding in ``node`` makes a container.

    A parameter or ``AnnAssign`` counts through its annotation, a plain
    assignment through its value (a display, comprehension or container
    call). Any other binding of the target (an unannotated parameter, a
    loop target, tuple unpacking, ...) disqualifies it.
    """
    containers: Set[str] = set()
    others: Set[str] = set()
    # ids of assignment targets already counted (ast.walk yields an
    # assignment before its targets)
    classified: Set[int] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.arg):
            annotation = sub.annotation
            is_container = annotation is not None and _is_container_annotation(annotation)
            (containers if is_container else others).add(sub.arg)
            continue
        if isinstance(sub, ast.AnnAssign):
            targets, is_container = [sub.target], _is_container_annotation(sub.annotation)
        elif isinstance(sub, ast.Assign):
            targets, is_container = sub.targets, _builds_container(sub.value)
        else:
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Store):
                if id(sub) not in classified:
                    others.add(dotted_source(sub))
            continue
        for target in targets:
            classified.add(id(target))
            (containers if is_container else others).add(dotted_source(target))
    return frozenset(containers - others)


def _nested_scopes(node: ast.AST) -> Iterator[ScopeNode]:
    """The defs and classes in ``node``'s own code, in source order: at any
    statement depth (under ``if``, ``try``, ``match``, ...), but not inside
    another def or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPES):
            yield child
        elif not isinstance(child, ast.expr):  # no expression holds a def
            yield from _nested_scopes(child)


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Resolve a ``from ..x import y`` module reference to a dotted name."""
    parts = module.split(".")
    # level 1 == the current package (strip the module leaf), each extra
    # level strips one more package
    base = parts[: max(len(parts) - level, 0)]
    if target:
        base.append(target)
    return ".".join(base)


class ProjectIndex:
    """The whole-program view the interprocedural rules run over."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        # module key -> the module's code outside every function
        self.module_bodies: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        # bare method name -> sorted fn qnames (the unknown-receiver fallback)
        self.methods_by_name: Dict[str, List[str]] = {}
        # observed repro-package import edges: (from_pkg, to_pkg) -> count
        self.package_edges: Dict[Tuple[str, str], int] = {}
        # module-level import edges for the graph export
        self.module_imports: Dict[str, List[str]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, contexts: Sequence[ModuleContext]) -> "ProjectIndex":
        index = cls()
        for ctx in sorted(contexts, key=lambda c: c.relpath):
            index._index_module(ctx)
        for name in index.methods_by_name:
            index.methods_by_name[name].sort()
        return index

    def _module_key(self, ctx: ModuleContext) -> str:
        # files without a derivable dotted name (rare: out-of-tree scans)
        # are indexed by their relpath so nothing silently disappears
        return ctx.module or ctx.relpath

    def _index_module(self, ctx: ModuleContext) -> None:
        key = self._module_key(ctx)
        info = ModuleInfo(ctx=ctx)
        self.modules[key] = info
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    info.aliases[local] = target
            elif isinstance(stmt, ast.ImportFrom):
                source = (
                    _resolve_relative(key, stmt.level, stmt.module)
                    if stmt.level
                    else (stmt.module or "")
                )
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.aliases[local] = f"{source}.{alias.name}" if source else alias.name
        self._index_scope(ctx, info, ctx.tree, key, cls=None)
        self.module_bodies[key] = FunctionInfo(
            qname=f"{key}.<module>",
            module=key,
            name="<module>",
            class_qname=None,
            node=ctx.tree,
            ctx=ctx,
        )
        # layer edges come from EVERY import in the module, including lazy
        # function-level ones — sec-layering sees those too, so an edge used
        # only inside a function must still count as "observed"
        imports: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                imports.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                source = (
                    _resolve_relative(key, node.level, node.module)
                    if node.level
                    else (node.module or "")
                )
                if source:
                    imports.add(source)
        self.module_imports[key] = sorted(imports)
        self._record_package_edges(info, imports)

    def _record_package_edges(self, info: ModuleInfo, imports: Set[str]) -> None:
        from_pkg = info.package
        if not from_pkg:
            return
        for target in sorted(imports):
            parts = target.split(".")
            if parts[0] != "repro" or len(parts) < 2:
                continue
            to_pkg = parts[1]
            if to_pkg == from_pkg:
                continue
            edge = (from_pkg, to_pkg)
            self.package_edges[edge] = self.package_edges.get(edge, 0) + 1

    def _index_scope(
        self,
        ctx: ModuleContext,
        info: ModuleInfo,
        node: ast.AST,
        prefix: str,
        cls: Optional[ClassInfo],
    ) -> None:
        """Index the defs and classes in ``node``'s own code under ``prefix``
        (the module, the class, or ``<function>.<locals>``), then theirs."""
        key = self._module_key(ctx)
        for child in _nested_scopes(node):
            qname = f"{prefix}.{child.name}"
            if qname in self.functions or qname in self.classes:
                # bound twice (a property and its setter, one def per branch
                # of an `if`): every body stays a unit of its own
                qname = f"{qname}@{child.lineno}"
            if isinstance(child, ast.ClassDef):
                nested = ClassInfo(qname=qname, module=key, name=child.name)
                self.classes[qname] = nested
                self._index_scope(ctx, info, child, qname, cls=nested)
            else:
                self.functions[qname] = FunctionInfo(
                    qname=qname,
                    module=key,
                    name=child.name,
                    class_qname=cls.qname if cls is not None else None,
                    node=child,
                    ctx=ctx,
                    params=_params_of(child),
                    containers=_container_bindings(child),
                )
                if cls is not None:
                    cls.methods[child.name] = qname
                    if not child.name.startswith("__"):
                        self.methods_by_name.setdefault(child.name, []).append(qname)
                self._index_scope(ctx, info, child, f"{qname}.<locals>", cls=None)
            if node is ctx.tree:
                info.aliases.setdefault(child.name, qname)

    # -- queries -------------------------------------------------------------

    def sorted_functions(self) -> List[FunctionInfo]:
        return [self.functions[q] for q in sorted(self.functions)]

    def units(self) -> List[FunctionInfo]:
        """Every function, then every module's own code, each in qname order."""
        bodies = [self.module_bodies[key] for key in sorted(self.module_bodies)]
        return self.sorted_functions() + bodies

    def module_of(self, fn: FunctionInfo) -> Optional[ModuleInfo]:
        return self.modules.get(fn.module)

    def class_of(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        if fn.class_qname is None:
            return None
        return self.classes.get(fn.class_qname)

    def resolve_call(
        self, fn: FunctionInfo, call: ast.Call
    ) -> Tuple[str, ...]:
        """Candidate callee qnames for ``call`` appearing inside ``fn``.

        Returns function qnames and/or class qnames (for constructor
        calls). Empty tuple == unresolved (builtins, dynamic dispatch on
        values we cannot type).
        """
        dotted = dotted_source(call.func)
        if not dotted:
            return ()
        parts = dotted.split(".")
        # self.method(...) -> this class's method when it exists
        if fn.self_name is not None and parts[0] == fn.self_name:
            if len(parts) == 2:
                cls = self.class_of(fn)
                if cls is not None and parts[1] in cls.methods:
                    return (cls.methods[parts[1]],)
                return self._by_method_name(parts[1])
            # self.attr.meth(...): unknown receiver type, unless __init__
            # made the attribute a builtin container
            init = self.functions.get(f"{fn.class_qname}.__init__")
            if len(parts) == 3 and init and f"{init.self_name}.{parts[1]}" in init.containers:
                return ()
            return self._by_method_name(parts[-1])
        if len(parts) == 1:
            # a def nested in this function or an enclosing one shadows the
            # module's names
            scope = fn.qname
            while True:
                local = f"{scope}.<locals>.{dotted}"
                if local in self.functions:
                    return (local,)
                if ".<locals>." not in scope:
                    break
                scope = scope.rsplit(".<locals>.", 1)[0]
        info = self.module_of(fn)
        resolved = self._resolve_dotted(info, parts)
        if resolved:
            return resolved
        if len(parts) == 2 and parts[0] in fn.containers:
            return ()  # a method of a builtin container the function built
        if len(parts) >= 2:
            return self._by_method_name(parts[-1])
        return ()

    def _resolve_dotted(
        self, info: Optional[ModuleInfo], parts: List[str]
    ) -> Tuple[str, ...]:
        if info is None:
            return ()
        base = info.aliases.get(parts[0])
        if base is None:
            return ()
        full = ".".join([base, *parts[1:]])
        if full in self.functions:
            return (full,)
        if full in self.classes:
            # constructor: resolve to __init__ when defined, else the class
            init = self.classes[full].methods.get("__init__")
            return (init or full,)
        # alias points at a class and the call is a method on it
        # (`Channel.open(...)` style) or at a module-level attribute chain
        if base in self.classes and len(parts) == 2:
            method = self.classes[base].methods.get(parts[1])
            if method is not None:
                return (method,)
        return ()

    def expand_name(self, fn: FunctionInfo, dotted: str) -> str:
        """Alias-expand a dotted name (``km.derive_kek`` ->
        ``repro.core.key_management.derive_kek``) without requiring the
        target module to be part of the scanned set."""
        info = self.module_of(fn)
        if info is None or not dotted:
            return dotted
        parts = dotted.split(".")
        base = info.aliases.get(parts[0])
        if base is None:
            return dotted
        return ".".join([base, *parts[1:]])

    def _by_method_name(self, name: str) -> Tuple[str, ...]:
        candidates = self.methods_by_name.get(name, [])
        if 0 < len(candidates) <= _MAX_NAME_CANDIDATES:
            return tuple(candidates)
        return ()

    def iter_calls(self, fn: FunctionInfo) -> Iterator[ast.Call]:
        for node in fn.walk():
            if isinstance(node, ast.Call):
                yield node


__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "FunctionNode",
    "ModuleInfo",
    "ProjectIndex",
]
