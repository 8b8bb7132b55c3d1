"""Recovery rules.

The checkpoint/restore contract (docs/RECOVERY.md) is that a class
participating in snapshotting — one that declares ``STATE`` in its body, or
defines both ``snapshot_state`` and ``restore_state`` — serializes *every*
piece of mutable state it creates. An attribute initialized to a fresh
list/dict/counter in ``__init__`` but absent from ``STATE`` and both
methods silently resets on restore: the crash-point oracle then sees a
fingerprint mismatch at whichever crash point first exercises it, which is
an expensive way to discover a missing line of serialization. This rule
finds the missing line statically.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.context import ModuleContext
from repro.analysis.finding import Finding
from repro.analysis.registry import Rule, register

# constructor calls that build fresh mutable containers
_MUTABLE_FACTORIES = frozenset(
    {
        "dict",
        "list",
        "set",
        "deque",
        "OrderedDict",
        "defaultdict",
        "Counter",
        "bytearray",
    }
)


def _method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_mutable_initializer(value: ast.expr) -> bool:
    """True for initializers that create fresh, restore-losable state.

    Literals (including scalars like ``0`` — counters are the classic
    forgotten attribute), container displays and comprehensions, and calls
    to the well-known container factories all count. Names, tuples, and
    arbitrary calls do not: those are usually injected collaborators or
    config, which the restore path reconstructs from constructor arguments.
    """
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(value, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Constant):
        return True
    if (
        isinstance(value, ast.UnaryOp)
        and isinstance(value.op, ast.USub)
        and isinstance(value.operand, ast.Constant)
    ):
        return True
    if isinstance(value, ast.Call):
        return _call_name(value) in _MUTABLE_FACTORIES
    return False


def _declared_state(cls: ast.ClassDef) -> Optional[ast.stmt]:
    """The ``STATE = (...)`` assignment in the class body, if any."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "STATE" for t in targets):
            return stmt
    return None


def _mentioned_names(node: ast.AST) -> Set[str]:
    """Attribute names a ``STATE`` declaration or snapshot/restore method
    plausibly serializes.

    Both ``self.X`` accesses and exact string keys count — state dicts are
    keyed by strings, so ``{"cursor": self.cursor}`` mentions ``cursor``
    twice and ``state["cursor"]`` once, and ``STATE = ("_log",)`` names
    ``_log``.
    """
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _self_assignments(init: ast.FunctionDef) -> Iterator[Tuple[str, ast.stmt, ast.expr]]:
    """(attribute, statement, value) for each ``self.X [: T] = value`` in __init__."""
    for stmt in ast.walk(init):
        targets: List[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr, stmt, value


@register
class UnserializedStateRule(Rule):
    """Snapshot-participating classes must serialize every mutable attr."""

    id = "recovery-unserialized-state"
    family = "recovery"
    summary = "mutable attribute missing from STATE or snapshot_state/restore_state"
    rationale = (
        "Checkpoint/restore contract: a class that declares STATE, or has "
        "snapshot_state and restore_state, must round-trip every mutable "
        "attribute it creates in __init__. A forgotten attribute silently "
        "resets on restore and surfaces only as a crash-point oracle "
        "fingerprint mismatch. Either declare the attribute in STATE (or "
        "serialize it in both methods) or waive the line with "
        "`# repro: allow[recovery-unserialized-state] -- why` when the "
        "attribute is derived, diagnostic, or re-armed by its owner."
    )
    node_types = (ast.ClassDef,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ClassDef)
        declared = _declared_state(node)
        methods = [_method(node, "snapshot_state"), _method(node, "restore_state")]
        init = _method(node, "__init__")
        if init is None or (declared is None and None in methods):
            return
        mentioned: Set[str] = set()
        for part in [declared, *methods]:
            if part is not None:
                mentioned |= _mentioned_names(part)
        seen: Set[str] = set()
        for attr, assign, value in _self_assignments(init):
            if attr in seen:
                continue
            seen.add(attr)
            if attr in mentioned:
                continue
            if not _is_mutable_initializer(value):
                continue
            yield ctx.finding(
                self.id,
                assign,
                f"`self.{attr}` is initialized in __init__ but never "
                "appears in STATE or snapshot_state/restore_state; it "
                "silently resets on restore — serialize it or waive with a "
                "reason",
            )


__all__: Tuple[str, ...] = ("UnserializedStateRule",)
