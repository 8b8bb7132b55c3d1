"""Rule base class and registry.

A rule declares which AST node types it wants (``node_types``); the runner
performs ONE walk per module and dispatches each node to every interested
rule, so analysis cost stays linear in file size regardless of rule count.
Rules that reason about the whole module at once (e.g. import layering)
implement ``check_module`` instead of / in addition to ``visit``.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Tuple, Type

from repro.analysis.context import ModuleContext
from repro.analysis.finding import Finding


class Rule:
    """One invariant checker. Subclass, set metadata, register."""

    id: str = ""
    family: str = ""  # determinism | security-flow | sim-time | flow
    summary: str = ""
    rationale: str = ""  # which paper invariant this protects
    node_types: Tuple[Type[ast.AST], ...] = ()

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Called for every node whose type is in ``node_types``."""
        return iter(())

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Called once per module, before node dispatch."""
        return iter(())


class ProjectRule(Rule):
    """A whole-program rule: runs once per scan over every parsed module.

    ``check_project`` receives a :class:`repro.analysis.flow.ProjectState`
    (typed ``Any`` here to keep the registry free of flow imports) holding
    the symbol table / call graph and the lazily-computed taint fixpoint.
    Findings still anchor to a file/line, so suppression comments and the
    baseline apply exactly as they do for per-module rules.
    """

    def check_project(self, project: Any) -> Iterator[Finding]:
        return iter(())


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and index the rule by id."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in stable id order."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


_LOADED = False


def _load_builtin_rules() -> None:
    """Import the rule modules exactly once (import side-effect registers)."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    from repro.analysis.flow import rules as flow_rules  # noqa: F401
    from repro.analysis.rules import (  # noqa: F401
        determinism,
        perf,
        recovery,
        resilience,
        security,
        simtime,
    )


__all__ = ["ProjectRule", "Rule", "all_rules", "register"]
