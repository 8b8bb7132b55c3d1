"""The interprocedural rule families built on the flow fixpoint.

Three whole-program rules, all anchored back to concrete file/line findings
so waivers and the baseline work unchanged:

- ``flow-secret-escape``: a value *provably derived* from key material
  (taint fixpoint, not name matching) reaches a telemetry sink — directly
  or through a call whose summary says the parameter escapes;
- ``flow-exception-containment``: a broad except inside the enclave
  dispatch packages must re-raise or (transitively) reach the §4.5
  ThrowOutTEE abort path, otherwise it swallows a detected attack;
- ``flow-layer-drift``: the documented ``LAYER_ALLOWED`` DAG is diffed
  against the *observed* import graph; a granted edge no import uses is
  stale trust that silently widens the TCB.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, Optional, Set, Tuple

from repro.analysis.context import dotted_source
from repro.analysis.finding import Finding
from repro.analysis.registry import ProjectRule, register
from repro.analysis.flow.summaries import (
    ABORT_CALL_NAMES,
    FlowAnalysis,
    iter_source_events,
)
from repro.analysis.flow.symbols import FunctionInfo, ProjectIndex
from repro.analysis.rules.security import LAYER_ALLOWED, _secret_names


def _describe_origins(origins: Iterator[str]) -> str:
    sources = sorted(o[len("source:"):] for o in origins if o.startswith("source:"))
    return ", ".join(sources[:3])


@register
class FlowSecretEscapeRule(ProjectRule):
    """Taint-tracked key material must never reach a telemetry sink."""

    id = "flow-secret-escape"
    family = "flow"
    summary = "value derived from key material reaches a telemetry sink"
    rationale = (
        "§4.4/§7: `sec-telemetry-leak` only matches key-shaped *names*; a "
        "secret renamed once, returned from a helper, or passed through a "
        "parameter is invisible to it. The taint fixpoint follows the value "
        "through assignments, calls, containers and returns, so the finding "
        "is a real reachability claim: this expression's bytes derive from "
        "derive_kek/unwrap_key/keystream output."
    )

    def check_project(self, project: Any) -> Iterator[Finding]:
        flow: FlowAnalysis = project.flow
        for fn, event in iter_source_events(flow):
            if " via " not in event.sink and self._name_heuristic_covers(event.node):
                # sec-telemetry-leak already reports this exact sink; one
                # finding per leak keeps reports and fixtures unambiguous
                continue
            origins = _describe_origins(iter(event.origins))
            yield fn.ctx.finding(
                self.id,
                event.node,
                f"`{event.label}` is derived from key material ({origins}) "
                f"and reaches telemetry sink {event.sink}; seal or drop the "
                "value before it leaves the TCB",
            )

    @staticmethod
    def _name_heuristic_covers(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            for _name in _secret_names(arg):
                return True
        return False


# packages whose dispatch paths sit inside / in front of the enclave
_CONTAINMENT_PREFIXES: Tuple[str, ...] = (
    "repro.core.",
    "repro.host.",
    "repro.serve.",
)


def _broad_handler(handler: ast.ExceptHandler) -> Optional[str]:
    type_node = handler.type
    if type_node is None:
        return "bare `except:`"
    names = (
        [dotted_source(e) for e in type_node.elts]
        if isinstance(type_node, ast.Tuple)
        else [dotted_source(type_node)]
    )
    for name in names:
        if name in ("Exception", "BaseException"):
            return f"`except {name}`"
    return None


@register
class FlowExceptionContainmentRule(ProjectRule):
    """Broad excepts in enclave dispatch must reach the §4.5 abort path."""

    id = "flow-exception-containment"
    family = "flow"
    summary = "broad except in enclave dispatch that never reaches ThrowOutTEE"
    rationale = (
        "§4.5: any in-enclave fault must surface as ThrowOutTEE/TeeAbort so "
        "the host can destroy the enclave; `sec-broad-except` flags the "
        "*syntax*, this rule checks the *semantics* — a broad handler is "
        "acceptable exactly when every path through it re-raises or calls "
        "something the call-graph fixpoint proves reaches the abort helper."
    )

    def check_project(self, project: Any) -> Iterator[Finding]:
        index: ProjectIndex = project.index
        flow: FlowAnalysis = project.flow
        for fn in index.sorted_functions():
            if not fn.module.startswith(_CONTAINMENT_PREFIXES):
                continue
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                broad = _broad_handler(node)
                if broad is None:
                    continue
                if self._handler_contained(node, fn, index, flow):
                    continue
                yield fn.ctx.finding(
                    self.id,
                    node,
                    f"{broad} in `{fn.qname}` swallows the fault: no path "
                    "through the handler re-raises or reaches the §4.5 "
                    "abort helper (throw_out_tee / raise TeeAbort)",
                )

    @staticmethod
    def _handler_contained(
        handler: ast.ExceptHandler,
        fn: FunctionInfo,
        index: ProjectIndex,
        flow: FlowAnalysis,
    ) -> bool:
        for sub in ast.walk(handler):
            if isinstance(sub, ast.Raise):
                return True
            if isinstance(sub, ast.Call):
                leaf = dotted_source(sub.func).split(".")[-1]
                if leaf in ABORT_CALL_NAMES:
                    return True
                for qname in index.resolve_call(fn, sub):
                    summary = flow.summaries.get(qname)
                    if summary is not None and summary.reaches_abort:
                        return True
        return False


@register
class FlowLayerDriftRule(ProjectRule):
    """Documented layer grants must match the observed import graph."""

    id = "flow-layer-drift"
    family = "flow"
    summary = "LAYER_ALLOWED grants an import edge no module uses"
    rationale = (
        "The layering DAG is the architecture document the SoK small-TCB "
        "argument leans on. `sec-layering` catches imports *outside* the "
        "grants; this rule catches the dual failure — a grant the code no "
        "longer exercises. Stale grants are pre-approved attack surface: "
        "the next import along that edge sails through review silently."
    )

    def check_project(self, project: Any) -> Iterator[Finding]:
        index: ProjectIndex = project.index
        present: Set[str] = set()
        anchors: Dict[str, str] = {}  # package -> first module key (sorted)
        for key in sorted(index.modules):
            pkg = index.modules[key].package
            if not pkg:
                continue
            present.add(pkg)
            anchors.setdefault(pkg, key)
        observed = set(index.package_edges)
        for pkg in sorted(LAYER_ALLOWED):
            # only judge edges where both endpoints are in the scanned tree:
            # a partial scan (one fixture, one subpackage) proves nothing
            if pkg not in present:
                continue
            for dep in sorted(LAYER_ALLOWED[pkg]):
                if dep not in present or (pkg, dep) in observed:
                    continue
                ctx = index.modules[anchors[pkg]].ctx
                yield ctx.finding(
                    self.id,
                    ctx.tree,
                    f"LAYER_ALLOWED grants repro.{pkg} -> repro.{dep} but no "
                    "import in the scanned tree uses the edge; prune the "
                    "stale grant (architecture drift)",
                )


__all__ = [
    "FlowExceptionContainmentRule",
    "FlowLayerDriftRule",
    "FlowSecretEscapeRule",
]
