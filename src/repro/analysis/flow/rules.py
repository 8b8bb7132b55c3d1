"""The interprocedural rule families built on the flow fixpoint.

Three whole-program rules, all anchored back to concrete file/line findings
so waivers and the baseline work unchanged:

- ``flow-secret-escape``: a value derived from key material (a key-minting
  call, or a read of a secret-shaped name, followed through the taint
  fixpoint) reaches a telemetry sink — directly or through a call whose
  summary says the parameter escapes;
- ``flow-exception-containment``: a broad except anywhere must re-raise or
  (transitively) reach the §4.5 ThrowOutTEE abort path, otherwise it
  swallows a detected attack;
- ``flow-layer-drift``: the documented ``LAYER_ALLOWED`` DAG is diffed
  against the *observed* import graph; a granted edge no import uses is
  stale trust that silently widens the TCB.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, Optional, Set

from repro.analysis.context import dotted_source
from repro.analysis.finding import Finding
from repro.analysis.registry import ProjectRule, register
from repro.analysis.flow.summaries import (
    ABORT_CALL_NAMES,
    FlowAnalysis,
    iter_source_events,
)
from repro.analysis.flow.symbols import FunctionInfo, ProjectIndex
from repro.analysis.rules.security import LAYER_ALLOWED


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
        "§4.4/§7: the MEE's guarantee dies if keys or keystream leak through "
        "output we built ourselves — event logs, stats, CSV exporters are "
        "attacker-readable. A secret starts at derive_kek/keystream output "
        "or at any read of a secret-shaped name (aes_key, channel_key, otp, "
        "...); the taint fixpoint follows it through renames, assignments, "
        "calls, containers and returns, so a secret renamed once, returned "
        "from a helper or passed through a parameter still reaches the sink "
        "in the finding."
    )

    def check_project(self, project: Any) -> Iterator[Finding]:
        flow: FlowAnalysis = project.flow
        for fn, event in iter_source_events(flow):
            origins = _describe_origins(iter(event.origins))
            yield fn.ctx.finding(
                self.id,
                event.node,
                f"`{event.label}` is derived from key material ({origins}) "
                f"and reaches telemetry sink {event.sink}; seal or drop the "
                "value before it leaves the TCB",
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
    """A broad except must re-raise or reach the §4.5 abort path."""

    id = "flow-exception-containment"
    family = "flow"
    summary = "broad except that neither re-raises nor reaches ThrowOutTEE"
    rationale = (
        "§4.5: any in-enclave fault must surface as ThrowOutTEE/TeeAbort so "
        "the host can destroy the enclave, and a broad `except` can swallow "
        "IntegrityError/TeeAbort and turn a detected attack into a handled "
        "error. A broad handler is acceptable exactly when it re-raises or "
        "calls something the call-graph fixpoint proves reaches the abort "
        "helper, so the intentional §4.5 catch-alls need no waiver."
    )

    def check_project(self, project: Any) -> Iterator[Finding]:
        index: ProjectIndex = project.index
        flow: FlowAnalysis = project.flow
        for fn in index.units():
            for node in fn.walk():
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
