"""File collection, single-pass AST dispatch, and finding disposition."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Type

from repro.analysis.baseline import Baseline
from repro.analysis.context import ModuleContext
from repro.analysis.finding import (
    Finding,
    FindingStatus,
    PARSE_ERROR_RULE,
    UNJUSTIFIED_SUPPRESSION_RULE,
)
from repro.analysis.flow import ProjectState
from repro.analysis.flow.symbols import ProjectIndex
from repro.analysis.registry import ProjectRule, Rule, all_rules


@dataclass
class AnalysisResult:
    """Findings plus enough bookkeeping for reporters and exit codes."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    # whole-program state (symbol table / call graph / taint fixpoint);
    # populated whenever project rules ran or the caller asked for it
    project: Optional[ProjectState] = None

    @property
    def new_findings(self) -> List[Finding]:
        return [f for f in self.findings if f.status is FindingStatus.NEW]

    @property
    def exit_code(self) -> int:
        return 1 if self.new_findings else 0


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Sorted, deterministic traversal; hidden dirs and caches skipped."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for sub in sorted(path.rglob("*.py")):
            if any(
                part.startswith(".") or part == "__pycache__"
                for part in sub.parts
            ):
                continue
            yield sub


def _relpath(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def _dispatch(rules: Sequence[Rule], ctx: ModuleContext) -> Iterator[Finding]:
    interest: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in rules:
        yield from rule.check_module(ctx)
        for node_type in rule.node_types:
            interest.setdefault(node_type, []).append(rule)
    for node in ast.walk(ctx.tree):
        for rule in interest.get(type(node), ()):
            yield from rule.visit(node, ctx)


def _disposition(ctx: ModuleContext, finding: Finding) -> Finding:
    suppression = ctx.suppression_for(finding.rule, finding.line)
    if suppression is not None:
        return finding.with_status(
            FindingStatus.SUPPRESSED, justification=suppression.reason
        )
    return finding


def _suppression_hygiene(ctx: ModuleContext) -> Iterator[Finding]:
    for suppression in ctx.suppressions:
        if not suppression.reason:
            yield Finding(
                rule=UNJUSTIFIED_SUPPRESSION_RULE,
                path=ctx.relpath,
                line=suppression.line,
                col=1,
                message=(
                    "suppression without a justification; write "
                    "`# repro: allow[rule-id] -- why this is intentional`"
                ),
                line_text=ctx.line_text(suppression.line),
            )


def _apply_baseline(
    baseline: Optional[Baseline], findings: List[Finding]
) -> List[Finding]:
    if baseline is None:
        return findings
    return [
        finding.with_status(FindingStatus.BASELINED)
        if finding.status is FindingStatus.NEW and baseline.consume(finding)
        else finding
        for finding in findings
    ]


def analyze_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    baseline: Optional[Baseline] = None,
    rules: Optional[Sequence[Rule]] = None,
    need_project: bool = False,
) -> AnalysisResult:
    """Run every rule over every Python file under ``paths``.

    ``root`` anchors the relative paths used in reports and baseline keys.
    ``baseline`` (if given) absorbs known findings instead of failing them.
    ``need_project`` forces the whole-program index to be built (and kept
    on the result) even when no project rule is active — the `--graph`
    export path.
    """
    active_rules = list(rules) if rules is not None else all_rules()
    if baseline is not None:
        baseline.reset()
    result = AnalysisResult()
    contexts: List[ModuleContext] = []
    for path in iter_python_files(paths):
        result.files_scanned += 1
        relpath = _relpath(path, root)
        try:
            ctx = ModuleContext.parse(path, relpath)
        except SyntaxError as exc:
            result.findings.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        contexts.append(ctx)
        module_findings = [
            _disposition(ctx, finding) for finding in _dispatch(active_rules, ctx)
        ]
        module_findings.extend(_suppression_hygiene(ctx))
        result.findings.extend(_apply_baseline(baseline, module_findings))

    # whole-program pass: one ProjectState shared by every project rule,
    # findings dispositioned through their module's suppressions/baseline
    project_rules = [r for r in active_rules if isinstance(r, ProjectRule)]
    if contexts and (project_rules or need_project):
        state = ProjectState(index=ProjectIndex.build(contexts))
        result.project = state
        ctx_by_path = {ctx.relpath: ctx for ctx in contexts}
        project_findings: List[Finding] = []
        for rule in project_rules:
            for finding in rule.check_project(state):
                owner = ctx_by_path.get(finding.path)
                project_findings.append(
                    _disposition(owner, finding) if owner else finding
                )
        result.findings.extend(_apply_baseline(baseline, project_findings))

    result.findings.sort(key=Finding.sort_key)
    return result


__all__ = ["AnalysisResult", "analyze_paths", "iter_python_files"]
