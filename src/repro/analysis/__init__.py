"""repro.analysis — static enforcement of the simulator's core invariants.

The IceClave reproduction stands on three properties that code review alone
cannot guarantee as the codebase grows:

- **bit-determinism** — every run is a pure function of (config, seed); the
  chaos harness proves this dynamically, this package prevents regressions
  statically (no wall clocks, no ``random``, no unordered iteration);
- **security flow** — data crosses the trust boundary only through the
  MEE / cipher-engine path and raw key material stays inside a small,
  auditable set of modules (the paper's TCB argument, §4);
- **sim-time discipline** — simulated time is a float that must never be
  compared with ``==``, and components communicate through the event
  engine rather than poking each other's private state.

On top of the per-module rules, :mod:`repro.analysis.flow` runs a
whole-program pass — project symbol table, call graph, and a taint
fixpoint — powering the interprocedural rule families (secret-escape
reachability, §4.5 exception containment, and layer-DAG drift). See
docs/ANALYSIS.md, "Interprocedural rules".

The package is deliberately dependency-free (stdlib ``ast`` only) so the
checker itself stays outside the simulator's import graph and can never
perturb what it measures.

Entry point: ``python -m repro lint [paths]`` (see :mod:`repro.analysis.cli`).
"""

from __future__ import annotations

from repro.analysis.finding import Finding, FindingStatus
from repro.analysis.registry import ProjectRule, Rule, all_rules
from repro.analysis.runner import AnalysisResult, analyze_paths

__all__ = [
    "AnalysisResult",
    "Finding",
    "FindingStatus",
    "ProjectRule",
    "Rule",
    "all_rules",
    "analyze_paths",
]
