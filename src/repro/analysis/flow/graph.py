"""`repro lint --graph`: export the computed call graph + layer DAG.

The export is a single deterministic JSON document (sorted keys, sorted
lists) so CI can diff two runs byte-for-byte and archive the artifact:

- ``modules``: every scanned module and what it imports;
- ``call_graph``: resolved callee candidates per function (the edges the
  taint fixpoint actually propagated along);
- ``layers``: the observed `repro.<pkg> -> repro.<pkg>` edges with use
  counts, the documented ``LAYER_ALLOWED`` DAG, and the two drift sets —
  ``undocumented`` (observed but not granted: `sec-layering` findings) and
  ``unused_grants`` (granted but never observed: `flow-layer-drift`
  findings);
- ``key_tcb``: the scanned modules the key TCB admits (those
  `sec-key-containment` lets hold keys and cipher primitives) and their
  total line count — the size of the trusted code, tracked so it can
  only grow on purpose.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Set

from repro.analysis.flow.symbols import ProjectIndex
from repro.analysis.rules.security import LAYER_ALLOWED, _in_key_tcb

GRAPH_VERSION = 2


def build_graph(index: ProjectIndex) -> Dict[str, Any]:
    call_graph: Dict[str, List[str]] = {}
    for fn in index.sorted_functions():
        callees: Set[str] = set()
        for call in index.iter_calls(fn):
            callees.update(index.resolve_call(fn, call))
        if callees:
            call_graph[fn.qname] = sorted(callees)

    present = {
        info.package for info in index.modules.values() if info.package
    }
    observed = [
        {"from": pkg, "to": dep, "imports": count}
        for (pkg, dep), count in sorted(index.package_edges.items())
    ]
    documented = {
        pkg: sorted(deps) for pkg, deps in sorted(LAYER_ALLOWED.items())
    }
    undocumented = sorted(
        f"{pkg} -> {dep}"
        for (pkg, dep) in index.package_edges
        if pkg in LAYER_ALLOWED and dep not in LAYER_ALLOWED[pkg]
    )
    unused_grants = sorted(
        f"{pkg} -> {dep}"
        for pkg, deps in LAYER_ALLOWED.items()
        if pkg in present
        for dep in deps
        if dep in present and (pkg, dep) not in index.package_edges
    )
    key_tcb = [
        (key, len(info.ctx.lines))
        for key, info in sorted(index.modules.items())
        if _in_key_tcb(info.ctx)
    ]
    return {
        "version": GRAPH_VERSION,
        "modules": {key: list(imports) for key, imports in sorted(index.module_imports.items())},
        "call_graph": call_graph,
        "layers": {
            "observed": observed,
            "documented": documented,
            "undocumented": undocumented,
            "unused_grants": unused_grants,
        },
        "key_tcb": {
            "modules": [key for key, _ in key_tcb],
            "lines": sum(lines for _, lines in key_tcb),
        },
    }


def render_graph(index: ProjectIndex) -> str:
    return json.dumps(build_graph(index), indent=2, sort_keys=True) + "\n"


__all__ = ["GRAPH_VERSION", "build_graph", "render_graph"]
