"""Performance rules.

The PR trajectory's profiling work (see docs/PERFORMANCE.md) found the two
patterns that repeatedly dominated hot-path cost in the event kernel and
the MEE replay: quadratic ``bytes += ...`` accumulation (every append
copies the whole buffer) and per-iteration object construction in loops
that run once per simulated event. These rules keep both patterns from
creeping back into the packages the profiler identified as hot — ``sim``,
``core`` and ``crypto``. Cold paths that allocate deliberately carry a
justified ``# repro: allow[perf-hot-loop-alloc]`` waiver.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple, Union

from repro.analysis.context import ModuleContext, dotted_source, parent_of
from repro.analysis.finding import Finding
from repro.analysis.registry import Rule, register

# Packages whose loops sit on the per-event hot path.
HOT_PACKAGES = frozenset({"core", "crypto", "sim"})

_LoopNode = Union[ast.For, ast.While]


def _enclosing_loop(node: ast.AST) -> Optional[_LoopNode]:
    """Nearest For/While ancestor within the same function body.

    Stops at function boundaries: a closure defined inside a loop runs
    when *called*, not once per iteration.
    """
    current = parent_of(node)
    while current is not None:
        if isinstance(current, (ast.For, ast.While)):
            return current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return None
        current = parent_of(current)
    return None


def _produces_bytes(expr: ast.expr) -> bool:
    """Conservatively true for expressions that build a fresh bytes object."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, bytes):
        return True
    if isinstance(expr, ast.Call):
        dotted = dotted_source(expr.func)
        leaf = dotted.split(".")[-1] if dotted else ""
        return leaf in ("bytes", "bytearray", "to_bytes", "pack")
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        return _produces_bytes(expr.left) or _produces_bytes(expr.right)
    return False


def _is_constructor_name(name: str) -> bool:
    """CamelCase heuristic: class constructors, not ALL_CAPS constants."""
    return (
        bool(name)
        and name[0].isupper()
        and any(ch.islower() for ch in name)
    )


@register
class HotLoopAllocRule(Rule):
    """Ban per-iteration buffer growth and object construction in hot loops."""

    id = "perf-hot-loop-alloc"
    family = "perf"
    summary = "bytes concatenation or object allocation inside a hot loop"
    rationale = (
        "Host throughput (perfbench ops_per_s): `buf += chunk` "
        "copies the whole buffer every iteration (quadratic), and a fresh "
        "object per simulated event dominated MEE replay time before the "
        "allocation-free fast path. Batch chunks and b''.join them; hoist "
        "or pool per-event objects."
    )
    node_types = (ast.AugAssign, ast.Call)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.package not in HOT_PACKAGES:
            return
        if _enclosing_loop(node) is None:
            return
        if isinstance(node, ast.AugAssign):
            if isinstance(node.op, ast.Add) and _produces_bytes(node.value):
                yield ctx.finding(
                    self.id,
                    node,
                    "bytes `+=` in a loop copies the whole buffer each "
                    "iteration; collect chunks in a list and b''.join once",
                )
            return
        assert isinstance(node, ast.Call)
        parent = parent_of(node)
        if isinstance(parent, ast.Raise):
            # raising ends the loop's fast path; not a per-iteration cost
            return
        dotted = dotted_source(node.func)
        leaf = dotted.split(".")[-1] if dotted else ""
        if _is_constructor_name(leaf):
            yield ctx.finding(
                self.id,
                node,
                f"`{dotted}(...)` constructs an object every loop iteration "
                "on a hot path; hoist it out of the loop or accumulate into "
                "locals and build the object once",
            )


__all__: Tuple[str, ...] = ("HotLoopAllocRule",)
