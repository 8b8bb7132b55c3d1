"""Determinism rules.

Every simulator run must be a pure function of (configuration, seed): the
CLI proves it dynamically by fingerprinting chaos runs, the figures pipeline
relies on it for reproducibility, and PR 1's recovery tests replay fault
plans byte-for-byte. These rules keep the classic leaks out: ambient
randomness, wall-clock reads, iteration orders that depend on object
identity or hash seeds, and seeded paths (fleet placement, search
mutation) that draw from no seed.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, Set, Tuple

from repro.analysis.context import ModuleContext, dotted_source, parent_of
from repro.analysis.finding import Finding
from repro.analysis.registry import Rule, register

_SEEDED_ALTERNATIVE = "use repro.crypto.prng.XorShift64 with an explicit seed"


# entropy modules: every read is fresh OS randomness, unreplayable by design
_ENTROPY_MODULES = ("random", "secrets")


@register
class ImportRandomRule(Rule):
    """Ban ambient entropy: ``random``, ``secrets``, ``os.urandom``, uuid4."""

    id = "det-import-random"
    family = "determinism"
    summary = "ambient entropy source used instead of the seeded XorShift64"
    rationale = (
        "Bit-determinism (chaos fingerprints, §6 methodology): `random` is "
        "process-global state, and `secrets`/`os.urandom()`/`uuid.uuid4()` "
        "read OS entropy that can never be replayed; a single call "
        "diverges every run. Even key material must come from the seeded "
        "derivation chain so campaigns stay byte-identical."
    )
    node_types = (ast.Import, ast.ImportFrom, ast.Attribute, ast.Call)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _ENTROPY_MODULES:
                    yield ctx.finding(
                        self.id, node,
                        f"import of `{root}`; {_SEEDED_ALTERNATIVE}",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level == 0 and root in _ENTROPY_MODULES:
                yield ctx.finding(
                    self.id, node, f"import from `{root}`; {_SEEDED_ALTERNATIVE}"
                )
            elif node.level == 0 and root == "uuid":
                random_uuids = [
                    alias.name for alias in node.names
                    if alias.name in ("uuid1", "uuid4")
                ]
                if random_uuids:
                    yield ctx.finding(
                        self.id, node,
                        f"imports entropy-backed {', '.join(random_uuids)} "
                        f"from `uuid`; {_SEEDED_ALTERNATIVE}",
                    )
        elif isinstance(node, ast.Call):
            yield from self._check_entropy_call(node, ctx)
        elif isinstance(node, ast.Attribute):
            if node.attr == "random" and isinstance(node.value, ast.Name):
                if node.value.id in ("numpy", "np") and not _is_seeded_rng(node):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"`{node.value.id}.random` global state is unseeded; "
                        "use np.random.default_rng(seed) or "
                        f"{_SEEDED_ALTERNATIVE}",
                    )

    def _check_entropy_call(
        self, node: ast.Call, ctx: ModuleContext
    ) -> Iterator[Finding]:
        dotted = dotted_source(node.func)
        if not dotted:
            return
        parts = dotted.split(".")
        if parts[0] == "os" and parts[-1] == "urandom":
            yield ctx.finding(
                self.id, node,
                f"`{dotted}()` reads OS entropy (unreplayable); "
                f"{_SEEDED_ALTERNATIVE}",
            )
        elif parts[0] == "uuid" and parts[-1] in ("uuid1", "uuid4"):
            yield ctx.finding(
                self.id, node,
                f"`{dotted}()` is entropy/host-state backed; derive ids "
                f"from the run seed instead ({_SEEDED_ALTERNATIVE})",
            )


def _is_seeded_rng(node: ast.Attribute) -> bool:
    """True for `np.random.default_rng(<explicit seed>)`: deterministic."""
    parent = parent_of(node)
    if not (isinstance(parent, ast.Attribute) and parent.attr == "default_rng"):
        return False
    call = parent_of(parent)
    return (
        isinstance(call, ast.Call)
        and call.func is parent
        and bool(call.args or call.keywords)
    )


_WALLCLOCK_CALLS = {
    "time": ("time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns"),
    "datetime": ("now", "utcnow", "today"),
    "date": ("today",),
}


@register
class WallClockRule(Rule):
    """Ban wall-clock reads; sim time comes from Engine.now."""

    id = "det-wallclock"
    family = "determinism"
    summary = "wall-clock read (`time.time()`, `datetime.now()`, ...)"
    rationale = (
        "Bit-determinism: host time leaking into schedules, stats or logs "
        "makes two identical runs diverge; simulated time is Engine.now."
    )
    node_types = (ast.Call, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module == "time":
                clocky = [
                    alias.name
                    for alias in node.names
                    if alias.name in _WALLCLOCK_CALLS["time"]
                ]
                if clocky:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"imports wall-clock function(s) {', '.join(clocky)} "
                        "from `time`; sim time must come from Engine.now",
                    )
            return
        assert isinstance(node, ast.Call)
        dotted = dotted_source(node.func)
        if not dotted:
            return
        parts = dotted.split(".")
        leaf = parts[-1]
        for base, leaves in _WALLCLOCK_CALLS.items():
            if leaf in leaves and base in parts[:-1]:
                yield ctx.finding(
                    self.id,
                    node,
                    f"wall-clock call `{dotted}()`; sim time must come from "
                    "Engine.now (host time breaks run fingerprints)",
                )
                return


def _lambda_calls_id(func: ast.expr) -> bool:
    if not isinstance(func, ast.Lambda):
        return False
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Name)
        and sub.func.id == "id"
        for sub in ast.walk(func.body)
    )


@register
class IdOrderingRule(Rule):
    """Ban `id()` as an ordering key: CPython addresses vary per process."""

    id = "det-id-order"
    family = "determinism"
    summary = "`id()` used to order or compare objects"
    rationale = (
        "Bit-determinism: object addresses differ across processes; any "
        "order derived from id() reshuffles event/fault sequences per run."
    )
    node_types = (ast.Call, ast.Compare)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            callee = dotted_source(node.func)
            if callee.split(".")[-1] not in ("sorted", "sort", "min", "max"):
                return
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                value = keyword.value
                uses_id = (
                    isinstance(value, ast.Name) and value.id == "id"
                ) or _lambda_calls_id(value)
                if uses_id:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"`{callee}(..., key=id)` orders by object address, "
                        "which changes every process; key on stable fields",
                    )
        elif isinstance(node, ast.Compare):
            ordered_ops = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
            if not any(isinstance(op, ordered_ops) for op in node.ops):
                return
            for operand in [node.left, *node.comparators]:
                if (
                    isinstance(operand, ast.Call)
                    and isinstance(operand.func, ast.Name)
                    and operand.func.id == "id"
                ):
                    yield ctx.finding(
                        self.id,
                        node,
                        "ordering comparison on `id(...)`: object addresses "
                        "are not stable across runs",
                    )
                    return


def _is_unordered(expr: ast.expr) -> bool:
    """Set displays, set comprehensions, and `set(...)` calls."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in ("set", "frozenset"):
            return True
    return False


@register
class UnorderedIterationRule(Rule):
    """Ban direct iteration over sets: order is hash-seed dependent."""

    id = "det-unordered-iter"
    family = "determinism"
    summary = "iteration over a set (hash-order) without sorted()"
    rationale = (
        "Bit-determinism: set order depends on PYTHONHASHSEED for str keys; "
        "anything it feeds — Engine.schedule order, fault plans, event logs, "
        "GC victim picks — silently diverges between runs. Iterate "
        "sorted(...) instead."
    )
    node_types = (ast.For, ast.comprehension, ast.Call)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.For):
            if _is_unordered(node.iter):
                yield ctx.finding(
                    self.id,
                    node.iter,
                    "for-loop over a set iterates in hash order; wrap in "
                    "sorted(...) so downstream schedules stay deterministic",
                )
        elif isinstance(node, ast.comprehension):
            if _is_unordered(node.iter):
                yield ctx.finding(
                    self.id,
                    node.iter,
                    "comprehension over a set iterates in hash order; wrap "
                    "in sorted(...)",
                )
        elif isinstance(node, ast.Call):
            callee = node.func
            if (
                isinstance(callee, ast.Name)
                and callee.id in ("list", "tuple", "enumerate")
                and len(node.args) == 1
                and _is_unordered(node.args[0])
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    f"`{callee.id}(set)` freezes a hash-dependent order; "
                    "use sorted(...) to fix the sequence",
                )


# package -> (functions that must be replayable from a seed, the names
# that show one); a property getter reports state and is exempt
_SEEDED_PATHS: Dict[str, Tuple[re.Pattern[str], FrozenSet[str]]] = {
    # fleet placement: shard routing, rebalance, rebuild
    "fleet": (
        re.compile(r"route|rebalance|rebuild", re.IGNORECASE),
        frozenset({"now", "clock", "engine", "rng", "prng", "seed"}),
    ),
    # search genome operators: mutation, recombination, sampling
    "search": (
        re.compile(r"mutate|crossover|sample|select|breed", re.IGNORECASE),
        frozenset({"rng", "prng"}),
    ),
}


def _referenced_names(node: ast.FunctionDef) -> Set[str]:
    """Every parameter, name and attribute the function mentions."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.arg):
            names.add(sub.arg)
    return names


def _is_property(node: ast.FunctionDef) -> bool:
    return any(
        dotted_source(decorator).split(".")[-1] in ("property", "cached_property")
        for decorator in node.decorator_list
    )


@register
class UnseededPathRule(Rule):
    """Fleet placement and search operators draw only from the run's seed."""

    id = "det-unseeded-path"
    family = "determinism"
    summary = "seeded path (fleet placement, search operator) without a seed"
    rationale = (
        "Bit-determinism of the fleet fingerprint and of search-corpus "
        "replay: replica placement and every genome mutation must be a pure "
        "function of (seed, sim time). Builtin hash() folds in "
        "PYTHONHASHSEED, an unseeded XorShift64() draws from the shared "
        "default stream, and a route/rebalance/rebuild or "
        "mutate/crossover/sample/select/breed function that names no "
        "seeded PRNG or sim clock is ambient by construction."
    )
    node_types = (ast.Call, ast.FunctionDef)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        path = _SEEDED_PATHS.get(ctx.package)
        if path is None:
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "hash":
                yield ctx.finding(
                    self.id,
                    node,
                    "builtin hash() depends on PYTHONHASHSEED; mix keys with "
                    "a seeded function (repro.fleet.topology.seeded_mix)",
                )
            elif node.func.id == "XorShift64" and not node.args and not node.keywords:
                yield ctx.finding(
                    self.id,
                    node,
                    "XorShift64() without an explicit seed draws from the "
                    "shared default stream; thread the run's PRNG or derive "
                    "a seed from the run seed",
                )
        elif isinstance(node, ast.FunctionDef):
            pattern, tokens = path
            if not pattern.search(node.name) or _is_property(node):
                return
            if _referenced_names(node) & tokens:
                return
            yield ctx.finding(
                self.id,
                node,
                f"`{node.name}` references no seeded PRNG or sim clock "
                f"(expected one of: {', '.join(sorted(tokens))}); it must be "
                "replayable from the run seed",
            )


__all__: Tuple[str, ...] = (
    "IdOrderingRule",
    "ImportRandomRule",
    "UnorderedIterationRule",
    "UnseededPathRule",
    "WallClockRule",
)
