"""Per-function dataflow summaries and the project-wide taint fixpoint.

The flow rules need to know, for every function in the project:

- does calling it *produce* key material (``returns_secret``) — e.g.
  ``derive_kek`` intrinsically, or any helper that returns a value derived
  from one;
- which parameters flow through to the return value (``taint_through``),
  so a caller's secret stays tracked across the call;
- which parameters escape into a telemetry sink inside the callee or
  anything it calls (``params_to_sink``) — the interprocedural half of
  ``flow-secret-escape``;
- whether the function (transitively) reaches the §4.5 abort path
  (``reaches_abort``) — the interprocedural half of
  ``flow-exception-containment``.

Summaries are computed by a monotone fixpoint over the call graph: each
pass re-evaluates every function body against the current summaries of its
callees and stops when nothing grows. Within a body the evaluator is a
small abstract interpreter over an environment mapping variable names (and
``self.attr`` paths) to *origin sets* — ``param:<i>`` for values derived
from a parameter, ``source:<what>`` for values derived from real key
material: the output of a key-minting call, or any read of a secret-shaped
name or attribute (``SECRET_NAMES``). Class attributes assigned a
source-tainted value anywhere become secret attributes of that class,
seeding every other method (this is how a key renamed into
``self._seal_key`` once stays tracked everywhere).

Every def is a unit, nested ones included, and so is each module's code
outside its defs (with its class bodies), evaluated like a function that
nothing calls. A lambda's body is evaluated where the lambda stands.

Declassification: in this codebase ciphertext is always produced by XOR
against a fresh keystream (counter-mode MEE, Trivium, the serve channel),
and MAC tags / hash digests are public by construction. The evaluator
therefore stops taint at ``^`` and at ``hashlib``/``hmac``/``digest``
boundaries — the sealed envelope is the *point* of the TCB, not a leak.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.context import dotted_source
from repro.analysis.flow.symbols import FunctionInfo, ProjectIndex
from repro.analysis.rules.security import SECRET_NAMES

Origins = FrozenSet[str]
_EMPTY: Origins = frozenset()

# -- what counts as a secret ------------------------------------------------

# calls that *mint* key material, by resolved qualified name
SECRET_SOURCE_QNAMES: FrozenSet[str] = frozenset(
    {
        "repro.core.key_management.derive_kek",
        "repro.serve.session._keystream",
    }
)
# constructing one of these wraps a key: the object itself is secret-bearing
SECRET_CLASS_QNAMES: FrozenSet[str] = frozenset(
    {
        "repro.crypto.aes.AES128",
        "repro.crypto.trivium_fast.TriviumFast",
    }
)
# methods that emit keystream/plaintext from a secret-bearing receiver
SECRET_METHODS: FrozenSet[str] = frozenset({"keystream"})

# taint survives `.hex()` / `.decode()` style re-encodings of the same bytes
_PROPAGATING_METHODS: FrozenSet[str] = frozenset(
    {"hex", "decode", "encode", "copy", "keystream", "to_bytes", "tobytes"}
)
# calls through these never launder a usable secret out (lengths, type
# checks, MACs/digests — public by construction)
_STOPPER_ROOTS: FrozenSet[str] = frozenset(
    {"len", "isinstance", "issubclass", "bool", "type", "id", "hash",
     "range", "enumerate", "hashlib", "hmac", "callable", "getattr"}
)
_STOPPER_METHODS: FrozenSet[str] = frozenset(
    {"digest", "hexdigest", "verify", "compare_digest"}
)

# syntax nodes that hold no expression: operators, contexts, import names
_NO_PARTS = (ast.expr_context, ast.boolop, ast.operator, ast.unaryop, ast.cmpop, ast.alias)

# the §4.5 abort surface: ThrowOutTEE and the per-layer abort helpers
ABORT_CALL_NAMES: FrozenSet[str] = frozenset({"throw_out_tee"})
ABORT_EXC_NAMES: FrozenSet[str] = frozenset({"TeeAbort"})


@dataclass(frozen=True)
class SinkEvent:
    """A tainted value reaching a telemetry sink (directly or via a call)."""

    node: ast.AST  # call node to anchor the finding / summary on
    sink: str  # human description ("print()", "via repro.x.y param `v`")
    origins: Origins
    label: str  # best-effort name of the leaking expression


@dataclass
class FunctionSummary:
    """The caller-visible dataflow behaviour of one function."""

    returns_secret: bool = False
    taint_through: FrozenSet[int] = _EMPTY  # type: ignore[assignment]
    params_to_sink: Tuple[Tuple[int, str], ...] = ()
    reaches_abort: bool = False

    def sink_params(self) -> Dict[int, str]:
        return dict(self.params_to_sink)


def _is_telemetry_sink(func: ast.expr) -> Optional[str]:
    """Sink description if `func` is print/logging/log-append/csv-write."""
    dotted = dotted_source(func)
    if dotted == "print":
        return "print()"
    parts = dotted.split(".")
    leaf = parts[-1]
    if parts[0] in ("logging", "logger", "log") and leaf in (
        "debug", "info", "warning", "error", "critical", "exception", "log",
    ):
        return f"{dotted}()"
    if leaf in ("append", "write", "writerow", "writerows", "info", "debug",
                "warning", "error"):
        owner = ".".join(parts[:-1]).lower()
        if "log" in owner or "writer" in owner or "csv" in owner:
            return f"{dotted}()"
    return None


def _label_of(expr: ast.expr) -> str:
    dotted = dotted_source(expr)
    if dotted:
        return dotted
    if isinstance(expr, ast.Call):
        inner = dotted_source(expr.func)
        return f"{inner}(...)" if inner else "<call>"
    return f"<{type(expr).__name__}>"


class _Evaluator:
    """One pass over one function body against the current summaries."""

    def __init__(
        self,
        fn: FunctionInfo,
        index: ProjectIndex,
        summaries: Dict[str, FunctionSummary],
        secret_attrs: Dict[str, Set[str]],
    ) -> None:
        self.fn = fn
        self.index = index
        self.summaries = summaries
        self.secret_attrs = secret_attrs
        self.env: Dict[str, Origins] = {}
        self.events: List[SinkEvent] = []
        self.return_origins: Origins = _EMPTY
        self.attr_updates: Set[Tuple[str, str]] = set()
        self._seed_params()

    # -- seeding -------------------------------------------------------------

    def _seed_params(self) -> None:
        offset = 1 if self.fn.is_method else 0
        for idx, name in enumerate(self.fn.params[offset:], start=offset):
            self.env[name] = frozenset({f"param:{idx}"})

    def _self_attr_origins(self, dotted: str) -> Origins:
        """Seed ``self.attr`` reads from the class's known secret attrs."""
        self_name = self.fn.self_name
        cls = self.fn.class_qname
        if self_name is None or cls is None:
            return _EMPTY
        parts = dotted.split(".")
        if len(parts) == 2 and parts[0] == self_name:
            if parts[1] in self.secret_attrs.get(cls, set()):
                return frozenset({f"source:attr `self.{parts[1]}`"})
        return _EMPTY

    # -- the pass ------------------------------------------------------------

    def run(self) -> None:
        for _ in range(8):  # loop-carried taint converges in a few passes
            before = dict(self.env)
            self.events = []
            self.return_origins = _EMPTY
            for stmt in self.fn.node.body:
                self._exec(stmt)
            if self.env == before:
                break

    # -- statements ----------------------------------------------------------

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            origins = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, origins)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            origins = self._eval(stmt.value) | self._read_target(stmt.target)
            self._bind(stmt.target, origins)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_origins = self.return_origins | self._eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._eval(stmt.iter))
            for sub in [*stmt.body, *stmt.orelse]:
                self._exec(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                origins = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, origins)
            for sub in stmt.body:
                self._exec(sub)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                key = dotted_source(target)
                if key:
                    self.env.pop(key, None)
        else:
            self._exec_parts(stmt)

    def _exec_parts(self, node: ast.AST) -> None:
        """Every expression and block of ``node`` in source order (``if``,
        ``try``, ``match``, a class body, ...). A nested def's body is a unit
        of its own: only its decorators, defaults and annotations run here."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)
            elif isinstance(child, ast.stmt):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._exec(child)
            elif not isinstance(child, _NO_PARTS):
                self._exec_parts(child)

    def _read(self, key: str) -> Origins:
        """Reading ``key`` (``x`` or ``a.b``): its bound taint, a secret
        ``self`` attribute's, and a source if the name is secret-shaped."""
        origins = self.env.get(key, _EMPTY) | self._self_attr_origins(key)
        if key.rsplit(".", 1)[-1] in SECRET_NAMES:
            origins = origins | frozenset({f"source:name `{key}`"})
        return origins

    def _read_target(self, target: ast.expr) -> Origins:
        key = dotted_source(target)
        return self._read(key) if key else _EMPTY

    def _bind(self, target: ast.expr, origins: Origins) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, origins)
            return
        if isinstance(target, ast.Starred):
            self._bind(target.value, origins)
            return
        if isinstance(target, ast.Subscript):
            # container mutation taints the container itself
            target = target.value
        key = dotted_source(target)
        if not key:
            return
        merged = self.env.get(key, _EMPTY) | origins
        if merged:
            self.env[key] = merged
        self._note_secret_attr(key, origins)

    def _note_secret_attr(self, key: str, origins: Origins) -> None:
        """A source-tainted value stored on ``self`` marks the class."""
        cls = self.fn.class_qname
        self_name = self.fn.self_name
        if cls is None or self_name is None:
            return
        parts = key.split(".")
        if len(parts) == 2 and parts[0] == self_name:
            if any(o.startswith("source:") for o in origins):
                self.attr_updates.add((cls, parts[1]))

    # -- expressions ---------------------------------------------------------

    def _eval(self, expr: ast.expr) -> Origins:
        if isinstance(expr, ast.Constant):
            return _EMPTY
        if isinstance(expr, ast.Name):
            return self._read(expr.id)
        if isinstance(expr, ast.Attribute):
            dotted = dotted_source(expr)
            if dotted:
                return self._read(dotted)
            return self._eval(expr.value)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.BitXor):
                # ciphertext = plaintext ^ keystream: the declassification
                # boundary of every counter-mode design in this repo
                self._eval(expr.left)
                self._eval(expr.right)
                return _EMPTY
            return self._eval(expr.left) | self._eval(expr.right)
        if isinstance(expr, ast.Compare):
            self._eval(expr.left)
            for comparator in expr.comparators:
                self._eval(comparator)
            return _EMPTY  # a boolean is not the secret
        if isinstance(expr, ast.Subscript):
            out = self._eval(expr.value)
            self._eval(expr.slice)
            return out
        if isinstance(expr, ast.Slice):
            for part in (expr.lower, expr.upper, expr.step):
                if part is not None:
                    self._eval(part)
            return _EMPTY
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            return self._eval(expr.body) | self._eval(expr.orelse)
        if isinstance(expr, ast.NamedExpr):
            origins = self._eval(expr.value)
            self._bind(expr.target, origins)
            return origins
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(expr.elt, expr.generators)
        if isinstance(expr, ast.DictComp):
            keys = self._eval_comprehension(expr.key, expr.generators)
            values = self._eval_comprehension(expr.value, expr.generators)
            return keys | values
        # displays, boolean and unary operators, f-strings, await, yield,
        # a lambda's body, ...: the value carries every part's taint
        out: Origins = _EMPTY
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out = out | self._eval(child)
            elif not isinstance(child, _NO_PARTS):
                self._exec_parts(child)
        return out

    def _eval_comprehension(
        self, elt: ast.expr, generators: List[ast.comprehension]
    ) -> Origins:
        # bind comprehension targets to their iterable's taint, then let the
        # element expression decide (so `a ^ b for a, b in zip(pt, pad)`
        # correctly declassifies even though `pad` is tainted)
        saved = dict(self.env)
        try:
            for gen in generators:
                self._bind(gen.target, self._eval(gen.iter))
                for cond in gen.ifs:
                    self._eval(cond)
            return self._eval(elt)
        finally:
            self.env = saved

    # -- calls ---------------------------------------------------------------

    def _arg_origins(self, call: ast.Call) -> List[Tuple[str, Origins, ast.expr]]:
        out: List[Tuple[str, Origins, ast.expr]] = []
        for arg in call.args:
            out.append(("", self._eval(arg), arg))
        for kw in call.keywords:
            out.append((kw.arg or "", self._eval(kw.value), kw.value))
        return out

    def _eval_call(self, call: ast.Call) -> Origins:
        args = self._arg_origins(call)
        dotted = dotted_source(call.func)
        parts = dotted.split(".") if dotted else []
        result: Origins = _EMPTY
        # the callee expression runs first: a receiver, or a call that
        # returns the callee (`make(print(k))()`)
        receiver = _EMPTY
        if isinstance(call.func, ast.Attribute):
            receiver = self._eval(call.func.value)
        elif not dotted:
            self._eval(call.func)

        sink = _is_telemetry_sink(call.func) if dotted else None
        if sink is not None:
            for _, origins, expr in args:
                if origins:
                    self.events.append(
                        SinkEvent(
                            node=call, sink=sink, origins=origins,
                            label=_label_of(expr),
                        )
                    )
            return _EMPTY

        candidates = self.index.resolve_call(self.fn, call)
        if candidates:
            for qname in candidates:
                result = result | self._apply_summary(call, qname, args)
            return result

        # alias-expanded source/ctor match: the key TCB module need not be
        # part of the scanned set for its outputs to count as secret
        expanded = self.index.expand_name(self.fn, dotted) if dotted else ""
        if expanded in SECRET_SOURCE_QNAMES:
            return frozenset({f"source:{expanded}"})
        if expanded in SECRET_CLASS_QNAMES:
            return frozenset({f"source:{expanded}"})

        # unresolved call: builtins / stdlib / dynamic dispatch
        if parts and parts[0] in _STOPPER_ROOTS:
            return _EMPTY
        if len(parts) >= 2 and parts[-1] in _STOPPER_METHODS:
            return _EMPTY
        if receiver and parts and parts[-1] in _PROPAGATING_METHODS:
            result = result | receiver
        if receiver and parts and parts[-1] in SECRET_METHODS:
            result = result | receiver
        for _, origins, _expr in args:
            result = result | origins
        return result

    def _apply_summary(
        self,
        call: ast.Call,
        qname: str,
        args: List[Tuple[str, Origins, ast.expr]],
    ) -> Origins:
        result: Origins = _EMPTY
        if qname in SECRET_SOURCE_QNAMES:
            result = result | frozenset({f"source:{qname}"})
        base = qname.rsplit(".", 1)[0]
        if qname in SECRET_CLASS_QNAMES or (
            qname.endswith(".__init__") and base in SECRET_CLASS_QNAMES
        ):
            result = result | frozenset({f"source:{base or qname}"})
        callee = self.index.functions.get(qname)
        summary = self.summaries.get(qname)
        if callee is None or summary is None:
            # a plain class qname (no __init__): constructor of a class we
            # indexed but that defines no init — nothing more to learn
            for _, origins, _expr in args:
                result = result | origins
            return result
        if summary.returns_secret:
            result = result | frozenset({f"source:via {qname}"})
        offset = 1 if callee.is_method else 0
        sink_params = summary.sink_params()
        positional = 0
        for name, origins, expr in args:
            if not origins:
                if not name:
                    positional += 1
                continue
            if name:
                try:
                    param_idx = callee.params.index(name)
                except ValueError:
                    param_idx = -1
            else:
                param_idx = positional + offset
                positional += 1
            if param_idx < 0 or param_idx >= len(callee.params):
                continue
            if param_idx in summary.taint_through:
                result = result | origins
            if param_idx in sink_params:
                self.events.append(
                    SinkEvent(
                        node=call,
                        sink=(
                            f"{sink_params[param_idx]} via {qname} "
                            f"(param `{callee.params[param_idx]}`)"
                        ),
                        origins=origins,
                        label=_label_of(expr),
                    )
                )
        # secret-bearing object construction: a tainted ctor arg taints
        # the object handle itself
        if qname.endswith(".__init__"):
            for _, origins, _expr in args:
                if any(o.startswith("source:") for o in origins):
                    result = result | origins
        return result


# -- abort reachability ------------------------------------------------------


def _abort_facts(fn: FunctionInfo, index: ProjectIndex) -> Tuple[bool, Tuple[str, ...]]:
    """What the body alone says about the §4.5 abort path, in one walk:
    whether it is the helper, raises TeeAbort or calls the helper by name,
    and every resolved callee. Syntax does not change between fixpoint
    rounds."""
    direct = fn.name in ABORT_CALL_NAMES
    callees: List[str] = []
    for node in fn.walk():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            direct = direct or dotted_source(exc).split(".")[-1] in ABORT_EXC_NAMES
        elif isinstance(node, ast.Call):
            direct = direct or dotted_source(node.func).split(".")[-1] in ABORT_CALL_NAMES
            callees.extend(index.resolve_call(fn, node))
    return direct, tuple(callees)


# -- the fixpoint ------------------------------------------------------------


def _summarize_once(
    fn: FunctionInfo,
    index: ProjectIndex,
    summaries: Dict[str, FunctionSummary],
    secret_attrs: Dict[str, Set[str]],
    abort_facts: Tuple[bool, Tuple[str, ...]],
) -> Tuple[FunctionSummary, Set[Tuple[str, str]], List[SinkEvent]]:
    evaluator = _Evaluator(fn, index, summaries, secret_attrs)
    evaluator.run()
    returns_secret = any(
        o.startswith("source:") for o in evaluator.return_origins
    )
    taint_through = frozenset(
        int(o.split(":", 1)[1])
        for o in evaluator.return_origins
        if o.startswith("param:")
    )
    sink_params: Dict[int, str] = {}
    for event in evaluator.events:
        for origin in sorted(event.origins):
            if origin.startswith("param:"):
                idx = int(origin.split(":", 1)[1])
                sink_params.setdefault(idx, event.sink)
    direct, callees = abort_facts
    reaches = direct or any(
        summaries[qname].reaches_abort for qname in callees if qname in summaries
    )
    summary = FunctionSummary(
        returns_secret=returns_secret,
        taint_through=taint_through,
        params_to_sink=tuple(sorted(sink_params.items())),
        reaches_abort=reaches,
    )
    return summary, evaluator.attr_updates, evaluator.events


@dataclass
class FlowAnalysis:
    """The converged whole-program dataflow state."""

    index: ProjectIndex
    summaries: Dict[str, FunctionSummary] = field(default_factory=dict)
    secret_attrs: Dict[str, Set[str]] = field(default_factory=dict)
    # per-unit sink events from the final pass, for the reporting rules
    events: Dict[str, List[SinkEvent]] = field(default_factory=dict)


def analyze_project(index: ProjectIndex, max_rounds: int = 12) -> FlowAnalysis:
    """Run the summary fixpoint to convergence (monotone, so it halts)."""
    state = FlowAnalysis(index=index)
    units = index.units()
    state.summaries = {fn.qname: FunctionSummary() for fn in units}
    abort_facts = {fn.qname: _abort_facts(fn, index) for fn in units}
    for _ in range(max_rounds):
        changed = False
        for fn in units:
            summary, attr_updates, events = _summarize_once(
                fn, index, state.summaries, state.secret_attrs, abort_facts[fn.qname]
            )
            if summary != state.summaries[fn.qname]:
                state.summaries[fn.qname] = summary
                changed = True
            for cls, attr in sorted(attr_updates):
                known = state.secret_attrs.setdefault(cls, set())
                if attr not in known:
                    known.add(attr)
                    changed = True
            state.events[fn.qname] = events
        if not changed:
            break
    return state


def iter_source_events(state: FlowAnalysis) -> Iterator[Tuple[FunctionInfo, SinkEvent]]:
    """Sink events whose value provably derives from real key material."""
    for fn in state.index.units():
        for event in state.events.get(fn.qname, ()):
            if any(o.startswith("source:") for o in event.origins):
                yield fn, event


__all__ = [
    "ABORT_CALL_NAMES",
    "ABORT_EXC_NAMES",
    "FlowAnalysis",
    "FunctionSummary",
    "SECRET_CLASS_QNAMES",
    "SECRET_METHODS",
    "SECRET_SOURCE_QNAMES",
    "SinkEvent",
    "analyze_project",
    "iter_source_events",
]
