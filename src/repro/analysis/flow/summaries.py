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
material. Class attributes assigned a source-tainted value anywhere become
secret attributes of that class, seeding every other method (this is how a
key renamed into ``self._seal_key`` once stays tracked everywhere).

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
from repro.analysis.flow.symbols import FunctionInfo, FunctionNode, ProjectIndex
from repro.analysis.rules.security import KEY_NAMES

Origins = FrozenSet[str]
_EMPTY: Origins = frozenset()

# -- what counts as a secret ------------------------------------------------

# calls that *mint* key material, by resolved qualified name
SECRET_SOURCE_QNAMES: FrozenSet[str] = frozenset(
    {
        "repro.core.key_management.derive_kek",
        "repro.core.key_management.unwrap_key",
        "repro.core.key_management._stream",
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
# parameters with these names are key material by declaration
SECRET_PARAM_NAMES: FrozenSet[str] = KEY_NAMES | frozenset(
    {"kek", "keystream", "device_secret", "data_key"}
)

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
    # one definition of "telemetry sink" for the whole suite
    from repro.analysis.rules.security import _is_telemetry_sink as impl

    return impl(func)


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
        for idx, name in enumerate(self.fn.params):
            origins: Set[str] = set()
            if idx >= offset:
                origins.add(f"param:{idx}")
            if name in SECRET_PARAM_NAMES:
                origins.add(f"source:param `{name}`")
            if origins:
                self.env[name] = frozenset(origins)

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
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self._eval(stmt.test)
            for sub in [*stmt.body, *stmt.orelse]:
                self._exec(sub)
        elif isinstance(stmt, (ast.While,)):
            self._eval(stmt.test)
            for sub in [*stmt.body, *stmt.orelse]:
                self._exec(sub)
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
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._exec(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._exec(sub)
            for sub in [*stmt.orelse, *stmt.finalbody]:
                self._exec(sub)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
            if stmt.msg is not None:
                self._eval(stmt.msg)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                key = dotted_source(target)
                if key:
                    self.env.pop(key, None)
        # nested defs/classes are out of scope for the summary

    def _read_target(self, target: ast.expr) -> Origins:
        key = dotted_source(target)
        if key:
            return self.env.get(key, _EMPTY) | self._self_attr_origins(key)
        return _EMPTY

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
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, _EMPTY)
        if isinstance(expr, ast.Attribute):
            dotted = dotted_source(expr)
            if dotted:
                return self.env.get(dotted, _EMPTY) | self._self_attr_origins(dotted)
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
        if isinstance(expr, ast.BoolOp):
            out: Origins = _EMPTY
            for value in expr.values:
                out = out | self._eval(value)
            return out
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand)
        if isinstance(expr, ast.Compare):
            self._eval(expr.left)
            for comparator in expr.comparators:
                self._eval(comparator)
            return _EMPTY  # a boolean is not the secret
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            out = _EMPTY
            for elt in expr.elts:
                out = out | self._eval(elt)
            return out
        if isinstance(expr, ast.Dict):
            out = _EMPTY
            for key in expr.keys:
                if key is not None:
                    out = out | self._eval(key)
            for value in expr.values:
                out = out | self._eval(value)
            return out
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
        if isinstance(expr, ast.JoinedStr):
            out = _EMPTY
            for value in expr.values:
                out = out | self._eval(value)
            return out
        if isinstance(expr, ast.FormattedValue):
            return self._eval(expr.value)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value)
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
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
        return _EMPTY

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
        receiver = _EMPTY
        if isinstance(call.func, ast.Attribute):
            receiver = self._eval(call.func.value)
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


def _raises_abort(node: FunctionNode) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise) and sub.exc is not None:
            exc = sub.exc
            name = ""
            if isinstance(exc, ast.Call):
                name = dotted_source(exc.func).split(".")[-1]
            else:
                name = dotted_source(exc).split(".")[-1]
            if name in ABORT_EXC_NAMES:
                return True
    return False


def _calls_abort(
    fn: FunctionInfo,
    index: ProjectIndex,
    summaries: Dict[str, FunctionSummary],
) -> bool:
    for call in index.iter_calls(fn):
        leaf = dotted_source(call.func).split(".")[-1]
        if leaf in ABORT_CALL_NAMES:
            return True
        for qname in index.resolve_call(fn, call):
            summary = summaries.get(qname)
            if summary is not None and summary.reaches_abort:
                return True
    return False


# -- the fixpoint ------------------------------------------------------------


def _summarize_once(
    fn: FunctionInfo,
    index: ProjectIndex,
    summaries: Dict[str, FunctionSummary],
    secret_attrs: Dict[str, Set[str]],
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
    reaches = (
        fn.name in ABORT_CALL_NAMES
        or _raises_abort(fn.node)
        or _calls_abort(fn, index, summaries)
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
    # per-function sink events from the final pass, for the reporting rules
    events: Dict[str, List[SinkEvent]] = field(default_factory=dict)


def analyze_project(index: ProjectIndex, max_rounds: int = 12) -> FlowAnalysis:
    """Run the summary fixpoint to convergence (monotone, so it halts)."""
    state = FlowAnalysis(index=index)
    functions = index.sorted_functions()
    state.summaries = {fn.qname: FunctionSummary() for fn in functions}
    for _ in range(max_rounds):
        changed = False
        for fn in functions:
            summary, attr_updates, events = _summarize_once(
                fn, index, state.summaries, state.secret_attrs
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
    for qname in sorted(state.events):
        fn = state.index.functions[qname]
        for event in state.events[qname]:
            if any(o.startswith("source:") for o in event.origins):
                yield fn, event


__all__ = [
    "ABORT_CALL_NAMES",
    "ABORT_EXC_NAMES",
    "FlowAnalysis",
    "FunctionSummary",
    "SECRET_CLASS_QNAMES",
    "SECRET_METHODS",
    "SECRET_PARAM_NAMES",
    "SECRET_SOURCE_QNAMES",
    "SinkEvent",
    "analyze_project",
    "iter_source_events",
]
