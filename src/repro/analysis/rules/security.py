"""Security-flow rules.

IceClave's security argument (§4, and the SoK small-TCB discipline) is a
*flow* argument: plaintext and key material live inside a small set of
trusted modules, everything else sees only ciphertext or costs. These rules
pin that argument into the import graph and the AST:

- the layering rule keeps low-level device models from reaching up into
  host/orchestration code (an Elasticlave-style boundary blur);
- the key-containment rule keeps raw cipher primitives and key-shaped
  state inside the sanctioned modules;
- the boundary rule forces page payloads to cross flash<->DRAM through the
  Ftl/MEE path rather than raw `*.chip` pokes;
- the telemetry rule keeps key material out of logs, stats and exporters;
- the broad-except rule stops `except Exception` from swallowing
  IntegrityError/TeeAbort and masking a detected attack.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from repro.analysis.context import ModuleContext, dotted_source
from repro.analysis.finding import Finding
from repro.analysis.registry import Rule, register

# Allowed `repro.<pkg>` -> `repro.<pkg>` import edges. Keys absent from the
# map (the `repro` facade itself, `__main__`, fixtures without an override)
# are exempt. Same-package imports are always allowed.
#
# This map is kept MINIMAL: `flow-layer-drift` fails the lint for any grant
# no import actually uses, so every edge here is exercised by the tree it
# ships with. Widen it in the same PR that adds the import needing it.
LAYER_ALLOWED: Dict[str, FrozenSet[str]] = {
    "sim": frozenset(),
    "crypto": frozenset(),
    # area models are pure arithmetic but register their memo caches with
    # the sim-layer stats surface
    "area": frozenset({"sim"}),
    "analysis": frozenset(),  # the checker must never import the simulator
    "flash": frozenset({"sim", "crypto"}),
    "cpu": frozenset(),
    "ftl": frozenset({"flash", "sim"}),
    "query": frozenset({"crypto"}),
    "core": frozenset({"crypto", "ftl"}),
    "host": frozenset({"core", "ftl", "flash", "sim"}),
    # the chaos harness emulates the *host-visible* fault surface, so it may
    # reach down into host/nvme status mapping — but never up into platform
    "faults": frozenset({"core", "crypto", "flash", "ftl", "host", "sim"}),
    "workloads": frozenset({"query"}),
    "platform": frozenset(
        {"area", "core", "cpu", "flash", "ftl", "host", "query", "sim",
         "workloads"}
    ),
    # resilience policies sit above the device and host layers: they consume
    # fault plans and SLO metrics but are injected duck-typed downward, so
    # host/ftl never import them back (no cycle, small device-side TCB)
    "resilience": frozenset(
        {"crypto", "faults", "flash", "host", "platform", "sim"}
    ),
    # perf tooling (profiler, parallel experiment runner) drives whole
    # experiments, so it sits just below the CLI in the DAG
    "perf": frozenset({"faults", "fleet", "platform", "sim", "workloads"}),
    # checkpoint/restore composes every stateful layer's snapshot_state();
    # the monitored layers stay duck-typed (they never import recovery back)
    "recovery": frozenset({"core", "faults", "sim"}),
    # the serving layer fronts the host library with attested sessions: it
    # composes resilience policies and platform metrics over the device
    # stack, runs its lab on the sim engine, and nothing below ever
    # imports it back
    "serve": frozenset(
        {"core", "crypto", "faults", "flash", "ftl", "host", "platform",
         "resilience", "sim"}
    ),
    # the fleet layer shards N device stacks behind a consistent-hash
    # router: it consumes fault plans, resilience policies, recovery
    # snapshots and the serve wire taxonomy, and nothing below imports it
    # back (the service's channel-router hook stays duck-typed)
    "fleet": frozenset(
        {"crypto", "faults", "platform", "recovery", "resilience", "serve",
         "sim"}
    ),
    # the scenario-search layer drives whole campaigns as black boxes: it
    # composes the chaos/resilience/fleet/serve harnesses and the recovery
    # oracle, and nothing below ever imports it back
    "search": frozenset(
        {"crypto", "faults", "fleet", "recovery", "resilience", "serve",
         "sim", "workloads"}
    ),
    "cli": frozenset(
        {"analysis", "faults", "fleet", "perf", "platform", "recovery",
         "resilience", "search", "serve", "workloads"}
    ),
}


@register
class LayeringRule(Rule):
    """Enforce the allowed-import DAG between `repro.*` subpackages."""

    id = "sec-layering"
    family = "security-flow"
    summary = "import edge outside the trusted-layering DAG"
    rationale = (
        "Small-TCB discipline (§4.1): device models (ftl/flash) must "
        "not import host/platform code, and only sanctioned layers may "
        "reach the TEE runtime; upward imports blur the trust boundary "
        "exactly where Elasticlave shows sharing designs break."
    )
    node_types = (ast.Import, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        package = ctx.package
        allowed = LAYER_ALLOWED.get(package)
        if allowed is None:
            return
        targets = []
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: stays inside the package
                return
            if node.module:
                targets = [node.module]
        for target in targets:
            parts = target.split(".")
            if parts[0] != "repro" or len(parts) < 2:
                continue
            dep = parts[1]
            if dep == package or dep in allowed:
                continue
            yield ctx.finding(
                self.id,
                node,
                f"repro.{package} must not import repro.{dep} "
                f"(allowed: {', '.join(sorted(allowed)) or 'none'}); "
                "route through a sanctioned layer instead",
            )


# Modules allowed to touch raw cipher primitives and key-shaped state.
# repro.core.fde (the §4.4 full-disk-encryption baseline) and
# repro.core.secure_boot (the §3 firmware root of trust) run only in their
# tests: they demonstrate paper claims and are kept on purpose, as are the
# key-free repro.core.riscv_pmp (§4.7) and repro.core.scheduler (§4.6).
# The timing MEE (repro.core.mee) is outside: only the functional engine
# holds keys. `repro lint --graph` reports the set's modules and lines.
KEY_TCB_MODULES: FrozenSet[str] = frozenset(
    {
        "repro.core.functional_mee",
        "repro.core.cipher_engine",
        "repro.core.fde",
        "repro.core.key_management",
        "repro.core.secure_boot",
        "repro.core.attestation",
        "repro.core.integrity",
        # the serve session layer derives, holds and uses per-session keys
        # (SecureChannel seal/open); it is the ONLY serve module allowed to
        "repro.serve.session",
    }
)
_PRIMITIVE_MODULES = (
    "repro.crypto.aes",
    "repro.crypto.mac",
    "repro.crypto.trivium_fast",
)
_PRIMITIVE_NAMES = frozenset({"AES128", "Mac", "TriviumFast"})
KEY_NAMES: FrozenSet[str] = frozenset(
    {
        "aes_key",
        "mac_key",
        "root_key",
        "session_key",
        "device_key",
        "private_key",
        "secret_key",
        "key_material",
    }
)


def _in_key_tcb(ctx: ModuleContext) -> bool:
    return (
        ctx.module in KEY_TCB_MODULES
        or ctx.module.startswith("repro.crypto")
        # unknown module: other rules still apply (the top-level `repro`
        # package is known, and holds no keys)
        or (ctx.package == "" and ctx.module != "repro")
    )


@register
class KeyContainmentRule(Rule):
    """Raw key material and cipher primitives stay inside the key TCB."""

    id = "sec-key-containment"
    family = "security-flow"
    summary = "raw key material / cipher primitive outside the key TCB"
    rationale = (
        "§4.4 MEE + §5 cipher engine: only the MEE, cipher-engine, FDE, "
        "key-management and boot/attestation modules may hold keys or "
        "instantiate AES/MAC/Trivium; key state sprayed across the tree is "
        "unauditable and ends up in logs and snapshots."
    )
    node_types = (ast.Import, ast.ImportFrom, ast.Call, ast.Assign, ast.AnnAssign)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if _in_key_tcb(ctx):
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from self._check_import(node, ctx)
        elif isinstance(node, ast.Call):
            name = dotted_source(node.func).split(".")[-1]
            if name in _PRIMITIVE_NAMES:
                yield ctx.finding(
                    self.id,
                    node,
                    f"direct construction of cipher primitive `{name}` "
                    "outside the key TCB; use the MEE/cipher-engine APIs",
                )
        else:  # Assign / AnnAssign: storing key-shaped state
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                label = self._key_label(target)
                if label is not None:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"key material `{label}` stored outside the key TCB "
                        "(repro.core.functional_mee / cipher_engine / "
                        "key_management); hold a handle, not the key",
                    )

    @staticmethod
    def _key_label(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Name) and target.id in KEY_NAMES:
            return target.id
        if isinstance(target, ast.Attribute) and target.attr in KEY_NAMES:
            return dotted_source(target) or target.attr
        return None

    def _check_import(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        modules = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module]
        for module in modules:
            if module in _PRIMITIVE_MODULES:
                yield ctx.finding(
                    self.id,
                    node,
                    f"import of raw cipher primitive module `{module}` "
                    "outside the key TCB; use repro.core.functional_mee or "
                    "repro.core.cipher_engine",
                )


# Packages on the wrong side of the flash<->DRAM boundary for raw chip pokes.
_CHIP_FORBIDDEN_PACKAGES = frozenset(
    {"core", "host", "platform", "query", "workloads", "sim", "cli", "cpu"}
)


@register
class BoundaryBypassRule(Rule):
    """Page payloads cross flash<->DRAM only via the Ftl/MEE path."""

    id = "sec-boundary-bypass"
    family = "security-flow"
    summary = "raw `.chip` access from outside the flash/FTL layers"
    rationale = (
        "§4.2/§4.4: everything above the FTL sees flash pages only through "
        "Ftl.read/write (access-controlled, cipher-wrapped); reaching "
        "through `.chip` skips both the PMP-style access check and the MEE."
    )
    node_types = (ast.Attribute,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Attribute)
        if ctx.package not in _CHIP_FORBIDDEN_PACKAGES:
            return
        # flag `<expr>.chip.<anything>` — reading *through* a chip handle
        if (
            isinstance(node.value, ast.Attribute)
            and node.value.attr == "chip"
        ):
            owner = dotted_source(node.value) or "<expr>.chip"
            yield ctx.finding(
                self.id,
                node,
                f"`{owner}.{node.attr}` bypasses the FTL/MEE boundary; raw "
                "chip state is only visible to repro.flash/repro.ftl "
                "(and the fault harness)",
            )


_TELEMETRY_SECRETS = KEY_NAMES | frozenset({"otp", "keystream", "pad", "plaintext_key"})
_TELEMETRY_MODULES = frozenset({"repro.sim.stats"})


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


def _secret_names(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _TELEMETRY_SECRETS:
            yield sub.id
        elif isinstance(sub, ast.Attribute) and sub.attr in _TELEMETRY_SECRETS:
            yield dotted_source(sub) or sub.attr


@register
class TelemetryLeakRule(Rule):
    """Key/counter material must never reach logs, stats, or exporters."""

    id = "sec-telemetry-leak"
    family = "security-flow"
    summary = "key-shaped value flows into a log/stats/CSV sink"
    rationale = (
        "§4.4/§7: the MEE's guarantee dies if keys or keystream leak "
        "through side channels we built ourselves — event logs, "
        "sim/stats.py counters, CSV exporters are attacker-readable output."
    )
    node_types = (ast.Call, ast.Name, ast.Attribute)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            sink = _is_telemetry_sink(node.func)
            if sink is None:
                return
            leaked = set()
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                leaked.update(_secret_names(arg))
            for name in sorted(leaked):
                yield ctx.finding(
                    self.id,
                    node,
                    f"`{name}` flows into telemetry sink {sink}; key "
                    "material must never reach logs/stats/exports",
                )
        elif ctx.module in _TELEMETRY_MODULES:
            # stats is pure telemetry: referencing key material at all is a leak
            if isinstance(node, ast.Name) and node.id in _TELEMETRY_SECRETS:
                yield ctx.finding(
                    self.id, node,
                    f"`{node.id}` referenced inside telemetry module "
                    f"{ctx.module}",
                )


@register
class BroadExceptRule(Rule):
    """`except Exception` can swallow IntegrityError/TeeAbort: name types."""

    id = "sec-broad-except"
    family = "security-flow"
    summary = "broad `except Exception` / bare except"
    rationale = (
        "§4.5 ThrowOutTEE: tamper detection only works if IntegrityError "
        "and TeeAbort propagate to the abort path; a broad except silently "
        "converts a detected attack into a handled 'error'. Catch the "
        "concrete fault types (the three intentional §4.5 program-fault "
        "catches carry justified `repro: allow` waivers)."
    )
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        broad = self._broad_name(node.type)
        if broad is None:
            return
        yield ctx.finding(
            self.id,
            node,
            f"{broad} can swallow IntegrityError/TeeAbort; catch the "
            "concrete fault/recovery error types",
        )

    @staticmethod
    def _broad_name(type_node: Optional[ast.expr]) -> Optional[str]:
        if type_node is None:
            return "bare `except:`"
        names = []
        if isinstance(type_node, ast.Tuple):
            names = [dotted_source(e) for e in type_node.elts]
        else:
            names = [dotted_source(type_node)]
        for name in names:
            if name in ("Exception", "BaseException"):
                return f"`except {name}`"
        return None


# Session-key-shaped names the serve layer may only hold inside its
# session module (superset of the serve-specific derivation vocabulary;
# the generic KEY_NAMES rule already covers `session_key` repo-wide).
_SERVE_KEY_NAMES: FrozenSet[str] = frozenset(
    {"session_key", "channel_key", "kek", "handshake_key", "derived_key"}
)
_SERVE_KEY_TCB: FrozenSet[str] = frozenset({"repro.serve.session"})


@register
class ServeSessionKeyLeakRule(Rule):
    """Per-session keys stay inside repro.serve.session."""

    id = "serve-session-key-leak"
    family = "security-flow"
    summary = "session key material escapes repro.serve.session"
    rationale = (
        "The serving handshake derives one key per attested session; the "
        "whole point of the SecureChannel abstraction is that the service, "
        "load generator and lab only ever see sealed envelopes. A "
        "session-key-shaped value stored or logged elsewhere in the serve "
        "layer would put tenant keys in reach of request handlers, SLO "
        "ledgers and event logs — exactly the multi-tenant isolation the "
        "attestation gate exists to provide."
    )
    node_types = (ast.Call, ast.Assign, ast.AnnAssign)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.package != "serve" or ctx.module in _SERVE_KEY_TCB:
            return
        if isinstance(node, ast.Call):
            sink = _is_telemetry_sink(node.func)
            if sink is None:
                return
            leaked = set()
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name) and sub.id in _SERVE_KEY_NAMES:
                        leaked.add(sub.id)
                    elif (
                        isinstance(sub, ast.Attribute)
                        and sub.attr in _SERVE_KEY_NAMES
                    ):
                        leaked.add(dotted_source(sub) or sub.attr)
            for name in sorted(leaked):
                yield ctx.finding(
                    self.id,
                    node,
                    f"session key `{name}` flows into telemetry sink {sink} "
                    "outside repro.serve.session; tenants' channel keys "
                    "must never reach logs or exports",
                )
        else:  # Assign / AnnAssign
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                label = self._key_label(target)
                if label is not None:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"session key material `{label}` stored outside "
                        "repro.serve.session; hold a ClientSession / "
                        "SecureChannel handle, not the key",
                    )

    @staticmethod
    def _key_label(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Name) and target.id in _SERVE_KEY_NAMES:
            return target.id
        if isinstance(target, ast.Attribute) and target.attr in _SERVE_KEY_NAMES:
            return dotted_source(target) or target.attr
        return None


__all__: Tuple[str, ...] = (
    "BoundaryBypassRule",
    "BroadExceptRule",
    "KeyContainmentRule",
    "LayeringRule",
    "ServeSessionKeyLeakRule",
    "TelemetryLeakRule",
    "LAYER_ALLOWED",
    "KEY_TCB_MODULES",
    "KEY_NAMES",
)
