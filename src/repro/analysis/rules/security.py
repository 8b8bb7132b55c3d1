"""Security-flow rules.

IceClave's security argument (§4, and the SoK small-TCB discipline) is a
*flow* argument: plaintext and key material live inside a small set of
trusted modules, everything else sees only ciphertext or costs. These rules
pin that argument into the import graph and the AST:

- the layering rule keeps low-level device models from reaching up into
  host/orchestration code (an Elasticlave-style boundary blur);
- the key-containment rule keeps raw cipher primitives and key-shaped
  state inside the sanctioned modules, and key names out of the stats
  module;
- the boundary rule forces page payloads to cross flash<->DRAM through the
  Ftl/MEE path rather than raw `*.chip` pokes.

Whether a secret reaches a log, or a broad except swallows a detected
attack, is a question about values and call paths: the flow rules
(:mod:`repro.analysis.flow.rules`) answer it.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Tuple

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
    # core reaches sim for the declared-state codec (the Merkle tree)
    "core": frozenset({"crypto", "ftl", "sim"}),
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
        # (SecureChannel seal/open), the only serve module that holds them
        "repro.serve.session",
    }
)
_PRIMITIVE_MODULES = (
    "repro.crypto.aes",
    "repro.crypto.mac",
    "repro.crypto.trivium_fast",
)
_PRIMITIVE_NAMES = frozenset({"AES128", "Mac", "TriviumFast"})
# key-shaped names: storing one outside the key TCB is a finding
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
        # the serve handshake's derivation vocabulary
        "channel_key",
        "handshake_key",
        "derived_key",
        "kek",
    }
)
# every secret-shaped name: reading one is a `flow-secret-escape` taint
# source, and the stats module may not name one at all
SECRET_NAMES: FrozenSet[str] = KEY_NAMES | frozenset(
    {"keystream", "device_secret", "data_key", "otp", "pad", "plaintext_key"}
)
# pure telemetry: every counter in it ends up in reports and exports
_STATS_MODULE = "repro.sim.stats"


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
        "key-management, boot/attestation and serve-session modules may "
        "hold keys or instantiate AES/MAC/Trivium; key state sprayed across "
        "the tree is unauditable and ends up in logs and snapshots, and "
        "repro.sim.stats, whose counters are all exported, may not name "
        "key material at all."
    )
    node_types = (ast.Import, ast.ImportFrom, ast.Call, ast.Name, ast.Attribute)

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
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            label = dotted_source(node) or name
            if ctx.module == _STATS_MODULE:
                if name in SECRET_NAMES:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"`{label}` named inside telemetry module {ctx.module}; "
                        "stats must never hold key material",
                    )
            elif isinstance(node.ctx, ast.Store) and name in KEY_NAMES:
                yield ctx.finding(
                    self.id,
                    node,
                    f"key material `{label}` stored outside the key TCB "
                    "(repro.core.functional_mee / cipher_engine / "
                    "key_management); hold a handle, not the key",
                )

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


__all__: Tuple[str, ...] = (
    "BoundaryBypassRule",
    "KeyContainmentRule",
    "LayeringRule",
    "LAYER_ALLOWED",
    "KEY_TCB_MODULES",
    "KEY_NAMES",
    "SECRET_NAMES",
)
