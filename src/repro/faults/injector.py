"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live SSD stack.

The injector owns the *mechanics* of each fault class — forcing raw-error
counts into the ECC decoder, failing dies, flipping protected-DRAM bits,
arming a power cut inside GC — while the chaos harness owns the policy of
when to verify invariants and how to account for lost data. Everything here
is a pure function of the plan (and therefore of the seed): no wall-clock,
no unseeded randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.faults.errors import PowerLossError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.recovery import EnclaveIntegrityGuard
from repro.ftl.ftl import Ftl
from repro.sim.state import Stateful
from repro.sim.stats import ReliabilityStats


@dataclass(frozen=True)
class AppliedFault:
    """What actually happened when an event fired."""

    event: FaultEvent
    action: str
    detail: str

    def describe(self) -> str:
        return f"{self.event.describe()} action={self.action} {self.detail}"


class FaultInjector(Stateful):
    """Fires plan events against an FTL (and optionally tenant enclaves)."""

    # only the armed mid-GC cut latch; the plan is constructor input
    STATE = ("gc_cut_armed",)

    def __init__(
        self,
        plan: FaultPlan,
        ftl: Ftl,
        guard: Optional[EnclaveIntegrityGuard] = None,
        stats: Optional[ReliabilityStats] = None,
    ) -> None:
        if ftl.ecc is None:
            raise ValueError("attach_reliability() before wiring the injector")
        self.plan = plan
        self.ftl = ftl
        self.guard = guard
        self.stats = stats if stats is not None else ftl.reliability
        self.gc_cut_armed = False
        self.applied: List[AppliedFault] = []  # repro: allow[recovery-unserialized-state] -- diagnostic log; the chaos event_log carries the durable record
        self._events_by_op = {}  # repro: allow[recovery-unserialized-state] -- derived index rebuilt from the plan on construction
        for event in plan.events:
            self._events_by_op.setdefault(event.op_index, []).append(event)
        # wire the mid-GC power-cut hook
        ftl.gc.fault_hook = self._gc_hook

    # -- hooks -----------------------------------------------------------------

    def _gc_hook(self, point: str) -> None:
        if self.gc_cut_armed and point == "gc_mid_relocate":
            self.gc_cut_armed = False
            raise PowerLossError(point)

    # -- event application --------------------------------------------------------

    def fire(self, op_index: int) -> List[AppliedFault]:
        """Apply every event due at ``op_index``; returns what was done."""
        fired: List[AppliedFault] = []
        for event in self._events_by_op.get(op_index, []):
            fired.append(self._apply(event))
        self.applied.extend(fired)
        return fired

    def _apply(self, event: FaultEvent) -> AppliedFault:
        self.stats.faults_injected += 1
        t = self.ftl.ecc.config.correctable_bits
        if event.kind is FaultKind.READ_BURST:
            # a transient burst: the first read needs one retry level, the
            # tail of the burst is heavy but still inline-correctable
            errors = t + 1 + event.param % t
            self.ftl.ecc.inject(errors)
            self.ftl.ecc.inject(t // 2)
            self.ftl.ecc.inject(t // 3)
            return AppliedFault(event, "ecc_injected", f"errors={errors} burst=3")
        if event.kind is FaultKind.UNCORRECTABLE_PAGE:
            errors = 5 * t + event.param % t
            self.ftl.ecc.inject(errors)
            return AppliedFault(event, "ecc_injected", f"errors={errors}")
        if event.kind is FaultKind.HARD_UNCORRECTABLE:
            errors = 100 * t
            self.ftl.ecc.inject(errors)
            return AppliedFault(event, "ecc_injected", f"errors={errors} hard=1")
        if event.kind is FaultKind.DIE_FAILURE:
            return self._fail_die(event)
        if event.kind is FaultKind.DRAM_CORRUPTION:
            return self._corrupt_dram(event)
        if event.kind is FaultKind.POWER_LOSS:
            return AppliedFault(event, "power_loss", "between-ops cut")
        if event.kind is FaultKind.POWER_LOSS_MID_GC:
            self.gc_cut_armed = True
            return AppliedFault(event, "gc_cut_armed", "cut fires mid-relocation")
        raise ValueError(f"unhandled fault kind {event.kind}")  # pragma: no cover

    def _fail_die(self, event: FaultEvent) -> AppliedFault:
        chip = self.ftl.chip
        total = chip.geometry.total_dies
        healthy = [d for d in range(total) if d not in chip.failed_dies]
        if len(healthy) <= 1:
            return AppliedFault(event, "skipped", "refusing to fail the last die")
        die = healthy[event.param % len(healthy)]
        chip.fail_die(die)
        lost = self.ftl.quarantine_die(die)
        self.stats.dies_failed += 1
        # pages stranded on the die are unrecoverable without redundancy
        self.stats.faults_fatal += lost
        return AppliedFault(event, "die_failed", f"die={die} mappings_lost={lost}")

    def _corrupt_dram(self, event: FaultEvent) -> AppliedFault:
        if self.guard is None or not self.guard.tenants:
            return AppliedFault(event, "skipped", "no tenant enclaves registered")
        live = self.guard.live_tenants()
        if not live:
            return AppliedFault(event, "skipped", "no live tenants")
        tee_id = live[event.param % len(live)]
        tenant = self.guard.tenants[tee_id]
        if not tenant.lines_written:
            return AppliedFault(event, "skipped", f"tenant {tee_id} has no lines")
        page, line = tenant.lines_written[event.param % len(tenant.lines_written)]
        mode = (event.param // 7) % 3
        if mode == 0:
            tenant.mee.tamper_ciphertext(page, line)
            what = "ciphertext"
        elif mode == 1:
            tenant.mee.tamper_mac(page, line)
            what = "mac"
        else:
            try:
                tenant.mee.tamper_counter_tree(page)
                what = "merkle"
            except (KeyError, ValueError):
                tenant.mee.tamper_mac(page, line)
                what = "mac"
        return AppliedFault(
            event, "dram_corrupted", f"tenant={tee_id} page={page} line={line} what={what}"
        )
