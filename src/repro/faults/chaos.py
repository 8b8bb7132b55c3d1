"""Chaos harness: drive a workload-shaped I/O stream through a faulty SSD.

``python -m repro chaos <workload> --seed N`` builds a small functional SSD
(data bytes actually stored, ECC decoding on every read), shapes a
read/write stream after the workload's measured write ratio, and executes a
seed-deterministic :class:`~repro.faults.plan.FaultPlan` against it. The
run checks its own ground truth as it goes: every surviving logical page
must read back exactly what was last written, across read retries, scrub
remaps, die quarantines and power-loss rebuilds.

Everything is a pure function of (workload profile, seed, op count), so the
same invocation twice produces byte-identical event logs and stats — which
is how the CLI proves determinism on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.crypto.prng import XorShift64
from repro.faults.errors import PowerLossError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultPlanConfig
from repro.faults.recovery import EnclaveIntegrityGuard
from repro.flash.chip import DieFailureError, FlashChip, FlashProgramError
from repro.flash.ecc import EccModel, ReadRetryPolicy
from repro.flash.geometry import FlashGeometry
from repro.ftl.ftl import Ftl, UncorrectableReadError
from repro.ftl.mapping import AccessDeniedError
from repro.host.nvme import status_for_exception
from repro.sim.state import Stateful
from repro.sim.stats import ReliabilityStats

# Small enough to churn through GC in a few thousand ops, big enough to
# survive losing one of its four dies.
CHAOS_GEOMETRY = FlashGeometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=12,
    pages_per_block=16,
    page_bytes=4096,
)
WORKING_SET = 256
TENANT_PAGES = 16
TENANT_LINES = 8
# chaos streams need enough writes to exercise GC even for read-heavy
# workloads; the workload's measured ratio raises this floor, never lowers it
MIN_WRITE_FRACTION = 0.35


@dataclass
class ChaosReport:
    """Deterministic outcome of one chaos run."""

    workload: str
    seed: int
    ops: int
    reliability: Dict[str, float] = field(default_factory=dict)
    plan_summary: Dict[str, int] = field(default_factory=dict)
    nvme_statuses: Dict[str, int] = field(default_factory=dict)
    ftl_counters: Dict[str, int] = field(default_factory=dict)
    invariant_violations: int = 0
    event_log: List[str] = field(default_factory=list)

    def fingerprint(self) -> str:
        """Canonical serialization; equal fingerprints ⇔ identical runs."""
        parts = [f"workload={self.workload}", f"seed={self.seed}", f"ops={self.ops}"]
        for name, value in sorted(self.reliability.items()):
            parts.append(f"rel.{name}={value!r}")
        for name, value in sorted(self.plan_summary.items()):
            parts.append(f"plan.{name}={value}")
        for name, value in sorted(self.nvme_statuses.items()):
            parts.append(f"nvme.{name}={value}")
        for name, value in sorted(self.ftl_counters.items()):
            parts.append(f"ftl.{name}={value}")
        parts.append(f"invariant_violations={self.invariant_violations}")
        parts.extend(self.event_log)
        return "\n".join(parts)

    def format(self) -> str:
        rel = self.reliability
        lines = [
            f"chaos {self.workload}: {self.ops} ops, seed {self.seed}",
            "  fault plan      : "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.plan_summary.items())),
            f"  faults injected : {int(rel.get('faults_injected', 0))}",
            f"  bits corrected  : {int(rel.get('errors_corrected', 0))}",
            f"  faults recovered: {int(rel.get('faults_recovered', 0))}"
            f"  (retries={int(rel.get('read_retries', 0))},"
            f" remaps={int(rel.get('remaps', 0))},"
            f" power-loss rebuilds={int(rel.get('power_loss_recoveries', 0))},"
            f" tenant aborts={int(rel.get('tenant_aborts', 0))})",
            f"  faults fatal    : {int(rel.get('faults_fatal', 0))}"
            f"  (dies failed={int(rel.get('dies_failed', 0))})",
            f"  integrity hits  : {int(rel.get('integrity_violations', 0))}",
            f"  added latency   : {rel.get('added_latency_s', 0.0) * 1e3:.3f} ms",
            "  nvme statuses   : "
            + (
                ", ".join(f"{k}={v}" for k, v in sorted(self.nvme_statuses.items()))
                or "none"
            ),
            f"  invariant breaks: {self.invariant_violations}",
            f"  events          : {len(self.event_log)} logged",
        ]
        return "\n".join(lines)

    # NOTE: the platform-layer view of a chaos run lives in
    # `repro.platform.metrics.RunResult.from_chaos`; building it here would
    # invert the faults -> platform layering.


class ChaosRunner(Stateful):
    """One deterministic chaos execution (see module docstring)."""

    # everything a resumed run needs to draw the same bytes: the component
    # snapshots (PRNG, FTL stack, tenant enclaves, injector latch) and the
    # harness's own cursor and ground-truth tables; the owner re-arms the
    # monitors, so they are absent
    STATE = (
        "_next_op",
        "_tag",
        "_prepared",
        "rng",
        "stats",
        "ftl",
        "guard",
        "injector",
        "expected",
        "event_log",
        "nvme_statuses",
        "invariant_violations",
    )

    def __init__(
        self,
        workload: str,
        write_ratio: float,
        seed: int = 42,
        ops: int = 3000,
        plan_config: Optional[FaultPlanConfig] = None,
    ) -> None:
        if ops < 10:
            raise ValueError("chaos needs at least 10 operations")
        self.workload = workload
        self.seed = seed
        self.ops = ops
        self.write_fraction = max(MIN_WRITE_FRACTION, min(0.9, write_ratio))
        self.rng = XorShift64((seed << 1) ^ 0xC4A05)
        self.stats = ReliabilityStats()
        self.chip = FlashChip(CHAOS_GEOMETRY, store_data=True)
        self.ftl = Ftl(CHAOS_GEOMETRY, chip=self.chip, overprovision=0.25)
        self.ftl.attach_reliability(
            ecc=EccModel(seed=(seed ^ 0xECC) or 1),
            retry_policy=ReadRetryPolicy(),
            reliability=self.stats,
        )
        self.guard = EnclaveIntegrityGuard(stats=self.stats)
        for tee_id in (1, 2):
            self.guard.register(
                tee_id,
                TENANT_PAGES,
                aes_key=bytes([tee_id]) * 16,
                mac_key=bytes([0x80 + tee_id]) * 16,
            )
        self.plan = FaultPlan.generate(seed, ops, plan_config or FaultPlanConfig())
        self.injector = FaultInjector(self.plan, self.ftl, self.guard, self.stats)
        self.expected: Dict[int, bytes] = {}
        self.event_log: List[str] = []
        self.nvme_statuses: Dict[str, int] = {}
        self.invariant_violations = 0
        # stepping cursor: run() == prepare() + ops * step() + finalize(),
        # so a checkpoint between steps resumes with identical RNG draws
        self._prepared = False
        self._next_op = 0
        self._tag = 0
        self.monitors = None  # repro: allow[recovery-unserialized-state] -- MonitorSuite is re-armed via arm_monitors after restore, never serialized

    # -- pieces ----------------------------------------------------------------

    def _payload(self, lpa: int, tag: int) -> bytes:
        return f"{lpa}:{tag}".encode()

    def _seed_tenant(self, tee_id: int) -> None:
        tenant = self.guard.tenants[tee_id]
        for i in range(TENANT_LINES):
            page, line = i % TENANT_PAGES, i
            self.guard.write(
                tee_id, page, line,
                f"t{tee_id}g{tenant.generation}p{page}l{line}".encode(),
            )

    def _write(self, lpa: int, tag: int) -> None:
        payload = self._payload(lpa, tag)
        try:
            self.ftl.write(lpa, payload)
        except PowerLossError as exc:
            # the host program committed (OOB and all) before GC started,
            # so the new data must survive the rebuild
            self.expected[lpa] = payload
            self._power_cut(f"mid-gc ({exc.point})")
            return
        self.expected[lpa] = payload

    def _read(self, op: int, lpa: int) -> None:
        try:
            cost = self.ftl.read(lpa)
        except UncorrectableReadError as exc:
            status = status_for_exception(exc)
            self.nvme_statuses[status.name] = self.nvme_statuses.get(status.name, 0) + 1
            self.event_log.append(f"op={op} lost lpa={lpa} nvme={status.name}")
            self.expected.pop(lpa, None)
            return
        got = self.chip.read(cost.ppa)
        if got != self.expected[lpa]:
            self.invariant_violations += 1
            self.event_log.append(f"op={op} MISMATCH lpa={lpa}")

    def _power_cut(self, label: str) -> None:
        report = self.ftl.recover_from_power_loss()
        self.event_log.append(
            f"power-loss[{label}]: recovered={report.mappings_recovered}"
            f" stale_discarded={report.stale_copies_discarded}"
            f" scanned={report.pages_scanned}"
        )
        self._verify_expected("post-power-loss")

    def _verify_expected(self, label: str) -> None:
        bad = 0
        for lpa, payload in sorted(self.expected.items()):
            try:
                ppa = self.ftl.translate(lpa)
                if self.chip.read(ppa) != payload:
                    bad += 1
            except (KeyError, AccessDeniedError, FlashProgramError, DieFailureError):
                # the mapping or physical page did not survive the fault
                bad += 1
        if bad:
            self.invariant_violations += bad
            self.event_log.append(f"{label}: {bad} lost/corrupt mappings")

    def _handle_applied(self, op: int, applied) -> None:
        for fault in applied:
            self.event_log.append(fault.describe())
            if fault.action == "power_loss":
                self._power_cut("scheduled")
            elif fault.action == "die_failed":
                survivors = {
                    lpa: v for lpa, v in self.expected.items() if lpa in self.ftl.mapping
                }
                dropped = len(self.expected) - len(survivors)
                self.expected = survivors
                self.event_log.append(f"op={op} die quarantine dropped {dropped} lpas")
            elif fault.action == "dram_corrupted":
                for message in self.guard.sweep():
                    self.event_log.append(
                        f"op={op} tenant {message.tee_id} aborted: enclave torn down,"
                        " other tenants unaffected"
                    )
                    tenant = self.guard.restart(message.tee_id)
                    if self.monitors is not None:
                        # fresh enclave generation: re-arm the monitor so its
                        # counter shadows restart with the new MEE
                        self.monitors.attach_mee(
                            tenant.mee, f"tenant{message.tee_id}"
                        )
                    # the restart replays the journaled write epoch: every
                    # line committed before the abort must round-trip
                    bad = sum(
                        1
                        for page, line in tenant.lines_written
                        if self.guard.read(message.tee_id, page, line)
                        != tenant.journal[(page, line)]
                    )
                    if bad:
                        self.invariant_violations += bad
                        self.event_log.append(
                            f"op={op} tenant {message.tee_id} replay lost {bad} lines"
                        )
                    self.event_log.append(
                        f"op={op} tenant {message.tee_id} restarted"
                        f" gen={tenant.generation}"
                        f" replayed={len(tenant.lines_written)} lines"
                    )

    # -- the run ---------------------------------------------------------------

    def prepare(self) -> None:
        """Seed the tenants and age the flash (the pre-fault-window phase).

        Three passes over the working set ages the flash enough that GC
        runs during the fault window. Called implicitly by :meth:`run_until`.
        """
        if self._prepared:
            raise RuntimeError("chaos runner is already prepared")
        self._prepared = True
        for tee_id in (1, 2):
            self._seed_tenant(tee_id)
        for _ in range(3):
            for lpa in range(WORKING_SET):
                self._write(lpa, self._tag)
                self._tag += 1

    def step(self) -> None:
        """Execute exactly one chaos operation (due faults + one host I/O)."""
        op = self._next_op
        self._handle_applied(op, self.injector.fire(op))
        if self.rng.next_float() < self.write_fraction or not self.expected:
            lpa = self.rng.next_below(WORKING_SET)
            self._write(lpa, self._tag)
            self._tag += 1
        else:
            keys = sorted(self.expected)
            self._read(op, keys[self.rng.next_below(len(keys))])
        self._next_op += 1

    @property
    def ops_executed(self) -> int:
        return self._next_op

    def run_until(self, op_count: int) -> None:
        """Advance to (at most) ``op_count`` executed operations."""
        if not self._prepared:
            self.prepare()
        stop = min(op_count, self.ops)
        while self._next_op < stop:
            self.step()

    def finalize(self) -> ChaosReport:
        """Final verification sweep and report (after all ops executed)."""
        if self.injector.gc_cut_armed:
            # the armed mid-GC cut never met a GC pass; fall back to a
            # between-ops cut so the scheduled fault still happens
            self.injector.gc_cut_armed = False
            self.event_log.append("armed gc cut never fired; cutting between ops")
            self._power_cut("fallback")
        self._verify_expected("final")
        live = self.guard.live_tenants()
        if live != [1, 2]:
            self.invariant_violations += 1
            self.event_log.append(f"final: tenants not all restored: {live}")
        ftl_counters = {
            "host_reads": self.ftl.stats.host_reads,
            "host_writes": self.ftl.stats.host_writes,
            "gc_relocations": self.ftl.stats.gc_relocations,
            "gc_erases": self.ftl.stats.gc_erases,
            "wl_migrations": self.ftl.stats.wl_migrations,
            "mapped_lpas": len(self.ftl.mapping),
            "ecc_reads": self.ftl.ecc.reads,
            "ecc_injected_reads": self.ftl.ecc.injected_reads,
        }
        return ChaosReport(
            workload=self.workload,
            seed=self.seed,
            ops=self.ops,
            reliability=self.stats.as_dict(),
            plan_summary={k.value: v for k, v in self.plan.by_kind().items()},
            nvme_statuses=dict(self.nvme_statuses),
            ftl_counters=ftl_counters,
            invariant_violations=self.invariant_violations,
            event_log=list(self.event_log),
        )

    def run(self) -> ChaosReport:
        self.run_until(self.ops)
        return self.finalize()

    # -- monitors ---------------------------------------------------------------

    def arm_monitors(self, suite) -> None:
        """Attach a runtime invariant monitor (:mod:`repro.recovery`).

        Duck-typed on purpose: faults must not import the recovery layer.
        The suite is re-attached to a tenant's fresh MEE on every restart so
        its counter-monotonicity shadows reset with the enclave generation.
        """
        self.monitors = suite
        self.ftl.invariant_monitor = suite
        suite.attach_ftl(self.ftl)
        for tee_id, tenant in sorted(self.guard.tenants.items()):
            suite.attach_mee(tenant.mee, f"tenant{tee_id}")


def run_chaos(
    workload: str,
    write_ratio: float,
    seed: int = 42,
    ops: int = 3000,
    plan_config: Optional[FaultPlanConfig] = None,
) -> ChaosReport:
    """Build a runner and execute it once (see :class:`ChaosRunner`)."""
    return ChaosRunner(
        workload, write_ratio, seed=seed, ops=ops, plan_config=plan_config
    ).run()
