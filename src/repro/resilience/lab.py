"""The resilience lab: chaos plans as availability experiments.

PR 1's chaos harness answers "does the *data* survive faults?"; this lab
answers the production question on top of it: "does the *service* survive
faults?". It drives an open-loop, sim-time request stream through a
multi-channel NVMe front (one :class:`~repro.host.nvme.NvmeQueuePair` per
channel, each page mirrored on a replica channel) while a deterministic
:class:`~repro.faults.plan.FaultPlan` degrades the device — read-retry
latency storms, poisoned pages, a die that hangs mid-run, protected-DRAM
corruption, power-loss stalls — and measures per-request availability and
tail latency with and without the resilience policies engaged.

Policies-off is the PR 1 world: a request that hits a fault surfaces an
NVMe error (or wedges forever behind a dead die). Policies-on engages the
full toolkit — per-command sim-time timeouts, bounded seeded-backoff
retries to the replica channel, hedged reads at the observed latency
quantile, per-channel circuit breakers with half-open probes, token-bucket
admission, and the NORMAL → DEGRADED_READONLY → FAILSAFE ladder.

Everything — arrivals, service jitter, fault schedule, backoff jitter — is
derived from the run seed through :class:`~repro.crypto.prng.XorShift64`
streams, so the same seed twice produces byte-identical reports; the CLI
(``python -m repro resilience``) proves that on every invocation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.crypto.prng import XorShift64
from repro.faults.plan import FaultKind, FaultPlan, FaultPlanConfig
from repro.flash.ecc import EccUncorrectableError
from repro.host.nvme import NvmeCommand, NvmeQueuePair, NvmeStatus
from repro.host.pcie import PcieLink
from repro.platform.metrics import SloObjectives, SloTracker
from repro.resilience.admission import AdmissionConfig, AdmissionController
from repro.resilience.breaker import BreakerBoard, BreakerConfig
from repro.resilience.degrade import DegradationLadder, DegradeConfig
from repro.resilience.policy import HedgePolicy, RetryPolicy, TimeoutBudget
from repro.sim.engine import Engine, Event
from repro.sim.state import Record

PAGE_BYTES = 4096


@dataclass(frozen=True)
class LabConfig:
    """Shape of one resilience experiment (both arms share it)."""

    channels: int = 4
    ops: int = 2000
    working_set: int = 128
    interarrival_s: float = 25e-6
    write_fraction: float = 0.25
    base_latency_s: float = 60e-6
    jitter_s: float = 20e-6
    # how plan events translate into device misbehaviour
    storm_window_s: float = 1.5e-3
    storm_factor: float = 8.0
    storm_errors: int = 2
    stall_s: float = 1.2e-3
    drain_grace_s: float = 20e-3

    def horizon(self) -> float:
        return self.ops * self.interarrival_s + self.drain_grace_s


@dataclass(frozen=True)
class PolicySuite:
    """The resilience toolkit configuration for the policies-on arm."""

    timeouts: TimeoutBudget = TimeoutBudget(
        command_timeout_s=600e-6, request_deadline_s=8e-3
    )
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    hedge: HedgePolicy = field(default_factory=HedgePolicy)
    breaker: BreakerConfig = BreakerConfig()
    admission: AdmissionConfig = AdmissionConfig(
        rate_per_s=120_000.0, burst=96.0, max_queued=96
    )
    # a 2 ms recovery window lets the ladder climb FAILSAFE -> NORMAL inside
    # one request deadline, so a transient all-channels event (a power-loss
    # stall) costs latency, not availability
    degrade: DegradeConfig = DegradeConfig(recovery_window_s=2e-3)
    defer_interval_s: float = 600e-6  # re-check cadence while degraded


@dataclass
class _Channel:
    """Fault-visible state of one channel (≈ one die in this lab)."""

    index: int
    qp: NvmeQueuePair
    rng: XorShift64
    slow_until: float = -1.0
    slow_factor: float = 1.0
    dead_from: float = math.inf
    error_credits: int = 0  # next N commands fail with an ECC uncorrectable

    def service_latency(
        self, now: float, base: float, jitter: float, stall_until: float
    ) -> float:
        if now >= self.dead_from:
            return math.inf  # hung die: the command never completes
        latency = base + jitter * self.rng.next_float()
        if now < self.slow_until:
            latency *= self.slow_factor
        if now < stall_until:
            latency += stall_until - now  # power-loss stall delays service
        return latency

    def take_error(self) -> bool:
        if self.error_credits > 0:
            self.error_credits -= 1
            return True
        return False


@dataclass
class _Request:
    rid: int
    opcode: str  # "read" | "write"
    lpa: int
    start: float
    deadline: float
    attempts: int = 0
    done: bool = False
    hedge_event: Optional[Event] = None
    in_flight: int = 0  # outstanding commands (primary + hedge)


@dataclass
class ArmReport(Record):
    """Outcome of one arm (policies on or off)."""

    policies: str  # "on" | "off"
    availability: float
    requests: int
    failures: int
    p50_read_s: float
    p99_read_s: float
    counters: Dict[str, int] = field(default_factory=dict)
    failure_reasons: Dict[str, int] = field(default_factory=dict)
    slo_lines: List[str] = field(default_factory=list)
    event_log: List[str] = field(default_factory=list)


class _Arm:
    """One deterministic execution of the request stream against the plan."""

    def __init__(
        self,
        seed: int,
        config: LabConfig,
        plan: FaultPlan,
        suite: Optional[PolicySuite],
    ) -> None:
        self.seed = seed
        self.config = config
        self.plan = plan
        self.suite = suite
        self.engine = Engine()
        self.slo = SloTracker(SloObjectives(availability=0.99, p99_read_s=2e-3))
        self.admission = (
            AdmissionController(suite.admission) if suite is not None else None
        )
        self.channels = [
            _Channel(
                index=i,
                qp=NvmeQueuePair(
                    self.engine,
                    PcieLink(),
                    queue_depth=64,
                    admission=self.admission,
                ),
                rng=XorShift64(((seed + 1) << 8) ^ (0x5E11 + i)),
            )
            for i in range(config.channels)
        ]
        self.board = BreakerBoard(suite.breaker) if suite is not None else None
        self.ladder = DegradationLadder(suite.degrade) if suite is not None else None
        # the retry PRNG is re-seeded per run so two runs of the same seed
        # replay identical backoff jitter
        self.retry = (
            RetryPolicy(
                max_attempts=suite.retry.max_attempts,
                base_delay_s=suite.retry.base_delay_s,
                multiplier=suite.retry.multiplier,
                cap_s=suite.retry.cap_s,
                jitter_fraction=suite.retry.jitter_fraction,
                seed=(seed << 4) ^ 0xB0FF,
            )
            if suite is not None
            else None
        )
        self.arrival_rng = XorShift64((seed << 2) ^ 0xA221)
        self.stall_until = -1.0
        self.dead_lpas: Set[int] = set()  # client gave up on these pages
        self.counters: Dict[str, int] = {}
        self.failure_reasons: Dict[str, int] = {}
        self.event_log: List[str] = []
        self.live_requests: Dict[int, _Request] = {}  # by rid
        # lpas whose primary (or both) copies the plan poisoned; reads fail,
        # a successful overwrite remaps the data and clears the poison
        self.poisoned_primary: Set[int] = set()
        self.poisoned_both: Set[int] = set()

    # -- bookkeeping -----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _log(self, message: str) -> None:
        self.event_log.append(f"t={self.engine.now * 1e3:.3f}ms {message}")

    # -- fault translation -----------------------------------------------------

    def _schedule_plan(self) -> None:
        """Translate op-indexed plan events into sim-time device faults."""
        cfg = self.config
        for event in self.plan.events:
            when = event.op_index * cfg.interarrival_s
            channel = self.channels[event.param % cfg.channels]
            lpa = event.param % cfg.working_set
            if event.kind is FaultKind.READ_BURST:
                self.engine.schedule_at(
                    when, self._make_storm(channel), name="fault-storm"
                )
            elif event.kind is FaultKind.UNCORRECTABLE_PAGE:
                self.engine.schedule_at(
                    when, self._make_poison(lpa, both=False), name="fault-poison"
                )
            elif event.kind is FaultKind.HARD_UNCORRECTABLE:
                self.engine.schedule_at(
                    when, self._make_poison(lpa, both=True), name="fault-poison-hard"
                )
            elif event.kind is FaultKind.DIE_FAILURE:
                self.engine.schedule_at(
                    when, self._make_die_failure(channel), name="fault-die"
                )
            elif event.kind is FaultKind.DRAM_CORRUPTION:
                self.engine.schedule_at(
                    when, self._make_integrity_hit(event.param), name="fault-dram"
                )
            else:  # POWER_LOSS / POWER_LOSS_MID_GC: a full-device stall
                self.engine.schedule_at(when, self._make_stall(), name="fault-stall")

    def _make_storm(self, channel: _Channel) -> Callable[[], None]:
        def fire() -> None:
            channel.slow_until = self.engine.now + self.config.storm_window_s
            channel.slow_factor = self.config.storm_factor
            channel.error_credits += self.config.storm_errors
            self._log(f"fault: retry storm on ch{channel.index}")
        return fire

    def _make_poison(self, lpa: int, both: bool) -> Callable[[], None]:
        def fire() -> None:
            self.poisoned_primary.add(lpa)
            if both:
                self.poisoned_both.add(lpa)
            which = "both copies" if both else "primary copy"
            self._log(f"fault: lpa {lpa} poisoned ({which})")
        return fire

    def _make_die_failure(self, channel: _Channel) -> Callable[[], None]:
        def fire() -> None:
            channel.dead_from = self.engine.now
            self._log(f"fault: die on ch{channel.index} hung (no completions)")
        return fire

    def _make_integrity_hit(self, param: int) -> Callable[[], None]:
        def fire() -> None:
            self._count("integrity_violations")
            self._log(f"fault: protected-DRAM corruption (tenant {param % 2 + 1})")
            if self.ladder is not None:
                before = self.ladder.mode
                self.ladder.note_integrity_violation(self.engine.now)
                if self.ladder.mode is not before:
                    self._log(f"mode -> {self.ladder.mode.value}")
        return fire

    def _make_stall(self) -> Callable[[], None]:
        def fire() -> None:
            self.stall_until = max(
                self.stall_until, self.engine.now + self.config.stall_s
            )
            self._log("fault: power-loss stall (all channels)")
        return fire

    # -- request generation ----------------------------------------------------

    def _schedule_arrivals(self) -> None:
        cfg = self.config
        deadline = (
            self.suite.timeouts.request_deadline_s
            if self.suite is not None
            else cfg.drain_grace_s
        )
        for i in range(cfg.ops):
            start = i * cfg.interarrival_s
            opcode = (
                "write"
                if self.arrival_rng.next_float() < cfg.write_fraction
                else "read"
            )
            lpa = self.arrival_rng.next_below(cfg.working_set)
            request = _Request(
                rid=i, opcode=opcode, lpa=lpa, start=start,
                deadline=start + deadline,
            )
            self.engine.schedule_at(start, self._make_arrival(request), name="arrival")

    def _make_arrival(self, request: _Request) -> Callable[[], None]:
        def fire() -> None:
            if request.opcode == "read" and request.lpa in self.dead_lpas:
                # the client already took an unrecoverable error for this
                # page and dropped it; re-reading would re-fail forever
                self._count("reads_skipped_dead_lpa")
                return
            self.live_requests[request.rid] = request
            self._issue(request)
        return fire

    # -- channel selection -----------------------------------------------------

    def _primary(self, lpa: int) -> int:
        return lpa % self.config.channels

    def _replica(self, lpa: int) -> int:
        return (lpa + self.config.channels // 2) % self.config.channels

    def _pick_channel(
        self, request: _Request, exclude: Optional[int] = None
    ) -> Optional[int]:
        now = self.engine.now
        for index in (self._primary(request.lpa), self._replica(request.lpa)):
            if index == exclude:
                continue
            if self.board is None or self.board.breaker(f"ch{index}").allow(now):
                return index
        return None

    # -- issue / completion ----------------------------------------------------

    def _issue(self, request: _Request, exclude: Optional[int] = None,
               hedged: bool = False) -> None:
        if request.done:
            return
        now = self.engine.now
        cfg = self.config

        # degraded-mode gates (policies on only): a gated request is parked
        # and re-evaluated, not failed — degradation is device state, and the
        # deadline still bounds how long the client will wait it out
        if self.ladder is not None:
            if request.opcode == "write" and not self.ladder.allows_writes():
                self._count("writes_deferred_degraded")
                self._defer(request, "degraded_readonly")
                return
            if request.opcode == "read" and not self.ladder.allows_reads():
                self._count("reads_deferred_failsafe")
                self._defer(request, "failsafe")
                return

        channel_index = (
            self._pick_channel(request, exclude)
            if self.suite is not None
            else self._primary(request.lpa)
        )
        if channel_index is None:
            # every eligible channel's breaker is open: park the request
            # until a breaker half-opens rather than burning retry attempts
            self._count("no_channel_available")
            self._defer(request, "breakers_open")
            return
        channel = self.channels[channel_index]

        latency = channel.service_latency(
            now, cfg.base_latency_s, cfg.jitter_s, self.stall_until
        )
        failure: Optional[Exception] = None
        if request.opcode == "read":
            if request.lpa in self.poisoned_both:
                failure = EccUncorrectableError(
                    "hard uncorrectable page", raw_errors=999
                )
            elif (
                request.lpa in self.poisoned_primary
                and channel_index == self._primary(request.lpa)
            ):
                failure = EccUncorrectableError(
                    "uncorrectable page copy", raw_errors=200
                )
        if failure is None and channel.take_error():
            failure = EccUncorrectableError("read-retry storm residue", raw_errors=120)

        def device_op() -> None:
            if failure is not None:
                raise failure

        request.attempts += 1
        request.in_flight += 1
        self._count("commands_issued")
        if hedged:
            self._count("hedges_issued")
        timeout = (
            self.suite.timeouts.command_timeout_s if self.suite is not None else None
        )
        channel.qp.submit(
            request.opcode,
            PAGE_BYTES,
            on_done=self._make_completion(request, channel_index, hedged),
            device_op=device_op,
            device_latency=latency,
            timeout=timeout,
        )

        # hedge the first read attempt once it outlives the latency quantile
        # (done can flip inside submit: an admission shed completes inline)
        if (
            self.suite is not None
            and not request.done
            and not hedged
            and request.opcode == "read"
            and request.hedge_event is None
            and request.in_flight > 0
            and self._primary(request.lpa) != self._replica(request.lpa)
        ):
            delay = self.suite.hedge.hedge_delay(self.slo.sorted_latencies("read"))
            request.hedge_event = self.engine.schedule(
                delay, self._make_hedge(request, channel_index), name="hedge"
            )

    def _make_hedge(self, request: _Request, first_channel: int) -> Callable[[], None]:
        def fire() -> None:
            if request.done or request.in_flight == 0:
                return
            self._issue(request, exclude=first_channel, hedged=True)
        return fire

    def _make_completion(
        self, request: _Request, channel_index: int, hedged: bool
    ) -> Callable[[NvmeCommand], None]:
        def on_done(command: NvmeCommand) -> None:
            request.in_flight -= 1
            now = self.engine.now
            # feed the breaker (admission sheds say nothing about the channel)
            if (
                self.board is not None
                and command.status is not NvmeStatus.COMMAND_INTERRUPTED
            ):
                breaker = self.board.breaker(f"ch{channel_index}")
                if command.status.is_error:
                    breaker.record_failure(now)
                else:
                    breaker.record_success(now)
                if self.ladder is not None:
                    before = self.ladder.mode
                    self.ladder.note_open_breakers(now, self.board.open_count(now))
                    if self.ladder.mode is not before:
                        self._log(f"mode -> {self.ladder.mode.value}")
            if request.done:
                self._count("late_completions")
                return
            if not command.status.is_error:
                if request.opcode == "write":
                    # the overwrite remapped the data onto healthy pages
                    self.poisoned_primary.discard(request.lpa)
                    self.poisoned_both.discard(request.lpa)
                    self.dead_lpas.discard(request.lpa)
                if hedged:
                    self._count("hedge_wins")
                self._succeed(request)
                return
            # a failed attempt: decide whether/where to try again
            self._count(f"status.{command.status.name}")
            if command.status is NvmeStatus.COMMAND_ABORTED:
                self._count("command_timeouts")
            terminal_loss = (
                request.opcode == "read" and request.lpa in self.poisoned_both
            )
            if self.suite is None:
                if terminal_loss:
                    self.dead_lpas.add(request.lpa)
                if request.in_flight == 0:
                    self._fail(request, command.status.name.lower())
                return
            if terminal_loss:
                # no copy can serve this page: an honest data loss; retrying
                # would only burn the error budget
                self.dead_lpas.add(request.lpa)
                self._fail(request, "data_loss_both_copies")
                return
            self._backoff_retry(
                request, reason=command.status.name.lower(), exclude=channel_index
            )
        return on_done

    # -- retry / outcome -------------------------------------------------------

    def _backoff_retry(self, request: _Request, reason: str,
                       exclude: Optional[int] = None) -> None:
        if request.done or request.in_flight > 0:
            return  # a sibling (hedge) attempt is still racing; let it finish
        assert self.retry is not None
        now = self.engine.now
        if not self.retry.allows(request.attempts):
            self._fail(request, f"retries_exhausted({reason})")
            return
        delay = self.retry.delay(request.attempts)
        if now + delay >= request.deadline:
            self._fail(request, f"deadline_exceeded({reason})")
            return
        self._count("retries")
        self.engine.schedule(delay, self._make_retry(request, exclude), name="retry")

    def _defer(self, request: _Request, why: str) -> None:
        """Park a request the device cannot serve right now (degraded mode,
        all breakers open) until conditions change.

        Deferral is paced by a fixed sim-time interval and bounded by the
        request deadline (not by retry attempts — this is device state, not
        per-request bad luck). Each wake-up re-evaluates the ladder, which
        is also how the mode climbs back once the recovery window has run
        clean.
        """
        assert self.suite is not None
        delay = self.suite.defer_interval_s
        if self.engine.now + delay >= request.deadline:
            self._fail(request, f"deadline_exceeded({why})")
            return

        def wake() -> None:
            if request.done:
                return
            # refresh the ladder's view before re-checking the gates: an OPEN
            # breaker past its reset timeout no longer counts against the
            # mode, which is what lets the ladder climb back out of FAILSAFE
            if self.ladder is not None and self.board is not None:
                self.ladder.note_open_breakers(
                    self.engine.now, self.board.open_count(self.engine.now)
                )
            self._issue(request)

        self.engine.schedule(delay, wake, name="defer")

    def _make_retry(
        self, request: _Request, exclude: Optional[int]
    ) -> Callable[[], None]:
        def fire() -> None:
            if request.done:
                return
            self._issue(request, exclude=exclude)
        return fire

    def _settle(self, request: _Request) -> None:
        request.done = True
        if request.hedge_event is not None:
            self.engine.cancel(request.hedge_event)
            request.hedge_event = None
        del self.live_requests[request.rid]

    def _succeed(self, request: _Request) -> None:
        self._settle(request)
        self.slo.record(
            self.engine.now, request.opcode, self.engine.now - request.start, ok=True
        )

    def _fail(self, request: _Request, reason: str) -> None:
        self._settle(request)
        self.failure_reasons[reason] = self.failure_reasons.get(reason, 0) + 1
        self.slo.record(
            self.engine.now, request.opcode, self.engine.now - request.start, ok=False
        )

    # -- the run ---------------------------------------------------------------

    def run(self) -> ArmReport:
        self._schedule_plan()
        self._schedule_arrivals()
        horizon = self.config.horizon()
        self.engine.run(until=horizon)
        # anything still outstanding is wedged behind a hung die (or past the
        # horizon): account it as failed at the horizon, not ignored
        for rid in sorted(self.live_requests):
            request = self.live_requests[rid]
            request.done = True
            self.failure_reasons["unfinished_at_horizon"] = (
                self.failure_reasons.get("unfinished_at_horizon", 0) + 1
            )
            self.slo.record(horizon, request.opcode, horizon - request.start, ok=False)
        self.live_requests = {}

        for channel in self.channels:
            if channel.qp.timeouts:
                self._count("qp_timeouts", channel.qp.timeouts)
            if channel.qp.admission_rejections:
                self._count("admission_rejections", channel.qp.admission_rejections)
        if self.board is not None:
            self.event_log.extend(self.board.transition_log())
            transitions = sum(
                len(self.board.breaker(f"ch{i}").transitions)
                for i in range(self.config.channels)
            )
            if transitions:
                self._count("breaker_transitions", transitions)
        if self.ladder is not None:
            self.event_log.extend(self.ladder.transition_log())

        return ArmReport(
            policies="off" if self.suite is None else "on",
            availability=self.slo.availability(),
            requests=self.slo.total,
            failures=self.slo.failures,
            p50_read_s=self.slo.percentile("read", 50),
            p99_read_s=self.slo.percentile("read", 99),
            counters=dict(self.counters),
            failure_reasons=dict(self.failure_reasons),
            slo_lines=self.slo.summary_lines(),
            event_log=list(self.event_log),
        )


@dataclass
class ResilienceReport(Record):
    """Both arms of one experiment plus the comparison the CLI prints."""

    JUDGED = ("resilient", "policies on")  # the arm the availability floor judges

    seed: int
    ops: int
    channels: int
    plan_summary: Dict[str, int]
    baseline: ArmReport  # policies off
    resilient: ArmReport  # policies on

    def availability_gain(self) -> float:
        return self.resilient.availability - self.baseline.availability

    def p99_speedup(self) -> float:
        if self.resilient.p99_read_s <= 0:
            return float("inf")
        return self.baseline.p99_read_s / self.resilient.p99_read_s

    def gates(self) -> List[Tuple[bool, str]]:
        """The lab's exit gates as ``(held, message)`` pairs."""
        return [(self.availability_gain() > 0, "policies did not improve availability")]

    def format(self) -> str:
        lines = [
            f"resilience experiment: seed {self.seed}, {self.ops} requests,"
            f" {self.channels} channels",
            "  fault plan      : "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.plan_summary.items())),
        ]
        for arm in (self.baseline, self.resilient):
            label = "policies OFF " if arm.policies == "off" else "policies ON  "
            lines.append(
                f"  {label}   : availability={arm.availability * 100:8.4f}%"
                f"  p50={arm.p50_read_s * 1e6:8.1f}us"
                f"  p99={arm.p99_read_s * 1e6:8.1f}us"
                f"  failures={arm.failures}"
            )
        lines.append(
            f"  delta           : availability {self.availability_gain() * 100:+.4f} pp,"
            f" p99 read {self.p99_speedup():.1f}x faster with policies"
        )
        on = self.resilient.counters
        lines.append(
            "  policy activity : "
            f"retries={on.get('retries', 0)}"
            f" hedges={on.get('hedges_issued', 0)}"
            f" (won {on.get('hedge_wins', 0)})"
            f" timeouts={on.get('command_timeouts', 0)}"
            f" breaker_transitions={on.get('breaker_transitions', 0)}"
            f" shed={on.get('admission_rejections', 0)}"
        )
        return "\n".join(lines)

    def csv_rows(self) -> List[List[str]]:
        """Rows for the ``resilience_slo.csv`` export (deterministic order)."""
        header = [
            "seed", "ops", "channels", "policies", "availability",
            "p50_read_s", "p99_read_s", "failures",
        ]
        rows = [header]
        for arm in (self.baseline, self.resilient):
            rows.append([
                str(self.seed), str(self.ops), str(self.channels), arm.policies,
                repr(arm.availability), repr(arm.p50_read_s),
                repr(arm.p99_read_s), str(arm.failures),
            ])
        return rows


def run_resilience_arm(
    seed: int,
    ops: int,
    policies: bool,
    config: Optional[LabConfig] = None,
    suite: Optional[PolicySuite] = None,
    plan_config: Optional[FaultPlanConfig] = None,
) -> ArmReport:
    """Run a single lab arm (pure function of its arguments).

    The scenario-search layer drives one arm at a time — usually
    policies-off, hunting for the fault×workload×config mix that does the
    most SLO damage — so the two-arm pairing of :func:`run_resilience` is
    wasted work there. Same seed + config + plan ⇒ byte-identical report.
    """
    cfg = config or LabConfig()
    if cfg.ops != ops:
        cfg = dataclasses.replace(cfg, ops=ops)
    plan = FaultPlan.generate(seed, cfg.ops, plan_config or FaultPlanConfig())
    arm_suite = (suite or PolicySuite()) if policies else None
    return _Arm(seed, cfg, plan, suite=arm_suite).run()


def run_resilience(
    seed: int = 7,
    ops: int = 2000,
    config: Optional[LabConfig] = None,
    suite: Optional[PolicySuite] = None,
    plan_config: Optional[FaultPlanConfig] = None,
) -> ResilienceReport:
    """Run both arms (policies off, then on) of one experiment."""
    cfg = config or LabConfig()
    if cfg.ops != ops:
        cfg = dataclasses.replace(cfg, ops=ops)
    plan = FaultPlan.generate(seed, cfg.ops, plan_config or FaultPlanConfig())
    baseline = _Arm(seed, cfg, plan, suite=None).run()
    resilient = _Arm(seed, cfg, plan, suite=suite or PolicySuite()).run()
    return ResilienceReport(
        seed=seed,
        ops=cfg.ops,
        channels=cfg.channels,
        plan_summary={k.value: v for k, v in plan.by_kind().items()},
        baseline=baseline,
        resilient=resilient,
    )


__all__ = [
    "ArmReport",
    "LabConfig",
    "PolicySuite",
    "ResilienceReport",
    "run_resilience",
    "run_resilience_arm",
]
