"""The serve lab: attested multi-tenant serving as an SLO experiment.

Where the resilience lab asks "does the *service* survive faults?", this
lab asks the multi-tenant question on top: "does every *tenant* keep their
SLO, and does the attestation gate hold, under realistic open-loop
traffic?" It drives a seeded arrival schedule (Poisson or bursty, see
:mod:`repro.serve.loadgen`) over thousands of tenants through the full
:class:`~repro.serve.service.OffloadService` stack — nonce-challenged
attestation handshakes, sealed envelopes on every request, token-bucket
admission, per-channel circuit breakers, and the degradation ladder —
while a deterministic :class:`~repro.faults.plan.FaultPlan` degrades the
device underneath.

Two arms share byte-identical traffic, faults, and crypto:

- **policies off** — no admission, no breakers, no ladder, no retries: a
  request that hits a fault window surfaces the error to the tenant;
- **policies on** — the full gate order, with clients honouring the typed
  retry-after hints (bounded by attempts and a request deadline).

Attestation is *not* a policy — it is on in both arms. Tampered tenants
(their handshakes answered by a deployment running trojaned code) are
refused at session establishment in both arms and never reach the SLO
ledger; the lab counts them separately so the CLI can assert that refusals
equal the planted tampered population exactly.

Determinism: arrivals, tenant mix, fault schedule, channel jitter and the
session crypto are all pure functions of the seed; the asyncio front-end
runs a single pump draining a FIFO inbox, so two same-seed campaigns
produce byte-identical fingerprints — the CLI proves it on every run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.attestation import AttestationDevice, AttestationVerifier
from repro.core.config import MIB, IceClaveConfig
from repro.core.runtime import IceClaveRuntime
from repro.crypto.prng import XorShift64
from repro.faults.plan import FaultKind, FaultPlan, FaultPlanConfig
from repro.flash import FlashChip
from repro.flash.geometry import small_geometry
from repro.ftl import Ftl
from repro.host.library import IceClaveLibrary
from repro.host.nvme import NvmeStatus
from repro.platform.metrics import SloBoard, SloObjectives, nearest_rank
from repro.resilience.admission import AdmissionConfig, AdmissionController
from repro.resilience.breaker import BreakerBoard, BreakerConfig
from repro.resilience.degrade import DegradationLadder, DegradeConfig
from repro.serve.loadgen import (
    Arrival,
    ArrivalConfig,
    TenantProfile,
    generate_arrivals,
    make_tenants,
)
from repro.serve.service import DataPathFault, OffloadService, TickClock
from repro.serve.session import (
    AttestClient,
    ClientSession,
    ServerSessionManager,
    try_handshake,
)
from repro.serve.wire import RETRYABLE, Reply, Request, SealedEnvelope, WireStatus

# what the policies-on client will retry: the hinted statuses, plus media
# errors — the device mirrors every page on a replica channel, so a
# bounded re-read/re-write is sound even though NVMe marks them terminal
_CLIENT_RETRYABLE = RETRYABLE | {WireStatus.READ_ERROR, WireStatus.WRITE_ERROR}

DEVICE_SECRET = b"serve-lab-vendor-secret-0001"
GENUINE_BINARY = b"\x7fICE-serve" + b"\x90" * 96
TROJANED_BINARY = b"\x7fEVIL-serve" + b"\xcc" * 96


@dataclass(frozen=True)
class ServeLabConfig:
    """Shape of one serve experiment (both arms share it)."""

    tenants: int = 1000
    requests: int = 4000
    channels: int = 4
    working_set: int = 256
    tampered_fraction: float = 0.01
    offload_every: int = 64  # every Nth request becomes a TEE offload
    arrival: ArrivalConfig = ArrivalConfig()
    chaos: bool = True
    # device-side service model
    base_read_s: float = 80e-6
    base_write_s: float = 120e-6
    jitter_s: float = 30e-6
    # fault translation
    storm_window_s: float = 1.5e-3
    storm_factor: float = 6.0
    storm_errors: int = 3
    integrity_window_s: float = 2.5e-3
    stall_s: float = 1.0e-3
    die_down_s: float = 4e-3
    # client behaviour (policies-on arm)
    command_timeout_s: float = 600e-6
    stuck_latency_s: float = 8e-3  # what a hung die costs with no timeout
    max_attempts: int = 6
    request_deadline_s: float = 25e-3

    def __post_init__(self) -> None:
        if self.tenants < 1 or self.requests < 1:
            raise ValueError("need at least one tenant and one request")
        if self.channels < 2:
            raise ValueError("the replica scheme needs at least two channels")
        if self.offload_every < 2:
            raise ValueError("offload_every must be >= 2")


def serve_plan_config(requests: int = 4000) -> FaultPlanConfig:
    """The fault mix the serve lab schedules (heavier on service-visible
    faults than the storage-centric default).

    Counts scale with the campaign length so fault *density* per request
    stays constant: the open-loop schedule spans time proportional to the
    request count, and a fixed-size plan squeezed into a short campaign
    would keep the device degraded for most of the run.
    """
    scale = requests / 4000.0

    def scaled(base: int) -> int:
        return max(1, int(round(base * scale)))

    return FaultPlanConfig(
        read_bursts=scaled(8),
        uncorrectable_pages=scaled(4),
        hard_uncorrectables=scaled(2),
        die_failures=scaled(2),
        dram_corruptions=scaled(3),
        power_losses=scaled(1),
        power_losses_mid_gc=scaled(1),
    )


@dataclass
class _ChannelState:
    """Fault-visible state of one device channel."""

    index: int
    rng: XorShift64
    slow_until: float = -1.0
    slow_factor: float = 1.0
    dead_until: float = -1.0
    error_credits: int = 0


@dataclass(order=True)
class _AgendaItem:
    """One scheduled client action (arrival or retry), heap-ordered."""

    at_s: float
    seq: int
    arrival: Arrival = field(compare=False)
    op: str = field(compare=False, default="read")
    attempts: int = field(compare=False, default=0)
    first_start: float = field(compare=False, default=0.0)


@dataclass
class ServeArmReport:
    """Outcome of one arm (policies on or off)."""

    policies: str
    requests: int
    failures: int
    availability: float
    p50_read_s: float
    p99_read_s: float
    sessions_established: int
    sessions_refused: int
    tampered_attempted: int  # tampered tenants that actually handshook
    requests_blocked_unattested: int
    tenants_served: int
    tenants_out_of_budget: int
    counters: Dict[str, int] = field(default_factory=dict)
    failure_reasons: Dict[str, int] = field(default_factory=dict)
    slo_lines: List[str] = field(default_factory=list)
    event_log: List[str] = field(default_factory=list)

    def fingerprint_lines(self) -> List[str]:
        parts = [
            f"arm={self.policies}",
            f"requests={self.requests}",
            f"failures={self.failures}",
            f"availability={self.availability!r}",
            f"p50_read={self.p50_read_s!r}",
            f"p99_read={self.p99_read_s!r}",
            f"sessions_established={self.sessions_established}",
            f"sessions_refused={self.sessions_refused}",
            f"tampered_attempted={self.tampered_attempted}",
            f"blocked_unattested={self.requests_blocked_unattested}",
            f"tenants_served={self.tenants_served}",
            f"tenants_out_of_budget={self.tenants_out_of_budget}",
        ]
        parts += [f"counter.{k}={v}" for k, v in sorted(self.counters.items())]
        parts += [f"reason.{k}={v}" for k, v in sorted(self.failure_reasons.items())]
        parts += self.slo_lines
        parts += self.event_log
        return parts

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (schema: one arm of serve-lab-report/v1)."""
        return {
            "policies": self.policies,
            "requests": self.requests,
            "failures": self.failures,
            "availability": self.availability,
            "p50_read_s": self.p50_read_s,
            "p99_read_s": self.p99_read_s,
            "sessions_established": self.sessions_established,
            "sessions_refused": self.sessions_refused,
            "tampered_attempted": self.tampered_attempted,
            "requests_blocked_unattested": self.requests_blocked_unattested,
            "tenants_served": self.tenants_served,
            "tenants_out_of_budget": self.tenants_out_of_budget,
            "counters": dict(sorted(self.counters.items())),
            "failure_reasons": dict(sorted(self.failure_reasons.items())),
            "slo_lines": list(self.slo_lines),
        }


def _make_runtime(config: ServeLabConfig) -> IceClaveRuntime:
    geometry = small_geometry()
    ftl = Ftl(geometry, chip=FlashChip(geometry))
    for lpa in range(config.working_set):
        ftl.write(lpa)
    runtime = IceClaveRuntime(
        ftl,
        config=IceClaveConfig(
            dram_bytes=512 * MIB,
            protected_region_bytes=8 * MIB,
            secure_region_bytes=8 * MIB,
            tee_preallocation_bytes=4 * MIB,
        ),
    )
    return runtime


class _ServeArm:
    """One deterministic campaign execution against the fault plan."""

    def __init__(
        self,
        seed: int,
        config: ServeLabConfig,
        tenants: List[TenantProfile],
        arrivals: List[Arrival],
        plan: Optional[FaultPlan],
        policies_on: bool,
    ) -> None:
        self.seed = seed
        self.config = config
        self.tenants = {t.tenant_id: t for t in tenants}
        self.arrivals = arrivals
        self.plan = plan
        self.policies_on = policies_on
        self.clock = TickClock()
        self.board = SloBoard(
            SloObjectives(availability=0.99, p99_read_s=2e-3), window_s=1e-3
        )
        self.counters: Dict[str, int] = {}
        self.failure_reasons: Dict[str, int] = {}
        self.event_log: List[str] = []
        self.stall_until = -1.0
        self.integrity_until = -1.0
        self.channel_states = [
            _ChannelState(
                index=i, rng=XorShift64(((seed + 1) << 8) ^ (0x5EA5 + i))
            )
            for i in range(config.channels)
        ]

        runtime = _make_runtime(config)
        ladder = (
            DegradationLadder(
                DegradeConfig(
                    integrity_violations_readonly=1,
                    integrity_violations_failsafe=6,
                    recovery_window_s=2e-3,
                )
            )
            if policies_on
            else None
        )
        self.ladder = ladder
        library = IceClaveLibrary(runtime, degradation=ladder)
        device = AttestationDevice(DEVICE_SECRET)
        self.genuine = ServerSessionManager(device, DEVICE_SECRET, GENUINE_BINARY)
        self.trojaned = ServerSessionManager(device, DEVICE_SECRET, TROJANED_BINARY)
        self.verifier = AttestationVerifier(
            DEVICE_SECRET, device.device_id,
            nonce_window=max(4096, config.tenants * 2),
        )
        self.client = AttestClient(self.verifier, DEVICE_SECRET, GENUINE_BINARY)
        self.service = OffloadService(
            sessions=self.genuine,
            library=library,
            clock=self.clock,
            channels=config.channels,
            admission=(
                AdmissionController(
                    AdmissionConfig(rate_per_s=150_000.0, burst=128.0, max_queued=96)
                )
                if policies_on
                else None
            ),
            breakers=BreakerBoard(BreakerConfig()) if policies_on else None,
            ladder=ladder,
            data_path=self._data_path,
        )
        # tenant_id -> established session, or None after a refusal
        self.sessions: Dict[int, Optional[ClientSession]] = {}
        self.sessions_refused = 0
        self.tampered_attempted = 0
        self.blocked_unattested = 0
        # fault schedule translated to sim-time, consumed as the clock passes
        self._fault_agenda = self._translate_plan()
        self._fault_cursor = 0

    # -- bookkeeping -----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _log(self, message: str) -> None:
        self.event_log.append(f"t={self.clock.now * 1e3:.3f}ms {message}")

    # -- fault translation -----------------------------------------------------

    def _translate_plan(self) -> List[Tuple[float, FaultKind, int]]:
        if self.plan is None:
            return []
        agenda = []
        for event in self.plan.events:
            index = min(event.op_index, len(self.arrivals) - 1)
            agenda.append((self.arrivals[index].at_s, event.kind, event.param))
        agenda.sort(key=lambda item: (item[0], item[1].value, item[2]))
        return agenda

    def _apply_due_faults(self) -> None:
        now = self.clock.now
        cfg = self.config
        while (
            self._fault_cursor < len(self._fault_agenda)
            and self._fault_agenda[self._fault_cursor][0] <= now
        ):
            when, kind, param = self._fault_agenda[self._fault_cursor]
            self._fault_cursor += 1
            channel = self.channel_states[param % cfg.channels]
            if kind is FaultKind.READ_BURST:
                channel.slow_until = when + cfg.storm_window_s
                channel.slow_factor = cfg.storm_factor
                channel.error_credits += cfg.storm_errors
                self._log(f"fault: retry storm on ch{channel.index}")
            elif kind in (FaultKind.UNCORRECTABLE_PAGE, FaultKind.HARD_UNCORRECTABLE):
                credits = 2 if kind is FaultKind.UNCORRECTABLE_PAGE else 4
                channel.error_credits += credits
                self._log(f"fault: uncorrectable pages on ch{channel.index}")
            elif kind is FaultKind.DIE_FAILURE:
                channel.dead_until = when + cfg.die_down_s
                self._log(f"fault: die on ch{channel.index} dark for "
                          f"{cfg.die_down_s * 1e3:.1f}ms")
            elif kind is FaultKind.DRAM_CORRUPTION:
                self._count("integrity_violations")
                self.integrity_until = max(
                    self.integrity_until, when + cfg.integrity_window_s
                )
                self._log("fault: protected-DRAM corruption")
                if self.ladder is not None:
                    before = self.ladder.mode
                    self.ladder.note_integrity_violation(when)
                    if self.ladder.mode is not before:
                        self._log(f"mode -> {self.ladder.mode.value}")
            else:  # POWER_LOSS / POWER_LOSS_MID_GC
                self.stall_until = max(self.stall_until, when + cfg.stall_s)
                self._log("fault: power-loss stall (all channels)")

    # -- the device-side data path --------------------------------------------

    def _data_path(self, op: str, lpa: int, channel_index: int, now: float) -> float:
        cfg = self.config
        channel = self.channel_states[channel_index]
        if now < channel.dead_until:
            # hung die: with a timeout the command aborts quickly; without
            # one the client just waits out the hang
            held = cfg.command_timeout_s if self.policies_on else cfg.stuck_latency_s
            raise DataPathFault(NvmeStatus.COMMAND_ABORTED, held)
        base = cfg.base_write_s if op == "write" else cfg.base_read_s
        latency = base + cfg.jitter_s * channel.rng.next_float()
        if now < channel.slow_until:
            latency *= channel.slow_factor
        if now < self.stall_until:
            latency += self.stall_until - now
        if channel.error_credits > 0:
            channel.error_credits -= 1
            status = (
                NvmeStatus.UNRECOVERED_READ_ERROR
                if op == "read"
                else NvmeStatus.WRITE_FAULT
            )
            raise DataPathFault(status, latency)
        if (
            self.ladder is None
            and op == "write"
            and now < self.integrity_until
        ):
            # policies off: nothing refuses writes while the integrity
            # machinery is compromised, so they fail at the media
            raise DataPathFault(NvmeStatus.WRITE_FAULT, latency)
        return latency

    # -- session establishment -------------------------------------------------

    def _session_for(self, tenant_id: int) -> Optional[ClientSession]:
        if tenant_id in self.sessions:
            return self.sessions[tenant_id]
        tenant = self.tenants[tenant_id]
        responder = self.trojaned if tenant.tampered else self.genuine
        if tenant.tampered:
            self.tampered_attempted += 1
        entropy = b"serve-tenant-%d" % tenant_id
        session = try_handshake(self.client, responder, tenant_id, entropy)
        if session is None:
            self.sessions_refused += 1
            self._count("sessions_refused")
            self._log(f"attestation: tenant {tenant_id} refused "
                      "(measurement mismatch)")
        else:
            self._count("sessions_established")
        self.sessions[tenant_id] = session
        return session

    # -- the campaign ----------------------------------------------------------

    async def _run_async(self) -> None:
        cfg = self.config
        await self.service.start()
        agenda: List[_AgendaItem] = []
        seq = 0
        for index, arrival in enumerate(self.arrivals):
            op = (
                "offload"
                if index % cfg.offload_every == cfg.offload_every - 1
                else arrival.op
            )
            heapq.heappush(
                agenda,
                _AgendaItem(
                    at_s=arrival.at_s, seq=seq, arrival=arrival, op=op,
                    attempts=0, first_start=arrival.at_s,
                ),
            )
            seq += 1
        while agenda:
            item = heapq.heappop(agenda)
            self.clock.advance_to(item.at_s)
            self._apply_due_faults()
            session = self._session_for(item.arrival.tenant_id)
            if session is None:
                self.blocked_unattested += 1
                continue
            request = Request(op=item.op, lpas=(item.arrival.lpa,))
            served = await self.service.submit(session.seal_request(request))
            reply = self._open_reply(session, served.response)
            finish = self.clock.now + served.latency_s
            if reply.ok:
                self.board.record(
                    item.arrival.tenant_id, finish, item.op,
                    finish - item.first_start, ok=True,
                )
                continue
            retry_at = finish + max(reply.retry_after_s, 50e-6)
            can_retry = (
                self.policies_on
                and reply.status in _CLIENT_RETRYABLE
                and item.attempts + 1 < cfg.max_attempts
                and retry_at < item.first_start + cfg.request_deadline_s
            )
            if can_retry:
                self._count("client_retries")
                heapq.heappush(
                    agenda,
                    _AgendaItem(
                        at_s=retry_at, seq=seq, arrival=item.arrival,
                        op=item.op, attempts=item.attempts + 1,
                        first_start=item.first_start,
                    ),
                )
                seq += 1
                continue
            reason = reply.status.value
            self.failure_reasons[reason] = self.failure_reasons.get(reason, 0) + 1
            self.board.record(
                item.arrival.tenant_id, finish, item.op,
                finish - item.first_start, ok=False,
            )
        await self.service.stop()

    def _open_reply(
        self, session: ClientSession, response: Union[SealedEnvelope, Reply]
    ) -> Reply:
        if isinstance(response, SealedEnvelope):
            return session.open_reply(response)
        return response

    def run(self) -> ServeArmReport:
        # a fresh loop per arm keeps the two arms fully isolated
        import asyncio

        asyncio.run(self._run_async())
        if self.ladder is not None:
            self.event_log.extend(self.ladder.transition_log())
        if self.service.breakers is not None:
            self.event_log.extend(self.service.breakers.transition_log())
        for name, value in sorted(self.service.counters.items()):
            self._count(f"service.{name}", value)
        # fleet-wide percentiles over every tenant's reads, exact and sorted
        latencies: List[float] = []
        for tenant_id in self.board.tenant_ids():
            latencies.extend(self.board.tracker(tenant_id).sorted_latencies("read"))
        latencies.sort()
        return ServeArmReport(
            policies="on" if self.policies_on else "off",
            requests=self.board.total,
            failures=self.board.failures,
            availability=self.board.availability(),
            p50_read_s=nearest_rank(latencies, 50.0),
            p99_read_s=nearest_rank(latencies, 99.0),
            sessions_established=self.genuine.established,
            sessions_refused=self.sessions_refused,
            tampered_attempted=self.tampered_attempted,
            requests_blocked_unattested=self.blocked_unattested,
            tenants_served=len(self.board.tenant_ids()),
            tenants_out_of_budget=self.board.tenants_out_of_budget(),
            counters=dict(self.counters),
            failure_reasons=dict(self.failure_reasons),
            slo_lines=self.board.summary_lines(top_k=5),
            event_log=list(self.event_log),
        )


@dataclass
class ServeLabReport:
    """Both arms of one serve experiment plus the comparison."""

    seed: int
    tenants: int
    requests: int
    channels: int
    process: str
    chaos: bool
    tampered: int
    plan_summary: Dict[str, int]
    baseline: ServeArmReport  # policies off
    attested: ServeArmReport  # policies on

    def availability_gain(self) -> float:
        return self.attested.availability - self.baseline.availability

    @property
    def policy_win(self) -> bool:
        return self.attested.availability > self.baseline.availability

    def attestation_gate_held(self) -> bool:
        """Every tampered tenant that handshook was refused, in both arms.

        Low-weight tenants may never arrive within the campaign, so the
        gate is judged against attempted handshakes, and held only if at
        least one tampered handshake was actually exercised.
        """
        return all(
            arm.sessions_refused == arm.tampered_attempted
            and arm.tampered_attempted > 0
            for arm in (self.baseline, self.attested)
        )

    def fingerprint(self) -> str:
        parts = [
            f"seed={self.seed}",
            f"tenants={self.tenants}",
            f"requests={self.requests}",
            f"channels={self.channels}",
            f"process={self.process}",
            f"chaos={self.chaos}",
            f"tampered={self.tampered}",
        ]
        parts += [f"plan.{k}={v}" for k, v in sorted(self.plan_summary.items())]
        parts += self.baseline.fingerprint_lines()
        parts += self.attested.fingerprint_lines()
        return "\n".join(parts)

    def format(self) -> str:
        lines = [
            f"serve experiment: seed {self.seed}, {self.tenants} tenants,"
            f" {self.requests} requests, {self.process} arrivals,"
            f" chaos {'on' if self.chaos else 'off'}",
            f"  attestation gate: {self.tampered} tampered tenant(s) planted,"
            f" {self.attested.tampered_attempted} handshook,"
            f" {self.attested.sessions_refused} refused,"
            f" {self.attested.requests_blocked_unattested} requests blocked",
        ]
        for arm in (self.baseline, self.attested):
            label = "policies OFF" if arm.policies == "off" else "policies ON "
            lines.append(
                f"  {label}    : availability={arm.availability * 100:8.4f}%"
                f"  p50={arm.p50_read_s * 1e6:8.1f}us"
                f"  p99={arm.p99_read_s * 1e6:8.1f}us"
                f"  failures={arm.failures}"
                f"  out_of_budget={arm.tenants_out_of_budget}"
            )
        lines.append(
            f"  delta           : availability {self.availability_gain() * 100:+.4f} pp"
        )
        lines.append("  per-tenant SLO (policies on):")
        lines += [f"    {line}" for line in self.attested.slo_lines]
        return "\n".join(lines)

    def csv_rows(self) -> List[List[str]]:
        header = [
            "seed", "tenants", "requests", "channels", "process", "chaos",
            "policies", "availability", "p50_read_s", "p99_read_s", "failures",
            "sessions_refused", "blocked_unattested", "tenants_out_of_budget",
        ]
        rows = [header]
        for arm in (self.baseline, self.attested):
            rows.append([
                str(self.seed), str(self.tenants), str(self.requests),
                str(self.channels), self.process, str(self.chaos).lower(),
                arm.policies, repr(arm.availability), repr(arm.p50_read_s),
                repr(arm.p99_read_s), str(arm.failures),
                str(arm.sessions_refused),
                str(arm.requests_blocked_unattested),
                str(arm.tenants_out_of_budget),
            ])
        return rows

    def to_json(self) -> Dict[str, object]:
        """Stable export (schema serve-lab-report/v1; CI asserts the keys)."""
        return {
            "schema": "serve-lab-report/v1",
            "seed": self.seed,
            "tenants": self.tenants,
            "requests": self.requests,
            "channels": self.channels,
            "process": self.process,
            "chaos": self.chaos,
            "tampered": self.tampered,
            "attestation_gate_held": self.attestation_gate_held(),
            "policy_win": self.policy_win,
            "plan": dict(sorted(self.plan_summary.items())),
            "arms": [self.baseline.as_dict(), self.attested.as_dict()],
        }


def run_serve_lab(
    seed: int = 7,
    tenants: int = 1000,
    requests: int = 4000,
    config: Optional[ServeLabConfig] = None,
    process: str = "poisson",
    chaos: bool = True,
    plan_config: Optional[FaultPlanConfig] = None,
) -> ServeLabReport:
    """Run both arms (policies off, then on) of one serve experiment."""
    cfg = config or ServeLabConfig(
        tenants=tenants,
        requests=requests,
        arrival=ArrivalConfig(process=process),
        chaos=chaos,
    )
    profiles = make_tenants(cfg.tenants, seed, cfg.tampered_fraction)
    arrivals = generate_arrivals(
        profiles, cfg.arrival, cfg.requests, seed, working_set=cfg.working_set
    )
    plan = (
        FaultPlan.generate(
            seed, cfg.requests, plan_config or serve_plan_config(cfg.requests)
        )
        if cfg.chaos
        else None
    )
    tampered = sum(1 for t in profiles if t.tampered)
    baseline = _ServeArm(seed, cfg, profiles, arrivals, plan, policies_on=False).run()
    attested = _ServeArm(seed, cfg, profiles, arrivals, plan, policies_on=True).run()
    return ServeLabReport(
        seed=seed,
        tenants=cfg.tenants,
        requests=cfg.requests,
        channels=cfg.channels,
        process=cfg.arrival.process,
        chaos=cfg.chaos,
        tampered=tampered,
        plan_summary=(
            {k.value: v for k, v in plan.by_kind().items()} if plan else {}
        ),
        baseline=baseline,
        attested=attested,
    )


__all__ = [
    "GENUINE_BINARY",
    "ServeArmReport",
    "ServeLabConfig",
    "ServeLabReport",
    "TROJANED_BINARY",
    "run_serve_lab",
    "serve_plan_config",
]
