"""The fleet lab: replication-on vs replication-off under device chaos.

:class:`FleetRunner` drives a seeded keyed workload through the shard
router while a :class:`~repro.faults.plan.FaultPlan` kills devices,
quarantines dies, and throws latency storms at the fleet. Both lab arms
see the *same* plan — only the replication factor and hedging differ — so
the A/B comparison isolates exactly what k-way replication buys:
availability (a killed device's keys survive on replicas) and read tail
(hedging races replicas instead of waiting out a storm).

The runner is stepped (one request per :meth:`step`) and quiescent between
steps — the engine queue drains inside each routed read — which is what
lets fleet checkpoints land between any two requests and the crash oracle
cut the run mid-rebuild.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.prng import XorShift64
from repro.faults.plan import FaultKind, FaultPlan, FaultPlanConfig
from repro.fleet.device import DeviceConfig, FleetDevice
from repro.fleet.rebuild import RebuildManager
from repro.fleet.router import FleetRefusal, ShardRouter
from repro.fleet.topology import FleetTopology, seeded_mix
from repro.platform.metrics import SloTracker
from repro.resilience.breaker import BreakerBoard
from repro.resilience.policy import HedgePolicy
from repro.sim.engine import Engine
from repro.sim.state import Record, Stateful

_WORKLOAD_SALT = 0x0F1EE7
_PAYLOAD_BYTES = 16
# keys an arm cycles over by default; its first WORKING_SET requests seed
# them, so a shorter run is refused
WORKING_SET = 64


def _payload(seed: int, key: int, version: int) -> bytes:
    """Deterministic per-(key, version) payload; doubles as ground truth."""
    blob = f"{seed}:{key}:{version}".encode("ascii")
    return hashlib.sha256(blob).digest()[:_PAYLOAD_BYTES]


@dataclass(frozen=True)
class FleetChaosConfig:
    """How much chaos the fault plan throws at the fleet."""

    device_kills: int = 1
    die_quarantines: int = 2
    read_bursts: int = 4
    hard_uncorrectables: int = 1
    stalls: int = 1

    def plan_config(self) -> FaultPlanConfig:
        return FaultPlanConfig(
            read_bursts=self.read_bursts,
            uncorrectable_pages=self.die_quarantines,
            hard_uncorrectables=self.hard_uncorrectables,
            die_failures=self.device_kills,
            dram_corruptions=0,
            power_losses=self.stalls,
            power_losses_mid_gc=0,
        )


class FleetRunner(Stateful):
    """One lab arm: a fleet, a router, a rebuild manager, and a workload.

    Constructor arguments are all primitives so a checkpoint can rebuild
    the runner from its snapshot meta alone. Snapshots are quiescent: the
    engine refuses one while events are queued.
    """

    STATE = (
        "engine",
        "topology",
        "devices",
        "breakers",
        "slo",
        "router",
        "rebuild",
        "_rng",
        "interarrival_s",
        "client_deadline_s",
        "op_index",
        "_next_arrival",
        "_versions",
        "_expected",
        "failure_reasons",
        "hedged_reads",
        "event_log",
        "_finalized",
    )

    def __init__(
        self,
        seed: int,
        requests: int,
        devices: int = 6,
        replication: int = 2,
        hedge: bool = True,
        working_set: int = WORKING_SET,
        write_fraction: float = 0.3,
        write_quorum: int = 1,
        rebuild_batch: int = 4,
        vnodes: int = 16,
        device_kills: int = 1,
        die_quarantines: int = 2,
    ) -> None:
        if requests < 1:
            raise ValueError("need at least one request")
        if not 1 <= working_set <= requests:
            raise ValueError("working_set must lie in [1, requests]")
        self.seed = seed
        self.requests = requests
        self.device_count = devices
        self.replication = replication
        self.hedge_enabled = hedge
        self.working_set = working_set
        self.write_fraction = write_fraction
        self.write_quorum = write_quorum
        self.rebuild_batch = rebuild_batch
        self.vnodes = vnodes
        self.device_kills = device_kills
        self.die_quarantines = die_quarantines

        self.engine = Engine()
        device_ids = list(range(devices))
        self.topology = FleetTopology(
            seed, device_ids, vnodes=vnodes, replication=replication
        )
        self.devices: Dict[int, FleetDevice] = {
            d: FleetDevice(d, seed, DeviceConfig()) for d in device_ids
        }
        self.breakers = BreakerBoard()
        self.slo = SloTracker()
        hedge_policy: Optional[HedgePolicy] = HedgePolicy() if hedge else None
        self.router = ShardRouter(
            self.engine,
            self.topology,
            self.devices,
            breakers=self.breakers,
            hedge=hedge_policy,
            read_observed=self.slo,
        )
        self.rebuild = RebuildManager(self.topology, self.devices, replication)
        self.plan = FaultPlan.generate(
            seed,
            requests,
            FleetChaosConfig(
                device_kills=device_kills, die_quarantines=die_quarantines
            ).plan_config(),
        )
        self._rng = XorShift64(seeded_mix(seed ^ _WORKLOAD_SALT, requests) or 1)
        self.interarrival_s = 100e-6
        # a refused request is tail latency, not a no-op: the client burns
        # its whole deadline before giving up (see docs/SERVING.md taxonomy)
        self.client_deadline_s = 1.5e-3
        self.op_index = 0
        self._next_arrival = 0.0
        self._versions: Dict[int, int] = {}
        self._expected: Dict[int, bytes] = {}
        self.failure_reasons: Dict[str, int] = {}
        self.hedged_reads = 0
        self.event_log: List[str] = []
        self._finalized: Dict[str, Any] = {}

    # -- fault translation -----------------------------------------------------

    def _apply_fault(self, kind: FaultKind, param: int, now: float) -> None:
        target_id = sorted(self.devices)[param % len(self.devices)]
        device = self.devices[target_id]
        if kind is FaultKind.DIE_FAILURE:
            # promoted to a whole-device chaos kill at fleet scale
            if not device.alive:
                self.event_log.append(f"op={self.op_index} kill dev{target_id} (already dead)")
                return
            device.kill(now)
            self.topology.mark_dead(target_id)
            affected = self.rebuild.device_lost(now, target_id)
            self.event_log.append(
                f"op={self.op_index} kill dev{target_id} affected={affected}"
            )
        elif kind is FaultKind.UNCORRECTABLE_PAGE:
            if not device.alive:
                return
            die = param % device.config.dies
            dropped = device.quarantine_die(now, die)
            affected = self.rebuild.replicas_dropped(now, target_id, dropped)
            self.event_log.append(
                f"op={self.op_index} quarantine dev{target_id} die{die}"
                f" dropped={len(dropped)} affected={affected}"
            )
        elif kind is FaultKind.READ_BURST:
            device.start_storm(now, 40 * self.interarrival_s, credits=param % 3)
            self.event_log.append(f"op={self.op_index} storm dev{target_id}")
        elif kind is FaultKind.HARD_UNCORRECTABLE:
            device.error_credits += 2
            self.event_log.append(f"op={self.op_index} media dev{target_id}")
        elif kind is FaultKind.DRAM_CORRUPTION:
            device.start_storm(now, 10 * self.interarrival_s)
            self.event_log.append(f"op={self.op_index} blip dev{target_id}")
        else:  # POWER_LOSS / POWER_LOSS_MID_GC
            device.stall(now, 20 * self.interarrival_s)
            self.event_log.append(f"op={self.op_index} stall dev{target_id}")

    def _refuse(self, refusal: FleetRefusal) -> None:
        key = refusal.status.value
        self.failure_reasons[key] = self.failure_reasons.get(key, 0) + 1

    # -- the request loop ------------------------------------------------------

    def step(self) -> bool:
        """Issue one request; returns False once the workload is exhausted."""
        if self.op_index >= self.requests:
            return False
        engine = self.engine
        arrival = self._next_arrival
        self._next_arrival = arrival + self.interarrival_s * (
            0.5 + self._rng.next_float()
        )
        for event in self.plan.due(self.op_index):
            self._apply_fault(event.kind, event.param, arrival)
        if engine.now < arrival:
            engine.run(until=arrival)
        now = engine.now

        if self.op_index < self.working_set:
            is_write, key = True, self.op_index  # seed the working set
        else:
            is_write = self._rng.next_float() < self.write_fraction
            key = self._rng.next_below(self.working_set)

        if is_write:
            version = self._versions.get(key, 0) + 1
            value = _payload(self.seed, key, version)
            try:
                outcome = self.router.write(now, key, value, quorum=self.write_quorum)
            except FleetRefusal as refusal:
                self._refuse(refusal)
                self.slo.record(now, "write", self.client_deadline_s, ok=False)
            else:
                self._versions[key] = version
                self._expected[key] = value
                self.rebuild.record_write(now, key, list(outcome.replicas))
                self.slo.record(now, "write", outcome.latency_s, ok=True)
        else:
            holders = self.rebuild.holders(key)
            try:
                outcome = self.router.read(now, key, holders)
            except FleetRefusal as refusal:
                self._refuse(refusal)
                self.slo.record(now, "read", self.client_deadline_s, ok=False)
            else:
                if outcome.hedged:
                    self.hedged_reads += 1
                self.slo.record(now, "read", outcome.latency_s, ok=True)

        self.rebuild.pump_rebuild(self.engine.now, budget=self.rebuild_batch)
        self.op_index += 1
        assert self.engine.pending == 0, "engine must be quiescent between steps"
        return True

    def run_until(self, op_index: int) -> None:
        while self.op_index < min(op_index, self.requests):
            self.step()

    def run(self) -> "FleetArmReport":
        self.run_until(self.requests)
        return self.finalize()

    # -- verification + report -------------------------------------------------

    def finalize(self) -> "FleetArmReport":
        """Final accounting plus a ground-truth sweep over surviving data."""
        if not self._finalized:
            self.rebuild.account(self.engine.now)
            verified = lost = corrupt = 0
            for key in sorted(self._expected):
                holders = [
                    d
                    for d in self.rebuild.holders(key)
                    if self.devices[d].alive and self.devices[d].holds(key)
                ]
                if not holders:
                    lost += 1
                elif self.devices[holders[0]].peek(key) == self._expected[key]:
                    verified += 1
                else:
                    corrupt += 1
            self._finalized = {
                "verified": verified,
                "lost": lost,
                "corrupt": corrupt,
            }
        return FleetArmReport.from_runner(self)


@dataclass(frozen=True)
class FleetArmReport(Record):
    """Everything one lab arm produced, as picklable primitives."""

    seed: int
    requests: int
    devices: int
    replication: int
    hedge: bool
    availability: float
    failures: int
    p50_read_s: float
    p99_read_s: float
    p99_write_s: float
    hedged_reads: int
    hedge_wins: int
    reads_routed: int
    writes_routed: int
    verified: int
    lost: int
    corrupt: int
    keys_lost: int
    rebuilds_completed: int
    max_under_replicated: int
    under_replicated_key_seconds: float
    rebuild_pending: int
    devices_lost: int
    read_digest: str
    failure_reasons: Dict[str, int] = field(default_factory=dict)
    slo_lines: Tuple[str, ...] = ()
    event_log: Tuple[str, ...] = ()

    @classmethod
    def from_runner(cls, runner: FleetRunner) -> "FleetArmReport":
        counters = runner.router.counters
        rebuild = runner.rebuild
        return cls(
            seed=runner.seed,
            requests=runner.requests,
            devices=runner.device_count,
            replication=runner.replication,
            hedge=runner.hedge_enabled,
            availability=runner.slo.availability(),
            failures=runner.slo.failures,
            p50_read_s=runner.slo.percentile("read", 50.0),
            p99_read_s=runner.slo.percentile("read", 99.0),
            p99_write_s=runner.slo.percentile("write", 99.0),
            hedged_reads=runner.hedged_reads,
            hedge_wins=counters.get("hedge_wins", 0),
            reads_routed=counters.get("reads_routed", 0),
            writes_routed=counters.get("writes_routed", 0),
            verified=runner._finalized.get("verified", 0),
            lost=runner._finalized.get("lost", 0),
            corrupt=runner._finalized.get("corrupt", 0),
            keys_lost=rebuild.keys_lost,
            rebuilds_completed=rebuild.counters.get("rebuilds_completed", 0),
            max_under_replicated=rebuild.max_under_replicated,
            under_replicated_key_seconds=rebuild.under_replicated_key_seconds,
            rebuild_pending=rebuild.pending,
            devices_lost=rebuild.counters.get("devices_lost", 0),
            read_digest=runner.router.read_digest,
            failure_reasons=dict(sorted(runner.failure_reasons.items())),
            slo_lines=tuple(runner.slo.summary_lines()),
            event_log=tuple(runner.event_log),
        )

    def label(self) -> str:
        return (
            f"replication={self.replication}"
            f" hedge={'on' if self.hedge else 'off'}"
        )


@dataclass(frozen=True)
class FleetReport(Record):
    """The A/B comparison the fleet lab prints and exports."""

    schema = "fleet-lab-report/v1"
    JUDGED = ("on", "replication on")  # the arm the availability floor judges

    off: FleetArmReport
    on: FleetArmReport

    @property
    def policy_win(self) -> bool:
        """Replication-on must strictly beat off on availability AND p99."""
        return (
            self.on.availability > self.off.availability
            and self.on.p99_read_s < self.off.p99_read_s
        )

    def gates(self) -> List[Tuple[bool, str]]:
        """The lab's exit gates as ``(held, message)`` pairs."""
        return [(
            self.policy_win,
            "replication-on did not strictly beat replication-off on availability and p99",
        )]

    def format(self) -> str:
        lines = [
            f"fleet lab: seed={self.on.seed} requests={self.on.requests}"
            f" devices={self.on.devices}",
        ]
        for tag, arm in (("A", self.off), ("B", self.on)):
            lines += [
                "",
                f"[{tag}] {arm.label()}",
                f"    availability={arm.availability!r}",
                f"    p50_read_s={arm.p50_read_s!r}",
                f"    p99_read_s={arm.p99_read_s!r}",
                f"    p99_write_s={arm.p99_write_s!r}",
                f"    hedged_reads={arm.hedged_reads} hedge_wins={arm.hedge_wins}",
                f"    reads_routed={arm.reads_routed} writes_routed={arm.writes_routed}",
                f"    verified={arm.verified} lost={arm.lost} corrupt={arm.corrupt}",
                f"    keys_lost={arm.keys_lost}"
                f" rebuilds_completed={arm.rebuilds_completed}"
                f" rebuild_pending={arm.rebuild_pending}",
                f"    max_under_replicated={arm.max_under_replicated}",
                f"    under_replicated_key_seconds={arm.under_replicated_key_seconds!r}",
                f"    devices_lost={arm.devices_lost}",
                f"    read_digest={arm.read_digest}",
            ]
        lines += [
            "",
            f"availability: {self.off.availability * 100:.4f}%"
            f" -> {self.on.availability * 100:.4f}%",
            f"p99 read: {self.off.p99_read_s * 1e6:.1f}us"
            f" -> {self.on.p99_read_s * 1e6:.1f}us",
            f"keys lost: {self.off.keys_lost} -> {self.on.keys_lost}",
            f"policy win: {'yes' if self.policy_win else 'no'}",
        ]
        return "\n".join(lines)

    def csv_rows(self) -> List[List[str]]:
        header = [
            "replication", "hedge", "availability", "p99_read_s", "keys_lost",
            "rebuilds_completed", "under_replicated_key_seconds", "fingerprint",
        ]
        rows = [header]
        for arm in (self.off, self.on):
            rows.append([
                str(arm.replication), "on" if arm.hedge else "off",
                repr(arm.availability), repr(arm.p99_read_s), str(arm.keys_lost),
                str(arm.rebuilds_completed),
                repr(arm.under_replicated_key_seconds), arm.fingerprint(),
            ])
        return rows

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "seed": self.on.seed,
            "requests": self.on.requests,
            "devices": self.on.devices,
            "replication_off": self.off.as_dict(),
            "replication_on": self.on.as_dict(),
            "policy_win": self.policy_win,
        }


def run_fleet(
    seed: int,
    requests: int,
    devices: int = 6,
    replication: int = 2,
    working_set: int = WORKING_SET,
    device_kills: int = 1,
    die_quarantines: int = 2,
) -> FleetReport:
    """Both arms, same seed and chaos plan: replication-off vs -on."""
    off, on = (
        FleetRunner(
            seed,
            requests,
            devices=devices,
            replication=arm_replication,
            hedge=hedge,
            working_set=working_set,
            device_kills=device_kills,
            die_quarantines=die_quarantines,
        ).run()
        for arm_replication, hedge in ((1, False), (replication, True))
    )
    return FleetReport(off=off, on=on)


__all__ = [
    "FleetArmReport",
    "FleetChaosConfig",
    "FleetReport",
    "FleetRunner",
    "run_fleet",
]
