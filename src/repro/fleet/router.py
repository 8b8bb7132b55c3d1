"""The shard router: replica selection, hedged reads, typed refusals.

Reads race replicas the way the resilience lab hedges channels, but at
device granularity: the primary command is issued immediately, and once
the observed-latency quantile elapses without a completion the router
issues a duplicate to the next replica (`HedgePolicy` decides when). The
first success wins; every other outstanding event is cancelled through
:meth:`~repro.sim.engine.Engine.cancel`, so the engine heap stays bounded
under heavy hedging — the fleet tests pin ``queued_entries == 0`` between
steps.

Per-device circuit breakers feed replica selection: an open breaker drops
that device to the back of the candidate order instead of queueing doomed
commands behind it. Refusals are typed (:class:`FleetRefusal`) and carry
the `repro.serve.wire` taxonomy kind, so the serving layer can map them
onto retryable wire statuses with deterministic retry-after hints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fleet.device import FleetDevice
from repro.fleet.topology import FleetTopology
from repro.resilience.breaker import BreakerBoard
from repro.resilience.policy import HedgePolicy
from repro.serve.wire import RETRYABLE, retry_after_for, status_for_fleet
from repro.sim.engine import Engine
from repro.sim.state import Stateful


class FleetRefusal(Exception):
    """A typed fleet-level refusal, mapped onto the wire taxonomy.

    ``kind`` is a `status_for_fleet` key (``replica_exhausted``,
    ``under_replicated``, ``read_error``); ``retryable`` mirrors the wire
    status so callers need no second lookup.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.status = status_for_fleet(kind)
        self.retry_after_s = retry_after_for(self.status)
        self.retryable = self.status in RETRYABLE


@dataclass(frozen=True)
class ReadOutcome:
    """One routed read: winner, latency, and how the race resolved."""

    ok: bool
    latency_s: float
    value: bytes
    winner: int  # device id that served the read (-1 on failure)
    hedged: bool  # a hedge command was actually issued
    attempts: int  # commands issued (primary + failovers + hedge)


@dataclass(frozen=True)
class WriteOutcome:
    """One routed write: replicas reached and the fan-out latency."""

    ok: bool
    latency_s: float
    replicas: Tuple[int, ...]  # device ids that accepted the write


class ShardRouter(Stateful):
    """Routes keyed reads/writes across the fleet's replica sets."""

    # counters and the read digest; collaborators snapshot themselves
    STATE = ("counters", "read_digest")

    def __init__(
        self,
        engine: Engine,
        topology: FleetTopology,
        devices: Dict[int, FleetDevice],
        breakers: Optional[BreakerBoard] = None,
        hedge: Optional[HedgePolicy] = None,
        read_observed: Optional[Any] = None,  # SloTracker-shaped: sorted_latencies
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.devices = devices
        self.breakers = breakers
        self.hedge = hedge
        self.read_observed = read_observed
        self.counters: Dict[str, int] = {}
        # rolling sha256 over every successful read payload, in completion
        # order: byte-identical whether or not any hedge fired
        self.read_digest = hashlib.sha256(b"fleet-read-digest").hexdigest()

    # -- bookkeeping -----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _absorb_read(self, value: bytes) -> None:
        blob = bytes.fromhex(self.read_digest) + value
        self.read_digest = hashlib.sha256(blob).hexdigest()

    def _feed_breaker(self, device_id: int, now: float, ok: bool) -> None:
        if self.breakers is None:
            return
        breaker = self.breakers.breaker(f"dev{device_id}")
        if ok:
            breaker.record_success(now)
        else:
            breaker.record_failure(now)

    def _hedge_delay(self) -> float:
        assert self.hedge is not None
        observed: List[float] = []
        if self.read_observed is not None:
            observed = self.read_observed.sorted_latencies("read")
        return self.hedge.hedge_delay(observed)

    # -- candidate ordering ----------------------------------------------------

    def read_candidates(self, holders: Sequence[int]) -> List[int]:
        """Alive holders, breaker-allowed first, each group in id order.

        ``allow()`` spends HALF_OPEN probe slots, so it is consulted once
        per routing decision (here), not speculatively per attempt.
        """
        now = self.engine.now
        preferred: List[int] = []
        backstop: List[int] = []
        for device_id in sorted(holders):
            if not self.devices[device_id].alive:
                continue
            if self.breakers is None or self.breakers.breaker(
                f"dev{device_id}"
            ).allow(now):
                preferred.append(device_id)
            else:
                backstop.append(device_id)
        return preferred + backstop

    # -- writes ----------------------------------------------------------------

    def write(
        self,
        now: float,
        key: int,
        value: bytes,
        quorum: int = 1,
    ) -> WriteOutcome:
        """Fan the write out to the key's current replica targets.

        Raises :class:`FleetRefusal`:

        - ``replica_exhausted`` when no alive device can take the write;
        - ``under_replicated`` when fewer than ``quorum`` replicas accepted
          it (retryable: rebuild restores capacity, retrying later helps).
        """
        targets = self.topology.replicas_for(key)
        accepted: List[int] = []
        latency = 0.0
        for device_id in targets:
            result = self.devices[device_id].write(now, key, value)
            self._feed_breaker(device_id, now, result.ok)
            if result.ok:
                accepted.append(device_id)
                latency = max(latency, result.latency_s)
        if not accepted:
            self._count("writes_replica_exhausted")
            raise FleetRefusal(
                "replica_exhausted",
                f"no alive replica target for key {key}",
            )
        if len(accepted) < quorum:
            self._count("writes_under_replicated_refused")
            raise FleetRefusal(
                "under_replicated",
                f"key {key} reached {len(accepted)}/{quorum} write quorum",
            )
        self._count("writes_routed")
        return WriteOutcome(ok=True, latency_s=latency, replicas=tuple(accepted))

    # -- hedged reads ----------------------------------------------------------

    def read(self, now: float, key: int, holders: Sequence[int]) -> ReadOutcome:
        """Issue a (possibly hedged) read; drains the engine to completion.

        ``holders`` is the key's current replica set from the rebuild
        ledger. The engine queue must be empty on entry and is empty again
        on return — the router is the only event producer during a read.

        Raises :class:`FleetRefusal`:

        - ``read_error`` (terminal) when the key has no holders left — the
          data is gone until (unless) rebuild finds a survivor;
        - ``replica_exhausted`` (retryable) when every candidate attempt
          failed without a surviving copy being readable right now.
        """
        candidates = self.read_candidates(holders)
        if not candidates:
            self._count("reads_lost")
            raise FleetRefusal("read_error", f"key {key} has no live replica")
        engine = self.engine
        if engine.now < now:
            engine.run(until=now)
        start = engine.now
        record: Dict[str, Any] = {
            "done": False,
            "ok": False,
            "value": b"",
            "winner": -1,
            "hedged": False,
            "attempts": 0,
            "failed": 0,
            "next": 0,  # cursor into candidates for failover/hedge issue
            "total": len(candidates),
            "events": [],  # outstanding cancellable completion events
            "hedge_event": None,
            "end": start,
        }

        def issue() -> None:
            index = record["next"]
            if index >= len(candidates):
                return
            record["next"] = index + 1
            device_id = candidates[index]
            record["attempts"] += 1
            result = self.devices[device_id].read(engine.now, key)

            def complete() -> None:
                self._settle(record, device_id, result)

            event = engine.schedule(result.latency_s, complete, name=f"read-dev{device_id}")
            record["events"].append(event)

        def fire_hedge() -> None:
            record["hedge_event"] = None
            if record["done"] or record["next"] >= len(candidates):
                return
            record["hedged"] = True
            self._count("hedges_fired")
            issue()

        issue()
        if (
            self.hedge is not None
            and len(candidates) > 1
            and record["next"] < len(candidates)
        ):
            record["hedge_event"] = engine.schedule(
                self._hedge_delay(), fire_hedge, name="hedge-trigger"
            )
        # the router's own retry ladder: when an attempt fails and nothing
        # else is outstanding, _settle issues the next candidate inline, so
        # one run() drains the whole race
        record["issue"] = issue
        engine.run()
        if record["ok"]:
            self._count("reads_routed")
            if record["hedged"] and record["winner"] != candidates[0]:
                self._count("hedge_wins")
            self._absorb_read(record["value"])
            return ReadOutcome(
                ok=True,
                latency_s=record["end"] - start,
                value=record["value"],
                winner=record["winner"],
                hedged=record["hedged"],
                attempts=record["attempts"],
            )
        self._count("reads_replica_exhausted")
        raise FleetRefusal(
            "replica_exhausted",
            f"all {record['attempts']} replica attempts failed for key {key}",
        )

    def _settle(self, record: Dict[str, Any], device_id: int, result: Any) -> None:
        """One attempt completed: resolve the race or ladder onward."""
        engine = self.engine
        if record["done"]:
            return
        self._feed_breaker(device_id, engine.now, result.ok)
        if result.ok:
            record["done"] = True
            record["ok"] = True
            record["value"] = result.value
            record["winner"] = device_id
            record["end"] = engine.now
            for event in record["events"]:
                if event.live:
                    engine.cancel(event)
                    self._count("hedge_losses_cancelled")
            if record["hedge_event"] is not None and record["hedge_event"].live:
                engine.cancel(record["hedge_event"])
                record["hedge_event"] = None
            return
        record["failed"] += 1
        self._count("read_attempt_failures")
        outstanding = sum(1 for event in record["events"] if event.live)
        if outstanding > 0:
            return  # a racing attempt is still in flight; let it settle
        if record["next"] < record["total"]:
            record["issue"]()  # sequential failover to the next candidate
            return
        record["done"] = True
        record["end"] = engine.now
        if record["hedge_event"] is not None and record["hedge_event"].live:
            engine.cancel(record["hedge_event"])
            record["hedge_event"] = None


__all__ = [
    "FleetRefusal",
    "ReadOutcome",
    "ShardRouter",
    "WriteOutcome",
]
