"""The replication ledger and background rebuild state machine.

The manager owns the *placement* truth — which devices currently hold each
key — and keeps it synchronized with faults: a device kill or die
quarantine removes the lost holders, enqueues repairs, and starts the
under-replicated clock. ``pump_rebuild`` then drains the repair queue a
bounded batch per step (reading a surviving copy, installing it on the
next ring target), so a rebuild spans many steps and the crash-point
oracle can land checkpoints in the middle of one.

Reliability counters follow the SRE convention: the *time integral* of
under-replicated keys (key-seconds of exposure) is the primary metric —
a rebuild that finishes twice as fast halves it even when the same keys
were exposed.

State machine per key (tracked implicitly by ``holders`` and the queue):

    replicated --[holder lost]--> under-replicated (+repair queued)
    under-replicated --[pump installs a copy]--> replicated
    under-replicated --[last holder lost]--> lost (terminal; counted)
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.fleet.device import FleetDevice
from repro.fleet.topology import FleetTopology
from repro.sim.state import Stateful


class RebuildManager(Stateful):
    """Placement ledger + quarantine/kill-triggered background rebuild."""

    STATE = (
        "_placement",
        "_queue",
        "_queued",
        "_under",
        "_lost",
        "_last_accounted",
        "counters",
        "under_replicated_key_seconds",
        "max_under_replicated",
    )

    def __init__(
        self,
        topology: FleetTopology,
        devices: Dict[int, FleetDevice],
        replication: int,
    ) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.topology = topology
        self.devices = devices
        self.replication = replication
        self._placement: Dict[int, List[int]] = {}  # key -> sorted holder ids
        self._queue: List[int] = []  # keys awaiting repair, FIFO, deduped
        self._queued: Dict[int, bool] = {}
        self._under = 0  # keys currently holding 0 < n < replication copies
        self._lost: Dict[int, bool] = {}
        self._last_accounted = 0.0
        self.counters: Dict[str, int] = {}
        self.under_replicated_key_seconds = 0.0
        self.max_under_replicated = 0

    # -- bookkeeping -----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def holders(self, key: int) -> List[int]:
        return list(self._placement.get(key, []))

    @property
    def pending(self) -> int:
        """Repairs still queued (the oracle uses this to spot mid-rebuild)."""
        return len(self._queue)

    @property
    def under_replicated(self) -> int:
        return self._under

    @property
    def keys_lost(self) -> int:
        return len(self._lost)

    def _is_under(self, key: int) -> bool:
        n = len(self._placement.get(key, []))
        return 0 < n < self.replication

    def _track(self, key: int, was_under: bool) -> None:
        is_under = self._is_under(key)
        if is_under and not was_under:
            self._under += 1
            self.max_under_replicated = max(self.max_under_replicated, self._under)
        elif was_under and not is_under:
            self._under -= 1

    def _enqueue(self, key: int) -> None:
        if not self._queued.get(key, False):
            self._queue.append(key)
            self._queued[key] = True

    # -- write/fault notifications --------------------------------------------

    def record_write(self, now: float, key: int, replicas: Iterable[int]) -> None:
        """A routed write landed on ``replicas``; refresh the ledger."""
        self.account(now)
        was_under = self._is_under(key)
        self._placement[key] = sorted(replicas)
        self._lost.pop(key, None)
        self._track(key, was_under)
        if self._is_under(key):
            self._count("writes_under_replicated")
            self._enqueue(key)

    def device_lost(self, now: float, device_id: int) -> int:
        """A whole device died; strip it from every placement.

        Returns the number of keys that lost a replica. Keys left with no
        holder are terminally lost (counted, not queued — there is nothing
        to copy from).
        """
        self.account(now)
        affected = 0
        for key in sorted(self._placement):
            holder_list = self._placement[key]
            if device_id not in holder_list:
                continue
            was_under = self._is_under(key)
            holder_list.remove(device_id)
            affected += 1
            if holder_list:
                self._track(key, was_under)
                self._enqueue(key)
            else:
                self._track(key, was_under)
                if not self._lost.get(key, False):
                    self._lost[key] = True
                    self._count("keys_lost")
        self._count("devices_lost")
        return affected

    def replicas_dropped(self, now: float, device_id: int, keys: Iterable[int]) -> int:
        """A die quarantine dropped specific keys from one device."""
        self.account(now)
        affected = 0
        for key in keys:
            holder_list = self._placement.get(key)
            if holder_list is None or device_id not in holder_list:
                continue
            was_under = self._is_under(key)
            holder_list.remove(device_id)
            affected += 1
            if holder_list:
                self._track(key, was_under)
                self._enqueue(key)
            else:
                self._track(key, was_under)
                if not self._lost.get(key, False):
                    self._lost[key] = True
                    self._count("keys_lost")
        if affected:
            self._count("quarantine_drops", affected)
        return affected

    # -- the rebuild pump ------------------------------------------------------

    def pump_rebuild(self, now: float, budget: int = 4) -> int:
        """Repair up to ``budget`` queued keys; returns repairs completed.

        Each repair reads a surviving copy (``peek`` — background traffic,
        no fault surface) and installs it on the next alive ring target
        not already holding the key. A key whose survivors all disappeared
        before its turn is terminally lost.
        """
        self.account(now)
        completed = 0
        while self._queue and completed < budget:
            key = self._queue.pop(0)
            self._queued[key] = False
            holder_list = self._placement.get(key, [])
            was_under = self._is_under(key)
            if not holder_list:
                continue  # lost while queued; already counted
            if len(holder_list) >= self.replication:
                continue  # a later write already restored it
            survivors = [
                d for d in holder_list
                if self.devices[d].alive and self.devices[d].holds(key)
            ]
            if not survivors:
                self._placement[key] = []
                self._track(key, was_under)
                if not self._lost.get(key, False):
                    self._lost[key] = True
                    self._count("keys_lost")
                self._count("rebuild_failures")
                continue
            targets = [
                d
                for d in self.topology.replicas_for(key, count=self.replication)
                if d not in holder_list and self.devices[d].alive
            ]
            if not targets:
                self._count("rebuild_no_target")
                continue  # fleet too small to re-replicate; leave as-is
            value = self.devices[survivors[0]].peek(key)
            if not self.devices[targets[0]].install_replica(key, value):
                self._count("rebuild_failures")
                self._enqueue(key)
                continue
            holder_list.append(targets[0])
            holder_list.sort()
            self._track(key, was_under)
            completed += 1
            self._count("rebuilds_completed")
            if self._is_under(key):
                self._enqueue(key)  # still short (replication > 2); keep going
        return completed

    # -- under-replication clock ----------------------------------------------

    def account(self, now: float) -> None:
        """Advance the under-replicated key-seconds integral to ``now``."""
        if now > self._last_accounted:
            self.under_replicated_key_seconds += self._under * (
                now - self._last_accounted
            )
            self._last_accounted = now


__all__ = ["RebuildManager"]
