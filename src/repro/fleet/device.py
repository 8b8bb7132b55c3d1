"""One simulated SSD in the fleet: a functional store with a fault surface.

A :class:`FleetDevice` is deliberately smaller than the full per-SSD stack
(the chaos harness exercises that); the fleet layer needs a device that is
*data-faithful* — it holds real bytes per key, so rebuild correctness is
checkable against ground truth — and *fault-faithful*: it can be killed
whole, lose a die (dropping exactly that die's keys), run slow through a
latency storm, or burn error credits that fail the next commands.

Determinism: the only randomness is per-device latency jitter drawn from a
PRNG seeded by (run seed, device id); whether a command *succeeds* never
depends on an RNG draw, only on device state. That separation is what lets
the hedging tests demand byte-identical data outcomes whether or not the
hedge fires (hedging changes which commands are issued, hence which jitter
values are drawn — but never which requests succeed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.crypto.prng import XorShift64
from repro.fleet.topology import seeded_mix
from repro.sim.state import Stateful

_DEVICE_SALT = 0xDE51CE


@dataclass(frozen=True)
class DeviceConfig:
    """Latency and geometry knobs shared by every device in a fleet."""

    dies: int = 4
    read_latency_s: float = 80e-6
    write_latency_s: float = 120e-6
    jitter_fraction: float = 0.25  # uniform latency jitter, fraction of base
    storm_factor: float = 8.0  # read/write slowdown while a storm is active
    stall_factor: float = 40.0  # slowdown while a power-loss stall is active

    def __post_init__(self) -> None:
        if self.dies < 1:
            raise ValueError("a device needs at least one die")
        if self.read_latency_s <= 0 or self.write_latency_s <= 0:
            raise ValueError("latencies must be positive")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class DeviceResult:
    """Outcome of one device command (no exceptions on the data path)."""

    ok: bool
    latency_s: float
    value: bytes = b""
    reason: str = ""  # "" | "dead" | "missing" | "media_error"


class FleetDevice(Stateful):
    """One SSD-shaped shard target: keyed byte store + fault state."""

    STATE = (
        "_rng",
        "_store",
        "alive",
        "_quarantined",
        "slow_until",
        "slow_factor",
        "error_credits",
        "counters",
    )

    def __init__(
        self,
        device_id: int,
        seed: int,
        config: DeviceConfig = DeviceConfig(),
    ) -> None:
        self.device_id = device_id
        self.config = config
        self._rng = XorShift64(seeded_mix(seed ^ _DEVICE_SALT, device_id) or 1)
        self._store: Dict[int, bytes] = {}
        self.alive = True
        self._quarantined: List[int] = []  # sorted die indices
        self.slow_until = 0.0
        self.slow_factor = 1.0
        self.error_credits = 0  # the next N data commands fail with media_error
        self.counters: Dict[str, int] = {}

    # -- bookkeeping -----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def die_for(self, key: int) -> int:
        return key % self.config.dies

    def keys_held(self) -> List[int]:
        return sorted(self._store)

    def holds(self, key: int) -> bool:
        return key in self._store

    def peek(self, key: int) -> bytes:
        """Direct store access for verification sweeps (no fault surface)."""
        return self._store.get(key, b"")

    # -- latency model ---------------------------------------------------------

    def _latency(self, now: float, base: float) -> float:
        jitter = base * self.config.jitter_fraction * self._rng.next_float()
        latency = base + jitter
        if now < self.slow_until:
            latency *= self.slow_factor
        return latency

    # -- data path -------------------------------------------------------------

    def read(self, now: float, key: int) -> DeviceResult:
        if not self.alive:
            self._count("reads_refused_dead")
            return DeviceResult(ok=False, latency_s=0.0, reason="dead")
        latency = self._latency(now, self.config.read_latency_s)
        if self.error_credits > 0:
            self.error_credits -= 1
            self._count("read_media_errors")
            return DeviceResult(ok=False, latency_s=latency, reason="media_error")
        if key not in self._store:
            self._count("reads_missing")
            return DeviceResult(ok=False, latency_s=latency, reason="missing")
        self._count("reads_ok")
        return DeviceResult(ok=True, latency_s=latency, value=self._store[key])

    def write(self, now: float, key: int, value: bytes) -> DeviceResult:
        if not self.alive:
            self._count("writes_refused_dead")
            return DeviceResult(ok=False, latency_s=0.0, reason="dead")
        latency = self._latency(now, self.config.write_latency_s)
        if self.error_credits > 0:
            self.error_credits -= 1
            self._count("write_media_errors")
            return DeviceResult(ok=False, latency_s=latency, reason="media_error")
        self._store[key] = value
        self._count("writes_ok")
        return DeviceResult(ok=True, latency_s=latency)

    def install_replica(self, key: int, value: bytes) -> bool:
        """Background repair path: install a replica copy (no jitter draw —
        rebuild bandwidth is modeled as free background traffic)."""
        if not self.alive:
            return False
        self._store[key] = value
        self._count("rebuild_writes")
        return True

    # -- fault surface ---------------------------------------------------------

    def kill(self, now: float) -> bool:
        """Whole-device failure; returns True when the device was alive."""
        was_alive = self.alive
        self.alive = False
        if was_alive:
            self._count("killed")
        return was_alive

    def quarantine_die(self, now: float, die: int) -> List[int]:
        """Drop every key on ``die``; returns the sorted dropped keys."""
        die = die % self.config.dies
        if die not in self._quarantined:
            self._quarantined.append(die)
            self._quarantined.sort()
        dropped = sorted(k for k in self._store if self.die_for(k) == die)
        for key in dropped:
            del self._store[key]
        self._count("dies_quarantined")
        self._count("keys_dropped_quarantine", len(dropped))
        return dropped

    def start_storm(self, now: float, duration_s: float, credits: int = 0) -> None:
        """Latency storm: reads/writes slow down; ``credits`` commands fail."""
        self.slow_until = max(self.slow_until, now + duration_s)
        self.slow_factor = self.config.storm_factor
        self.error_credits += credits
        self._count("storms")

    def stall(self, now: float, duration_s: float) -> None:
        """Power-loss-shaped stall: much harsher slowdown, no media errors."""
        self.slow_until = max(self.slow_until, now + duration_s)
        self.slow_factor = self.config.stall_factor
        self._count("stalls")


__all__ = ["DeviceConfig", "DeviceResult", "FleetDevice"]
