"""Graceful-degradation ladder: NORMAL → DEGRADED_READONLY → FAILSAFE.

IceClave's §4.5 containment story (ThrowOutTEE) treats a misbehaving tenant
as something to shed, not something to crash on; the SoK/Elasticlave
availability critique asks the same of the *device*: when reliability
counters say the hardware is sick, serve what can still be served correctly
instead of failing every request.

The ladder's modes and their guarantees:

- ``NORMAL`` — full service.
- ``DEGRADED_READONLY`` — reads of committed data continue (still
  integrity-verified end to end); new writes are refused with a retryable
  status so a flaky device cannot accept data it may not be able to commit.
- ``FAILSAFE`` — only breaker probes and diagnostics; offloads are refused.

Transitions are driven by reliability inputs (open breakers, integrity
violations, fatal faults) and the sim clock; after ``recovery_window_s``
with no new trips the ladder climbs back one rung. All state changes are
timestamped in ``transitions`` so a report can prove when degradation began
and ended, deterministically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple


class ServiceMode(enum.Enum):
    NORMAL = "normal"
    DEGRADED_READONLY = "degraded_readonly"
    FAILSAFE = "failsafe"


_LADDER = [ServiceMode.NORMAL, ServiceMode.DEGRADED_READONLY, ServiceMode.FAILSAFE]


@dataclass(frozen=True)
class DegradeConfig:
    # rung 1: DEGRADED_READONLY
    open_breakers_readonly: int = 2
    integrity_violations_readonly: int = 2
    # rung 2: FAILSAFE
    open_breakers_failsafe: int = 3
    integrity_violations_failsafe: int = 4
    fatal_faults_failsafe: int = 8
    recovery_window_s: float = 5e-3  # clean time before climbing back a rung

    def __post_init__(self) -> None:
        if self.recovery_window_s <= 0:
            raise ValueError("recovery window must be positive")


class DegradationLadder:
    """Reliability-counter-driven service-mode state machine."""

    def __init__(self, config: DegradeConfig = DegradeConfig()) -> None:
        self.config = config
        self.mode = ServiceMode.NORMAL
        self.integrity_violations = 0
        self.fatal_faults = 0
        self._open_breakers = 0
        self._last_trip_at = -1.0
        self._last_violation_at = -1.0
        self.transitions: List[Tuple[float, str]] = []

    # -- inputs ---------------------------------------------------------------

    def note_integrity_violation(self, now: float) -> None:
        self.integrity_violations += 1
        self._last_violation_at = now
        self.evaluate(now)

    def note_fatal_fault(self, now: float) -> None:
        self.fatal_faults += 1
        self.evaluate(now)

    def note_open_breakers(self, now: float, count: int) -> None:
        self._open_breakers = count
        self.evaluate(now)

    # -- queries --------------------------------------------------------------

    def allows_writes(self) -> bool:
        return self.mode is ServiceMode.NORMAL

    def allows_reads(self) -> bool:
        return self.mode is not ServiceMode.FAILSAFE

    def allows_offload(self) -> bool:
        return self.mode is ServiceMode.NORMAL

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, now: float) -> ServiceMode:
        """Re-derive the mode from the current counters at sim-time ``now``."""
        cfg = self.config
        # integrity violations age out after a clean recovery window — they
        # must decay on their own, or a violation-pinned mode could never
        # climb (the target would stay degraded forever)
        if self.integrity_violations:
            quiet_since = max(self._last_trip_at, self._last_violation_at)
            if quiet_since >= 0 and now - quiet_since >= cfg.recovery_window_s:
                self.integrity_violations = 0
        if (
            self._open_breakers >= cfg.open_breakers_failsafe
            or self.integrity_violations >= cfg.integrity_violations_failsafe
            or self.fatal_faults >= cfg.fatal_faults_failsafe
        ):
            target = ServiceMode.FAILSAFE
        elif (
            self._open_breakers >= cfg.open_breakers_readonly
            or self.integrity_violations >= cfg.integrity_violations_readonly
        ):
            target = ServiceMode.DEGRADED_READONLY
        else:
            target = ServiceMode.NORMAL

        current = _LADDER.index(self.mode)
        wanted = _LADDER.index(target)
        if wanted > current:
            self._set_mode(now, target)
            self._last_trip_at = now
        elif wanted < current:
            # climb back ONE rung per clean recovery window (hysteresis);
            # breaker state is whatever the board reports right now
            if self._last_trip_at < 0 or now - self._last_trip_at >= cfg.recovery_window_s:
                self._set_mode(now, _LADDER[current - 1])
                self._last_trip_at = now
        return self.mode

    def _set_mode(self, now: float, mode: ServiceMode) -> None:
        self.transitions.append((now, f"{self.mode.value}->{mode.value}"))
        self.mode = mode

    def transition_log(self) -> List[str]:
        return [f"t={when * 1e6:.1f}us mode {what}" for when, what in self.transitions]


__all__ = ["DegradationLadder", "DegradeConfig", "ServiceMode"]
