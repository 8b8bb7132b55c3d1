"""Circuit breakers keyed per channel/die, driven by the sim clock.

A breaker protects the rest of the stack from a component that is failing
*persistently* — a quarantined die, a channel in an ECC read-retry storm —
by failing fast instead of queueing doomed commands behind it.

State machine (the classic three states, all transitions in sim-time):

    CLOSED --[``failure_threshold`` consecutive failures]--> OPEN
    OPEN   --[``reset_timeout_s`` elapsed]-->                HALF_OPEN
    HALF_OPEN --[probe succeeds]-->                          CLOSED
    HALF_OPEN --[probe fails]-->                             OPEN (timer rearms)

While OPEN, ``allow()`` refuses traffic so callers route to a replica; in
HALF_OPEN exactly one probe command per ``probe_interval_s`` is let through.
Every transition is appended to ``transitions`` with its sim timestamp, so
two runs with the same seed produce byte-identical breaker histories.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.state import Stateful


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    failure_threshold: int = 5  # consecutive failures that trip the breaker
    reset_timeout_s: float = 2e-3  # OPEN -> HALF_OPEN after this long
    probe_interval_s: float = 1e-3  # min spacing between HALF_OPEN probes
    success_threshold: int = 1  # probe successes needed to close again

    def __post_init__(self) -> None:
        if self.failure_threshold < 1 or self.success_threshold < 1:
            raise ValueError("breaker thresholds must be >= 1")
        if self.reset_timeout_s <= 0 or self.probe_interval_s <= 0:
            raise ValueError("breaker timers must be positive")


class CircuitBreaker(Stateful):
    """One breaker instance (see module docstring for the state machine)."""

    # the full state machine; key and config are constructor inputs
    STATE = (
        "state",
        "consecutive_failures",
        "probe_successes",
        "opened_at",
        "last_probe_at",
        "transitions",
    )

    def __init__(self, key: str, config: BreakerConfig = BreakerConfig()) -> None:
        self.key = key
        self.config = config
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.probe_successes = 0
        self.opened_at = 0.0
        self.last_probe_at = -1.0
        self.transitions: List[Tuple[float, str]] = []

    # -- queries ---------------------------------------------------------------

    def allow(self, now: float) -> bool:
        """May a command be issued through this breaker at sim-time ``now``?

        In HALF_OPEN this *admits a probe* (and spends the probe slot), so
        call it once per issue decision, not speculatively.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self.opened_at >= self.config.reset_timeout_s:
                self._transition(now, BreakerState.HALF_OPEN)
            else:
                return False
        # HALF_OPEN: one probe per probe_interval
        if self.last_probe_at < 0 or now - self.last_probe_at >= self.config.probe_interval_s:
            self.last_probe_at = now
            return True
        return False

    @property
    def is_open(self) -> bool:
        return self.state is BreakerState.OPEN

    def effectively_open(self, now: float) -> bool:
        """OPEN and still inside the reset timeout.

        An OPEN breaker whose reset timeout has elapsed is ready to probe —
        for capacity planning (e.g. the degradation ladder) it should count
        as recovering, not as dark, even though no traffic has arrived yet
        to drive the OPEN → HALF_OPEN transition.
        """
        return (
            self.state is BreakerState.OPEN
            and now - self.opened_at < self.config.reset_timeout_s
        )

    # -- outcome feedback ------------------------------------------------------

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self.probe_successes += 1
            if self.probe_successes >= self.config.success_threshold:
                self._transition(now, BreakerState.CLOSED)

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            # the probe failed: back to OPEN, rearm the reset timer
            self._transition(now, BreakerState.OPEN)
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self._transition(now, BreakerState.OPEN)

    # -- internals -------------------------------------------------------------

    def _transition(self, now: float, state: BreakerState) -> None:
        self.transitions.append((now, f"{self.state.value}->{state.value}"))
        self.state = state
        if state is BreakerState.OPEN:
            self.opened_at = now
            self.probe_successes = 0
        elif state is BreakerState.HALF_OPEN:
            self.last_probe_at = -1.0
            self.probe_successes = 0
        else:  # CLOSED
            self.consecutive_failures = 0


class BreakerBoard:
    """A registry of breakers keyed by component (``"ch0"``, ``"ch1/die2"``).

    Keys are created on first use; iteration helpers return them sorted so
    any derived report or log stays deterministic.
    """

    def __init__(self, config: BreakerConfig = BreakerConfig()) -> None:
        self.config = config
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, key: str) -> CircuitBreaker:
        if key not in self._breakers:
            self._breakers[key] = CircuitBreaker(key, self.config)
        return self._breakers[key]

    def open_keys(self, now: Optional[float] = None) -> List[str]:
        return sorted(
            k for k, b in self._breakers.items()
            if (b.is_open if now is None else b.effectively_open(now))
        )

    def open_count(self, now: Optional[float] = None) -> int:
        """Open breakers; with ``now``, only those still inside their reset
        timeout (see :meth:`CircuitBreaker.effectively_open`)."""
        return sum(
            1 for b in self._breakers.values()
            if (b.is_open if now is None else b.effectively_open(now))
        )

    def transition_log(self) -> List[str]:
        lines: List[str] = []
        for key in sorted(self._breakers):
            for when, what in self._breakers[key].transitions:
                lines.append(f"t={when * 1e6:.1f}us breaker[{key}] {what}")
        return lines

    # -- checkpoint/restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Per-key breaker states, sorted for a canonical encoding."""
        return {
            "breakers": [
                (key, self._breakers[key].snapshot_state())
                for key in sorted(self._breakers)
            ],
        }

    def restore_state(self, state: dict) -> None:
        self._breakers = {}
        for key, breaker_state in state["breakers"]:
            self.breaker(key).restore_state(breaker_state)


__all__ = ["BreakerBoard", "BreakerConfig", "BreakerState", "CircuitBreaker"]
