"""Deterministic request-path policies: timeouts, retries, hedged reads.

Every delay these policies produce is *simulation time* and every random
choice comes from an explicitly seeded :class:`~repro.crypto.prng.XorShift64`
stream, so a chaos campaign with policies enabled remains a pure function of
(seed, plan) — the same reproducibility contract the fault injector keeps.

The three primitives mirror the standard production toolkit:

- :class:`TimeoutBudget` — per-command and per-request sim-time deadlines;
- :class:`RetryPolicy` — capped exponential backoff with seeded jitter,
  always bounded by ``max_attempts`` *and* the request deadline;
- :class:`HedgePolicy` — a speculative duplicate read issued to a replica
  channel once the first attempt exceeds a latency quantile (Dean &
  Barroso's "tail at scale" hedge, in sim-time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.prng import XorShift64


@dataclass(frozen=True)
class TimeoutBudget:
    """Sim-time deadlines for one logical request.

    ``command_timeout_s`` bounds a single NVMe command (a hung die must not
    wedge a queue slot); ``request_deadline_s`` bounds the whole retry
    chain — once spent, the request fails rather than retrying forever.
    """

    command_timeout_s: float = 1e-3
    request_deadline_s: float = 10e-3

    def __post_init__(self) -> None:
        if self.command_timeout_s <= 0 or self.request_deadline_s <= 0:
            raise ValueError("timeout budgets must be positive")
        if self.request_deadline_s < self.command_timeout_s:
            raise ValueError("request deadline cannot be shorter than one command")


class RetryPolicy:
    """Capped exponential backoff with seeded jitter.

    ``delay(attempt)`` for attempt k (0-based count of *completed* failed
    attempts) is ``min(base * multiplier**k, cap)`` plus a jitter drawn from
    the policy's own PRNG stream in ``[0, jitter_fraction * delay)``.
    The PRNG is seeded explicitly, so two runs replay identical backoffs.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay_s: float = 100e-6,
        multiplier: float = 2.0,
        cap_s: float = 2e-3,
        jitter_fraction: float = 0.25,
        seed: int = 0xB0FF,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("retry policy needs at least one attempt")
        if base_delay_s < 0 or cap_s < base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= cap_s")
        if not 0.0 <= jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must lie in [0, 1]")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.cap_s = cap_s
        self.jitter_fraction = jitter_fraction
        self._rng = XorShift64(seed or 1)

    def allows(self, attempts_done: int) -> bool:
        """May another attempt be issued after ``attempts_done`` failures?"""
        return attempts_done < self.max_attempts

    def delay(self, attempts_done: int) -> float:
        """Backoff before attempt number ``attempts_done + 1``."""
        if attempts_done < 1:
            return 0.0  # first retry can be immediate-ish; jitter still applies
        exponent = attempts_done - 1
        raw = min(self.base_delay_s * (self.multiplier ** exponent), self.cap_s)
        jitter = raw * self.jitter_fraction * self._rng.next_float()
        return raw + jitter


class HedgePolicy:
    """Speculative duplicate reads against the observed latency tail.

    ``hedge_delay(observed)`` returns how long to wait before issuing the
    duplicate: the ``quantile`` of the latencies observed so far, or
    ``floor_s`` until ``min_samples`` completions exist (early in a run the
    quantile is noise). Only reads hedge — a duplicated write would double
    flash wear and reorder the log.
    """

    def __init__(
        self,
        quantile: float = 0.95,
        floor_s: float = 400e-6,
        min_samples: int = 32,
    ) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError("hedge quantile must lie in (0, 1)")
        if floor_s <= 0:
            raise ValueError("hedge floor must be positive")
        self.quantile = quantile
        self.floor_s = floor_s
        self.min_samples = min_samples

    def hedge_delay(self, observed_sorted: list[float]) -> float:
        """Delay before hedging, given *sorted* observed read latencies."""
        if len(observed_sorted) < self.min_samples:
            return self.floor_s
        idx = min(
            len(observed_sorted) - 1,
            int(self.quantile * (len(observed_sorted) - 1)),
        )
        return max(self.floor_s, observed_sorted[idx])


__all__ = ["HedgePolicy", "RetryPolicy", "TimeoutBudget"]
