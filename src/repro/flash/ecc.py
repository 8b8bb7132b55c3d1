"""ECC behaviour model for flash page reads.

The threat model (§3) relies on the ECC in flash controllers for flash-page
integrity. This module models a BCH-style code: each page tolerates up to
``correctable_bits`` raw bit errors; the raw bit error rate (RBER) grows
exponentially with block wear, which is why wear leveling matters.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque

from repro.crypto.prng import XorShift64
from repro.sim.state import Stateful


@dataclass(frozen=True)
class EccConfig:
    correctable_bits: int = 40  # per page codeword
    base_rber: float = 1e-7  # fresh-block raw bit error rate
    wear_scale: float = 3000.0  # P/E cycles per e-fold of RBER growth
    page_bits: int = 4096 * 8


class EccUncorrectableError(Exception):
    """Raised when a page read has more raw errors than ECC can fix."""

    def __init__(self, message: str, raw_errors: int = 0) -> None:
        super().__init__(message)
        self.raw_errors = raw_errors


class EccModel(Stateful):
    """Samples raw bit errors per read and decides correctability.

    Fault injection (:mod:`repro.faults`) feeds forced raw-error counts
    through :meth:`inject`; they replace the sampled count for the next
    reads, which keeps an injected schedule reproducible regardless of how
    much natural sampling happened in between.
    """

    # config is constructor-owned; the RNG, forced queue and counters move
    STATE = (
        "_rng",
        "_forced",
        "reads",
        "corrected_bits",
        "uncorrectable",
        "injected_reads",
        "retried_reads",
        "retry_successes",
        "last_raw_errors",
    )

    def __init__(self, config: EccConfig = EccConfig(), seed: int = 1) -> None:
        self.config = config
        self._rng = XorShift64(seed)
        self._forced: Deque[int] = deque()
        self.reads = 0
        self.corrected_bits = 0
        self.uncorrectable = 0
        self.injected_reads = 0
        self.retried_reads = 0
        self.retry_successes = 0
        self.last_raw_errors = 0

    def rber(self, wear: int) -> float:
        """Raw bit error rate for a block with ``wear`` P/E cycles."""
        return self.config.base_rber * math.exp(wear / self.config.wear_scale)

    def expected_errors(self, wear: int) -> float:
        return self.rber(wear) * self.config.page_bits

    def sample_errors(self, wear: int) -> int:
        """Sample a raw error count (Poisson via inversion, deterministic)."""
        lam = self.expected_errors(wear)
        if lam <= 0:
            return 0
        # Knuth's algorithm is fine: lambda stays small until extreme wear.
        if lam > 700:  # avoid math.exp underflow; page is hopeless anyway
            return int(lam)
        threshold = math.exp(-lam)
        count = 0
        product = self._rng.next_float()
        while product > threshold:
            count += 1
            product *= self._rng.next_float()
        return count

    def inject(self, errors: int, reads: int = 1) -> None:
        """Force the next ``reads`` page reads to see ``errors`` raw errors."""
        if errors < 0 or reads < 1:
            raise ValueError("need errors >= 0 and reads >= 1")
        self._forced.extend([errors] * reads)

    def check_read(self, wear: int) -> int:
        """Run a page read through ECC; returns corrected bit count.

        Raises :class:`EccUncorrectableError` when errors exceed capability.
        """
        self.reads += 1
        if self._forced:
            errors = self._forced.popleft()
            self.injected_reads += 1
        else:
            errors = self.sample_errors(wear)
        self.last_raw_errors = errors
        if errors > self.config.correctable_bits:
            self.uncorrectable += 1
            raise EccUncorrectableError(
                f"{errors} raw bit errors exceed t={self.config.correctable_bits}",
                raw_errors=errors,
            )
        self.corrected_bits += errors
        return errors

    def retry_read(self, shift: int, decay: float = 0.5) -> int:
        """Re-read the last failing page with a read-retry voltage shift.

        Each escalation level roughly halves the raw error count (the usual
        first-order model of read-retry threshold tuning). Returns the
        corrected bit count or raises when the page is still uncorrectable
        at this level.
        """
        if shift < 1:
            raise ValueError("retry shift must be >= 1")
        self.retried_reads += 1
        errors = int(self.last_raw_errors * (decay ** shift))
        if errors > self.config.correctable_bits:
            raise EccUncorrectableError(
                f"retry level {shift}: {errors} raw bit errors still exceed "
                f"t={self.config.correctable_bits}",
                raw_errors=errors,
            )
        self.retry_successes += 1
        self.corrected_bits += errors
        return errors

    def wear_limit(self) -> int:
        """P/E cycles at which the *expected* error count hits ECC capability.

        A first-order endurance estimate used by wear-leveling tests.
        """
        ratio = self.config.correctable_bits / (
            self.config.base_rber * self.config.page_bits
        )
        return int(self.config.wear_scale * math.log(ratio))


@dataclass
class RetryOutcome:
    """Result of an escalating read-retry sequence that recovered a page."""

    corrected_bits: int
    retries: int
    added_latency: float


@dataclass(frozen=True)
class ReadRetryPolicy:
    """Escalating read retries for initially uncorrectable pages.

    Each level re-reads the page with a stronger read-retry voltage shift
    (modelled as a geometric decay of the raw error count) and pays an
    escalating latency — level k costs ``k * retry_latency`` because deeper
    levels use slower sensing. A page that stays uncorrectable after
    ``max_retries`` levels is a hard failure.
    """

    max_retries: int = 5
    error_decay: float = 0.5
    retry_latency: float = 40e-6

    def recover(self, ecc: EccModel) -> RetryOutcome:
        """Retry the last failing read; raises when every level fails."""
        latency = 0.0
        last: Exception = EccUncorrectableError("no retries attempted")
        for shift in range(1, self.max_retries + 1):
            latency += shift * self.retry_latency
            try:
                corrected = ecc.retry_read(shift, decay=self.error_decay)
            except EccUncorrectableError as exc:
                last = exc
                continue
            return RetryOutcome(
                corrected_bits=corrected, retries=shift, added_latency=latency
            )
        raise EccUncorrectableError(
            f"page unrecoverable after {self.max_retries} retry levels: {last}",
            raw_errors=getattr(last, "raw_errors", 0),
        )

    def worst_case_latency(self) -> float:
        return sum(k * self.retry_latency for k in range(1, self.max_retries + 1))
