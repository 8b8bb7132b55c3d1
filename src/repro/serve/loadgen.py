"""Open-loop load generation for the serve lab.

An *open-loop* generator decides arrival times up front, independent of
how the service responds — which is the honest way to measure overload
behaviour (a closed loop self-throttles and hides the failure mode, the
classic coordinated-omission trap).

Two arrival processes, both pure functions of the seed:

- ``poisson`` — exponential interarrivals at ``rate_per_s``;
- ``bursty``  — the same Poisson base, but alternating on/off phases: a
  burst phase at ``burst_factor`` × the base rate, then a quiet phase at
  ``2 - burst_factor`` × the base rate, floored at 0.25×. The quiet phase
  keeps the long-run mean at the base rate only while ``burst_factor <=
  1.75``; at the default of 4 the floor binds and the mean is
  (4 + 0.25) / 2 = 2.125× the base rate.

Tenants get Zipf-ish weights (rank-skewed popularity), a per-tenant write
fraction, and a deterministic tampered subset: those tenants' handshakes
are answered by a trojaned deployment, which the lab's attestation gate
must refuse.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List

from repro.crypto.prng import XorShift64

PROCESSES = ("poisson", "bursty")


@dataclass(frozen=True)
class ArrivalConfig:
    """Shape of the arrival process."""

    process: str = "poisson"
    rate_per_s: float = 50_000.0
    burst_factor: float = 4.0  # burst-phase rate multiplier (bursty only)
    burst_phase_s: float = 2e-3  # on/off phase length (bursty only)

    def __post_init__(self) -> None:
        if self.process not in PROCESSES:
            raise ValueError(
                f"unknown process {self.process!r} (expected one of {PROCESSES})"
            )
        if self.rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        if self.burst_factor < 1.0:
            raise ValueError("burst factor must be >= 1")
        if self.burst_phase_s <= 0:
            raise ValueError("burst phase must be positive")


@dataclass(frozen=True)
class TenantProfile:
    """One simulated tenant."""

    tenant_id: int
    weight: float  # relative arrival share (Zipf-ish)
    write_fraction: float
    tampered: bool = False  # served by a trojaned deployment


@dataclass(frozen=True)
class Arrival:
    """One scheduled request arrival."""

    at_s: float
    tenant_id: int
    op: str  # "read" | "write"
    lpa: int


def make_tenants(
    count: int,
    seed: int,
    tampered_fraction: float = 0.01,
    zipf_alpha: float = 0.8,
) -> List[TenantProfile]:
    """Build ``count`` tenants with an exact, seed-deterministic tampered set.

    The tampered count is ``round(count * tampered_fraction)`` exactly (at
    least 1 whenever the fraction is non-zero), sampled without replacement
    from the id space — so the lab can assert refusals == tampered count.
    """
    if count < 1:
        raise ValueError("need at least one tenant")
    if not 0.0 <= tampered_fraction < 1.0:
        raise ValueError("tampered fraction must lie in [0, 1)")
    rng = XorShift64((seed << 3) ^ 0x7E4A47)
    tampered_count = int(round(count * tampered_fraction))
    if tampered_fraction > 0.0:
        tampered_count = max(1, tampered_count)
    tampered_ids = set()
    while len(tampered_ids) < tampered_count:
        tampered_ids.add(rng.next_below(count))
    return [
        TenantProfile(
            tenant_id=i,
            weight=1.0 / float(i + 1) ** zipf_alpha,
            write_fraction=0.15 + 0.25 * rng.next_float(),
            tampered=i in tampered_ids,
        )
        for i in range(count)
    ]


def _interarrival(rng: XorShift64, rate_per_s: float) -> float:
    # inverse-CDF exponential; 1 - u keeps the argument away from log(0)
    return -math.log(1.0 - rng.next_float()) / rate_per_s


def _phase_rate(config: ArrivalConfig, now: float) -> float:
    if config.process != "bursty":
        return config.rate_per_s
    phase = int(now / config.burst_phase_s)
    if phase % 2 == 0:
        return config.rate_per_s * config.burst_factor
    # compensates for the burst only while burst_factor <= 1.75; above
    # that the 0.25x floor binds and the long-run mean exceeds the base
    quiet = 2.0 - config.burst_factor
    return config.rate_per_s * max(quiet, 0.25)


def generate_arrivals(
    tenants: List[TenantProfile],
    config: ArrivalConfig,
    total_requests: int,
    seed: int,
    working_set: int = 256,
) -> List[Arrival]:
    """The full open-loop schedule: a pure function of its arguments."""
    if total_requests < 1:
        raise ValueError("need at least one request")
    if working_set < 1:
        raise ValueError("working set must be positive")
    rng = XorShift64((seed << 5) ^ 0xA771)
    cumulative: List[float] = []
    acc = 0.0
    for tenant in tenants:
        acc += tenant.weight
        cumulative.append(acc)
    arrivals: List[Arrival] = []
    now = 0.0
    for _ in range(total_requests):
        now += _interarrival(rng, _phase_rate(config, now))
        pick = rng.next_float() * acc
        index = min(bisect.bisect_left(cumulative, pick), len(tenants) - 1)
        tenant = tenants[index]
        op = "write" if rng.next_float() < tenant.write_fraction else "read"
        arrivals.append(
            Arrival(
                at_s=now,
                tenant_id=tenant.tenant_id,
                op=op,
                lpa=rng.next_below(working_set),
            )
        )
    return arrivals


__all__ = [
    "Arrival",
    "ArrivalConfig",
    "PROCESSES",
    "TenantProfile",
    "generate_arrivals",
    "make_tenants",
]
