"""Multi-tenant IceClave: concurrent in-storage TEEs (§6.8).

Each collocated instance runs on its own controller core (the solo
baseline uses one core too, matching the paper's "running each in-storage
application independently"); interference comes from the shared substrate:

- **flash channels** — only when the tenants' aggregate bandwidth demand
  exceeds the internal bandwidth do load phases stretch;
- **protected-region mapping cache** — tenants' datasets sit side by side
  and each scan touches every translation page once, so interleaving them
  shares no reuse: every tenant misses once per translation page, as it
  does alone. This channel adds nothing to Figures 17/18, and the paper's
  "up to 8.7% more misses" is not reproduced;
- **SSD DRAM bandwidth** — concurrent memory traffic inflates each
  instance's stall time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional

from repro.ftl.mapping_cache import MappingCache
from repro.platform.config import PlatformConfig
from repro.platform.metrics import RunResult
from repro.platform.schemes import IceClavePlatform

if TYPE_CHECKING:
    from repro.workloads.base import WorkloadProfile

MEMORY_INTERFERENCE_PER_TENANT = 0.09  # stall inflation per collocated tenant


class MultiTenantIceClave:
    """Runs several workload profiles concurrently under IceClave."""

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        base = config or PlatformConfig()
        # one controller core per tenant, solo and collocated alike
        self.config = replace(base, isc_cores=1)
        self._single = IceClavePlatform(self.config)

    def run_solo(self, profile: WorkloadProfile) -> RunResult:
        """The single-instance baseline Figures 17/18 normalize against."""
        return self._single.run(profile)

    def run(self, profiles: List[WorkloadProfile]) -> List[RunResult]:
        """Returns one RunResult per instance, with contention applied."""
        if not profiles:
            raise ValueError("need at least one instance")
        solos = [self._single.run(p) for p in profiles]
        if len(profiles) == 1:
            return solos

        n = len(profiles)
        cfg = self.config.iceclave
        # side-by-side scans never revisit a translation page, so the shared
        # cache misses once per page, no more often than each tenant alone,
        # and every tenant's security cost stays at its solo value
        shared_miss_rate = 1 / MappingCache(
            cfg.protected_region_bytes, cfg.page_bytes
        ).entries_per_page

        # aggregate internal-bandwidth demand: each tenant spends
        # load_j/total_j of its runtime pulling from flash at full rate
        demand = sum(r.components["load"] / r.total_time for r in solos)
        load_stretch = max(1.0, demand)

        results: List[RunResult] = []
        for profile, solo in zip(profiles, solos):
            load = solo.components["load"] * load_stretch
            compute = solo.components["compute"] * (
                1.0 + MEMORY_INTERFERENCE_PER_TENANT * (n - 1)
            )
            security = solo.components["security"]

            exposure = self.config.pipeline_exposure
            total = max(load, compute) + exposure * min(load, compute) + security
            results.append(
                RunResult(
                    workload=profile.name,
                    scheme=f"iceclave-x{n}",
                    total_time=total,
                    components={
                        "load": load,
                        "compute": compute,
                        "security": security,
                    },
                    stats={
                        "solo_time": solo.total_time,
                        "slowdown": total / solo.total_time,
                        "shared_miss_rate": shared_miss_rate,
                        "bandwidth_demand": demand,
                    },
                )
            )
        return results
