"""Programmatic builders for every table/figure data series.

One function per experiment, returning plain dict/list structures that the
benchmark harness, the EXPERIMENTS.md generator, and the CSV exporter all
share — so the three never disagree about what an experiment means.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.mee import EncryptionScheme
from repro.cpu.models import CORTEX_A53, CORTEX_A72
from repro.platform.config import MAPPING_IN_SECURE, PlatformConfig
from repro.platform.metrics import RunResult
from repro.platform.multitenant import MultiTenantIceClave
from repro.platform.schemes import make_platform
from repro.workloads.base import WorkloadProfile

WORKLOAD_ORDER = [
    "arithmetic", "aggregate", "filter",
    "tpch-q1", "tpch-q3", "tpch-q12", "tpch-q14", "tpch-q19",
    "tpcb", "tpcc", "wordcount",
]
SCHEMES = ("host", "host+sgx", "isc", "iceclave")

Profiles = Dict[str, WorkloadProfile]


def table1_write_ratios(profiles: Profiles, dataset_bytes: int = 32 << 30) -> Dict[str, float]:
    """Table 1: per-workload memory write ratios at dataset scale."""
    return {n: profiles[n].scaled(dataset_bytes).write_ratio for n in _names(profiles)}


def fig5_mapping_location(profiles: Profiles, config: PlatformConfig) -> Dict[str, Tuple[float, float]]:
    """Figure 5: (protected_s, secure_world_s) per workload."""
    protected = make_platform("iceclave", config)
    secure = make_platform("iceclave", config.with_mapping_location(MAPPING_IN_SECURE))
    return {
        n: (protected.run(profiles[n]).total_time, secure.run(profiles[n]).total_time)
        for n in _names(profiles)
    }


def fig8_mee_schemes(profiles: Profiles, config: PlatformConfig) -> Dict[str, Dict[str, float]]:
    """Figure 8: total time per workload per encryption scheme (enforced)."""
    enforced = dataclasses.replace(config, mee_latency_exposure=1.0)
    out: Dict[str, Dict[str, float]] = {n: {} for n in _names(profiles)}
    for scheme in EncryptionScheme:
        platform = make_platform("iceclave", enforced.with_mee_scheme(scheme))
        for n in _names(profiles):
            out[n][scheme.value] = platform.run(profiles[n]).total_time
    return out


def fig11_schemes(profiles: Profiles, config: PlatformConfig) -> Dict[str, Dict[str, RunResult]]:
    """Figure 11: full RunResults per workload per scheme."""
    platforms = {s: make_platform(s, config) for s in SCHEMES}
    return {
        n: {s: platforms[s].run(profiles[n]) for s in SCHEMES}
        for n in _names(profiles)
    }


def fig11_summary(results: Dict[str, Dict[str, RunResult]]) -> Dict[str, float]:
    """The §6.2 headline averages from a fig11 result set."""
    speedups = [r["iceclave"].speedup_over(r["host"]) for r in results.values()]
    sgx = [r["iceclave"].speedup_over(r["host+sgx"]) for r in results.values()]
    overheads = [r["iceclave"].overhead_over(r["isc"]) for r in results.values()]
    return {
        "speedup_vs_host": statistics.mean(speedups),
        "speedup_vs_host_sgx": statistics.mean(sgx),
        "overhead_vs_isc": statistics.mean(overheads),
    }


def fig12_13_channel_sweep(
    profiles: Profiles,
    config: PlatformConfig,
    channels: Sequence[int] = (4, 8, 16, 32),
) -> Dict[int, Dict[str, Tuple[float, float]]]:
    """Figures 12/13: (speedup_vs_host, overhead_vs_isc) per channel count."""
    out: Dict[int, Dict[str, Tuple[float, float]]] = {}
    for ch in channels:
        cfg = config.with_channels(ch)
        ice = make_platform("iceclave", cfg)
        host = make_platform("host", cfg)
        isc = make_platform("isc", cfg)
        point: Dict[str, Tuple[float, float]] = {}
        for n in _names(profiles):
            # run each platform once per workload; the iceclave run (the
            # expensive one — it replays the MEE trace) feeds both ratios
            ice_run = ice.run(profiles[n])
            point[n] = (
                ice_run.speedup_over(host.run(profiles[n])),
                ice_run.overhead_over(isc.run(profiles[n])),
            )
        out[ch] = point
    return out


def fig14_latency_sweep(
    profiles: Profiles,
    config: PlatformConfig,
    latencies_us: Sequence[int] = (10, 30, 50, 70, 90, 110),
) -> Dict[int, Dict[str, float]]:
    """Figure 14: speedup vs host per flash read latency."""
    out: Dict[int, Dict[str, float]] = {}
    for lat in latencies_us:
        cfg = config.with_flash_read_latency(lat * 1e-6)
        ice = make_platform("iceclave", cfg)
        host = make_platform("host", cfg)
        out[lat] = {
            n: ice.run(profiles[n]).speedup_over(host.run(profiles[n]))
            for n in _names(profiles)
        }
    return out


def fig15_capability_sweep(
    profiles: Profiles, config: PlatformConfig
) -> Dict[Tuple[str, float], float]:
    """Figure 15: average total time per (core, frequency)."""
    sweep = [
        (CORTEX_A72, 1.6e9), (CORTEX_A72, 1.2e9), (CORTEX_A72, 0.8e9),
        (CORTEX_A53, 1.6e9), (CORTEX_A53, 1.2e9), (CORTEX_A53, 0.8e9),
    ]
    out = {}
    for core, freq in sweep:
        cfg = config.with_isc_core(core.with_frequency(freq))
        platform = make_platform("iceclave", cfg)
        out[(core.name, freq)] = statistics.mean(
            platform.run(profiles[n]).total_time for n in _names(profiles)
        )
    return out


def fig16_dram_sweep(
    profiles: Profiles,
    config: PlatformConfig,
    capacities_gib: Sequence[int] = (2, 4),
) -> Dict[int, Dict[str, Tuple[float, float]]]:
    """Figure 16: (isc_s, iceclave_s) per DRAM capacity."""
    out: Dict[int, Dict[str, Tuple[float, float]]] = {}
    for gib in capacities_gib:
        cfg = config.with_dram(gib << 30)
        isc = make_platform("isc", cfg)
        ice = make_platform("iceclave", cfg)
        out[gib] = {
            n: (isc.run(profiles[n]).total_time, ice.run(profiles[n]).total_time)
            for n in _names(profiles)
        }
    return out


def fig17_pairs(
    profiles: Profiles,
    config: PlatformConfig,
    anchor: str = "tpcc",
    partners: Optional[List[str]] = None,
) -> Dict[str, List[RunResult]]:
    """Figure 17: the anchor workload collocated with each partner."""
    mt = MultiTenantIceClave(config)
    partners = partners or [n for n in _names(profiles) if n != anchor]
    return {p: mt.run([profiles[anchor], profiles[p]]) for p in partners}


def fig18_quad(
    profiles: Profiles,
    config: PlatformConfig,
    quad: Sequence[str] = ("tpcc", "tpch-q1", "filter", "wordcount"),
) -> List[RunResult]:
    """Figure 18: four collocated instances."""
    mt = MultiTenantIceClave(config)
    return mt.run([profiles[n] for n in quad])


def table6_extra_traffic(
    profiles: Profiles, config: PlatformConfig
) -> Dict[str, Tuple[float, float]]:
    """Table 6: (encryption, verification) extra-traffic fractions.

    Read off the HYBRID IceClave run's own MEE replay of
    ``config.mee_sample_limit`` events, the replay Figure 11 charges for.
    """
    platform = make_platform("iceclave", config.with_mee_scheme(EncryptionScheme.HYBRID))
    out = {}
    for n in _names(profiles):
        stats = platform.run(profiles[n]).stats
        out[n] = (stats["mee_encryption_traffic"], stats["mee_verification_traffic"])
    return out


def _names(profiles: Profiles) -> List[str]:
    return [n for n in WORKLOAD_ORDER if n in profiles] + [
        n for n in profiles if n not in WORKLOAD_ORDER
    ]
