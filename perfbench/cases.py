"""The four benchmark workloads, each a set of inputs driven through `repro`.

A case has two halves:

- ``make_inputs(seed)`` builds everything the workload needs from the seed,
  outside the timed body (the program only ever receives generated inputs);
- ``run_pass(inputs)`` executes one pass through the public entry points,
  times its body, checks its outputs and returns a :class:`PassResult`.

Every pass of one seed is a pure function of that seed, so all passes (and
all runs) of one seed must agree on ``fingerprint``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

clock = time.perf_counter

# Fixed input sizes. Changing one changes what every later run measures.
CHAOS_WORKLOAD = "tpcc"
CHAOS_OPS = 3000  # the `repro chaos --ops` default; the fault plan is per-op
SERVE_TENANTS = 1000  # the `repro serve-lab` defaults
SERVE_REQUESTS = 4000
FLEET_REQUESTS = 4000  # host cost is superlinear in this (see README)

# The paper's §6.2 headline (Fig. 11): the one reference this repo holds.
PAPER_SPEEDUP_VS_HOST = 2.31
PAPER_OVERHEAD_VS_ISC_PCT = 7.6


# Per-layer counters read off the program's own reports (0 where a workload
# does not report one).
COUNTS = (
    "platform.mee_memo_hit_rate",
    "ftl.gc_relocations", "ftl.gc_erases", "flash.ecc_retries", "faults.injected",
    "serve.sessions_refused", "serve.retry_ratio",
    "resilience.shed_admission", "resilience.no_channel",
    "fleet.hedged_reads", "fleet.hedge_win_ratio", "fleet.keys_rebuilt",
)


@dataclass
class PassResult:
    """What one pass did, as plain data a worker can print as JSON."""

    ops: int
    failed: int
    body_s: float
    fingerprint: str
    sim: Dict[str, float] = field(default_factory=dict)  # simulated end-to-end
    counts: Dict[str, float] = field(default_factory=dict)  # per-layer, from reports


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(value: Any) -> str:
    """Canonical text of a series; floats via repr, so equal text means equal bits."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        items = sorted((repr(k), _canonical(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    return repr(value)


# -- paper-figures ---------------------------------------------------------------


def _numbers(value: Any) -> List[float]:
    """Every number in a figure series; a RunResult counts as its total time."""
    if dataclasses.is_dataclass(value):
        return [value.total_time]
    if isinstance(value, dict):
        return [t for v in value.values() for t in _numbers(v)]
    if isinstance(value, (list, tuple)):
        return [t for v in value for t in _numbers(v)]
    return [float(value)]


def _figure_builders() -> List[Tuple[str, Callable, Callable[[Any], List[float]]]]:
    """(name, builder, series -> values that must be positive).

    Every number in every series must also be finite.
    """
    from repro.platform import figures

    def ratios_only(series):  # fig12/13: (speedup, overhead); overhead may be < 0
        return [speedup for point in series.values() for speedup, _ in point.values()]

    def fractions(series):  # table 6 holds traffic fractions, not times
        return []

    return [
        ("fig5", figures.fig5_mapping_location, _numbers),
        ("fig8", figures.fig8_mee_schemes, _numbers),
        ("fig11", figures.fig11_schemes, _numbers),
        ("fig12_13", figures.fig12_13_channel_sweep, ratios_only),
        ("fig14", figures.fig14_latency_sweep, _numbers),
        ("fig15", figures.fig15_capability_sweep, _numbers),
        ("fig16", figures.fig16_dram_sweep, _numbers),
        ("fig17", figures.fig17_pairs, _numbers),
        ("fig18", figures.fig18_quad, _numbers),
        ("table6", figures.table6_extra_traffic, fractions),
    ]


def seed_only(seed: int) -> int:
    """Inputs for a pass that derives everything from the seed inside its body
    (paper-figures times profile synthesis; the fleet lab builds its own)."""
    return seed


def figures_pass(seed: int) -> PassResult:
    from repro.platform import PlatformConfig, figures
    from repro.sim.stats import memo_cache_stats
    from repro.workloads import workload_by_name

    builders = _figure_builders()
    start = clock()
    profiles = {
        name: workload_by_name(name, seed=seed).run() for name in figures.WORKLOAD_ORDER
    }
    config = PlatformConfig()
    series = {name: build(profiles, config) for name, build, _ in builders}
    body_s = clock() - start

    failed = 0
    for name, _, positive_of in builders:
        finite = all(map(math.isfinite, _numbers(series[name])))
        if not finite or not all(v > 0 for v in positive_of(series[name])):
            failed += 1
    summary = figures.fig11_summary(series["fig11"])
    memo = memo_cache_stats().get("platform.mee_overhead", {})
    lookups = memo.get("hits", 0) + memo.get("misses", 0)
    return PassResult(
        ops=len(builders),
        failed=failed,
        body_s=body_s,
        fingerprint=_digest(_canonical(series)),
        sim={
            "fig11_speedup_err_pct": abs(summary["speedup_vs_host"] - PAPER_SPEEDUP_VS_HOST)
            / PAPER_SPEEDUP_VS_HOST
            * 100.0,
            "fig11_overhead_err_pp": abs(
                summary["overhead_vs_isc"] * 100.0 - PAPER_OVERHEAD_VS_ISC_PCT
            ),
        },
        counts={
            "platform.mee_memo_hit_rate": memo.get("hits", 0) / lookups if lookups else 0.0,
        },
    )


# -- ssd-chaos -------------------------------------------------------------------


def chaos_inputs(seed: int) -> Tuple[int, float]:
    from repro.workloads import workload_by_name

    return seed, workload_by_name(CHAOS_WORKLOAD, seed=seed).run().write_ratio


def chaos_pass(inputs: Tuple[int, float]) -> PassResult:
    from repro.faults.chaos import ChaosRunner

    seed, write_ratio = inputs
    failed = 0
    start = clock()
    runner = ChaosRunner(CHAOS_WORKLOAD, write_ratio, seed=seed, ops=CHAOS_OPS)
    runner.prepare()
    for _ in range(CHAOS_OPS):
        before = runner.invariant_violations
        runner.step()
        if runner.invariant_violations != before:
            failed += 1  # a read-back mismatch or a lost mapping during this op
    stepped = runner.invariant_violations
    report = runner.finalize()
    body_s = clock() - start

    failed = min(CHAOS_OPS, failed + report.invariant_violations - stepped)
    ftl = report.ftl_counters
    rel = report.reliability
    return PassResult(
        ops=CHAOS_OPS,
        failed=failed,
        body_s=body_s,
        fingerprint=_digest(report.fingerprint()),
        sim={
            "sim_write_amp": (ftl["host_writes"] + ftl["gc_relocations"]) / ftl["host_writes"],
        },
        counts={
            "ftl.gc_relocations": ftl["gc_relocations"],
            "ftl.gc_erases": ftl["gc_erases"],
            "flash.ecc_retries": rel["read_retries"],
            "faults.injected": rel["faults_injected"],
        },
    )


# -- serve-lab -------------------------------------------------------------------


def serve_inputs(seed: int) -> Dict[str, int]:
    """The lab's own arrival schedule, regenerated to know the tampered load.

    Low-weight tenants may never arrive, so the attestation gate is checked
    against the planted tampered tenants that actually send a request.
    """
    from repro.serve.lab import ServeLabConfig
    from repro.serve.loadgen import generate_arrivals, make_tenants

    cfg = ServeLabConfig(tenants=SERVE_TENANTS, requests=SERVE_REQUESTS)
    tenants = make_tenants(cfg.tenants, seed, cfg.tampered_fraction)
    arrivals = generate_arrivals(
        tenants, cfg.arrival, cfg.requests, seed, working_set=cfg.working_set
    )
    tampered = {t.tenant_id for t in tenants if t.tampered}
    hits = [a.tenant_id for a in arrivals if a.tenant_id in tampered]
    return {"seed": seed, "tampered_tenants": len(set(hits)), "tampered_requests": len(hits)}


def serve_pass(inputs: Dict[str, int]) -> PassResult:
    from repro.serve import run_serve_lab

    start = clock()
    report = run_serve_lab(
        seed=inputs["seed"], tenants=SERVE_TENANTS, requests=SERVE_REQUESTS, chaos=True
    )
    body_s = clock() - start

    arms = (report.baseline, report.attested)
    failed = 0
    for arm in arms:
        # a tampered tenant's request that was not blocked got a session
        failed += max(0, inputs["tampered_requests"] - arm.requests_blocked_unattested)
        failed += abs(arm.sessions_refused - inputs["tampered_tenants"])

    def total(counter: str) -> int:
        return sum(arm.counters.get(counter, 0) for arm in arms)

    return PassResult(
        ops=2 * SERVE_REQUESTS,
        failed=failed,
        body_s=body_s,
        fingerprint=_digest(report.fingerprint()),
        sim={
            "sim_p99_read_us": report.attested.p99_read_s * 1e6,
            "sim_availability_pct": report.attested.availability * 100.0,
        },
        counts={
            "serve.sessions_refused": sum(arm.sessions_refused for arm in arms),
            "serve.retry_ratio": total("client_retries") / (2 * SERVE_REQUESTS),
            "resilience.shed_admission": total("service.shed_admission"),
            "resilience.no_channel": total("service.no_channel_available"),
        },
    )


# -- fleet-lab -------------------------------------------------------------------


def fleet_pass(seed: int) -> PassResult:
    from repro.fleet import run_fleet

    start = clock()
    report = run_fleet(seed, FLEET_REQUESTS)
    body_s = clock() - start

    on = report.on
    return PassResult(
        ops=2 * FLEET_REQUESTS,
        failed=max(on.keys_lost, on.lost) + on.corrupt,
        body_s=body_s,
        fingerprint=report.fingerprint(),
        sim={
            "sim_p99_read_us": on.p99_read_s * 1e6,
            "sim_availability_pct": on.availability * 100.0,
        },
        counts={
            "fleet.hedged_reads": report.off.hedged_reads + on.hedged_reads,
            "fleet.hedge_win_ratio": on.hedge_wins / on.hedged_reads if on.hedged_reads else 0.0,
            "fleet.keys_rebuilt": report.off.rebuilds_completed + on.rebuilds_completed,
        },
    )


@dataclass(frozen=True)
class Case:
    name: str
    make_inputs: Callable[[int], Any]
    run_pass: Callable[[Any], PassResult]
    # the MEE memo and the flash-throughput cache live for the whole process,
    # so a pass that must start cold gets a process of its own
    process_per_pass: bool = False


CASES: Dict[str, Case] = {
    case.name: case
    for case in (
        Case("paper-figures", seed_only, figures_pass, process_per_pass=True),
        Case("ssd-chaos", chaos_inputs, chaos_pass),
        Case("serve-lab", serve_inputs, serve_pass),
        Case("fleet-lab", seed_only, fleet_pass),
    )
}
