"""Benchmark trajectory: wall-clock, events/sec and peak RSS per figure run.

``python -m repro bench`` measures a fixed set of named benchmark cases —
the simulation kernel itself plus the figure pipelines the paper's
evaluation regenerates — and writes the measurements as ``BENCH_<n>.json``
(the next free index, so the committed files form a trajectory over the
repo's history).

Wall-clock numbers are machine-dependent, so every file also records a
*calibration* measurement (a fixed pure-Python integer loop). Regression
checks compare calibration-normalized times: ``(wall/cal)_now`` vs
``(wall/cal)_baseline``, which cancels raw machine speed and leaves only
the repo's own efficiency. CI fails when any case regresses by more than
:data:`REGRESSION_THRESHOLD` against the committed baseline.

Everything here deliberately reads the host clock — that is the measurand —
so the determinism lint is waived at the single chokepoint every timing
goes through.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.flash.geometry import small_geometry
from repro.flash.ssd import FlashDevice
from repro.flash.timing import FlashTiming
from repro.perf.parallel import (
    chaos_point,
    map_points,
    platform_point,
    resilience_point,
)
from repro.perf.parallel import _profile_for
from repro.platform.config import PlatformConfig
from repro.platform.schemes import SCHEMES
from repro.sim.engine import Engine

SCHEMA_VERSION = 1
REGRESSION_THRESHOLD = 0.25
# Cases whose baseline wall time is under this fraction of the calibration
# loop are too small to gate: at ~10 ms, scheduler jitter alone exceeds the
# regression threshold. They are still recorded in the trajectory.
NOISE_FLOOR = 0.25
_BENCH_RE = re.compile(r"BENCH_(\d+)\.json$")

_QUICK_FIG11_WORKLOADS = ("filter", "tpch-q1", "tpcc", "wordcount")
_FULL_FIG11_WORKLOADS = (
    "arithmetic", "aggregate", "filter",
    "tpch-q1", "tpch-q3", "tpch-q12", "tpch-q14", "tpch-q19",
    "tpcb", "tpcc", "wordcount",
)


def _wall() -> float:
    """Host wall-clock; the one sanctioned read in the whole tree."""
    return time.perf_counter()  # repro: allow[det-wallclock] -- benchmarking measures host time by design


def calibration_seconds(passes: int = 3) -> float:
    """Best-of-N time for a fixed pure-Python integer workload.

    Used to normalize wall-clock across machines: dividing a benchmark's
    wall time by this cancels raw interpreter/CPU speed.
    """
    best: Optional[float] = None
    for _ in range(max(1, passes)):
        start = _wall()
        acc = 0
        for i in range(1_500_000):
            acc += i * i
        elapsed = _wall() - start
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    return best


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size in KB (Linux semantics), None if unavailable."""
    try:
        import resource as host_resource
    except ImportError:  # pragma: no cover - resource is POSIX-only
        return None
    return int(host_resource.getrusage(host_resource.RUSAGE_SELF).ru_maxrss)


# -- benchmark cases -----------------------------------------------------------


def _bench_kernel_flash_read(quick: bool, jobs: int) -> Optional[int]:
    """Raw event-kernel throughput: a windowed page-read storm.

    Single-engine on purpose; parallel speedup is measured by the pipeline
    cases below. Goes through :meth:`FlashDevice.read_storm`, the same
    windowed loop the platform's flash-throughput probe runs.
    """
    pages = 2000 if quick else 8000
    engine = Engine()
    geometry = small_geometry(channels=8)
    device = FlashDevice(engine, geometry, FlashTiming())
    pages = min(pages, geometry.total_pages)
    device.read_storm(range(pages), window=64)
    return engine.events_fired


def _bench_compare(quick: bool, jobs: int) -> Optional[int]:
    """The `repro compare` pipeline: one workload, all four schemes.

    Small in either mode, so ``quick`` changes nothing here.
    """
    config = PlatformConfig()
    specs = [platform_point("tpch-q1", s, config) for s in sorted(SCHEMES)]
    return len(map_points(specs, jobs=jobs))


def _bench_fig11(quick: bool, jobs: int) -> Optional[int]:
    """The Figure 11 grid: workloads x schemes."""
    config = PlatformConfig()
    workloads = _QUICK_FIG11_WORKLOADS if quick else _FULL_FIG11_WORKLOADS
    specs = [
        platform_point(w, s, config)
        for w in workloads
        for s in sorted(SCHEMES)
    ]
    return len(map_points(specs, jobs=jobs))


def _bench_channel_sweep(quick: bool, jobs: int) -> Optional[int]:
    """The Figures 12/13 channel sweep for one workload."""
    base = PlatformConfig()
    channels = (4, 8) if quick else (4, 8, 16, 32)
    specs = [
        platform_point("tpch-q3", scheme, base.with_channels(ch))
        for ch in channels
        for scheme in ("host", "isc", "iceclave")
    ]
    return len(map_points(specs, jobs=jobs))


def _bench_chaos(quick: bool, jobs: int) -> Optional[int]:
    """One fault-injection campaign (the reliability CSV's unit of work)."""
    ops = 600 if quick else 2000
    profile = _profile_for("tpcc", None)
    # single campaign, run inline; chaos parallelism is the exporter's job
    report = map_points(
        [chaos_point("tpcc", profile.write_ratio, seed=42, ops=ops)], jobs=1
    )[0]
    return ops + int(report.reliability.get("faults_injected", 0))


def _bench_resilience(quick: bool, jobs: int) -> Optional[int]:
    """The two-arm resilience experiment behind `repro resilience`."""
    ops = 600 if quick else 2000
    map_points([resilience_point(seed=7, ops=ops)], jobs=1)
    return 2 * ops  # both arms process the same request count


@dataclass(frozen=True)
class BenchCase:
    name: str
    description: str
    fn: Callable[[bool, int], Optional[int]]


BENCH_CASES = (
    BenchCase("kernel-flash-read", "event kernel: windowed page-read storm",
              _bench_kernel_flash_read),
    BenchCase("compare-tpch-q1", "compare pipeline: 4 schemes, one workload",
              _bench_compare),
    BenchCase("fig11-grid", "Figure 11 grid: workloads x schemes",
              _bench_fig11),
    BenchCase("channel-sweep", "Figures 12/13 channel sweep (one workload)",
              _bench_channel_sweep),
    BenchCase("chaos-tpcc", "fault-injection campaign (reliability CSV unit)",
              _bench_chaos),
    BenchCase("resilience", "two-arm resilience experiment",
              _bench_resilience),
)


# -- running and persisting ---------------------------------------------------


def run_bench(quick: bool = False, jobs: int = 1) -> Dict[str, Any]:
    """Measure every case; returns the BENCH_<n>.json payload."""
    calibration = calibration_seconds()
    benchmarks: List[Dict[str, Any]] = []
    for case in BENCH_CASES:
        start = _wall()
        events = case.fn(quick, jobs)
        wall = _wall() - start
        benchmarks.append(
            {
                "name": case.name,
                "description": case.description,
                "wall_s": wall,
                "events": events,
                "events_per_s": (events / wall) if events and wall > 0 else None,
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "mode": "quick" if quick else "full",
        "jobs": jobs,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "calibration_s": calibration,
        "peak_rss_kb": _peak_rss_kb(),
        "benchmarks": benchmarks,
    }


def next_bench_path(out_dir: pathlib.Path) -> pathlib.Path:
    """First unused ``BENCH_<n>.json`` slot in ``out_dir``."""
    taken = []
    for path in out_dir.glob("BENCH_*.json"):
        match = _BENCH_RE.match(path.name)
        if match is not None:
            taken.append(int(match.group(1)))
    return out_dir / f"BENCH_{max(taken) + 1 if taken else 0}.json"


def write_bench(payload: Dict[str, Any], out_dir: pathlib.Path) -> pathlib.Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = next_bench_path(out_dir)
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_bench(path: pathlib.Path) -> Dict[str, Any]:
    with pathlib.Path(path).open() as fh:
        payload = json.load(fh)
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: bench schema {payload.get('schema')!r} != {SCHEMA_VERSION}"
        )
    return payload


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = REGRESSION_THRESHOLD,
) -> List[str]:
    """Calibration-normalized comparison; returns a list of failures.

    Empty list = no regression. Cases present on only one side are skipped
    (the set may grow over the trajectory), as are cases below
    :data:`NOISE_FLOOR` (too small for wall-clock to mean anything), but
    *zero* comparable cases is itself a failure — a silently empty gate
    guards nothing.
    """
    if current.get("mode") != baseline.get("mode"):
        return [
            f"mode mismatch: current run is '{current.get('mode')}' but the "
            f"baseline is '{baseline.get('mode')}'; nothing is comparable"
        ]
    cal_now = current.get("calibration_s") or 0.0
    cal_base = baseline.get("calibration_s") or 0.0
    if cal_now <= 0 or cal_base <= 0:
        return ["missing/invalid calibration measurements; cannot normalize"]
    baseline_by_name = {b["name"]: b for b in baseline.get("benchmarks", [])}
    problems: List[str] = []
    compared = 0
    for bench in current.get("benchmarks", []):
        base = baseline_by_name.get(bench["name"])
        if base is None or not base.get("wall_s"):
            continue
        if base["wall_s"] / cal_base < NOISE_FLOOR:
            continue
        compared += 1
        normalized = (bench["wall_s"] / cal_now) / (base["wall_s"] / cal_base)
        if normalized > 1.0 + threshold:
            problems.append(
                f"{bench['name']}: {normalized:.2f}x the normalized baseline "
                f"(limit {1.0 + threshold:.2f}x; "
                f"{bench['wall_s']:.3f}s now vs {base['wall_s']:.3f}s then)"
            )
    if compared == 0:
        problems.append("no comparable benchmarks between current run and baseline")
    return problems


def compare_benches(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> Dict[str, Any]:
    """Trajectory comparison between two bench payloads.

    Computes calibration-normalized speedups per case (``>1`` = current is
    faster) plus raw event-rate ratios where both sides report rates. Used
    by ``repro bench --compare OLD NEW`` so the committed ``BENCH_<n>.json``
    files read as a performance trajectory, and by CI to print the trend.
    """
    cal_base = baseline.get("calibration_s") or 0.0
    cal_now = current.get("calibration_s") or 0.0
    comparable_modes = current.get("mode") == baseline.get("mode")
    cases: List[Dict[str, Any]] = []
    baseline_by_name = {b["name"]: b for b in baseline.get("benchmarks", [])}
    for bench in current.get("benchmarks", []):
        base = baseline_by_name.get(bench["name"])
        if base is None:
            continue
        entry: Dict[str, Any] = {
            "name": bench["name"],
            "wall_s_baseline": base.get("wall_s"),
            "wall_s_current": bench.get("wall_s"),
            "events_per_s_baseline": base.get("events_per_s"),
            "events_per_s_current": bench.get("events_per_s"),
            "speedup": None,
            "event_rate_ratio": None,
        }
        if (
            comparable_modes
            and cal_base > 0
            and cal_now > 0
            and base.get("wall_s")
            and bench.get("wall_s")
        ):
            entry["speedup"] = (base["wall_s"] / cal_base) / (
                bench["wall_s"] / cal_now
            )
        if base.get("events_per_s") and bench.get("events_per_s"):
            entry["event_rate_ratio"] = (
                bench["events_per_s"] / base["events_per_s"]
            )
        cases.append(entry)
    return {
        "schema": SCHEMA_VERSION,
        "comparable_modes": comparable_modes,
        "mode_baseline": baseline.get("mode"),
        "mode_current": current.get("mode"),
        "calibration_s_baseline": cal_base,
        "calibration_s_current": cal_now,
        "cases": cases,
    }


def format_compare(comparison: Dict[str, Any]) -> str:
    """Human-readable speedup table for :func:`compare_benches` output."""
    lines = [
        f"bench trajectory: {comparison['mode_baseline']} baseline -> "
        f"{comparison['mode_current']} current "
        f"(speedups are calibration-normalized; >1.00x = faster now)"
    ]
    if not comparison["comparable_modes"]:
        lines.append("  WARNING: modes differ; wall-clock speedups suppressed")
    for case in comparison["cases"]:
        speedup = case["speedup"]
        speedup_text = f"{speedup:6.2f}x" if speedup is not None else "      -"
        rate = case["event_rate_ratio"]
        if rate is not None:
            now = case["events_per_s_current"]
            rate_text = f"  {now:12.0f} ev/s ({rate:.2f}x baseline)"
        else:
            rate_text = ""
        lines.append(f"  {case['name']:>18s}: {speedup_text}{rate_text}")
    if not comparison["cases"]:
        lines.append("  (no cases in common)")
    return "\n".join(lines)


def format_bench(payload: Dict[str, Any]) -> str:
    lines = [
        f"bench mode={payload['mode']} jobs={payload['jobs']} "
        f"python={payload['python']} calibration={payload['calibration_s'] * 1e3:.1f}ms "
        f"peak_rss={payload['peak_rss_kb'] or '?'}KB",
    ]
    for bench in payload["benchmarks"]:
        eps = bench["events_per_s"]
        eps_text = f"{eps:12.0f} ev/s" if eps else " " * 17
        lines.append(
            f"  {bench['name']:>18s}: {bench['wall_s']:8.3f}s {eps_text}  "
            f"{bench['description']}"
        )
    return "\n".join(lines)
