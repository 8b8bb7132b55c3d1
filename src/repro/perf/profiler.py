"""cProfile harness for one workload run, plus simulator-side counters.

``python -m repro profile <workload>`` answers two questions at once:
*where does host CPU time go* (the cProfile table) and *is the simulator
doing redundant work* (memo hit rates, MEE counter-cache behaviour from the
run's own stats). The second half is what distinguishes a model bug from a
Python-level hot spot — a 0% memo hit rate on a sweep means the cache key
is wrong, not that the code needs micro-optimizing.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.platform.config import PlatformConfig
from repro.platform.metrics import RunResult
from repro.platform.schemes import make_platform
from repro.sim.stats import memo_cache_stats
from repro.workloads import workload_by_name

_SORT_KEYS = ("cumulative", "tottime", "ncalls")


@dataclass
class ProfileReport:
    """Everything one profiling run produced."""

    workload: str
    scheme: str
    result: RunResult
    profile_table: str
    memo_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    alloc_table: str = ""

    def summary_lines(self) -> List[str]:
        lines = [
            f"profiled {self.workload} on {self.scheme}: "
            f"simulated total {self.result.total_time:.3f}s",
            "",
            "simulator counters:",
        ]
        for key, value in sorted(self.result.stats.items()):
            lines.append(f"  {key:>32s} = {value:.6g}")
        lines.append("")
        lines.append("memoized helpers (hits/misses/size):")
        if not self.memo_stats:
            lines.append("  (none registered)")
        for name, info in self.memo_stats.items():
            total = info["hits"] + info["misses"]
            rate = info["hits"] / total if total else 0.0
            lines.append(
                f"  {name:>28s}: {info['hits']}/{info['misses']}/{info['size']}"
                f"  ({rate * 100:.1f}% hit)"
            )
        if self.alloc_table:
            lines.append("")
            lines.append(self.alloc_table.rstrip())
        lines.append("")
        lines.append(self.profile_table.rstrip())
        return lines

    def format(self) -> str:
        return "\n".join(self.summary_lines())


def _format_alloc_stats(statistics: list, top_allocs: int) -> str:
    """Render tracemalloc per-line statistics as an aligned table."""
    lines = [f"top {top_allocs} allocation sites (tracemalloc, by total size):"]
    shown = statistics[:top_allocs]
    if not shown:
        lines.append("  (no allocations recorded)")
    for stat in shown:
        frame = stat.traceback[0]
        lines.append(
            f"  {stat.size / 1024:10.1f} KiB in {stat.count:>8d} blocks  "
            f"{frame.filename}:{frame.lineno}"
        )
    remainder = statistics[top_allocs:]
    if remainder:
        other = sum(stat.size for stat in remainder)
        lines.append(
            f"  {other / 1024:10.1f} KiB in {len(remainder)} other sites"
        )
    return "\n".join(lines)


def profile_run(
    workload: str,
    scheme: str = "iceclave",
    config: Optional[PlatformConfig] = None,
    seed: Optional[int] = None,
    sort: str = "cumulative",
    top: int = 25,
    top_allocs: int = 0,
) -> ProfileReport:
    """Run ``workload`` on ``scheme`` under cProfile.

    The workload generation happens *outside* the profiled region — the
    interesting cost is the platform model, and the profile should not be
    dominated by trace synthesis.

    ``top_allocs > 0`` additionally traces allocations with ``tracemalloc``
    and reports the heaviest allocation sites by total size. Tracing slows
    the run down (so the cProfile numbers shift), but the *relative* ranking
    of allocation sites is what allocation-reduction work cares about.
    """
    if sort not in _SORT_KEYS:
        raise ValueError(f"sort must be one of {_SORT_KEYS}")
    if top < 1:
        raise ValueError("top must be >= 1")
    if top_allocs < 0:
        raise ValueError("top_allocs must be >= 0")
    cfg = config or PlatformConfig()
    kwargs = {} if seed is None else {"seed": seed}
    profile = workload_by_name(workload, **kwargs).run()
    platform = make_platform(scheme, cfg)

    alloc_table = ""
    if top_allocs:
        import tracemalloc

        tracemalloc.start()
    profiler = cProfile.Profile()
    profiler.enable()
    result = platform.run(profile)
    profiler.disable()
    if top_allocs:
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        alloc_table = _format_alloc_stats(
            snapshot.statistics("lineno"), top_allocs
        )

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(top)
    return ProfileReport(
        workload=workload,
        scheme=scheme,
        result=result,
        profile_table=stream.getvalue(),
        memo_stats=memo_cache_stats(),
        alloc_table=alloc_table,
    )
