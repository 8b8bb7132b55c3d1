"""Performance tooling: profiler and deterministic parallel runner.

Two pieces, both sitting just below the CLI:

- :mod:`repro.perf.parallel` — fan experiment *points* (scheme runs, chaos
  campaigns, fleet lab arms) across worker processes with a fixed-order
  merge, so ``--jobs N`` output is byte-identical to serial;
- :mod:`repro.perf.profiler` — cProfile harness plus the simulator-side
  counters (memo hit rates, counter-cache stats) for one workload run.

How fast the stack runs is measured by ``perfbench/`` (see its README); see
docs/PERFORMANCE.md for the profiling workflow and the optimization
inventory.
"""

from repro.perf.parallel import (
    chaos_point,
    execute_point,
    map_points,
    platform_point,
)

__all__ = [
    "chaos_point",
    "execute_point",
    "map_points",
    "platform_point",
]
