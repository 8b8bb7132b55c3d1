"""Figure 8: non-encryption vs split counters (SC-64) vs hybrid counters.

Paper claim: the hybrid-counter scheme improves performance by ~43% on
average over SC-64 for in-storage programs, approaching non-encryption.

This is the paper's memory-path design study: per §5, every memory access
triggers MAC/tree verification synchronously, so the comparison runs with
full latency enforcement (``mee_latency_exposure = 1``).
"""

import statistics

from conftest import WORKLOAD_ORDER, print_header, run_once

from repro.platform import figures


def test_fig8_hybrid_counters(benchmark, profiles, config):
    times = run_once(benchmark, lambda: figures.fig8_mee_schemes(profiles, config))

    print_header(
        "Figure 8: memory encryption schemes (normalized to non-encryption)",
        "hybrid counters ~43% faster than SC-64 on average",
    )
    print(f"{'workload':>12s} {'sc64':>7s} {'hybrid':>7s} {'gain':>7s}")
    gains = []
    for name in WORKLOAD_ORDER:
        none = times[name]["none"]
        sc = times[name]["sc64"] / none
        hy = times[name]["hybrid"] / none
        gain = sc / hy - 1.0
        gains.append(gain)
        print(f"{name:>12s} {sc:6.2f}x {hy:6.2f}x {gain*100:+6.0f}%")
    avg = statistics.mean(gains)
    print(f"\n  average hybrid improvement over SC-64: +{avg*100:.0f}% (paper ~+43%)")

    assert 0.20 <= avg <= 0.60
    for name in WORKLOAD_ORDER:
        none = times[name]["none"]
        assert times[name]["hybrid"] <= times[name]["sc64"]
        assert none <= times[name]["hybrid"]
    # read-intensive workloads gain the most (they ride the major-counter path)
    read_gain = statistics.mean(gains[:8])
    write_gain = statistics.mean(gains[8:])
    assert read_gain > write_gain
