"""Figure 14: IceClave vs Host across flash read latencies (10-110 us).

Paper claim: IceClave keeps a 1.8-3.2x advantage from ultra-low-latency
NVMe (10 us) to commodity TLC (110 us); compute-hungry workloads (TPC-B/C,
Q19) benefit least at ultra-low latency because host CPUs are stronger.
"""

import statistics

from conftest import WORKLOAD_ORDER, print_header, run_once

from repro.platform import figures

LATENCIES_US = (10, 30, 50, 70, 90, 110)


def test_fig14_flash_latency(benchmark, profiles, config):
    speedups = run_once(
        benchmark, lambda: figures.fig14_latency_sweep(profiles, config, latencies_us=LATENCIES_US)
    )

    print_header(
        "Figure 14: speedup over Host vs flash read latency",
        "1.8-3.2x across 10-110us devices",
    )
    print(f"{'workload':>12s} " + " ".join(f"{lat:>5d}us" for lat in LATENCIES_US))
    for name in WORKLOAD_ORDER:
        print(f"{name:>12s} " + " ".join(f"{speedups[lat][name]:6.2f}" for lat in LATENCIES_US))
    for lat in (10, 110):
        vals = list(speedups[lat].values())
        print(f"  {lat:3d}us: avg={statistics.mean(vals):.2f}x "
              f"range {min(vals):.2f}-{max(vals):.2f}x")

    # shape: slower flash narrows the advantage, but IceClave still wins
    avg_fast = statistics.mean(speedups[10].values())
    avg_slow = statistics.mean(speedups[110].values())
    assert avg_fast > avg_slow
    assert avg_slow > 1.0
    assert 1.5 <= avg_fast <= 3.5
