"""Figure 12: IceClave speedup over Host as flash channels scale 4 -> 32.

Paper claim: internal bandwidth grows linearly with channels while the
host stays PCIe-capped, so IceClave's speedup scales to 1.7-5.0x; compute-
heavy workloads (TPC-B/C, wordcount) saturate earlier (1.2-1.8x) than the
analytics queries (1.9-6.2x).
"""

import statistics

from conftest import WORKLOAD_ORDER, print_header, run_once

from repro.platform import figures

CHANNELS = (4, 8, 16, 32)


def test_fig12_channel_scaling(benchmark, profiles, config):
    sweep = run_once(
        benchmark, lambda: figures.fig12_13_channel_sweep(profiles, config, channels=CHANNELS)
    )
    speedups = {
        ch: {name: speedup for name, (speedup, _) in point.items()}
        for ch, point in sweep.items()
    }

    print_header(
        "Figure 12: speedup over Host vs channel count",
        "scales with internal bandwidth; 1.7-5.0x overall",
    )
    print(f"{'workload':>12s} " + " ".join(f"{ch:>6d}ch" for ch in CHANNELS))
    for name in WORKLOAD_ORDER:
        print(f"{name:>12s} " + " ".join(f"{speedups[ch][name]:7.2f}" for ch in CHANNELS))
    for ch in CHANNELS:
        vals = list(speedups[ch].values())
        print(f"  {ch:2d} channels: avg={statistics.mean(vals):.2f}x "
              f"range {min(vals):.2f}-{max(vals):.2f}x")

    # shape: average speedup strictly grows with channels
    avgs = [statistics.mean(speedups[ch].values()) for ch in CHANNELS]
    assert avgs == sorted(avgs)
    assert avgs[-1] / avgs[0] > 2.0
    # analytics queries scale harder than the write-heavy trio
    analytics_scale = speedups[32]["filter"] / speedups[4]["filter"]
    assert analytics_scale > 1.5
    for name in ("tpcb", "tpcc", "wordcount"):
        assert speedups[32][name] / speedups[4][name] < analytics_scale
