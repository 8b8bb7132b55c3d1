"""Figure 13: IceClave overhead vs ISC as channels scale.

Paper claim: up to 28% (8.6% on average) slower than insecure ISC, with
the overhead growing as more internal bandwidth makes the security work a
larger fraction of runtime — most visible on complicated queries (TPC-C).
"""

import statistics

from conftest import WORKLOAD_ORDER, print_header, run_once

from repro.platform import figures

CHANNELS = (4, 8, 16, 32)


def test_fig13_overhead_vs_channels(benchmark, profiles, config):
    sweep = run_once(
        benchmark, lambda: figures.fig12_13_channel_sweep(profiles, config, channels=CHANNELS)
    )
    overheads = {
        ch: {name: overhead for name, (_, overhead) in point.items()}
        for ch, point in sweep.items()
    }

    print_header(
        "Figure 13: overhead vs ISC across channel counts",
        "up to ~28%, 8.6% on average; grows with channels",
    )
    print(f"{'workload':>12s} " + " ".join(f"{ch:>6d}ch" for ch in CHANNELS))
    for name in WORKLOAD_ORDER:
        print(f"{name:>12s} " + " ".join(f"{overheads[ch][name]*100:+6.1f}%" for ch in CHANNELS))
    sweep_avg = statistics.mean(
        statistics.mean(overheads[ch].values()) for ch in CHANNELS
    )
    sweep_max = max(max(overheads[ch].values()) for ch in CHANNELS)
    print(f"\n  sweep average: +{sweep_avg*100:.1f}% (paper 8.6%), "
          f"max +{sweep_max*100:.1f}% (paper ~28%)")

    assert 0.04 <= sweep_avg <= 0.16
    # overhead never negative and grows with channel count on average
    avgs = [statistics.mean(overheads[ch].values()) for ch in CHANNELS]
    assert all(a >= 0 for a in avgs)
    assert avgs[-1] > avgs[0]
    # TPC-C's overhead grows with channels (the paper calls this out)
    assert overheads[32]["tpcc"] > overheads[8]["tpcc"]
