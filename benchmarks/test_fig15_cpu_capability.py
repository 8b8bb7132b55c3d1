"""Figure 15: sensitivity to in-storage computing capability.

Paper claim: performance drops 13.7-33.4% as the ARM core's clock falls
from 1.6 GHz, and the out-of-order A72 beats the in-order A53 at equal
frequency.
"""

from conftest import print_header, run_once

from repro.platform import figures


def test_fig15_cpu_capability(benchmark, profiles, config):
    times = run_once(benchmark, lambda: figures.fig15_capability_sweep(profiles, config))

    baseline = times[("cortex-a72", 1.6e9)]
    print_header(
        "Figure 15: in-storage computing capability sweep",
        "performance drops 13.7-33.4% with weaker cores; OoO A72 > in-order A53",
    )
    print(f"{'core':>14s} {'avg time':>10s} {'rel perf':>9s}")
    for (name, freq), t in times.items():
        print(f"{name + '@' + str(freq/1e9) + 'GHz':>14s} {t:9.1f}s {baseline/t:8.3f}")

    # shape assertions
    assert times[("cortex-a72", 1.2e9)] > times[("cortex-a72", 1.6e9)]
    assert times[("cortex-a72", 0.8e9)] > times[("cortex-a72", 1.2e9)]
    assert times[("cortex-a53", 1.6e9)] > times[("cortex-a72", 1.6e9)]
    worst = baseline / times[("cortex-a53", 0.8e9)]
    assert 0.55 <= worst <= 0.90  # paper band: up to -33.4%
    mild = baseline / times[("cortex-a72", 1.2e9)]
    assert mild >= 0.85
