"""Figure 16: sensitivity to SSD DRAM capacity (4 GB -> 2 GB).

Paper claim: ISC loses 12-44% with half the DRAM (working data no longer
fits and is re-fetched from flash); IceClave follows the same trend while
keeping its overhead over ISC minimal.
"""

from conftest import WORKLOAD_ORDER, print_header, run_once

from repro.platform import figures


def test_fig16_dram_capacity(benchmark, profiles, config):
    times = run_once(
        benchmark, lambda: figures.fig16_dram_sweep(profiles, config, capacities_gib=(4, 2))
    )

    print_header(
        "Figure 16: SSD DRAM capacity sweep",
        "ISC drops 12-44% at 2 GB; IceClave tracks ISC",
    )
    print(f"{'workload':>12s} {'isc drop':>9s} {'ice drop':>9s} {'ice-vs-isc@2GB':>15s}")
    drops = []
    for name in WORKLOAD_ORDER:
        isc4, ice4 = times[4][name]
        isc2, ice2 = times[2][name]
        isc_drop = isc2 / isc4 - 1
        ice_drop = ice2 / ice4 - 1
        drops.append(isc_drop)
        print(f"{name:>12s} {isc_drop*100:+8.1f}% {ice_drop*100:+8.1f}% "
              f"{(ice2/isc2-1)*100:+14.1f}%")
    print(f"\n  ISC drop range: {min(drops)*100:.0f}% .. {max(drops)*100:.0f}% (paper 12-44%)")

    assert 0.05 <= min(drops)
    assert max(drops) <= 0.60
    assert max(drops) >= 0.30  # the transactional workloads hurt badly
    # IceClave stays close to ISC at both capacities
    for name in WORKLOAD_ORDER:
        isc2, ice2 = times[2][name]
        assert ice2 / isc2 - 1 < 0.30
