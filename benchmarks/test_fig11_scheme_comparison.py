"""Figure 11: Host vs Host+SGX vs ISC vs IceClave, with breakdowns.

Headline claims: IceClave outperforms Host by 2.31x and Host+SGX by 2.38x
on average, while adding only 7.6% over insecure ISC; Host+SGX pays ~103%
extra computing time.
"""

import statistics

from conftest import WORKLOAD_ORDER, print_header, run_once

from repro.platform import figures


def test_fig11_scheme_comparison(benchmark, profiles, config):
    results = run_once(benchmark, lambda: figures.fig11_schemes(profiles, config))

    print_header(
        "Figure 11: normalized performance of the four schemes",
        "IceClave 2.31x over Host, 2.38x over Host+SGX, +7.6% over ISC",
    )
    print(f"{'workload':>12s} {'host':>8s} {'h+sgx':>8s} {'isc':>8s} {'iceclave':>9s} "
          f"{'ice/host':>9s} {'vs isc':>8s}")
    sgx_inflations = []
    for name in WORKLOAD_ORDER:
        r = results[name]
        speedup = r["iceclave"].speedup_over(r["host"])
        overhead = r["iceclave"].overhead_over(r["isc"])
        sgx_inflations.append(r["host+sgx"].stats["sgx_compute_inflation"])
        print(f"{name:>12s} {r['host'].total_time:7.1f}s {r['host+sgx'].total_time:7.1f}s "
              f"{r['isc'].total_time:7.1f}s {r['iceclave'].total_time:8.1f}s "
              f"{speedup:8.2f}x {overhead*100:+7.1f}%")
    summary = figures.fig11_summary(results)
    avg_speedup = summary["speedup_vs_host"]
    avg_sgx = summary["speedup_vs_host_sgx"]
    avg_overhead = summary["overhead_vs_isc"]
    print(f"\n  average ice/host  = {avg_speedup:.2f}x (paper 2.31x)")
    print(f"  average ice/h+sgx = {avg_sgx:.2f}x (paper 2.38x)")
    print(f"  average vs isc    = +{avg_overhead*100:.1f}% (paper +7.6%)")
    print(f"  SGX compute inflation = {statistics.mean(sgx_inflations):.2f}x (paper ~2.03x)")

    assert 1.9 <= avg_speedup <= 2.8
    assert avg_sgx >= avg_speedup  # SGX is never better than plain host
    assert 0.03 <= avg_overhead <= 0.12
    for name in WORKLOAD_ORDER:
        r = results[name]
        assert r["iceclave"].total_time >= r["isc"].total_time  # security is not free
        assert r["host+sgx"].total_time >= r["host"].total_time
