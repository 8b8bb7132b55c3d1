"""Figure 17: two collocated IceClave instances.

Paper claim: collocating the TPC-C instance with each other workload
degrades performance by 6.1-15.7%, driven by compute interference and
extra mapping-cache misses in the shared protected region.
"""

import statistics

from conftest import print_header, run_once

from repro.platform import figures

PARTNERS = ("arithmetic", "aggregate", "filter", "tpch-q1", "tpch-q3",
            "tpch-q12", "tpch-q14", "tpch-q19", "tpcb", "wordcount")


def test_fig17_two_tenants(benchmark, profiles, config):
    results = run_once(
        benchmark, lambda: figures.fig17_pairs(profiles, config, anchor="tpcc", partners=PARTNERS)
    )

    print_header(
        "Figure 17: TPC-C collocated with each workload (two tenants)",
        "6.1-15.7% degradation",
    )
    print(f"{'pair':>22s} {'tpcc':>8s} {'partner':>8s}")
    all_slowdowns = []
    for partner, (tpcc_res, partner_res) in results.items():
        s1 = tpcc_res.stats["slowdown"] - 1
        s2 = partner_res.stats["slowdown"] - 1
        all_slowdowns.extend([s1, s2])
        print(f"{'tpcc + ' + partner:>22s} {s1*100:+7.1f}% {s2*100:+7.1f}%")
    print(f"\n  range: {min(all_slowdowns)*100:.1f}% .. {max(all_slowdowns)*100:.1f}% "
          f"(paper 6.1-15.7%)")

    assert all(s >= 0 for s in all_slowdowns)
    assert statistics.mean(all_slowdowns) <= 0.20
    assert max(all_slowdowns) <= 0.30
