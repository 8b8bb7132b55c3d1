"""Figure 18: four collocated IceClave instances.

Paper claim: performance drops by 21.4% on average, caused by compute
interference and up to 8.7% more misses in the shared cached mapping
table.
"""

import statistics

from conftest import print_header, run_once

from repro.platform import figures

QUADS = [
    ("tpcc", "tpch-q1", "filter", "wordcount"),
    ("tpcb", "tpch-q3", "aggregate", "tpch-q12"),
    ("tpcc", "tpcb", "tpch-q14", "arithmetic"),
]


def test_fig18_four_tenants(benchmark, profiles, config):
    results = run_once(
        benchmark,
        lambda: {quad: figures.fig18_quad(profiles, config, quad) for quad in QUADS},
    )

    print_header(
        "Figure 18: four collocated instances",
        "average 21.4% slowdown; up to 8.7% more mapping-cache misses",
    )
    all_slowdowns = []
    for quad, res in results.items():
        slow = [r.stats["slowdown"] - 1 for r in res]
        all_slowdowns.extend(slow)
        parts = " ".join(f"{n}:{s*100:+.0f}%" for n, s in zip(quad, slow))
        print(f"  {parts}")
    avg = statistics.mean(all_slowdowns)
    print(f"\n  average slowdown: +{avg*100:.1f}% (paper +21.4%)")

    assert 0.10 <= avg <= 0.35
    assert all(s >= 0 for s in all_slowdowns)
    # collocating four costs more than collocating two
    two = figures.fig17_pairs(profiles, config, anchor="tpcc", partners=["tpch-q1"])["tpch-q1"]
    two_avg = statistics.mean(r.stats["slowdown"] - 1 for r in two)
    assert avg > two_avg
