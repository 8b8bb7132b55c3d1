"""Figure 5: protected-region mapping table vs mapping table in secure world.

Paper claim: keeping the cached mapping table in the protected region
(read-only to the normal world) avoids per-translation world switches and
improves performance by 21.6% on average.
"""

import statistics

from conftest import WORKLOAD_ORDER, print_header, run_once

from repro.platform import figures


def test_fig5_mapping_table_location(benchmark, profiles, config):
    results = run_once(benchmark, lambda: figures.fig5_mapping_location(profiles, config))

    print_header(
        "Figure 5: mapping table location (normalized to IceClave)",
        "secure-world mapping table is ~21.6% slower on average",
    )
    print(f"{'workload':>12s} {'protected':>10s} {'secure':>10s} {'relative':>9s}")
    improvements = []
    for name in WORKLOAD_ORDER:
        prot, sec = results[name]
        rel = sec / prot
        improvements.append(rel - 1.0)
        print(f"{name:>12s} {prot:9.1f}s {sec:9.1f}s {rel:8.2f}x")
    avg = statistics.mean(improvements)
    print(f"\n  average slowdown with secure-world table: +{avg*100:.1f}% (paper ~+21.6%)")

    assert 0.10 <= avg <= 0.45
    for name in WORKLOAD_ORDER:
        prot, sec = results[name]
        assert sec > prot  # protected region always wins
