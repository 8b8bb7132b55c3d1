"""§6.3 claim: only 0.17% of TEE address translations miss the cached
mapping table in the protected memory region."""

import statistics

from conftest import WORKLOAD_ORDER, print_header, run_once

from repro.platform import figures, make_platform


def test_mapping_cache_missrate(benchmark, profiles, config):
    def experiment():
        return {
            name: runs["iceclave"].stats["translation_miss_rate"]
            for name, runs in figures.fig11_schemes(profiles, config).items()
        }

    rates = run_once(benchmark, experiment)

    print_header(
        "Cached mapping table miss rate (protected region)",
        "0.17% of flash address translations miss",
    )
    for name in WORKLOAD_ORDER:
        print(f"  {name:>12s}: {rates[name]*100:.3f}%")
    avg = statistics.mean(rates.values())
    print(f"\n  average: {avg*100:.3f}% (paper 0.17%)")

    assert 0.0005 <= avg <= 0.005  # same order of magnitude as 0.17%


def test_context_switches_are_rare(benchmark, profiles, config):
    """The translation slow path (world switch) is infrequent (§6.3)."""
    def experiment():
        platform = make_platform("iceclave", config)
        result = platform.run(profiles["tpch-q1"])
        pages = profiles["tpch-q1"].scaled(config.dataset_bytes).input_bytes // 4096
        return result.stats["translation_misses"], pages

    misses, pages = run_once(benchmark, experiment)
    print(f"\n  translations: {pages:,}, secure-world round trips: {int(misses):,} "
          f"({misses/pages*100:.3f}%)")
    assert misses / pages < 0.01
