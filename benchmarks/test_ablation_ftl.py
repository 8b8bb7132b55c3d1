"""Ablation: FTL policies — GC watermark and wear-leveling threshold.

IceClave protects the FTL but does not change its policies; this ablation
characterizes the substrate itself: write amplification vs GC watermark,
and wear uniformity vs leveling threshold under a skewed write workload.
"""

from conftest import print_header, run_once

from repro.flash import FlashChip
from repro.flash.geometry import small_geometry
from repro.ftl import Ftl


def churn(ftl, writes, hot_lpas=8):
    for i in range(writes):
        ftl.write(i % hot_lpas)


def test_ablation_gc_watermark(benchmark):
    geometry = small_geometry(channels=2, chips_per_channel=1, dies_per_chip=1,
                              blocks_per_plane=16, pages_per_block=16)

    def experiment():
        out = {}
        for watermark in (1, 2, 4, 8):
            ftl = Ftl(geometry, chip=FlashChip(geometry), gc_watermark=watermark)
            churn(ftl, geometry.total_pages * 4)
            out[watermark] = (
                ftl.stats.write_amplification(ftl.stats.host_writes),
                ftl.stats.gc_erases,
            )
        return out

    results = run_once(benchmark, experiment)

    print_header(
        "Ablation: GC free-block watermark",
        "earlier GC (higher watermark) trades write amplification for headroom",
    )
    print(f"{'watermark':>10s} {'write amp':>10s} {'erases':>8s}")
    for wm, (wa, erases) in results.items():
        print(f"{wm:>10d} {wa:>9.3f} {erases:>8d}")

    for wa, _ in results.values():
        assert 1.0 <= wa < 3.0  # hot/small working sets keep WA low


def test_ablation_wear_threshold(benchmark):
    geometry = small_geometry(channels=2, chips_per_channel=1, dies_per_chip=1,
                              blocks_per_plane=16, pages_per_block=16)

    def experiment():
        out = {}
        for threshold in (2, 8, 32, 128):
            ftl = Ftl(geometry, chip=FlashChip(geometry), wear_threshold=threshold)
            churn(ftl, geometry.total_pages * 6)
            lo, hi, mean = ftl.wear_leveler.wear_stats()
            out[threshold] = (hi - lo, ftl.stats.wl_migrations, mean)
        return out

    results = run_once(benchmark, experiment)

    print_header(
        "Ablation: wear-leveling threshold",
        "tighter thresholds level harder (more migrations, flatter wear)",
    )
    print(f"{'threshold':>10s} {'wear gap':>9s} {'migrations':>11s} {'mean wear':>10s}")
    for th, (gap, migrations, mean) in results.items():
        print(f"{th:>10d} {gap:>9d} {migrations:>11d} {mean:>10.1f}")

    gaps = [results[th][0] for th in (2, 8, 32, 128)]
    migrations = [results[th][1] for th in (2, 8, 32, 128)]
    # tighter thresholds never migrate less and never end with a larger gap
    assert migrations[0] >= migrations[-1]
    assert gaps[0] <= gaps[-1] + 2
