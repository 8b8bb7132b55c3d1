"""Ablation: counter cache size (§5 fixes it at 128 KB).

Sweeps the on-chip counter cache and shows how the MEE's extra traffic
and per-access overhead respond — the design-choice justification for the
128 KB the paper picks.
"""

import dataclasses

from conftest import print_header, run_once

from repro.core import IceClaveConfig
from repro.core.mee import EncryptionScheme, MemoryEncryptionEngine

KIB = 1024
SIZES = (16 * KIB, 32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB)


def replay(profile, cache_bytes, sample=40000):
    config = dataclasses.replace(IceClaveConfig(), counter_cache_bytes=cache_bytes)
    mee = MemoryEncryptionEngine(config=config, scheme=EncryptionScheme.HYBRID)
    mee.replay(profile.trace.events[:sample])
    return mee


def test_ablation_counter_cache_size(benchmark, profiles):
    def experiment():
        out = {}
        for size in SIZES:
            mees = {
                name: replay(profiles[name], size)
                for name in ("tpch-q1", "tpcc", "wordcount")
            }
            out[size] = {
                name: (
                    mee.cache.hit_rate,
                    mee.stats.encryption_extra_traffic()
                    + mee.stats.verification_extra_traffic(),
                )
                for name, mee in mees.items()
            }
        return out

    results = run_once(benchmark, experiment)

    print_header(
        "Ablation: counter cache size",
        "the paper fixes 128 KB; larger caches cut metadata traffic",
    )
    print(f"{'size':>8s} " + " ".join(f"{n + ' (hit/extra)':>24s}" for n in
                                      ("tpch-q1", "tpcc", "wordcount")))
    for size in SIZES:
        row = " ".join(
            f"{hr*100:9.1f}% / {extra*100:8.1f}%"
            for hr, extra in results[size].values()
        )
        print(f"{size//KIB:6d}KB {row}")

    # more cache never hurts, and the write-heavy workloads benefit most
    for name in ("tpcc", "wordcount"):
        extras = [results[size][name][1] for size in SIZES]
        assert extras[-1] <= extras[0]
    # the default (128 KB) already captures most of the benefit for scans
    q1_small = results[16 * KIB]["tpch-q1"][1]
    q1_default = results[128 * KIB]["tpch-q1"][1]
    q1_huge = results[512 * KIB]["tpch-q1"][1]
    assert q1_default - q1_huge <= max(q1_small - q1_default, 1e-4)
