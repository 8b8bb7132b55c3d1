"""Tests for the shared figure-series builders."""

import dataclasses
from collections import Counter

import pytest

from repro.core.mee import EncryptionScheme, MemoryEncryptionEngine
from repro.platform import PlatformConfig
from repro.platform.figures import (
    SCHEMES,
    fig5_mapping_location,
    fig8_mee_schemes,
    fig11_schemes,
    fig11_summary,
    fig12_13_channel_sweep,
    fig14_latency_sweep,
    fig16_dram_sweep,
    fig17_pairs,
    fig18_quad,
    table1_write_ratios,
    table6_extra_traffic,
)
from repro.platform.schemes import _mee_overhead_memo, make_platform
from repro.query.trace import subsample_events
from repro.workloads import workload_by_name

SUBSET = ("filter", "tpch-q1", "tpcc")


@pytest.fixture(scope="module")
def profiles():
    return {n: workload_by_name(n).run() for n in SUBSET}


@pytest.fixture(scope="module")
def config():
    return PlatformConfig()


class TestSeriesBuilders:
    def test_table1(self, profiles):
        ratios = table1_write_ratios(profiles)
        assert set(ratios) == set(SUBSET)
        assert ratios["tpcc"] > ratios["tpch-q1"]

    def test_fig5(self, profiles, config):
        series = fig5_mapping_location(profiles, config)
        for protected, secure in series.values():
            assert secure > protected

    def test_fig8(self, profiles, config):
        series = fig8_mee_schemes(profiles, config)
        for times in series.values():
            assert times["none"] <= times["hybrid"] <= times["sc64"]

    def test_fig11_and_summary(self, profiles, config):
        results = fig11_schemes(profiles, config)
        for per_scheme in results.values():
            assert set(per_scheme) == set(SCHEMES)
        summary = fig11_summary(results)
        assert summary["speedup_vs_host"] > 1.0
        assert summary["overhead_vs_isc"] >= 0.0

    def test_fig12_13(self, profiles, config):
        sweep = fig12_13_channel_sweep(profiles, config, channels=(4, 16))
        for name in SUBSET:
            assert sweep[16][name][0] > sweep[4][name][0]  # speedup grows

    def test_fig14(self, profiles, config):
        sweep = fig14_latency_sweep(profiles, config, latencies_us=(10, 110))
        for name in SUBSET:
            assert sweep[110][name] <= sweep[10][name] * 1.05

    def test_fig16(self, profiles, config):
        sweep = fig16_dram_sweep(profiles, config)
        for name in SUBSET:
            assert sweep[2][name][0] >= sweep[4][name][0]  # ISC slower at 2GB

    def test_fig17(self, profiles, config):
        pairs = fig17_pairs(profiles, config, anchor="tpcc",
                            partners=["filter"])
        results = pairs["filter"]
        assert len(results) == 2
        assert all(r.stats["slowdown"] >= 1.0 for r in results)

    def test_fig18(self, profiles, config):
        results = fig18_quad(profiles, config,
                             quad=("tpcc", "filter", "tpch-q1", "tpcc"))
        assert len(results) == 4

    def test_table6(self, profiles, config):
        traffic = table6_extra_traffic(
            profiles, dataclasses.replace(config, mee_sample_limit=20_000)
        )
        enc, ver = traffic["tpcc"]
        assert enc > 0 and ver > 0
        assert sum(traffic["tpcc"]) > sum(traffic["tpch-q1"])

    def test_unknown_workloads_appended(self, config):
        extra = {"filter": workload_by_name("filter").run()}
        ratios = table1_write_ratios(extra)
        assert list(ratios) == ["filter"]


class TestReplayReuse:
    def test_each_trace_replays_once_per_mee_config(self, config, monkeypatch):
        """Figs. 5/8/11/16 and Table 6 replay a trace once per MEE config."""
        # freshly synthesized traces, so the memo holds no entry for them
        fresh = {n: workload_by_name(n, seed=3).run() for n in ("filter", "tpcc")}
        replays = Counter()
        replay = MemoryEncryptionEngine.replay

        def counting_replay(mee, events):
            replays[(mee.scheme, mee.config.dram_bytes)] += 1
            return replay(mee, events)

        monkeypatch.setattr(MemoryEncryptionEngine, "replay", counting_replay)
        fig5_mapping_location(fresh, config)
        fig8_mee_schemes(fresh, config)
        fig11_schemes(fresh, config)
        fig16_dram_sweep(fresh, config)
        table6_extra_traffic(fresh, config)
        dram = config.iceclave.dram_bytes
        assert replays == {
            (EncryptionScheme.HYBRID, dram): 2,
            (EncryptionScheme.NONE, dram): 2,
            (EncryptionScheme.SPLIT_COUNTER, dram): 2,
            (EncryptionScheme.HYBRID, 2 << 30): 2,  # Figure 16's 2 GiB point
        }

    def test_shared_replay_applies_the_callers_exposure(self, config):
        """An enforced run served from a default-exposure replay equals a cold one."""
        warm_profile = workload_by_name("tpcc", seed=5).run()
        cold_profile = workload_by_name("tpcc", seed=5).run()
        assert cold_profile.trace.events == warm_profile.trace.events
        enforced = dataclasses.replace(config, mee_latency_exposure=1.0)
        default = make_platform("iceclave", config).run(warm_profile)
        before = _mee_overhead_memo.cache_info()
        warm = make_platform("iceclave", enforced).run(warm_profile)
        assert _mee_overhead_memo.cache_info().hits == before.hits + 1
        cold = make_platform("iceclave", enforced).run(cold_profile)
        assert _mee_overhead_memo.cache_info().misses == before.misses + 1
        assert repr(warm) == repr(cold)
        assert warm.total_time > default.total_time

    def test_table6_equals_a_direct_replay(self, profiles, config):
        """Table 6 reads the HYBRID replay of ``mee_sample_limit`` events."""
        traffic = table6_extra_traffic(profiles, config)
        for name, profile in profiles.items():
            mee = MemoryEncryptionEngine(config.iceclave, EncryptionScheme.HYBRID)
            mee.replay(subsample_events(profile.trace.events, config.mee_sample_limit))
            expected = (
                mee.stats.encryption_extra_traffic(),
                mee.stats.verification_extra_traffic(),
            )
            assert repr(traffic[name]) == repr(expected)
