"""Tests for the shared figure-series builders."""

import dataclasses
from collections import Counter

import pytest

from repro.core.config import IceClaveConfig
from repro.core.mee import EncryptionScheme, MemoryEncryptionEngine
from repro.platform import PlatformConfig
from repro.platform.figures import (
    SCHEMES,
    TABLE5_PREFIX,
    TABLE5_WORKLOADS,
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
    table5_overhead_sources,
    table6_extra_traffic,
)
from repro.platform.schemes import (
    MEE_REPLAY_FIELDS,
    _mee_overhead_memo,
    _replay_mee,
    make_platform,
)
from repro.query.trace import subsample_events
from repro.workloads import workload_by_name

SUBSET = ("filter", "tpch-q1", "tpcc")


@pytest.fixture(scope="module")
def profiles():
    return {n: workload_by_name(n).run() for n in SUBSET}


@pytest.fixture(scope="module")
def config():
    return PlatformConfig()


@pytest.fixture(scope="module")
def replay_events():
    """A short TPC-C trace: reads and writes, read-only and writable pages."""
    return workload_by_name("tpcc", seed=11).run().trace.events[:8000]


def per_access(mee, events):
    """Drive ``mee`` one event at a time through ``read()``/``write()``: the
    per-access path ``replay`` is checked against."""
    for page, line, is_write, readonly in events:
        (mee.write if is_write else mee.read)(page, line, readonly=readonly)
    return mee.stats


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
        # Figure 16's 2 GiB point has the 4 GiB tree depths, so it reuses
        # the 4 GiB HYBRID replay
        assert replays == {
            (EncryptionScheme.HYBRID, dram): 2,
            (EncryptionScheme.NONE, dram): 2,
            (EncryptionScheme.SPLIT_COUNTER, dram): 2,
        }

    def test_other_tree_depths_get_their_own_replay(self, config):
        """A DRAM size whose Merkle trees are deeper misses the memo."""
        profile = workload_by_name("filter", seed=3).run()
        big = dataclasses.replace(config, iceclave=config.iceclave.with_dram(64 << 30))
        assert MemoryEncryptionEngine.tree_depths(config.iceclave) == (7, 6)
        assert MemoryEncryptionEngine.tree_depths(big.iceclave) == (8, 7)
        make_platform("iceclave", config).run(profile)
        before = _mee_overhead_memo.cache_info()
        make_platform("iceclave", big).run(profile)
        assert _mee_overhead_memo.cache_info().misses == before.misses + 1

    def test_warm_2gib_run_equals_a_cold_one(self, config):
        """A 2 GiB run served from the 4 GiB replay equals a cold 2 GiB run."""
        warm_profile = workload_by_name("tpcc", seed=5).run()
        cold_profile = workload_by_name("tpcc", seed=5).run()
        small = dataclasses.replace(config, iceclave=config.iceclave.with_dram(2 << 30))
        make_platform("iceclave", config).run(warm_profile)
        before = _mee_overhead_memo.cache_info()
        warm = make_platform("iceclave", small).run(warm_profile)
        assert _mee_overhead_memo.cache_info().hits == before.hits + 1
        cold = make_platform("iceclave", small).run(cold_profile)
        assert _mee_overhead_memo.cache_info().misses == before.misses + 1
        assert repr(warm) == repr(cold)

    @pytest.mark.parametrize(
        "name",
        [f.name for f in dataclasses.fields(IceClaveConfig) if f.name not in MEE_REPLAY_FIELDS],
    )
    def test_a_field_outside_the_memo_key_does_not_move_the_replay(
        self, name, config, replay_events
    ):
        """Every ``IceClaveConfig`` field the key leaves out leaves a cold
        replay's measured tuple byte-identical. ``dram_bytes`` and
        ``page_bytes`` enter the key only through the tree depths, so they
        change here to values with the same depths (Figure 16's 2 GiB, and
        8 KiB pages). A field the replay starts reading fails this test
        until it joins ``MEE_REPLAY_FIELDS``."""
        base = config.iceclave
        value = getattr(base, name)
        if name == "dram_bytes":
            value = 2 << 30
        else:
            value = value * 2
        changed = dataclasses.replace(base, **{name: value})
        depths = MemoryEncryptionEngine.tree_depths
        assert depths(changed) == depths(base)
        dram_latency = config.isc_core.dram_latency_s
        for scheme in (EncryptionScheme.HYBRID, EncryptionScheme.SPLIT_COUNTER):
            expected = _replay_mee(replay_events, base, scheme, dram_latency)
            measured = _replay_mee(replay_events, changed, scheme, dram_latency)
            assert repr(measured) == repr(expected)

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
            # every default trace fits the sample limit, so the per-access
            # path over its first ``mee_sample_limit`` events agrees too
            stats = per_access(
                MemoryEncryptionEngine(config.iceclave, EncryptionScheme.HYBRID),
                profile.trace.events[:config.mee_sample_limit],
            )
            per_event = (stats.encryption_extra_traffic(), stats.verification_extra_traffic())
            assert repr(traffic[name]) == repr(per_event)

    def test_table5_equals_the_per_access_path(self, config):
        """Table 5's replayed latencies equal a HYBRID engine driven per access."""
        table5_profiles = {n: workload_by_name(n).run() for n in TABLE5_WORKLOADS}
        measured = table5_overhead_sources(table5_profiles, config)
        mee = MemoryEncryptionEngine(config=config.iceclave, scheme=EncryptionScheme.HYBRID)
        for name in TABLE5_WORKLOADS:
            per_access(mee, table5_profiles[name].trace.events[:TABLE5_PREFIX])
        assert repr(measured["memory_encryption"]) == repr(mee.stats.mean_encryption_latency())
        assert repr(measured["memory_verification"]) == repr(mee.stats.mean_verification_latency())
        assert measured["tee_create"] == config.iceclave.tee_create_time
        assert measured["tee_delete"] == config.iceclave.tee_delete_time
        assert measured["context_switch"] == config.iceclave.context_switch_time
