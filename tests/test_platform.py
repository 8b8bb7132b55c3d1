"""Tests for the execution schemes and their paper-shape properties."""

import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mee import EncryptionScheme
from repro.cpu.models import CORTEX_A53, CORTEX_A72
from repro.platform import (
    MultiTenantIceClave,
    PlatformConfig,
    make_platform,
)
from repro.ftl.mapping_cache import MappingCache
from repro.platform.config import MAPPING_IN_SECURE
from repro.platform.figures import WORKLOAD_ORDER
from repro.platform.schemes import flash_read_throughput
from repro.workloads import ALL_WORKLOADS, workload_by_name


@pytest.fixture(scope="module")
def profiles():
    return {name: workload_by_name(name).run() for name in ALL_WORKLOADS}


@pytest.fixture(scope="module")
def base_config():
    return PlatformConfig()


class TestThroughputMeasurement:
    def test_scales_with_channels(self, base_config):
        t8 = flash_read_throughput(base_config.with_channels(8))
        t16 = flash_read_throughput(base_config.with_channels(16))
        assert 1.5 <= t16 / t8 <= 2.1

    def test_bounded_by_channel_bandwidth(self, base_config):
        t = flash_read_throughput(base_config)
        assert t <= base_config.channels * base_config.flash_timing.channel_bandwidth

    def test_high_latency_hits_queue_bound(self, base_config):
        fast = flash_read_throughput(base_config.with_flash_read_latency(10e-6))
        slow = flash_read_throughput(base_config.with_flash_read_latency(110e-6))
        assert slow < fast

    def test_internal_exceeds_pcie(self, base_config):
        """The premise of in-storage computing (§2.2)."""
        assert flash_read_throughput(base_config) > base_config.pcie.effective_bandwidth


class TestSchemeFactory:
    def test_all_four_schemes(self, base_config):
        for name in ("host", "host+sgx", "isc", "iceclave"):
            assert make_platform(name, base_config).name == name

    def test_unknown_scheme(self):
        with pytest.raises(KeyError, match="known:"):
            make_platform("tpu")


class TestFigure11Shapes:
    """The headline results of §6.2."""

    def test_iceclave_beats_host_on_average(self, profiles, base_config):
        ice = make_platform("iceclave", base_config)
        host = make_platform("host", base_config)
        speedups = [ice.run(p).speedup_over(host.run(p)) for p in profiles.values()]
        assert 1.9 <= statistics.mean(speedups) <= 2.8  # paper: 2.31x

    def test_iceclave_beats_host_sgx_more(self, profiles, base_config):
        ice = make_platform("iceclave", base_config)
        host = make_platform("host", base_config)
        sgx = make_platform("host+sgx", base_config)
        for p in profiles.values():
            assert sgx.run(p).total_time >= host.run(p).total_time

    def test_iceclave_overhead_over_isc_small(self, profiles, base_config):
        ice = make_platform("iceclave", base_config)
        isc = make_platform("isc", base_config)
        overheads = [ice.run(p).overhead_over(isc.run(p)) for p in profiles.values()]
        assert 0.03 <= statistics.mean(overheads) <= 0.12  # paper: 7.6%
        assert all(o >= 0 for o in overheads)

    def test_breakdown_components_present(self, profiles, base_config):
        result = make_platform("iceclave", base_config).run(profiles["tpch-q1"])
        assert set(result.components) == {"load", "compute", "security"}
        assert all(v >= 0 for v in result.components.values())

    def test_host_breakdown_stacks_to_total(self, profiles, base_config):
        result = make_platform("host", base_config).run(profiles["filter"])
        assert sum(result.components.values()) == pytest.approx(result.total_time)

    def test_isc_loads_faster_than_host(self, profiles, base_config):
        """Internal bandwidth beats PCIe: the Fig. 11 load-segment gap."""
        isc = make_platform("isc", base_config).run(profiles["tpch-q1"])
        host = make_platform("host", base_config).run(profiles["tpch-q1"])
        assert isc.components["load"] < host.components["load"]

    def test_write_heavy_overhead_exceeds_read_heavy(self, profiles, base_config):
        ice = make_platform("iceclave", base_config)
        isc = make_platform("isc", base_config)
        wc = ice.run(profiles["wordcount"]).overhead_over(isc.run(profiles["wordcount"]))
        q1 = ice.run(profiles["tpch-q1"]).overhead_over(isc.run(profiles["tpch-q1"]))
        assert wc > q1


class TestFigure5MappingLocation:
    def test_protected_region_beats_secure_world(self, profiles, base_config):
        """§4.2 / Figure 5: ~21.6% faster with the protected-region table."""
        ice = make_platform("iceclave", base_config)
        sec = make_platform("iceclave", base_config.with_mapping_location(MAPPING_IN_SECURE))
        slowdowns = [
            sec.run(p).total_time / ice.run(p).total_time for p in profiles.values()
        ]
        assert 1.1 <= statistics.mean(slowdowns) <= 1.5

    def test_miss_rate_matches_paper_figure(self, profiles, base_config):
        """§6.3: ~0.17% of translations miss the cached mapping table."""
        result = make_platform("iceclave", base_config).run(profiles["tpch-q1"])
        assert result.stats["translation_miss_rate"] == pytest.approx(1 / 512, rel=0.05)


class TestFigure8MeeSchemes:
    def test_hybrid_beats_split_counter(self, profiles, base_config):
        sc = make_platform("iceclave", base_config.with_mee_scheme(EncryptionScheme.SPLIT_COUNTER))
        hy = make_platform("iceclave", base_config.with_mee_scheme(EncryptionScheme.HYBRID))
        for name in ("tpch-q1", "filter", "arithmetic"):
            assert hy.run(profiles[name]).total_time < sc.run(profiles[name]).total_time

    def test_none_is_fastest(self, profiles, base_config):
        none = make_platform("iceclave", base_config.with_mee_scheme(EncryptionScheme.NONE))
        hy = make_platform("iceclave", base_config)
        assert none.run(profiles["wordcount"]).total_time <= hy.run(profiles["wordcount"]).total_time


class TestFigure12to16Sweeps:
    def test_channel_scaling_monotone(self, profiles, base_config):
        """Figure 12: more channels, more speedup over Host."""
        p = profiles["tpch-q12"]
        speedups = []
        for ch in (4, 8, 16, 32):
            cfg = base_config.with_channels(ch)
            ice, host = make_platform("iceclave", cfg), make_platform("host", cfg)
            speedups.append(ice.run(p).speedup_over(host.run(p)))
        assert speedups == sorted(speedups)
        assert speedups[-1] / speedups[0] > 1.5

    def test_overhead_grows_with_channels(self, profiles, base_config):
        """Figure 13: relative overhead increases with internal bandwidth."""
        p = profiles["tpcc"]
        overheads = []
        for ch in (8, 32):
            cfg = base_config.with_channels(ch)
            overheads.append(
                make_platform("iceclave", cfg).run(p).overhead_over(make_platform("isc", cfg).run(p))
            )
        assert overheads[1] > overheads[0]

    def test_flash_latency_sweep(self, profiles, base_config):
        """Figure 14: slower flash narrows the ISC advantage."""
        p = profiles["aggregate"]
        fast_cfg = base_config.with_flash_read_latency(10e-6)
        slow_cfg = base_config.with_flash_read_latency(110e-6)
        su_fast = make_platform("iceclave", fast_cfg).run(p).speedup_over(
            make_platform("host", fast_cfg).run(p))
        su_slow = make_platform("iceclave", slow_cfg).run(p).speedup_over(
            make_platform("host", slow_cfg).run(p))
        assert su_slow < su_fast
        assert su_slow > 1.0  # still beats host (paper: 1.8-3.2x band)

    def test_cpu_capability_sweep(self, profiles, base_config):
        """Figure 15: A72 > A53; higher frequency > lower."""
        p = profiles["tpcb"]
        t = {}
        for core, f in ((CORTEX_A72, 1.6e9), (CORTEX_A72, 0.8e9), (CORTEX_A53, 1.6e9)):
            cfg = base_config.with_isc_core(core.with_frequency(f))
            t[(core.name, f)] = make_platform("iceclave", cfg).run(p).total_time
        assert t[("cortex-a72", 1.6e9)] < t[("cortex-a72", 0.8e9)]
        assert t[("cortex-a72", 1.6e9)] < t[("cortex-a53", 1.6e9)]

    def test_dram_capacity_sweep(self, profiles, base_config):
        """Figure 16: 2 GB DRAM hurts ISC; IceClave tracks the trend."""
        p = profiles["tpcc"]
        isc4 = make_platform("isc", base_config.with_dram(4 << 30)).run(p).total_time
        isc2 = make_platform("isc", base_config.with_dram(2 << 30)).run(p).total_time
        drop = isc2 / isc4 - 1
        assert 0.10 <= drop <= 0.60  # paper: 12-44% band
        ice4 = make_platform("iceclave", base_config.with_dram(4 << 30)).run(p).total_time
        ice2 = make_platform("iceclave", base_config.with_dram(2 << 30)).run(p).total_time
        assert ice2 > ice4


class TestMultiTenant:
    def test_two_tenants_mild_slowdown(self, profiles, base_config):
        """Figure 17: collocating two instances costs single-digit percents."""
        mt = MultiTenantIceClave(base_config)
        results = mt.run([profiles["tpcc"], profiles["tpch-q1"]])
        for r in results:
            assert 1.0 <= r.stats["slowdown"] <= 1.25

    def test_four_tenants_larger_slowdown(self, profiles, base_config):
        """Figure 18: four instances average ~21% slowdown."""
        mt = MultiTenantIceClave(base_config)
        quad = [profiles[n] for n in ("tpcc", "tpch-q1", "filter", "wordcount")]
        results = mt.run(quad)
        slowdowns = [r.stats["slowdown"] for r in results]
        assert 1.08 <= statistics.mean(slowdowns) <= 1.45

    def test_four_worse_than_two(self, profiles, base_config):
        mt = MultiTenantIceClave(base_config)
        two = mt.run([profiles["tpcc"], profiles["filter"]])
        four = mt.run([profiles[n] for n in ("tpcc", "filter", "tpch-q1", "tpcb")])
        assert statistics.mean(r.stats["slowdown"] for r in four) > statistics.mean(
            r.stats["slowdown"] for r in two
        )

    def test_single_instance_unchanged(self, profiles, base_config):
        mt = MultiTenantIceClave(base_config)
        solo = mt.run([profiles["filter"]])[0]
        assert solo.total_time == pytest.approx(mt.run_solo(profiles["filter"]).total_time)

    def test_empty_rejected(self, base_config):
        with pytest.raises(ValueError):
            MultiTenantIceClave(base_config).run([])

    @pytest.mark.parametrize(
        "names",
        [("tpcc", partner) for partner in WORKLOAD_ORDER if partner != "tpcc"]
        + [
            ("tpcc", "tpch-q1", "filter", "wordcount"),  # the Figure 18 quad
            ("tpcc", "filter", "tpch-q1", "tpcc"),
        ],
        ids="+".join,
    )
    def test_closed_form_matches_interleaved_cache(self, profiles, base_config, names):
        """Figures 17/18: the shared miss rate equals an interleaved simulation."""
        assert_matches_interleaved_cache(base_config, [profiles[n] for n in names])

    @settings(max_examples=25, deadline=None)
    @given(
        names=st.lists(st.sampled_from(sorted(ALL_WORKLOADS)), min_size=2, max_size=4),
        log2_dataset=st.integers(min_value=12, max_value=36),
    )
    def test_closed_form_matches_interleaved_cache_at_any_scale(
        self, profiles, names, log2_dataset
    ):
        config = PlatformConfig().with_dataset(1 << log2_dataset)
        assert_matches_interleaved_cache(config, [profiles[n] for n in names])


def interleaved_shared_miss_rates(config, profiles):
    """Reference: the tenants' translation streams interleaved through one cache.

    Simulated at translation-page granularity (one access per 512 LPAs)
    with disjoint LPA ranges per tenant, mirroring datasets placed side by
    side on the SSD.
    """
    cfg = config.iceclave
    cache = MappingCache(cfg.protected_region_bytes, cfg.page_bytes)
    spacing = cache.entries_per_page
    streams = []
    for idx, profile in enumerate(profiles):
        pages = max(1, profile.scaled(config.dataset_bytes).input_bytes // cfg.page_bytes)
        streams.append((idx * (1 << 34), max(1, pages // spacing)))
    hits = [0] * len(profiles)
    misses = [0] * len(profiles)
    longest = max(tpages for _, tpages in streams)
    stride = max(1, longest // 40_000)  # bounded; the statistics converge fast
    for step in range(0, longest, stride):
        for i, (base, tpages) in enumerate(streams):
            if step >= tpages:
                continue
            if cache.access(base + step * spacing):
                hits[i] += 1
            else:
                misses[i] += 1
    # each simulated access stands for `spacing` real translations, of
    # which only the first can miss
    return [
        (miss / (hit + miss)) / spacing if hit + miss else 0.0
        for hit, miss in zip(hits, misses)
    ]


def assert_matches_interleaved_cache(config, tenants):
    """Shared miss rate and security cost, bit for bit, against the reference."""
    mt = MultiTenantIceClave(config)
    results = mt.run(tenants)
    rates = interleaved_shared_miss_rates(mt.config, tenants)
    for profile, result, rate in zip(tenants, results, rates):
        solo = mt.run_solo(profile)
        solo_rate = max(solo.stats.get("translation_miss_rate", 0.0), 1e-9)
        security = solo.components["security"] * max(1.0, rate / solo_rate)
        assert repr(result.stats["shared_miss_rate"]) == repr(rate)
        assert repr(result.components["security"]) == repr(security)


class TestConfigValidation:
    def test_sweep_helpers_return_new_configs(self, base_config):
        assert base_config.with_channels(16).channels == 16
        assert base_config.channels == 8  # original untouched

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            PlatformConfig(channels=0)
        with pytest.raises(ValueError):
            PlatformConfig(mapping_table_location="enclave")
