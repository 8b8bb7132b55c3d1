"""Tests for repro.perf: parallel determinism, profiling, the engine's
cancel-compaction bound, and the memo registry.

The load-bearing property is *byte-identity*: the parallel runner must
produce exactly the same results as the serial path (same fingerprints,
same CSV bytes), and the MEE replay must be bit-identical to the per-access
reference engine in ``tests/mee_reference.py``. Everything else — speed — is perfbench's job,
not the test suite's.
"""

import struct

import pytest

from repro.cli import main as repro_main
from repro.core.mee import EncryptionScheme, MemoryEncryptionEngine
from repro.perf.parallel import (
    chaos_point,
    execute_point,
    map_points,
    platform_point,
)
from repro.perf.profiler import profile_run
from repro.platform.config import PlatformConfig
from repro.platform.figures import WORKLOAD_ORDER
from repro.platform.schemes import SCHEMES
from repro.query.trace import subsample_events
from repro.sim.engine import _COMPACT_MIN_QUEUE, Engine
from repro.sim.stats import memo_cache_stats
from repro.workloads import workload_by_name
from tests.mee_reference import ReferenceMee, per_access


# -- parallel runner: bit-determinism -----------------------------------------


class TestParallelDeterminism:
    def test_results_return_in_input_order(self):
        config = PlatformConfig()
        specs = [platform_point("tpch-q1", s, config) for s in sorted(SCHEMES)]
        results = map_points(specs, jobs=2)
        assert [r.scheme for r in results] == sorted(SCHEMES)

    def test_platform_fingerprints_identical_across_jobs(self):
        config = PlatformConfig()
        specs = [
            platform_point(w, s, config)
            for w in ("tpch-q1", "tpcc")
            for s in sorted(SCHEMES)
        ]
        serial = [r.fingerprint() for r in map_points(specs, jobs=1)]
        parallel = [r.fingerprint() for r in map_points(specs, jobs=4)]
        assert serial == parallel

    def test_chaos_identical_across_jobs(self):
        profile = workload_by_name("tpcc").run()
        specs = [
            chaos_point("tpcc", profile.write_ratio, seed=42, ops=200),
            chaos_point("filter", 0.0, seed=7, ops=200),
        ]
        serial = [r.fingerprint() for r in map_points(specs, jobs=1)]
        parallel = [r.fingerprint() for r in map_points(specs, jobs=4)]
        assert serial == parallel

    def test_same_spec_same_result(self):
        spec = platform_point("tpch-q1", "iceclave", PlatformConfig())
        assert execute_point(spec).fingerprint() == execute_point(spec).fingerprint()

    def test_different_seed_different_chaos_fingerprint(self):
        a = execute_point(chaos_point("tpcc", 0.4, seed=1, ops=200))
        b = execute_point(chaos_point("tpcc", 0.4, seed=2, ops=200))
        assert a.fingerprint() != b.fingerprint()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            execute_point(("no-such-kind", ()))


class TestRunResultFingerprint:
    def test_same_run_same_fingerprint(self):
        config = PlatformConfig()
        profile = workload_by_name("tpch-q1").run()
        from repro.platform.schemes import make_platform

        a = make_platform("iceclave", config).run(profile)
        b = make_platform("iceclave", config).run(profile)
        assert a.fingerprint() == b.fingerprint()

    def test_scheme_changes_fingerprint(self):
        config = PlatformConfig()
        profile = workload_by_name("tpch-q1").run()
        from repro.platform.schemes import make_platform

        a = make_platform("iceclave", config).run(profile)
        b = make_platform("host", config).run(profile)
        assert a.fingerprint() != b.fingerprint()


# -- MEE bulk replay ----------------------------------------------------------


@pytest.fixture(scope="module")
def table4_events():
    """Each Table-4 workload's MEE sample, as the platform replays it."""
    limit = PlatformConfig().mee_sample_limit
    return {
        name: subsample_events(workload_by_name(name).run().trace.events, limit)
        for name in WORKLOAD_ORDER
    }


class TestMeeReplay:
    @pytest.mark.parametrize(
        "scheme",
        [EncryptionScheme.NONE, EncryptionScheme.SPLIT_COUNTER, EncryptionScheme.HYBRID],
    )
    def test_replay_bit_identical_to_per_call_loop(self, scheme, table4_events):
        config = PlatformConfig()
        for workload in WORKLOAD_ORDER:
            events = table4_events[workload]
            assert events, f"{workload}: trace must not be empty"
            loop = ReferenceMee(
                config=config.iceclave, scheme=scheme,
                dram_latency=config.isc_core.dram_latency_s,
            )
            per_access(loop, events)
            bulk = MemoryEncryptionEngine(
                config=config.iceclave, scheme=scheme,
                dram_latency=config.isc_core.dram_latency_s,
            )
            bulk.replay(events)
            for key, value in vars(loop.stats).items():
                other = vars(bulk.stats)[key]
                if isinstance(value, float):
                    # bitwise, not approx: replay must not reorder float adds
                    assert struct.pack("d", value) == struct.pack("d", other), (workload, key)
                else:
                    assert value == other, (workload, key)
            cache, bulk_cache = loop.cache, bulk.cache
            assert (cache.hits, cache.misses) == (bulk_cache.hits, bulk_cache.misses), workload
            assert cache.dirty_evictions == bulk_cache.dirty_evictions, workload
            assert cache.clean_evictions == bulk_cache.clean_evictions, workload

    def test_replay_rejects_bad_line(self):
        config = PlatformConfig()
        for scheme in EncryptionScheme:
            mee = MemoryEncryptionEngine(config=config.iceclave, scheme=scheme)
            with pytest.raises(ValueError):
                mee.replay([(0, 0, False, True), (0, 10_000, True, False)])
            assert mee.stats.data_reads == 1, scheme  # the events before it stay counted
            assert mee.stats.data_writes == 0, scheme


# -- engine: cancel compaction ------------------------------------------------


class TestCancelCompaction:
    def test_heavy_cancellation_bounds_heap(self):
        engine = Engine()
        handles = [engine.schedule(1.0 + i * 1e-6, lambda: None) for i in range(5000)]
        for handle in handles:
            assert engine.cancel(handle)
        # compaction reclaims cancelled entries as they accumulate; without
        # it all 5000 would still sit in the heap until their time came up
        assert engine.queued_entries < _COMPACT_MIN_QUEUE
        assert engine.pending == 0
        engine.run()
        assert engine.events_fired == 0

    def test_interleaved_live_events_survive_compaction(self):
        engine = Engine()
        fired = []
        live = []
        doomed = []
        for i in range(1000):
            live.append(engine.schedule(1.0 + i * 1e-3, lambda i=i: fired.append(i)))
            doomed.append(engine.schedule(2.0 + i * 1e-3, lambda: fired.append(-1)))
        for handle in doomed:
            engine.cancel(handle)
        engine.run()
        assert fired == list(range(1000))
        assert engine.queued_entries == 0

    def test_cancel_from_inside_callback_keeps_run_loop_valid(self):
        # compaction rebuilds the heap *in place*; a rebuild that rebound the
        # list would desynchronize the alias the running loop holds
        engine = Engine()
        fired = []
        doomed = [
            engine.schedule(5.0 + i * 1e-6, lambda: fired.append(-1))
            for i in range(500)
        ]

        def cancel_all() -> None:
            for handle in doomed:
                engine.cancel(handle)

        engine.schedule(1.0, cancel_all)
        engine.schedule(2.0, lambda: fired.append(1))
        engine.run()
        assert fired == [1]
        assert engine.now == pytest.approx(2.0)

    def test_cancel_returns_false_after_fire(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.cancel(handle) is False


# -- memo registry ------------------------------------------------------------


class TestMemoRegistry:
    def test_registered_memos_present(self):
        # importing the modules registers their caches
        import repro.area.cacti  # noqa: F401
        import repro.platform.schemes  # noqa: F401

        stats = memo_cache_stats()
        for name in (
            "area.cacti.engine_mm2",
            "area.cacti.page_energy",
            "platform.mee_overhead",
        ):
            assert name in stats, name
            assert set(stats[name]) == {"hits", "misses", "size"}

    def test_mee_overhead_memo_hits_on_repeat_run(self):
        from repro.platform.schemes import _mee_overhead_memo, make_platform

        config = PlatformConfig()
        profile = workload_by_name("filter").run()
        make_platform("iceclave", config).run(profile)
        before = _mee_overhead_memo.cache_info()
        make_platform("iceclave", config).run(profile)
        after = _mee_overhead_memo.cache_info()
        assert after.hits > before.hits


# -- profiler -----------------------------------------------------------------


class TestProfiler:
    def test_profile_run_produces_table_and_counters(self):
        report = profile_run("filter", top=5)
        assert report.workload == "filter"
        assert report.scheme == "iceclave"
        assert report.result.total_time > 0
        assert "cumulative" in report.profile_table or "ncalls" in report.profile_table
        text = report.format()
        assert "simulator counters:" in text
        assert "memoized helpers" in text

    def test_profile_run_validates_arguments(self):
        with pytest.raises(ValueError):
            profile_run("filter", sort="nonsense")
        with pytest.raises(ValueError):
            profile_run("filter", top=0)


class TestProfilerAllocs:
    def test_top_allocs_table_in_report(self):
        report = profile_run("filter", scheme="host", top=5, top_allocs=5)
        assert "allocation sites" in report.alloc_table
        assert "allocation sites" in report.format()

    def test_cli_flag(self, capsys):
        rc = repro_main(["profile", "filter", "--scheme", "host", "--top-allocs", "3"])
        assert rc == 0
        assert "allocation sites" in capsys.readouterr().out


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_jobs_must_be_positive(self, capsys):
        assert repro_main(["compare", "tpch-q1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["compare", "tpch-q1"], ["sweep", "channels", "tpch-q3"]],
        ids=["compare", "sweep-channels"],
    )
    def test_output_identical_serial_vs_parallel(self, capsys, argv):
        assert repro_main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert repro_main(argv + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_profile_command_smoke(self, capsys):
        assert repro_main(["profile", "filter", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "profiled filter on iceclave" in out
