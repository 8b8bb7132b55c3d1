"""Tests for repro.perf: parallel determinism, profiling, the benchmark
trajectory, the engine's cancel-compaction bound, and the memo registry.

The load-bearing property is *byte-identity*: the parallel runner must
produce exactly the same results as the serial path (same fingerprints,
same CSV bytes), and the MEE bulk replay must be bit-identical to calling
read()/write() per event. Everything else — speed — is the benchmark
trajectory's job, not the test suite's.
"""

import json
import struct

import pytest

from repro.cli import main as repro_main
from repro.core.mee import EncryptionScheme, MemoryEncryptionEngine
from repro.perf.bench import (
    SCHEMA_VERSION,
    check_regression,
    compare_benches,
    format_compare,
    load_bench,
    next_bench_path,
    write_bench,
)
from repro.perf.parallel import (
    chaos_point,
    execute_point,
    map_points,
    platform_point,
    resilience_point,
)
from repro.perf.profiler import profile_run
from repro.platform.config import PlatformConfig
from repro.platform.schemes import SCHEMES
from repro.query.trace import subsample_events
from repro.sim.engine import _COMPACT_MIN_QUEUE, Engine
from repro.sim.stats import memo_cache_stats
from repro.workloads import workload_by_name


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

    def test_chaos_and_resilience_identical_across_jobs(self):
        profile = workload_by_name("tpcc").run()
        specs = [
            chaos_point("tpcc", profile.write_ratio, seed=42, ops=200),
            chaos_point("filter", 0.0, seed=7, ops=200),
            resilience_point(seed=7, ops=200),
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


class TestMeeReplay:
    @pytest.mark.parametrize(
        "scheme",
        [EncryptionScheme.NONE, EncryptionScheme.SPLIT_COUNTER, EncryptionScheme.HYBRID],
    )
    def test_replay_bit_identical_to_per_call_loop(self, scheme):
        config = PlatformConfig()
        events = subsample_events(
            workload_by_name("tpcc").run().trace.events, config.mee_sample_limit
        )
        assert events, "trace must not be empty"
        loop = MemoryEncryptionEngine(
            config=config.iceclave, scheme=scheme,
            dram_latency=config.isc_core.dram_latency_s,
        )
        for page, line, is_write, readonly in events:
            if is_write:
                loop.write(page, line, readonly=readonly)
            else:
                loop.read(page, line, readonly=readonly)
        bulk = MemoryEncryptionEngine(
            config=config.iceclave, scheme=scheme,
            dram_latency=config.isc_core.dram_latency_s,
        )
        bulk.replay(events)
        for key, value in vars(loop.stats).items():
            other = vars(bulk.stats)[key]
            if isinstance(value, float):
                # bitwise, not approx: replay must not reorder float adds
                assert struct.pack("d", value) == struct.pack("d", other), key
            else:
                assert value == other, key
        assert (loop.cache.hits, loop.cache.misses) == (bulk.cache.hits, bulk.cache.misses)
        assert loop.cache.dirty_evictions == bulk.cache.dirty_evictions

    def test_replay_rejects_bad_line(self):
        config = PlatformConfig()
        mee = MemoryEncryptionEngine(config=config.iceclave)
        with pytest.raises(ValueError):
            mee.replay([(0, 10_000, False, True)])


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
        import repro.dram.timing  # noqa: F401
        import repro.platform.schemes  # noqa: F401

        stats = memo_cache_stats()
        for name in (
            "area.cacti.engine_mm2",
            "area.cacti.page_energy",
            "dram.timing.bank_cycles",
            "platform.mee_overhead",
        ):
            assert name in stats, name
            assert set(stats[name]) == {"hits", "misses", "size"}

    def test_bank_cycles_cache_hits(self):
        from repro.dram.timing import DramTiming, bank_cycles

        timing = DramTiming()
        before = bank_cycles.cache_info()
        first = bank_cycles(timing)
        second = bank_cycles(timing)
        after = bank_cycles.cache_info()
        assert first == second
        assert after.hits >= before.hits + 1

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


# -- bench trajectory ---------------------------------------------------------


def _payload(mode="quick", calibration=0.1, **walls):
    return {
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "jobs": 1,
        "python": "3.11.7",
        "calibration_s": calibration,
        "peak_rss_kb": 1000,
        "benchmarks": [
            {"name": name, "description": name, "wall_s": wall,
             "events": 100, "events_per_s": 100 / wall}
            for name, wall in walls.items()
        ],
    }


class TestBenchPersistence:
    def test_next_bench_path_numbering(self, tmp_path):
        assert next_bench_path(tmp_path).name == "BENCH_0.json"
        (tmp_path / "BENCH_0.json").write_text("{}")
        (tmp_path / "BENCH_3.json").write_text("{}")
        assert next_bench_path(tmp_path).name == "BENCH_4.json"

    def test_write_then_load_roundtrip(self, tmp_path):
        payload = _payload(case_a=1.0)
        path = write_bench(payload, tmp_path)
        assert path.name == "BENCH_0.json"
        assert load_bench(path) == payload
        # deterministic serialization: sorted keys, trailing newline
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == payload

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "BENCH_0.json"
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError):
            load_bench(path)


class TestCheckRegression:
    def test_identical_payloads_pass(self):
        payload = _payload(case_a=1.0, case_b=2.0)
        assert check_regression(payload, payload) == []

    def test_regression_beyond_threshold_fails(self):
        baseline = _payload(case_a=1.0)
        current = _payload(case_a=1.5)
        problems = check_regression(current, baseline)
        assert len(problems) == 1
        assert "case_a" in problems[0]

    def test_within_threshold_passes(self):
        baseline = _payload(case_a=1.0)
        current = _payload(case_a=1.2)
        assert check_regression(current, baseline) == []

    def test_calibration_normalizes_machine_speed(self):
        # same repo efficiency on a 2x slower machine: both wall and
        # calibration double, so the normalized ratio is exactly 1.0
        baseline = _payload(calibration=0.1, case_a=1.0)
        current = _payload(calibration=0.2, case_a=2.0)
        assert check_regression(current, baseline) == []

    def test_mode_mismatch_fails(self):
        problems = check_regression(_payload(mode="full", case_a=1.0),
                                    _payload(mode="quick", case_a=1.0))
        assert problems and "mode mismatch" in problems[0]

    def test_zero_comparable_cases_fails(self):
        problems = check_regression(_payload(case_a=1.0), _payload(case_b=1.0))
        assert problems and "no comparable benchmarks" in problems[0]

    def test_tiny_cases_are_below_the_noise_floor(self):
        # a 10ms case regressing 3x is scheduler jitter, not a regression —
        # as long as a real case is still being compared
        baseline = _payload(tiny=0.01, big=1.0)
        current = _payload(tiny=0.03, big=1.0)
        assert check_regression(current, baseline) == []

    def test_all_tiny_cases_is_zero_comparable(self):
        problems = check_regression(_payload(tiny=0.01), _payload(tiny=0.01))
        assert problems and "no comparable benchmarks" in problems[0]

    def test_missing_calibration_fails(self):
        bad = _payload(case_a=1.0)
        bad["calibration_s"] = 0.0
        assert check_regression(bad, _payload(case_a=1.0))


class TestBenchCompare:
    def _payload(self, wall, cal, mode="quick", rate=None):
        return {
            "schema": 1,
            "mode": mode,
            "calibration_s": cal,
            "benchmarks": [
                {
                    "name": "kernel-flash-read",
                    "wall_s": wall,
                    "events": 4000,
                    "events_per_s": rate,
                }
            ],
        }

    def test_speedup_is_calibration_normalized(self):
        baseline = self._payload(2.0, 0.1, rate=1000.0)
        current = self._payload(1.0, 0.2, rate=5000.0)  # machine is 2x slower
        comparison = compare_benches(baseline, current)
        case = comparison["cases"][0]
        assert case["speedup"] == pytest.approx(4.0)
        assert case["event_rate_ratio"] == pytest.approx(5.0)
        assert "kernel-flash-read" in format_compare(comparison)

    def test_mode_mismatch_suppresses_wall_speedups(self):
        comparison = compare_benches(
            self._payload(2.0, 0.1, mode="quick"), self._payload(1.0, 0.1, mode="full")
        )
        assert not comparison["comparable_modes"]
        assert comparison["cases"][0]["speedup"] is None
        assert "WARNING" in format_compare(comparison)

    def test_cli_compare_runs_without_measuring(self, tmp_path, capsys):
        a = tmp_path / "BENCH_0.json"
        b = tmp_path / "BENCH_1.json"
        a.write_text(json.dumps(self._payload(2.0, 0.1)))
        b.write_text(json.dumps(self._payload(1.0, 0.1)))
        out = tmp_path / "cmp.json"
        rc = repro_main(
            ["bench", "--compare", str(a), str(b), "--compare-json", str(out)]
        )
        assert rc == 0
        assert "kernel-flash-read" in capsys.readouterr().out
        written = json.loads(out.read_text())
        assert written["cases"][0]["speedup"] == pytest.approx(2.0)


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_jobs_must_be_positive(self, capsys):
        assert repro_main(["compare", "tpch-q1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_compare_output_identical_serial_vs_parallel(self, capsys):
        assert repro_main(["compare", "tpch-q1", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert repro_main(["compare", "tpch-q1", "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_profile_command_smoke(self, capsys):
        assert repro_main(["profile", "filter", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "profiled filter on iceclave" in out

    def test_bench_check_against_self_passes(self, tmp_path, capsys):
        from repro.perf import bench as bench_mod

        payload = bench_mod.run_bench(quick=True, jobs=1)
        path = write_bench(payload, tmp_path)
        assert check_regression(load_bench(path), payload) == []
