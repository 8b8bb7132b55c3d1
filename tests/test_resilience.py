"""Tests for repro.resilience: policies, breakers, admission, degradation,
the SLO tracker, and the availability lab.

The two properties the PR stands on:

- every policy is a pure function of (sim clock, explicit seed) — the
  same-seed lab runs must produce byte-identical fingerprints, CSV rows and
  SLO summaries;
- on the seed-7 chaos plan, policies-on must beat policies-off on both
  availability and p99 read latency (the CLI enforces the same gate).
"""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main as repro_main
from repro.host.library import IceClaveLibrary, ServiceDegradedError
from repro.platform.metrics import SloObjectives, SloTracker
from repro.resilience import (
    AdmissionConfig,
    AdmissionController,
    BreakerBoard,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    DegradationLadder,
    DegradeConfig,
    HedgePolicy,
    RetryPolicy,
    ServiceMode,
    TimeoutBudget,
    TokenBucket,
    run_resilience,
)
from repro.sim.stats import Histogram


class TestTimeoutBudget:
    def test_defaults_are_sane(self):
        budget = TimeoutBudget()
        assert 0 < budget.command_timeout_s <= budget.request_deadline_s

    def test_rejects_inverted_budget(self):
        with pytest.raises(ValueError):
            TimeoutBudget(command_timeout_s=2e-3, request_deadline_s=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TimeoutBudget(command_timeout_s=0.0)


class TestRetryPolicy:
    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(0) and policy.allows(2)
        assert not policy.allows(3)

    def test_first_retry_is_immediate(self):
        assert RetryPolicy().delay(0) == 0.0

    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=100e-6, multiplier=2.0,
            cap_s=400e-6, jitter_fraction=0.0, seed=1,
        )
        delays = [policy.delay(k) for k in range(1, 6)]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(100e-6)
        assert max(delays) == pytest.approx(400e-6)  # capped

    def test_jitter_is_seed_deterministic(self):
        a = RetryPolicy(jitter_fraction=0.5, seed=77)
        b = RetryPolicy(jitter_fraction=0.5, seed=77)
        assert [a.delay(k) for k in range(1, 5)] == [b.delay(k) for k in range(1, 5)]

    def test_jitter_bounded_by_fraction(self):
        policy = RetryPolicy(
            base_delay_s=100e-6, multiplier=1.0, cap_s=100e-6,
            jitter_fraction=0.25, seed=5,
        )
        for k in range(1, 20):
            assert 100e-6 <= policy.delay(k) <= 125e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=2e-3, cap_s=1e-3)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.5)


class TestHedgePolicy:
    def test_floor_until_enough_samples(self):
        policy = HedgePolicy(floor_s=400e-6, min_samples=8)
        assert policy.hedge_delay([50e-6] * 7) == 400e-6

    def test_tracks_observed_quantile(self):
        policy = HedgePolicy(quantile=0.9, floor_s=1e-6, min_samples=4)
        observed = sorted(i * 100e-6 for i in range(1, 11))
        assert policy.hedge_delay(observed) == pytest.approx(900e-6)

    def test_never_below_floor(self):
        policy = HedgePolicy(quantile=0.9, floor_s=5e-3, min_samples=2)
        assert policy.hedge_delay([1e-6, 2e-6, 3e-6]) == 5e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(quantile=1.0)
        with pytest.raises(ValueError):
            HedgePolicy(floor_s=0.0)


class TestCircuitBreaker:
    def make(self, **kw):
        defaults = dict(
            failure_threshold=3, reset_timeout_s=1e-3,
            probe_interval_s=0.5e-3, success_threshold=1,
        )
        defaults.update(kw)
        return CircuitBreaker("ch0", BreakerConfig(**defaults))

    def test_full_lifecycle_closed_open_halfopen_closed(self):
        breaker = self.make()
        for t in (1e-6, 2e-6, 3e-6):
            assert breaker.allow(t)
            breaker.record_failure(t)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(0.5e-3)  # still inside reset timeout
        assert breaker.allow(1.2e-3)  # reset elapsed: probe admitted
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(1.25e-3)
        assert breaker.state is BreakerState.CLOSED
        assert [label for _, label in breaker.transitions] == [
            "closed->open", "open->half_open", "half_open->closed",
        ]

    def test_failed_probe_reopens_and_rearms(self):
        breaker = self.make()
        for t in (1e-6, 2e-6, 3e-6):
            breaker.record_failure(t)
        assert breaker.allow(1.2e-3)
        breaker.record_failure(1.3e-3)
        assert breaker.state is BreakerState.OPEN
        # the reset timer restarted at the failed probe
        assert not breaker.allow(1.9e-3)
        assert breaker.allow(2.4e-3)

    def test_half_open_paces_probes(self):
        breaker = self.make()
        for t in (1e-6, 2e-6, 3e-6):
            breaker.record_failure(t)
        assert breaker.allow(1.2e-3)  # first probe
        assert not breaker.allow(1.3e-3)  # too soon for another
        assert breaker.allow(1.8e-3)  # probe_interval elapsed

    def test_success_resets_failure_streak(self):
        breaker = self.make()
        breaker.record_failure(1e-6)
        breaker.record_failure(2e-6)
        breaker.record_success(3e-6)
        breaker.record_failure(4e-6)
        breaker.record_failure(5e-6)
        assert breaker.state is BreakerState.CLOSED  # streak broken at 2

    def test_effectively_open_ages_out(self):
        breaker = self.make()
        for t in (1e-6, 2e-6, 3e-6):
            breaker.record_failure(t)
        assert breaker.effectively_open(0.5e-3)
        assert not breaker.effectively_open(1.5e-3)  # ready to probe

    def test_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(reset_timeout_s=0.0)


class TestBreakerBoard:
    def test_keys_created_on_first_use_and_sorted(self):
        board = BreakerBoard(BreakerConfig(failure_threshold=1))
        for key in ("ch2", "ch0"):
            for _ in range(1):
                board.breaker(key).record_failure(1e-6)
        assert board.open_keys() == ["ch0", "ch2"]
        assert board.open_count() == 2

    def test_time_aware_open_count(self):
        config = BreakerConfig(failure_threshold=1, reset_timeout_s=1e-3)
        board = BreakerBoard(config)
        board.breaker("ch0").record_failure(0.0)
        assert board.open_count(0.5e-3) == 1
        assert board.open_count(2e-3) == 0  # past reset: recovering, not dark
        assert board.open_count() == 1  # state alone is still OPEN


class TestAdmission:
    def test_bucket_refills_with_sim_clock(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=2.0)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # empty
        assert bucket.try_take(1e-3)  # one token refilled after 1 ms

    def test_bucket_caps_at_burst(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=2.0)
        bucket.try_take(0.0)
        assert bucket.tokens == pytest.approx(1.0)
        bucket.try_take(10.0)  # long idle: refill capped at burst
        assert bucket.tokens == pytest.approx(1.0)

    def test_queue_depth_backpressure(self):
        controller = AdmissionController(
            AdmissionConfig(rate_per_s=1e6, burst=100.0, max_queued=4)
        )
        assert controller.admit(0.0, queued=3)
        assert not controller.admit(0.0, queued=4)
        assert controller.shed_queue == 1
        assert controller.shed == 1

    def test_rate_shed_counted_separately(self):
        controller = AdmissionController(
            AdmissionConfig(rate_per_s=1000.0, burst=1.0, max_queued=10)
        )
        assert controller.admit(0.0, queued=0)
        assert not controller.admit(0.0, queued=0)
        assert controller.shed_rate == 1 and controller.shed_queue == 0
        assert controller.admitted == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(rate_per_s=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(max_queued=0)


class TestDegradationLadder:
    def make(self, **kw):
        defaults = dict(
            open_breakers_readonly=2, integrity_violations_readonly=2,
            open_breakers_failsafe=3, integrity_violations_failsafe=4,
            fatal_faults_failsafe=2, recovery_window_s=1e-3,
        )
        defaults.update(kw)
        return DegradationLadder(DegradeConfig(**defaults))

    def test_normal_allows_everything(self):
        ladder = self.make()
        assert ladder.allows_reads() and ladder.allows_writes()
        assert ladder.allows_offload()

    def test_violations_trip_readonly(self):
        ladder = self.make()
        ladder.note_integrity_violation(1e-6)
        assert ladder.mode is ServiceMode.NORMAL
        ladder.note_integrity_violation(2e-6)
        assert ladder.mode is ServiceMode.DEGRADED_READONLY
        assert ladder.allows_reads() and not ladder.allows_writes()
        assert not ladder.allows_offload()

    def test_breakers_trip_failsafe(self):
        ladder = self.make()
        ladder.note_open_breakers(1e-6, 3)
        assert ladder.mode is ServiceMode.FAILSAFE
        assert not ladder.allows_reads() and not ladder.allows_writes()

    def test_fatal_faults_trip_failsafe(self):
        ladder = self.make()
        ladder.note_fatal_fault(1e-6)
        ladder.note_fatal_fault(2e-6)
        assert ladder.mode is ServiceMode.FAILSAFE

    def test_climbs_one_rung_per_clean_window(self):
        ladder = self.make()
        ladder.note_open_breakers(0.0, 3)
        assert ladder.mode is ServiceMode.FAILSAFE
        ladder.note_open_breakers(0.1e-3, 0)  # breakers recovered
        assert ladder.mode is ServiceMode.FAILSAFE  # window not elapsed
        assert ladder.evaluate(1.2e-3) is ServiceMode.DEGRADED_READONLY
        assert ladder.evaluate(1.5e-3) is ServiceMode.DEGRADED_READONLY
        assert ladder.evaluate(2.4e-3) is ServiceMode.NORMAL

    def test_violations_decay_after_quiet_window(self):
        """A violation-pinned mode must recover on its own (no deadlock)."""
        ladder = self.make()
        ladder.note_integrity_violation(0.0)
        ladder.note_integrity_violation(0.1e-3)
        assert ladder.mode is ServiceMode.DEGRADED_READONLY
        assert ladder.evaluate(0.5e-3) is ServiceMode.DEGRADED_READONLY
        assert ladder.evaluate(1.5e-3) is ServiceMode.NORMAL
        assert ladder.integrity_violations == 0

    def test_fresh_violation_restarts_the_clock(self):
        ladder = self.make()
        ladder.note_integrity_violation(0.0)
        ladder.note_integrity_violation(0.1e-3)
        ladder.note_integrity_violation(0.9e-3)  # still sick
        assert ladder.evaluate(1.5e-3) is ServiceMode.DEGRADED_READONLY
        assert ladder.evaluate(2.0e-3) is ServiceMode.NORMAL

    def test_transitions_are_timestamped(self):
        ladder = self.make()
        ladder.note_open_breakers(1e-3, 2)
        assert ladder.transitions == [(1e-3, "normal->degraded_readonly")]
        assert ladder.transition_log() == ["t=1000.0us mode normal->degraded_readonly"]

    def test_validation(self):
        with pytest.raises(ValueError):
            DegradeConfig(recovery_window_s=0.0)


class TestLibraryDegradation:
    def test_service_mode_without_ladder_is_normal(self):
        library = IceClaveLibrary(runtime=object())
        assert library.service_mode() == "normal"

    def test_degraded_mode_refuses_offload(self):
        ladder = DegradationLadder(DegradeConfig())
        ladder.note_open_breakers(1e-6, 5)
        library = IceClaveLibrary(runtime=object(), degradation=ladder)
        assert library.service_mode() == "failsafe"
        with pytest.raises(ServiceDegradedError) as excinfo:
            library.offload_code(b"\x00", lpas=[1, 2])
        assert excinfo.value.mode == "failsafe"


class TestSloTracker:
    def make(self):
        return SloTracker(SloObjectives(availability=0.9, p99_read_s=1e-3),
                          window_s=1e-3)

    def test_availability_and_percentiles(self):
        slo = self.make()
        for i in range(9):
            slo.record(i * 1e-4, "read", 100e-6, ok=True)
        slo.record(9e-4, "read", 5e-3, ok=False)
        assert slo.availability() == pytest.approx(0.9)
        assert slo.percentile("read", 50) == pytest.approx(100e-6)
        # the failed request's latency still counts in the tail
        assert slo.percentile("read", 99) == pytest.approx(5e-3)

    def test_error_budget(self):
        slo = self.make()
        for i in range(10):
            slo.record(0.0, "read", 1e-6, ok=(i != 0))
        assert slo.error_budget_remaining() == pytest.approx(0.0)

    def test_worst_window(self):
        slo = self.make()
        slo.record(0.1e-3, "read", 1e-6, ok=True)
        slo.record(5.2e-3, "read", 1e-6, ok=False)
        slo.record(5.4e-3, "read", 1e-6, ok=False)
        start, requests, failures = slo.worst_window()
        assert start == pytest.approx(5e-3)
        assert (requests, failures) == (2, 2)

    def test_summary_is_deterministic(self):
        def build():
            slo = self.make()
            slo.record(0.0, "read", 80e-6, ok=True)
            slo.record(1e-4, "write", 120e-6, ok=False)
            return slo.format()
        assert build() == build()

    def test_meets_objectives(self):
        slo = self.make()
        slo.record(0.0, "read", 10e-6, ok=True)
        assert slo.meets_objectives()
        slo.record(1e-4, "read", 5e-3, ok=False)
        assert not slo.meets_objectives()

    @pytest.mark.parametrize("pct", [-0.5, 100.5, 150.0])
    @pytest.mark.parametrize("samples", [0, 3])
    def test_out_of_range_percentile_raises(self, samples, pct):
        # the range check comes first, with or without samples
        slo = self.make()
        hist = Histogram("lat", keep_samples=True)
        for i in range(samples):
            slo.record(0.0, "read", (i + 1) * 1e-6)
            hist.record((i + 1) * 1e-6)
        with pytest.raises(ValueError, match="percentile must lie"):
            slo.percentile("read", pct)
        with pytest.raises(ValueError, match="percentile must lie"):
            hist.percentile(pct)

    def test_percentile_with_no_samples(self):
        assert self.make().percentile("read", 99) == 0.0
        with pytest.raises(ValueError, match="no samples"):
            Histogram("lat", keep_samples=True).percentile(50)

    def test_sorted_latencies_costs_log_comparisons_per_record(self):
        class CountingFloat(float):
            compares = 0

            def __lt__(self, other):
                CountingFloat.compares += 1
                return float.__lt__(self, other)

        n = 512
        rng = random.Random(7)
        slo = self.make()
        values = [CountingFloat(rng.random() * 1e-3) for _ in range(n)]
        for i, value in enumerate(values):
            slo.record(i * 1e-6, "read", value)
            slo.sorted_latencies("read")  # what a hedged read asks for
        # insertion is a binary search: ceil(log2 n) + 2 comparisons each,
        # and a query compares nothing (a re-sort per query is ~n log n)
        assert CountingFloat.compares <= n * (math.ceil(math.log2(n)) + 2)
        assert slo.sorted_latencies("read") == sorted(values)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(
                st.just("record"),
                st.sampled_from(["read", "write"]),
                st.one_of(
                    st.sampled_from([0.0, -0.0, 50e-6]),
                    st.floats(min_value=0.0, max_value=1e-2),
                ),
                st.booleans(),
            ),
            st.tuples(
                st.just("percentile"),
                st.sampled_from(["read", "write"]),
                st.one_of(st.sampled_from([0.0, 50.0, 99.0, 100.0]),
                          st.floats(min_value=0.0, max_value=100.0)),
            ),
            st.tuples(st.just("hedge")),
            st.tuples(st.just("restore")),
        ),
        max_size=80,
    ))
    # equal latencies must stay in arrival order (only their signs differ)
    @example([("record", "read", x, True) for x in (0.0, -0.0, -0.0)] + [("restore",)])
    def test_matches_a_resort_on_every_query(self, steps):
        def bits(values):  # repr tells 0.0 from -0.0, so ties must keep order
            return [repr(v) for v in values]

        def reference_percentile(values, pct):
            ordered = sorted(values)
            if not ordered:
                return 0.0
            return ordered[min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))]

        hedge = HedgePolicy(quantile=0.9, floor_s=1e-9, min_samples=4)
        slo = self.make()
        arrivals = {}
        for i, (op, *args) in enumerate(steps):
            if op == "record":
                kind, latency, ok = args
                slo.record(i * 1e-4, kind, latency, ok=ok)
                arrivals.setdefault(kind, []).append(latency)
            elif op == "percentile":
                kind, pct = args
                expected = reference_percentile(arrivals.get(kind, []), pct)
                assert repr(slo.percentile(kind, pct)) == repr(expected)
            elif op == "hedge":
                expected = hedge.hedge_delay(sorted(arrivals.get("read", [])))
                assert hedge.hedge_delay(slo.sorted_latencies("read")) == expected
            else:
                state = slo.snapshot_state()
                # snapshots keep arrival order, kinds in the order first
                # recorded; the sorted lists are derived
                assert [(k, bits(v)) for k, v in state["by_kind"]] == [
                    (k, bits(arrivals[k])) for k in arrivals
                ]
                slo = self.make()
                slo.restore_state(state)
            for kind in ("read", "write"):
                assert bits(slo.sorted_latencies(kind)) == bits(sorted(arrivals.get(kind, [])))


class TestResilienceLab:
    """The acceptance properties, on the quick (600-request) plan."""

    @classmethod
    def setup_class(cls):
        cls.first = run_resilience(seed=7, ops=600)
        cls.second = run_resilience(seed=7, ops=600)

    def test_same_seed_byte_identical_reports(self):
        assert self.first.fingerprint() == self.second.fingerprint()
        assert self.first.format() == self.second.format()

    def test_same_seed_byte_identical_csv_and_slo_summaries(self):
        csv_a = "\n".join(",".join(row) for row in self.first.csv_rows())
        csv_b = "\n".join(",".join(row) for row in self.second.csv_rows())
        assert csv_a == csv_b
        assert self.first.resilient.slo_lines == self.second.resilient.slo_lines
        assert self.first.baseline.slo_lines == self.second.baseline.slo_lines

    def test_policies_improve_availability(self):
        report = self.first
        assert report.resilient.availability > report.baseline.availability
        assert report.resilient.availability >= 0.99

    def test_policies_improve_p99_read_latency(self):
        report = self.first
        assert report.resilient.p99_read_s < report.baseline.p99_read_s

    def test_policies_actually_engaged(self):
        counters = self.first.resilient.counters
        assert counters.get("retries", 0) > 0
        assert counters.get("command_timeouts", 0) > 0
        assert counters.get("breaker_transitions", 0) > 0
        assert self.first.baseline.counters.get("retries", 0) == 0

    def test_off_arm_sees_the_hang(self):
        """Without timeouts, the dead die wedges requests to the horizon."""
        assert self.first.baseline.failure_reasons.get("unfinished_at_horizon", 0) > 0
        assert "unfinished_at_horizon" not in self.first.resilient.failure_reasons

    def test_plan_summary_covers_the_fault_classes(self):
        assert self.first.plan_summary.get("die_failure") == 1
        assert self.first.plan_summary.get("dram_corruption") == 2

    def test_different_seed_diverges(self):
        other = run_resilience(seed=8, ops=600)
        assert other.fingerprint() != self.first.fingerprint()

    def test_settle_compares_no_requests(self, monkeypatch):
        """Settling a request is a lookup by rid, not a field-wise scan of
        every live request (which made the lab quadratic in --ops)."""
        from repro.resilience import lab

        calls = []
        original = lab._Request.__eq__

        def counting_eq(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(lab._Request, "__eq__", counting_eq)
        run_resilience(seed=7, ops=600)
        assert len(calls) == 0


class TestResilienceCli:
    def test_quick_run_exits_clean(self, capsys, tmp_path):
        csv_path = tmp_path / "new" / "slo.csv"  # the lab creates the directory
        assert repro_main([
            "resilience", "--quick", "--seed", "7", "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "deterministic: yes" in out
        assert "policies ON" in out
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 3  # header + both arms
        assert rows[1].split(",")[3] == "off"
        assert rows[2].split(",")[3] == "on"

    def test_unreachable_availability_floor_fails(self, capsys):
        assert repro_main([
            "resilience", "--quick", "--seed", "7", "--min-availability", "100",
        ]) == 1
        capsys.readouterr()

    def test_rejects_tiny_ops(self, capsys):
        assert repro_main(["resilience", "--ops", "5"]) == 2
        capsys.readouterr()

    def test_diverged_runs_fail(self, capsys, monkeypatch):
        from itertools import count

        from repro.resilience.lab import ResilienceReport

        calls = count()
        monkeypatch.setattr(
            ResilienceReport, "fingerprint", lambda self: str(next(calls))
        )
        assert repro_main([
            "resilience", "--seed", "7", "--ops", "200", "--min-availability", "0",
        ]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "deterministic: NO — runs diverged" in out


class TestLabEdgeCases:
    def test_hung_channel_latency_is_infinite(self):
        from repro.resilience.lab import LabConfig, _Channel
        from repro.crypto.prng import XorShift64
        from repro.host.nvme import NvmeQueuePair
        from repro.host.pcie import PcieLink
        from repro.sim import Engine

        engine = Engine()
        channel = _Channel(
            index=0,
            qp=NvmeQueuePair(engine, PcieLink()),
            rng=XorShift64(1),
            dead_from=0.0,
        )
        cfg = LabConfig()
        assert math.isinf(
            channel.service_latency(1e-3, cfg.base_latency_s, cfg.jitter_s, -1.0)
        )

    def test_storm_scales_latency_inside_window(self):
        from repro.resilience.lab import LabConfig, _Channel
        from repro.crypto.prng import XorShift64
        from repro.host.nvme import NvmeQueuePair
        from repro.host.pcie import PcieLink
        from repro.sim import Engine

        engine = Engine()
        channel = _Channel(
            index=0, qp=NvmeQueuePair(engine, PcieLink()), rng=XorShift64(1),
            slow_until=1e-3, slow_factor=8.0,
        )
        cfg = LabConfig(jitter_s=0.0)
        slow = channel.service_latency(0.5e-3, cfg.base_latency_s, 0.0, -1.0)
        fast = channel.service_latency(2e-3, cfg.base_latency_s, 0.0, -1.0)
        assert slow == pytest.approx(8 * fast)
