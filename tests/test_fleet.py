"""repro.fleet: sharded scale-out, hedged reads, rebuild, crash oracle."""

import pytest

from repro.fleet import (
    DeviceConfig,
    FleetDevice,
    FleetRefusal,
    FleetRunner,
    FleetTopology,
    RebuildManager,
    ShardRouter,
    restore_fleet_runner,
    run_fleet,
    run_fleet_oracle,
    seeded_mix,
    snapshot_fleet_runner,
)
from repro.fleet.checkpoint import FLEET_SNAPSHOT_KIND
from repro.recovery.snapshot import load_snapshot, save_snapshot
from repro.resilience.breaker import BreakerBoard
from repro.resilience.policy import HedgePolicy
from repro.serve.wire import (
    RETRYABLE,
    WireStatus,
    retry_after_for,
    status_for_fleet,
)
from repro.sim.engine import Engine


# -- topology ------------------------------------------------------------------


class TestTopology:
    def test_placement_is_a_pure_function_of_seed(self):
        a = FleetTopology(7, range(6), replication=2)
        b = FleetTopology(7, range(6), replication=2)
        assert [a.replicas_for(k) for k in range(100)] == [
            b.replicas_for(k) for k in range(100)
        ]

    def test_different_seeds_place_differently(self):
        a = FleetTopology(7, range(6), replication=2)
        b = FleetTopology(8, range(6), replication=2)
        assert [a.replicas_for(k) for k in range(100)] != [
            b.replicas_for(k) for k in range(100)
        ]

    def test_replicas_are_distinct_and_alive(self):
        topo = FleetTopology(7, range(6), replication=3)
        for key in range(50):
            replicas = topo.replicas_for(key)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
        topo.mark_dead(2)
        for key in range(50):
            assert 2 not in topo.replicas_for(key)

    def test_device_death_moves_only_its_keys(self):
        topo = FleetTopology(7, range(6), replication=2)
        before = {k: topo.replicas_for(k) for k in range(200)}
        topo.mark_dead(3)
        moved = untouched = 0
        for key, old in before.items():
            new = topo.replicas_for(key)
            if 3 in old:
                moved += 1
            else:
                assert new == old  # consistent hashing: survivors keep their sets
                untouched += 1
        assert moved > 0 and untouched > moved

    def test_seeded_mix_never_uses_builtin_hash(self):
        # identical across processes by construction: a fixed vector
        assert seeded_mix(1, 2, 3) == seeded_mix(1, 2, 3)
        assert seeded_mix(1, 2, 3) != seeded_mix(1, 3, 2)

    def test_membership_snapshot_round_trips(self):
        topo = FleetTopology(7, range(4), replication=2)
        topo.mark_dead(1)
        state = topo.snapshot_state()
        fresh = FleetTopology(7, range(4), replication=2)
        fresh.restore_state(state)
        assert fresh.alive_devices() == [0, 2, 3]
        assert [fresh.replicas_for(k) for k in range(40)] == [
            topo.replicas_for(k) for k in range(40)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetTopology(7, [])
        with pytest.raises(ValueError):
            FleetTopology(7, [1, 1])
        with pytest.raises(ValueError):
            FleetTopology(7, range(3), replication=4)


# -- devices -------------------------------------------------------------------


class TestDevice:
    def test_quarantine_drops_exactly_the_die_keys(self):
        dev = FleetDevice(0, seed=7, config=DeviceConfig(dies=4))
        for key in range(16):
            dev.write(0.0, key, b"x")
        dropped = dev.quarantine_die(0.0, 1)
        assert dropped == [1, 5, 9, 13]
        assert dev.keys_held() == sorted(set(range(16)) - set(dropped))

    def test_kill_refuses_commands(self):
        dev = FleetDevice(0, seed=7)
        dev.write(0.0, 1, b"x")
        assert dev.kill(0.0) is True
        assert dev.kill(0.0) is False  # idempotent, reports prior state
        assert dev.read(0.0, 1).reason == "dead"
        assert not dev.write(0.0, 2, b"y").ok
        assert dev.install_replica(3, b"z") is False

    def test_storm_slows_and_error_credits_fail(self):
        dev = FleetDevice(0, seed=7)
        dev.write(0.0, 1, b"x")
        base = dev.read(0.0, 1).latency_s
        dev.start_storm(1.0, duration_s=1.0, credits=1)
        failed = dev.read(1.5, 1)
        assert failed.reason == "media_error"
        slow = dev.read(1.5, 1)
        assert slow.ok and slow.latency_s > 4 * base
        after = dev.read(3.0, 1)  # storm expired
        assert after.ok and after.latency_s < 2 * base

    def test_success_never_depends_on_rng(self):
        # two devices with different jitter histories agree on outcomes
        a, b = FleetDevice(0, seed=7), FleetDevice(0, seed=7)
        for _ in range(5):
            b.read(0.0, 99)  # burn extra jitter draws on b only
        a.write(0.0, 1, b"x")
        b.write(0.0, 1, b"x")
        ra, rb = a.read(0.0, 1), b.read(0.0, 1)
        assert (ra.ok, ra.value) == (rb.ok, rb.value)

    def test_snapshot_round_trip(self):
        dev = FleetDevice(0, seed=7)
        dev.write(0.0, 1, b"x")
        dev.start_storm(0.0, 1.0, credits=2)
        dev.quarantine_die(0.0, 3)
        state = dev.snapshot_state()
        fresh = FleetDevice(0, seed=7)
        fresh.restore_state(state)
        assert fresh.snapshot_state() == state
        # restored jitter stream continues identically
        assert fresh.read(2.0, 1).latency_s == dev.read(2.0, 1).latency_s


# -- the shard router ----------------------------------------------------------


def make_fleet(seed=7, devices=3, replication=2, hedge=None):
    engine = Engine()
    topo = FleetTopology(seed, range(devices), replication=replication)
    fleet = {d: FleetDevice(d, seed) for d in range(devices)}
    router = ShardRouter(
        engine, topo, fleet, breakers=BreakerBoard(), hedge=hedge
    )
    return engine, topo, fleet, router


class TestRouter:
    def test_write_fans_out_to_all_replicas(self):
        engine, topo, fleet, router = make_fleet()
        outcome = router.write(0.0, 5, b"payload")
        assert outcome.ok
        assert list(outcome.replicas) == sorted(topo.replicas_for(5))
        for device_id in outcome.replicas:
            assert fleet[device_id].peek(5) == b"payload"

    def test_read_serves_winner_value(self):
        engine, topo, fleet, router = make_fleet()
        holders = list(router.write(0.0, 5, b"payload").replicas)
        outcome = router.read(0.0, 5, holders)
        assert outcome.ok and outcome.value == b"payload"
        assert outcome.winner in holders
        assert not outcome.hedged  # no hedge policy installed

    def test_hedge_winner_used_and_loser_cancelled_without_heap_leak(self):
        hedge = HedgePolicy(floor_s=400e-6, min_samples=10_000)  # fixed floor
        engine, topo, fleet, router = make_fleet(hedge=hedge)
        holders = list(router.write(0.0, 5, b"payload").replicas)
        primary = sorted(holders)[0]
        fleet[primary].stall(0.0, duration_s=1.0)  # primary crawls (~40x)
        outcome = router.read(0.0, 5, holders)
        assert outcome.ok and outcome.value == b"payload"
        assert outcome.hedged and outcome.winner != primary
        assert outcome.attempts == 2
        assert router.counters["hedge_wins"] == 1
        assert router.counters["hedge_losses_cancelled"] == 1
        # the cancelled loser must not linger in the sim-engine heap
        assert engine.pending == 0
        assert engine.queued_entries == 0

    def test_read_digest_identical_with_and_without_hedge(self):
        # success is state-based, never latency-based: hedging changes which
        # commands race, but the served bytes (and thus the data digest)
        # must be identical with the hedge on or off
        hedge = HedgePolicy(floor_s=400e-6, min_samples=10_000)
        arms = []
        for policy in (hedge, None):
            engine, topo, fleet, router = make_fleet(hedge=policy)
            placed = {}
            for key in range(12):
                placed[key] = list(router.write(0.0, key, b"v%d" % key).replicas)
            fleet[0].stall(0.0, duration_s=1.0)  # force hedges on arm one
            oks = 0
            for key in range(12):
                outcome = router.read(0.0, key, placed[key])
                oks += outcome.ok
            arms.append((router.read_digest, oks))
        assert arms[0][0] == arms[1][0]
        assert arms[0][1] == arms[1][1]
        assert arms[0][0] != ShardRouter(
            Engine(), FleetTopology(7, range(3)), {}
        ).read_digest  # the digest actually absorbed something

    def test_failover_ladders_to_surviving_replica(self):
        engine, topo, fleet, router = make_fleet()
        holders = list(router.write(0.0, 5, b"payload").replicas)
        fleet[sorted(holders)[0]].error_credits = 1
        outcome = router.read(0.0, 5, holders)
        assert outcome.ok and outcome.attempts == 2
        assert engine.queued_entries == 0

    def test_read_error_refusal_is_terminal(self):
        engine, topo, fleet, router = make_fleet()
        with pytest.raises(FleetRefusal) as err:
            router.read(0.0, 5, [])  # no holders at all: data is gone
        assert err.value.status is WireStatus.READ_ERROR
        assert not err.value.retryable
        assert err.value.retry_after_s == 0.0

    def test_replica_exhausted_refusal_is_retryable(self):
        engine, topo, fleet, router = make_fleet()
        holders = list(router.write(0.0, 5, b"payload").replicas)
        for device_id in holders:
            fleet[device_id].error_credits = 5
        with pytest.raises(FleetRefusal) as err:
            router.read(0.0, 5, holders)
        assert err.value.status is WireStatus.REPLICA_EXHAUSTED
        assert err.value.retryable
        assert err.value.retry_after_s == pytest.approx(900e-6)
        assert engine.queued_entries == 0

    def test_write_quorum_miss_is_under_replicated(self):
        engine, topo, fleet, router = make_fleet(devices=2, replication=2)
        fleet[1].kill(0.0)  # still in topology: the write still targets it
        with pytest.raises(FleetRefusal) as err:
            router.write(0.0, 5, b"payload", quorum=2)
        assert err.value.status is WireStatus.UNDER_REPLICATED
        assert err.value.retryable
        assert err.value.retry_after_s == pytest.approx(1200e-6)

    def test_write_with_no_targets_is_replica_exhausted(self):
        engine, topo, fleet, router = make_fleet(devices=2, replication=1)
        for device_id in (0, 1):
            fleet[device_id].kill(0.0)
            topo.mark_dead(device_id)
        with pytest.raises(FleetRefusal) as err:
            router.write(0.0, 5, b"payload")
        assert err.value.status is WireStatus.REPLICA_EXHAUSTED


class TestWireTaxonomy:
    def test_fleet_statuses_are_typed_and_retryable(self):
        assert status_for_fleet("replica_exhausted") is WireStatus.REPLICA_EXHAUSTED
        assert status_for_fleet("under_replicated") is WireStatus.UNDER_REPLICATED
        assert status_for_fleet("read_error") is WireStatus.READ_ERROR
        assert status_for_fleet("???") is WireStatus.INTERNAL
        assert WireStatus.REPLICA_EXHAUSTED in RETRYABLE
        assert WireStatus.UNDER_REPLICATED in RETRYABLE
        assert WireStatus.READ_ERROR not in RETRYABLE

    def test_retry_after_hints_are_deterministic(self):
        assert retry_after_for(WireStatus.REPLICA_EXHAUSTED) == pytest.approx(900e-6)
        assert retry_after_for(WireStatus.UNDER_REPLICATED) == pytest.approx(1200e-6)
        assert retry_after_for(WireStatus.READ_ERROR) == 0.0


# -- rebuild -------------------------------------------------------------------


class TestRebuild:
    def setup_fleet(self):
        engine, topo, fleet, router = make_fleet(devices=4, replication=2)
        rebuild = RebuildManager(topo, fleet, replication=2)
        for key in range(20):
            outcome = router.write(0.0, key, b"k%d" % key)
            rebuild.record_write(0.0, key, list(outcome.replicas))
        return engine, topo, fleet, router, rebuild

    def test_device_kill_triggers_rebuild_to_full_replication(self):
        engine, topo, fleet, router, rebuild = self.setup_fleet()
        fleet[1].kill(1.0)
        topo.mark_dead(1)
        affected = rebuild.device_lost(1.0, 1)
        assert affected > 0
        assert rebuild.under_replicated == affected
        assert rebuild.pending == affected
        while rebuild.pending:
            rebuild.pump_rebuild(2.0, budget=2)
        assert rebuild.under_replicated == 0
        assert rebuild.keys_lost == 0
        assert rebuild.counters["rebuilds_completed"] == affected
        # every key is back at full replication on alive devices, bytes intact
        for key in range(20):
            holders = rebuild.holders(key)
            assert len(holders) == 2 and 1 not in holders
            for device_id in holders:
                assert fleet[device_id].peek(key) == b"k%d" % key

    def test_quarantine_triggers_partial_rebuild(self):
        engine, topo, fleet, router, rebuild = self.setup_fleet()
        dropped = fleet[2].quarantine_die(1.0, 0)
        affected = rebuild.replicas_dropped(1.0, 2, dropped)
        assert affected == len(dropped) > 0
        rebuild.pump_rebuild(2.0, budget=100)
        assert rebuild.under_replicated == 0
        for key in dropped:
            assert len(rebuild.holders(key)) == 2

    def test_losing_every_holder_counts_keys_lost(self):
        engine, topo, fleet, router, rebuild = self.setup_fleet()
        for device_id in range(4):
            fleet[device_id].kill(1.0)
            topo.mark_dead(device_id)
            rebuild.device_lost(1.0, device_id)
        assert rebuild.keys_lost == 20
        assert rebuild.under_replicated == 0  # lost, not under-replicated

    def test_under_replicated_window_integral_accumulates(self):
        engine, topo, fleet, router, rebuild = self.setup_fleet()
        fleet[1].kill(1.0)
        topo.mark_dead(1)
        affected = rebuild.device_lost(1.0, 1)
        rebuild.account(3.0)  # two exposed seconds before any repair
        assert rebuild.under_replicated_key_seconds == pytest.approx(
            affected * 2.0
        )
        assert rebuild.max_under_replicated == affected
        while rebuild.pending:
            rebuild.pump_rebuild(3.0, budget=4)
        rebuild.account(10.0)  # healed: the integral stops growing
        assert rebuild.under_replicated_key_seconds == pytest.approx(
            affected * 2.0
        )

    def test_rebuild_snapshot_round_trips_mid_queue(self):
        engine, topo, fleet, router, rebuild = self.setup_fleet()
        fleet[1].kill(1.0)
        topo.mark_dead(1)
        rebuild.device_lost(1.0, 1)
        rebuild.pump_rebuild(2.0, budget=1)  # leave work queued
        assert rebuild.pending > 0
        state = rebuild.snapshot_state()
        fresh = RebuildManager(topo, fleet, replication=2)
        fresh.restore_state(state)
        assert fresh.snapshot_state() == state
        while fresh.pending:
            fresh.pump_rebuild(3.0, budget=4)
        assert fresh.under_replicated == 0


# -- serve integration ---------------------------------------------------------


class TestServeIntegration:
    def test_default_channel_scheme_unchanged_without_router(self):
        from tests.test_serve import make_service

        service, _ = make_service(channels=4)
        for lpa in range(16):
            assert service._pick_channel(lpa, 0.0) == lpa % 4


# -- the lab -------------------------------------------------------------------


class TestFleetLab:
    def test_replication_strictly_beats_off_under_chaos(self):
        report = run_fleet(42, 600, devices=6, replication=2, working_set=64)
        assert report.policy_win
        assert report.on.availability > report.off.availability
        assert report.on.p99_read_s < report.off.p99_read_s
        assert report.off.keys_lost > 0  # the kill actually cost data
        assert report.on.keys_lost == 0  # replication absorbed it
        assert report.on.rebuilds_completed > 0
        assert report.on.under_replicated_key_seconds > 0.0

    def test_double_run_is_byte_identical(self):
        a = run_fleet(42, 400, devices=6, working_set=48)
        b = run_fleet(42, 400, devices=6, working_set=48)
        assert a.fingerprint() == b.fingerprint()
        assert a.to_json() == b.to_json()

    def test_fingerprint_pinned(self):
        # pins the lab's output across code versions, not just across two runs
        report = run_fleet(42, 400, devices=6, working_set=48)
        assert report.fingerprint() == (
            "996ef884575675f66cb8bdafa9cfec020a1f63b27130c27e802af2e1056d4f3a"
        )

    def test_jobs_parallel_matches_serial(self):
        from repro.perf.parallel import fleet_point, map_points

        specs = [
            fleet_point(42, 300, 6, 1, False),
            fleet_point(42, 300, 6, 2, True),
        ]
        serial = map_points(specs, jobs=1)
        forked = map_points(specs, jobs=2)
        assert [r.fingerprint() for r in serial] == [
            r.fingerprint() for r in forked
        ]

    def test_arm_report_is_picklable(self):
        import pickle

        arm = FleetRunner(42, 200, devices=4).run()
        clone = pickle.loads(pickle.dumps(arm))
        assert clone.fingerprint() == arm.fingerprint()

    def test_runner_is_quiescent_between_steps(self):
        runner = FleetRunner(42, 50, devices=4, working_set=16)
        while runner.step():
            assert runner.engine.pending == 0
            assert runner.engine.queued_entries == 0

    def test_json_report_schema(self):
        report = run_fleet(42, 200, devices=4, working_set=32)
        payload = report.to_json()
        assert payload["schema"] == "fleet-lab-report/v1"
        for arm_key in ("replication_off", "replication_on"):
            arm = payload[arm_key]
            for field in (
                "availability", "p99_read_s", "keys_lost",
                "rebuilds_completed", "under_replicated_key_seconds",
                "fingerprint",
            ):
                assert field in arm
        assert isinstance(payload["policy_win"], bool)


# -- checkpoints + crash oracle ------------------------------------------------


class TestFleetRecovery:
    def test_checkpoint_round_trip_matches_uninterrupted(self, tmp_path):
        golden = FleetRunner(42, 300, devices=5, rebuild_batch=1).run()
        runner = FleetRunner(42, 300, devices=5, rebuild_batch=1)
        runner.run_until(150)
        path = str(tmp_path / "fleet.snap")
        save_snapshot(snapshot_fleet_runner(runner), path)
        del runner
        resumed = restore_fleet_runner(
            load_snapshot(path, expect_kind=FLEET_SNAPSHOT_KIND)
        )
        resumed.run_until(300)
        assert resumed.finalize().fingerprint() == golden.fingerprint()

    def test_oracle_passes_and_cuts_mid_rebuild(self):
        report = run_fleet_oracle(
            base_seed=42, seeds=1, points=5, requests=400, devices=6
        )
        assert report.all_passed
        assert report.failed == 0
        assert report.tagged_points >= 1  # the interesting mid-rebuild cut happened
        assert report.corruption_rejected

    def test_oracle_counts_recovery_stats(self):
        from repro.recovery import RecoveryStats

        stats = RecoveryStats()
        report = run_fleet_oracle(
            base_seed=42, seeds=1, points=3, requests=200, stats=stats
        )
        assert report.all_passed
        assert stats.snapshots_taken == stats.restores == 3
        assert stats.oracle_points_passed == 3


# -- the det-unseeded-path lint rule in repro.fleet ----------------------------


class TestUnseededTopologyRule:
    def scan(self, tmp_path, body):
        from repro.analysis import analyze_paths

        victim = tmp_path / "victim.py"
        victim.write_text("# analysis-module: repro.fleet.victim\n" + body)
        return analyze_paths([victim], root=tmp_path)

    def test_builtin_hash_flagged(self, tmp_path):
        result = self.scan(
            tmp_path,
            "def place(key, rng, devices):\n"
            "    return devices[hash(key) % len(devices)]\n",
        )
        assert [f.rule for f in result.findings] == ["det-unseeded-path"]

    def test_unseeded_xorshift_flagged(self, tmp_path):
        result = self.scan(
            tmp_path,
            "from repro.crypto.prng import XorShift64\n\n"
            "def pick(devices, seed):\n"
            "    rng = XorShift64()\n"
            "    return devices[rng.next_below(len(devices))]\n",
        )
        assert [f.rule for f in result.findings] == ["det-unseeded-path"]

    def test_topology_path_without_clock_or_rng_flagged(self, tmp_path):
        result = self.scan(
            tmp_path,
            "def rebalance_ring(devices):\n"
            "    return devices[0]\n",
        )
        assert [f.rule for f in result.findings] == ["det-unseeded-path"]

    def test_seeded_topology_path_is_clean(self, tmp_path):
        result = self.scan(
            tmp_path,
            "def rebalance_ring(devices, rng):\n"
            "    return devices[rng.next_below(len(devices))]\n\n"
            "def pump_rebuild(now, budget):\n"
            "    return budget\n",
        )
        assert result.findings == []

    def test_rule_is_scoped_to_the_fleet_package(self, tmp_path):
        from repro.analysis import analyze_paths

        victim = tmp_path / "victim.py"
        victim.write_text(
            "# analysis-module: repro.ftl.victim\n"
            "def rebalance_ring(devices):\n"
            "    return devices[hash(devices[0]) % len(devices)]\n"
        )
        result = analyze_paths([victim], root=tmp_path)
        assert "det-unseeded-path" not in [f.rule for f in result.findings]


# -- CLI -----------------------------------------------------------------------


class TestFleetCli:
    def test_fleet_lab_quick(self, capsys):
        from repro.cli import main

        assert main(["fleet-lab", "--quick", "--requests", "600"]) == 0
        out = capsys.readouterr().out
        assert "policy win: yes" in out
        assert "deterministic: yes" in out

    def test_fleet_lab_exports(self, tmp_path, capsys):
        import json

        from repro.cli import main

        csv = tmp_path / "fleet.csv"
        js = tmp_path / "fleet.json"
        assert (
            main([
                "fleet-lab", "--requests", "300", "--devices", "4",
                "--csv", str(csv), "--json", str(js),
            ])
            == 0
        )
        assert csv.read_text().count("\n") == 3  # header + two arms
        payload = json.loads(js.read_text())
        assert payload["schema"] == "fleet-lab-report/v1"
        assert payload["policy_win"] is True

    def test_fleet_lab_policy_win_failure(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.fleet import FleetReport

        monkeypatch.setattr(FleetReport, "policy_win", property(lambda self: False))
        assert main(["fleet-lab", "--requests", "300", "--devices", "4"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert (
            "FAIL: replication-on did not strictly beat replication-off "
            "on availability and p99"
        ) in err

    def test_fleet_lab_rejects_bad_geometry(self, capsys):
        from repro.cli import main

        assert main(["fleet-lab", "--devices", "1"]) == 2
        assert main(["fleet-lab", "--replication", "9"]) == 2
        # below the runner's working set the arm cannot even seed its keys
        assert main(["fleet-lab", "--requests", "63"]) == 2

    def test_fleet_oracle_quick(self, capsys):
        from repro.cli import main

        assert (
            main([
                "fleet-oracle", "--seeds", "1", "--points", "3",
                "--requests", "200",
            ])
            == 0
        )
        assert "byte-identical  : 3/3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--points", "0"], "--points must be >= 1"),
            (["--seeds", "0"], "--seeds must be >= 1"),
            (["--requests", "1"], "--requests must be >= 2"),
            (["--devices", "1"], "--devices must be >= 2"),
        ],
    )
    def test_fleet_oracle_rejects_bad_sweep(self, capsys, flags, message):
        from repro.cli import main

        assert main(["fleet-oracle"] + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
