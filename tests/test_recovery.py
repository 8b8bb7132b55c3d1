"""Tests for repro.recovery: snapshots, monitors, the oracle, and soak.

The heart of the suite is the crash-point differential oracle acceptance
sweep (27 crash points over 3 seeds must restore byte-identically) and a
Hypothesis stateful machine that interleaves I/O, GC pressure, chaos
faults and snapshot/restore against a reference model.
"""

import copy
import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cli import main
from repro.core.functional_mee import FunctionalMee
from repro.crypto.prng import XorShift64
from repro.faults.chaos import ChaosRunner, run_chaos
from repro.flash import FlashChip
from repro.flash.ecc import EccModel, ReadRetryPolicy
from repro.flash.geometry import small_geometry
from repro.fleet.checkpoint import snapshot_fleet_runner
from repro.fleet.lab import FleetRunner
from repro.ftl.ftl import Ftl, MappingIntegrityError
from repro.ftl.mapping import MappingEntry
from repro.platform.metrics import RunResult
from repro.recovery import (
    SNAPSHOT_VERSION,
    InvariantViolation,
    MonitorSuite,
    RecoveryStats,
    Snapshot,
    SnapshotCorruptError,
    SnapshotVersionError,
    canonical_fingerprint,
    crash_points,
    load_snapshot,
    restore_chaos_runner,
    run_oracle,
    run_soak,
    run_soak_campaigns,
    save_snapshot,
    snapshot_chaos_runner,
)
from repro.recovery.snapshot import decode_canonical, encode_canonical
from repro.recovery.soak import SOAK_KILLED_EXIT, load_results, recovery_csv_rows
from repro.resilience.breaker import BreakerBoard
from repro.sim.stats import ReliabilityStats


def tiny_geometry(**kw):
    defaults = dict(channels=2, chips_per_channel=1, dies_per_chip=1,
                    planes_per_die=2, blocks_per_plane=8, pages_per_block=8)
    defaults.update(kw)
    return small_geometry(**defaults)


def make_ftl(seed=3, **geometry_kw):
    geometry = tiny_geometry(**geometry_kw)
    chip = FlashChip(geometry, store_data=True)
    ftl = Ftl(geometry, chip=chip, overprovision=0.25)
    ftl.attach_reliability(
        ecc=EccModel(seed=seed),
        retry_policy=ReadRetryPolicy(),
        reliability=ReliabilityStats(),
    )
    return ftl


def make_mee():
    return FunctionalMee(pages=8, aes_key=b"0123456789abcdef", mac_key=b"mac-key")


class PlantMarker:
    """Unpickling this runs ``open(path, "w")``: the file exists iff a
    loader executed code from the pickle."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


# every primitive the canonical encoding distinguishes, nested in containers
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.sampled_from([0.0, -0.0, float("inf"), float("-inf")])
    | st.text(max_size=8)
    | st.binary(max_size=8)
)
_KEYS = st.none() | st.booleans() | st.integers() | st.text(max_size=4) | st.binary(max_size=4)
PRIMITIVE_TREES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_KEYS, inner, max_size=4)
    ),
    max_leaves=20,
)


def _in_canonical_order(value):
    """``value`` with each mapping rebuilt in encoded-key order: the order
    the decoder yields (a snapshot does not keep mapping order)."""
    if isinstance(value, dict):
        return {
            key: _in_canonical_order(item)
            for key, item in sorted(value.items(), key=lambda kv: encode_canonical(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return type(value)(_in_canonical_order(item) for item in value)
    return value


def _write_body(path, body):
    """A snapshot file around ``body`` whose digest line matches it."""
    path.write_bytes(hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body)


class TestCanonicalFingerprint:
    def test_deterministic(self):
        value = {"a": [1, 2.5, "x", b"y", None, True], "b": (3, 4)}
        assert canonical_fingerprint(value) == canonical_fingerprint(copy.deepcopy(value))

    def test_type_tags_distinguish_lookalikes(self):
        # these all print the same-ish but must fingerprint differently
        fps = {canonical_fingerprint(v) for v in (0, False, 0.0, "0", b"0", None)}
        assert len(fps) == 6
        assert canonical_fingerprint([1, 2]) != canonical_fingerprint((1, 2))

    def test_dict_key_order_is_canonical(self):
        assert canonical_fingerprint({"a": 1, "b": 2}) == canonical_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_rejects_non_primitives(self):
        with pytest.raises(TypeError):
            canonical_fingerprint({"bad": object()})


class TestSnapshotFile:
    STATE = {
        "none": None,
        "flags": [True, False],
        "counts": {"a": 1, "b": -2},
        "ratio": 0.125,
        "name": "répro",
        "blob": b"\x00\x01\xff",
        "pair": (3, "x"),
        "ordered": [("k2", 2), ("k1", 1)],
    }
    # Pinned format regression: this digest only moves when the canonical
    # encoding or the fingerprinted envelope changes — both of which
    # require a SNAPSHOT_VERSION bump (docs/RECOVERY.md).
    PINNED = "52207a4049de890ee0b25e17564148707f32f96be25c6e49c500b77d4943a75c"

    def _snap(self):
        return Snapshot(kind="format-regression", meta={"seed": 7}, state=self.STATE)

    def test_format_fingerprint_is_pinned(self):
        assert SNAPSHOT_VERSION == 3
        assert self._snap().fingerprint() == self.PINNED

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.snap"
        fingerprint = save_snapshot(self._snap(), path)
        loaded = load_snapshot(path, expect_kind="format-regression")
        assert fingerprint == self.PINNED
        assert loaded.state == self.STATE
        assert loaded.meta == {"seed": 7}
        assert loaded.fingerprint() == fingerprint

    def test_corruption_is_rejected(self, tmp_path):
        path = tmp_path / "t.snap"
        save_snapshot(self._snap(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(path)

    def test_garbage_is_rejected(self, tmp_path):
        path = tmp_path / "t.snap"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(path)

    def test_version_2_files_are_refused(self, tmp_path):
        path = tmp_path / "t.snap"
        save_snapshot(Snapshot(kind="x", state={"a": 1}, version=2), path)
        with pytest.raises(SnapshotVersionError):
            load_snapshot(path)

    def test_other_versions_are_rejected(self, tmp_path):
        path = tmp_path / "t.snap"
        future = Snapshot(kind="x", state={"a": 1}, version=SNAPSHOT_VERSION + 1)
        save_snapshot(future, path)
        with pytest.raises(SnapshotVersionError):
            load_snapshot(path)

    def test_wrong_kind_is_rejected(self, tmp_path):
        path = tmp_path / "t.snap"
        save_snapshot(self._snap(), path)
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(path, expect_kind="something-else")

    def test_non_primitive_state_fails_at_save(self, tmp_path):
        with pytest.raises(TypeError):
            save_snapshot(Snapshot(kind="x", state={"o": object()}), tmp_path / "t.snap")

    def test_file_is_digest_line_then_canonical_body(self, tmp_path):
        path = tmp_path / "t.snap"
        save_snapshot(self._snap(), path)
        digest, body = path.read_bytes().split(b"\n", 1)
        assert digest.decode("ascii") == self.PINNED
        assert hashlib.sha256(body).hexdigest() == self.PINNED

    def test_planted_pickle_is_refused_without_running(self, tmp_path):
        """A file is checked, then parsed; nothing in it ever executes."""
        marker = tmp_path / "marker"
        path = tmp_path / "t.snap"
        path.write_bytes(pickle.dumps(PlantMarker(str(marker))))
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(path)
        assert not marker.exists()

    @given(PRIMITIVE_TREES)
    @settings(max_examples=60, deadline=None)
    def test_codec_round_trip(self, value):
        """tuple vs list, bool vs int, -0.0, str vs bytes all survive."""
        decoded = decode_canonical(encode_canonical(value))
        assert repr(decoded) == repr(_in_canonical_order(value))

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b"X;",  # unknown tag
            b"I12",  # unterminated int
            b"I1_2;",  # not a canonical int
            b"D;",  # empty float
            b"S9:abc",  # length past the end
            b"B-1:",  # negative length
            b"S2:\xff\xfe",  # not utf-8
            b"L2[I1;]",  # fewer items than counted
            b"L1[I1;I2;]",  # more items than counted
            b"U1[N;",  # unclosed
            b"M1{L0[]I1;}",  # unhashable key
            b"N;N;",  # trailing bytes
            b"L1[" * 101 + b"N;" + b"]" * 101,  # nested too deep
        ],
    )
    def test_malformed_body_is_refused(self, tmp_path, body):
        with pytest.raises(ValueError):
            decode_canonical(body)
        path = tmp_path / "t.snap"
        _write_body(path, body)
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(path)

    def test_non_canonical_body_is_refused(self, tmp_path):
        """A well-formed body no save could write (unsorted mapping keys)."""
        envelope = encode_canonical(["repro-snapshot", SNAPSHOT_VERSION, "k", {}, {}])
        body = envelope.replace(b"M0{}", b"M2{S1:bI1;S1:aI2;}", 1)
        assert decode_canonical(body)[3] == {"b": 1, "a": 2}
        path = tmp_path / "t.snap"
        _write_body(path, body)
        with pytest.raises(SnapshotCorruptError, match="non-canonical"):
            load_snapshot(path)


class TestPinnedCheckpoints:
    """Digests of two real checkpoints: a change to any component's payload
    moves them, and they move only with a SNAPSHOT_VERSION bump."""

    CHAOS_PINNED = "238d1c11dffb5994f18e06eaffb2628e64e003da9eae136e707727a16372ae9e"
    FLEET_PINNED = "6eddf0e814039eda12effb8bbecc4bb1f95c460b772edcedf1778cad2e16e94e"

    @classmethod
    def setup_class(cls):
        cls.chaos = ChaosRunner("tpch-q1", 0.9, seed=42, ops=3000)
        cls.chaos.run_until(1500)

    def test_chaos_checkpoint_is_pinned(self):
        assert SNAPSHOT_VERSION == 3
        assert snapshot_chaos_runner(self.chaos).fingerprint() == self.CHAOS_PINNED

    def test_fleet_checkpoint_is_pinned(self):
        runner = FleetRunner(42, 400, working_set=48, rebuild_batch=1)
        runner.run_until(205)
        assert runner.rebuild.pending > 0  # the cut lands mid-rebuild
        assert SNAPSHOT_VERSION == 3
        assert snapshot_fleet_runner(runner).fingerprint() == self.FLEET_PINNED

    def test_checkpoint_carries_no_key_bytes(self):
        """docs/SECURITY.md: keys never leave the enclave, checkpoints included."""
        snapshot = snapshot_chaos_runner(self.chaos)
        body = encode_canonical([snapshot.meta, snapshot.state])
        keys = [
            key
            for tenant in self.chaos.guard.tenants.values()
            for key in tenant.mee._keys
        ]
        assert len(keys) == 4 and all(len(key) == 16 for key in keys)
        for key in keys:
            assert key not in body


class TestComponentRoundTrips:
    def test_prng_resumes_identical_stream(self):
        a = XorShift64(seed=123)
        for _ in range(10):
            a.next_u64()
        state = a.snapshot_state()
        b = XorShift64(seed=999)  # wrong seed on purpose; state must win
        b.restore_state(state)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_ftl_round_trip_preserves_data_and_future(self):
        ftl = make_ftl()
        data = {}
        for round_ in range(4):
            for lpa in range(50):
                data[lpa] = f"r{round_}-{lpa}".encode()
                ftl.write(lpa, data[lpa])
        state = ftl.snapshot_state()
        twin = make_ftl()
        twin.restore_state(state)
        assert twin.check_mapping_integrity() == []
        for lpa, payload in data.items():
            # read via both so the chip read counters stay in lockstep
            assert twin.chip.read(twin.translate(lpa)) == payload
            assert ftl.chip.read(ftl.translate(lpa)) == payload
        # identical futures: same writes produce the same state on both
        for lpa in range(50):
            ftl.write(lpa, f"post-{lpa}".encode())
            twin.write(lpa, f"post-{lpa}".encode())
        assert canonical_fingerprint(twin.snapshot_state()) == canonical_fingerprint(
            ftl.snapshot_state()
        )

    def test_functional_mee_round_trip(self):
        mee = make_mee()
        for page in range(4):
            for line in range(3):
                mee.write_line(page, line, f"p{page}l{line}".encode())
        state = mee.snapshot_state()
        twin = make_mee()
        twin.restore_state(state)
        for page in range(4):
            twin.verify_counter_block(page)
            for line in range(3):
                assert twin.read_line(page, line) == f"p{page}l{line}".encode()
        assert twin.counter_pair(2, 1) == mee.counter_pair(2, 1)

    def test_breaker_board_round_trip(self):
        board = BreakerBoard()
        for _ in range(10):
            board.breaker("die0").record_failure(1.0)
        board.breaker("die1").record_success(1.5)
        twin = BreakerBoard()
        twin.restore_state(board.snapshot_state())
        assert twin.breaker("die0").state == board.breaker("die0").state
        assert twin.breaker("die0").transitions == board.breaker("die0").transitions
        assert canonical_fingerprint(twin.snapshot_state()) == canonical_fingerprint(
            board.snapshot_state()
        )

    def test_chaos_runner_round_trip_mid_run(self):
        runner = ChaosRunner("tpch-q1", 0.5, seed=11, ops=200)
        runner.run_until(90)
        snapshot = snapshot_chaos_runner(runner)
        twin = restore_chaos_runner(snapshot)
        assert twin.ops_executed == 90
        runner.run_until(200)
        twin.run_until(200)
        assert twin.finalize().fingerprint() == runner.finalize().fingerprint()


class TestInvariantMonitors:
    def test_components_default_to_disabled(self):
        assert make_ftl().invariant_monitor is None
        assert make_mee().invariant_monitor is None

    def test_armed_run_fingerprint_matches_disabled_run(self):
        golden = run_chaos("tpch-q1", 0.5, seed=13, ops=250)
        runner = ChaosRunner("tpch-q1", 0.5, seed=13, ops=250)
        stats = RecoveryStats()
        runner.arm_monitors(MonitorSuite(stats))
        armed = runner.run()
        assert armed.fingerprint() == golden.fingerprint()
        assert stats.invariant_checks > 0
        assert stats.violations == 0

    def test_sim_clock_monotonicity(self):
        suite = MonitorSuite()
        suite.after_engine_event(1.0)
        suite.after_engine_event(1.0)  # equal is fine (zero-delay events)
        with pytest.raises(InvariantViolation) as exc:
            suite.after_engine_event(0.5)
        assert exc.value.monitor == "sim-clock"
        assert suite.stats.violations == 1

    def test_counter_monotonicity(self):
        suite = MonitorSuite()
        mee = make_mee()
        suite.attach_mee(mee, "tenant1")
        mee.write_line(0, 0, b"first")  # primes the shadow via the hook
        mee.write_line(0, 0, b"second")  # advances past it
        # replaying a commit without advancing the counter must trip
        with pytest.raises(InvariantViolation) as exc:
            suite.after_mee_commit(mee, 0, 0)
        assert exc.value.monitor == "counter-monotonic"
        assert exc.value.component == "tenant1"

    def test_reattach_resets_counter_shadows(self):
        suite = MonitorSuite()
        mee = make_mee()
        suite.attach_mee(mee, "tenant1")
        mee.write_line(0, 0, b"old-generation")
        fresh = make_mee()  # a restarted tenant starts counting from zero
        suite.attach_mee(fresh, "tenant1")
        fresh.write_line(0, 0, b"new-generation")  # must not trip

    def test_merkle_root_check_catches_counter_tampering(self):
        suite = MonitorSuite()
        mee = make_mee()
        suite.attach_mee(mee, "tenant1")
        mee.write_line(0, 0, b"payload")
        mee._counters[0].minors[0] += 1  # diverge counters from the tree
        mee._ser_cache.pop(0, None)
        with pytest.raises(InvariantViolation) as exc:
            suite.after_mee_commit(mee, 0, 0)
        assert exc.value.monitor == "merkle-root"

    def test_armed_ftl_monitor_catches_seeded_mapping_corruption(self):
        ftl = make_ftl()
        for lpa in range(40):
            ftl.write(lpa, f"v{lpa}".encode())
        suite = MonitorSuite()
        suite.attach_ftl(ftl)
        suite.after_ftl_step(ftl, "healthy")  # clean state passes
        # corrupt the forward map behind the reverse index's back
        victim = ftl.mapping._forward[7]
        ftl.mapping._forward[7] = MappingEntry(ppa=victim.ppa + 1, owner=victim.owner)
        with pytest.raises(InvariantViolation) as exc:
            suite.after_ftl_step(ftl, "corrupted")
        assert exc.value.monitor == "ftl-mapping"
        assert "[corrupted]" in exc.value.detail
        assert suite.stats.violations == 1

    def test_disabled_monitor_sees_nothing(self):
        ftl = make_ftl()
        for lpa in range(20):
            ftl.write(lpa, b"x")
        victim = ftl.mapping._forward[3]
        ftl.mapping._forward[3] = MappingEntry(ppa=victim.ppa + 1, owner=victim.owner)
        ftl.write(100, b"still-works")  # no monitor, no raise


class TestPowerLossRebuildFailsLoudly:
    """Satellite: a rebuild that produces a corrupt map must not be silent."""

    def _corrupted_ftl(self):
        ftl = make_ftl()
        for lpa in range(60):
            ftl.write(lpa, f"v{lpa}".encode())
        # erase one mapped page's OOB journal entry: after the cut the
        # rebuild cannot re-map it, leaving an orphaned VALID page
        ftl.chip._oob.pop(ftl.translate(17))
        return ftl

    def test_structured_error_and_reliability_counter(self):
        ftl = self._corrupted_ftl()
        with pytest.raises(MappingIntegrityError) as exc:
            ftl.recover_from_power_loss()
        assert exc.value.where == "power-loss recovery"
        assert exc.value.problems
        assert ftl.reliability.recovery_integrity_failures == 1
        assert ftl.reliability.power_loss_recoveries == 0  # not a success

    def test_armed_monitor_reports_the_same_failure(self):
        ftl = self._corrupted_ftl()
        suite = MonitorSuite()
        suite.attach_ftl(ftl)
        with pytest.raises(InvariantViolation) as exc:
            ftl.recover_from_power_loss()
        assert exc.value.monitor == "ftl-mapping"
        assert suite.stats.violations == 1

    def test_healthy_rebuild_still_passes_through_the_check(self):
        ftl = make_ftl()
        for lpa in range(60):
            ftl.write(lpa, f"v{lpa}".encode())
        suite = MonitorSuite()
        suite.attach_ftl(ftl)
        report = ftl.recover_from_power_loss()
        assert report.mappings_recovered == 60
        assert ftl.reliability.power_loss_recoveries == 1
        assert suite.stats.invariant_checks >= 1
        assert suite.stats.violations == 0


class TestCrashPointOracle:
    def test_crash_points_are_interior_and_sorted(self):
        points = crash_points(1200, 9)
        assert points == sorted(points)
        assert len(points) == 9
        assert all(0 < p < 1200 for p in points)
        with pytest.raises(ValueError):
            crash_points(1, 3)

    def test_acceptance_sweep_passes(self):
        """The headline guarantee: >= 25 crash points over >= 3 seeds."""
        stats = RecoveryStats()
        report = run_oracle(
            "tpch-q1", 0.5, base_seed=42, seeds=3, points=9, ops=300, stats=stats
        )
        assert len(report.points) == 27
        assert len({p.seed for p in report.points}) == 3
        assert report.all_passed
        assert report.corruption_rejected
        assert stats.oracle_points_passed == 27
        assert stats.snapshots_taken == 27
        assert stats.restores == 27

    def test_cuts_after_garbage_collection_pass(self):
        """At write ratio 0.9 every cut past op 500 lands after GC ran."""
        report = run_oracle("tpch-q1", 0.9, base_seed=42, seeds=1, points=5, ops=3000)
        assert [p.crash_op for p in report.points] == [500, 1000, 1500, 2000, 2500]
        assert report.all_passed
        # the sweep keeps covering GC only while GC relocates before the last cut
        runner = ChaosRunner("tpch-q1", 0.9, seed=42, ops=3000)
        runner.run_until(report.points[-1].crash_op)
        assert runner.ftl.stats.gc_relocations > 0

    def test_report_requires_points_and_corruption_probe(self):
        from repro.recovery.oracle import OracleReport

        empty = OracleReport(subject="oracle w", scope="100 ops each")
        assert not empty.all_passed
        empty.corruption_rejected = True
        assert not empty.all_passed  # still no points


class TestSoak:
    def test_kill_resume_verify(self, tmp_path):
        state_dir = str(tmp_path / "soak")
        args = dict(
            workload="tpch-q1", write_ratio=0.5, seed=21, ops=300,
            state_dir=state_dir, checkpoint_every=100,
        )
        code, result = run_soak(kill_at=150, **args)
        assert code == SOAK_KILLED_EXIT and result is None
        stats = RecoveryStats()
        code, result = run_soak(verify=True, stats=stats, **args)
        assert code == 0
        assert result.verified is True
        assert result.resumed_from_op == 100  # last checkpoint before the kill
        assert stats.restores == 1

    def test_planted_pickle_in_state_dir_never_runs(self, tmp_path):
        """A hostile newest snapshot is skipped, and nothing in it runs."""
        state_dir = tmp_path / "soak"
        marker = tmp_path / "marker"
        args = dict(
            workload="tpch-q1", write_ratio=0.5, seed=21, ops=300,
            state_dir=str(state_dir), checkpoint_every=100,
        )
        code, _ = run_soak(kill_at=150, **args)
        assert code == SOAK_KILLED_EXIT
        planted = state_dir / "tpch-q1-seed21-op000250.snap"
        planted.write_bytes(pickle.dumps(PlantMarker(str(marker))))
        log = []
        code, result = run_soak(verify=True, log=log.append, **args)
        assert not marker.exists()
        assert any(line.startswith(f"skipping unusable snapshot {planted}") for line in log)
        assert code == 0 and result.verified is True
        assert result.resumed_from_op == 100

    def test_campaigns_skip_completed_seeds(self, tmp_path):
        state_dir = str(tmp_path / "soak")
        args = dict(
            workload="tpch-q1", write_ratio=0.5, seed=5, ops=120,
            state_dir=state_dir, checkpoint_every=60, campaigns=2,
        )
        code, results = run_soak_campaigns(**args)
        assert code == 0 and len(results) == 2
        assert sorted(load_results(state_dir)) == ["5", "6"]
        log = []
        code, rerun = run_soak_campaigns(log=log.append, **args)
        assert code == 0 and rerun == []  # nothing re-run
        assert any("already completed" in line for line in log)

    def test_csv_rows_shape(self, tmp_path):
        state_dir = str(tmp_path / "soak")
        stats = RecoveryStats()
        _, results = run_soak_campaigns(
            "tpch-q1", 0.5, 9, 120, state_dir, checkpoint_every=60, stats=stats
        )
        rows = recovery_csv_rows(results, stats)
        assert rows[0][:5] == ["workload", "seed", "ops", "fingerprint", "chaos_violations"]
        assert "snapshots_taken" in rows[0]
        assert len(rows) == 2
        assert all(len(row) == len(rows[0]) for row in rows)


class TestMetricsSurface:
    def test_recovery_counters_reach_run_result_fingerprint(self):
        stats = RecoveryStats()
        stats.invariant_checks = 7
        stats.snapshots_taken = 2
        a = RunResult(workload="w", scheme="s", total_time=1.0)
        b = RunResult(workload="w", scheme="s", total_time=1.0)
        assert a.fingerprint() == b.fingerprint()
        a.record_recovery(stats)
        assert a.fingerprint() != b.fingerprint()
        assert a.recovery["invariant_checks"] == 7.0


class TestRecoveryCli:
    def test_oracle_command_exits_clean(self, capsys):
        code = main(["oracle", "tpch-q1", "--ops", "150", "--seeds", "1", "--points", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "byte-identical  : 3/3" in out
        assert "rejected (content fingerprint)" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--points", "0"], "--points must be >= 1"),
            (["--seeds", "0"], "--seeds must be >= 1"),
            (["--ops", "1"], "--ops must be >= 2"),
        ],
    )
    def test_oracle_command_rejects_bad_sweep(self, capsys, flags, message):
        assert main(["oracle", "tpch-q1"] + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_soak_command_kill_then_resume(self, tmp_path, capsys):
        state_dir = str(tmp_path / "soak")
        base = ["soak", "tpch-q1", "--ops", "200", "--checkpoint-every", "80",
                "--state-dir", state_dir]
        assert main(base + ["--kill-at", "100"]) == SOAK_KILLED_EXIT
        csv_path = str(tmp_path / "new" / "soak.csv")  # soak creates the directory
        code = main(base + ["--verify", "--csv", csv_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed from" in out
        assert "byte-identical" in out
        with open(csv_path) as f:
            header = f.readline()
        assert header.startswith("workload,seed,ops,fingerprint")


GEOMETRY = tiny_geometry()


class RecoveryMachine(RuleBasedStateMachine):
    """I/O, GC pressure, chaos faults, and snapshot/restore, interleaved.

    The FTL (plus its ECC and reliability state) is checkpointed and
    restored mid-workload; a reference dict is checkpointed alongside it.
    After any interleaving, reads must match the model and the mapping
    invariants must hold.
    """

    def __init__(self):
        super().__init__()
        self.ftl = make_ftl(seed=17)
        self.model = {}
        self.max_live = self.ftl.logical_pages // 2
        self.checkpoint = None  # (ftl_state, model_copy)

    @rule(lpa=st.integers(min_value=0, max_value=60),
          payload=st.binary(min_size=1, max_size=16))
    def write(self, lpa, payload):
        lpa = lpa % self.ftl.logical_pages
        if lpa not in self.model and len(self.model) >= self.max_live:
            return  # keep occupancy bounded so GC can always win
        self.ftl.write(lpa, payload)
        self.model[lpa] = payload

    @rule(lpa=st.integers(min_value=0, max_value=60))
    def trim(self, lpa):
        lpa = lpa % self.ftl.logical_pages
        if lpa in self.model:
            self.ftl.trim(lpa)
            del self.model[lpa]

    @rule(lpa=st.integers(min_value=0, max_value=60))
    def read(self, lpa):
        lpa = lpa % self.ftl.logical_pages
        if lpa in self.model:
            assert self.ftl.read_data(lpa) == self.model[lpa]

    @rule()
    def power_cut_and_recover(self):
        # DRAM state is lost and rebuilt from flash; data must survive
        self.ftl.recover_from_power_loss()

    @rule(extra_bits=st.integers(min_value=1, max_value=6))
    def read_burst(self, extra_bits):
        if not self.model:
            return
        self.ftl.ecc.inject(self.ftl.ecc.config.correctable_bits + extra_bits)
        lpa = sorted(self.model)[0]
        assert self.ftl.read_data(lpa) == self.model[lpa]

    @rule()
    def take_checkpoint(self):
        self.checkpoint = (self.ftl.snapshot_state(), dict(self.model))

    @precondition(lambda self: self.checkpoint is not None)
    @rule()
    def crash_and_restore(self):
        state, model = self.checkpoint
        self.ftl = make_ftl(seed=17)  # the old instance is the crash casualty
        self.ftl.restore_state(copy.deepcopy(state))
        self.model = dict(model)

    @invariant()
    def mapping_invariants_hold(self):
        assert self.ftl.check_mapping_integrity("stateful") == []

    @invariant()
    def model_agreement(self):
        assert len(self.ftl.mapping) == len(self.model)


TestRecoveryStateful = RecoveryMachine.TestCase
TestRecoveryStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
