"""Tests for the fault-injection subsystem: plans, recovery, chaos runs."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.config import IceClaveConfig
from repro.core.exceptions import IntegrityError
from repro.faults import (
    EnclaveIntegrityGuard,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanConfig,
    PowerLossError,
    run_chaos,
)
from repro.flash import FlashChip
from repro.flash.chip import DieFailureError
from repro.flash.ecc import EccModel, EccUncorrectableError, ReadRetryPolicy
from repro.flash.geometry import small_geometry
from repro.ftl.ftl import Ftl, UncorrectableReadError
from repro.host.nvme import NvmeStatus, status_for_exception
from repro.sim.stats import ReliabilityStats


def tiny_geometry(**kw):
    defaults = dict(channels=2, chips_per_channel=1, dies_per_chip=2,
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


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        a = FaultPlan.generate(99, 1000)
        b = FaultPlan.generate(99, 1000)
        assert a.events == b.events

    def test_different_seed_different_plan(self):
        a = FaultPlan.generate(1, 1000)
        b = FaultPlan.generate(2, 1000)
        assert a.events != b.events

    def test_counts_match_config(self):
        config = FaultPlanConfig(read_bursts=4, die_failures=2, power_losses=3)
        plan = FaultPlan.generate(5, 500, config)
        counts = plan.by_kind()
        assert counts[FaultKind.READ_BURST] == 4
        assert counts[FaultKind.DIE_FAILURE] == 2
        assert counts[FaultKind.POWER_LOSS] == 3
        assert len(plan.events) == config.total()

    def test_events_avoid_warmup_and_final_op(self):
        plan = FaultPlan.generate(7, 1000)
        for event in plan.events:
            assert 100 <= event.op_index < 999

    def test_events_sorted_by_op(self):
        plan = FaultPlan.generate(11, 1000)
        indices = [e.op_index for e in plan.events]
        assert indices == sorted(indices)


class TestReadRetryAndRemap:
    def test_burst_recovered_by_retry_then_scrubbed(self):
        ftl = make_ftl()
        ftl.write(7, b"payload-7")
        old_ppa = ftl.translate(7)
        t = ftl.ecc.config.correctable_bits
        ftl.ecc.inject(t + 5)
        cost = ftl.read(7)
        assert cost.read_retries >= 1
        assert cost.remapped
        assert ftl.translate(7) != old_ppa  # scrubbed to a fresh page
        assert ftl.chip.read(ftl.translate(7)) == b"payload-7"
        assert ftl.reliability.read_retries >= 1
        assert ftl.reliability.remaps == 1
        assert ftl.reliability.faults_recovered >= 1

    def test_hard_uncorrectable_is_fatal_and_unmapped(self):
        ftl = make_ftl()
        ftl.write(3, b"doomed")
        ftl.ecc.inject(100 * ftl.ecc.config.correctable_bits)
        with pytest.raises(UncorrectableReadError):
            ftl.read(3)
        assert 3 not in ftl.mapping  # stable error on subsequent reads
        assert ftl.reliability.faults_fatal == 1

    def test_inline_correctable_needs_no_retry(self):
        ftl = make_ftl()
        ftl.write(1, b"fine")
        ftl.ecc.inject(ftl.ecc.config.correctable_bits // 2)
        cost = ftl.read(1)
        assert cost.read_retries == 0
        assert not cost.remapped
        assert ftl.reliability.errors_corrected > 0


class TestPowerLossRecovery:
    def test_mappings_survive_clean_cut(self):
        ftl = make_ftl()
        data = {lpa: f"v{lpa}".encode() for lpa in range(100)}
        for lpa, payload in data.items():
            ftl.write(lpa, payload)
        for lpa in range(0, 100, 3):  # overwrites leave stale copies behind
            data[lpa] = f"v{lpa}'".encode()
            ftl.write(lpa, data[lpa])
        report = ftl.recover_from_power_loss()
        assert report.mappings_recovered == 100
        assert ftl.reliability.power_loss_recoveries == 1
        for lpa, payload in data.items():
            assert ftl.chip.read(ftl.translate(lpa)) == payload

    def test_gc_still_works_after_recovery(self):
        ftl = make_ftl()
        for lpa in range(60):
            ftl.write(lpa, f"a{lpa}".encode())
        ftl.recover_from_power_loss()
        # enough churn to force several GC passes on the rebuilt allocator
        for round_ in range(6):
            for lpa in range(60):
                ftl.write(lpa, f"r{round_}-{lpa}".encode())
        assert ftl.stats.gc_erases > 0
        for lpa in range(60):
            assert ftl.chip.read(ftl.translate(lpa)) == f"r5-{lpa}".encode()

    def test_mid_gc_cut_newest_copy_wins(self):
        ftl = make_ftl()
        cut = {"armed": True}

        def hook(point):
            if cut["armed"] and point == "gc_mid_relocate":
                cut["armed"] = False
                raise PowerLossError(point)

        ftl.gc.fault_hook = hook
        # interleave hot rewrites with colder data so GC victim blocks still
        # hold valid pages — only then does a relocation (and the armed cut)
        # actually happen
        data = {}
        raised = False
        try:
            for i in range(4000):
                hot = i % 40
                cold = 40 + (i % 200)
                for lpa, payload in ((hot, f"h{i}"), (cold, f"c{i}")):
                    ftl.write(lpa, payload.encode())
                    data[lpa] = payload.encode()
        except PowerLossError:
            raised = True
        assert raised, "GC never relocated a valid page; cut not exercised"
        report = ftl.recover_from_power_loss()
        # the interrupted relocation left two VALID copies of one LPA; the
        # rebuild must keep the newer and discard the stale one
        assert report.stale_copies_discarded >= 1
        for lpa, payload in data.items():
            assert ftl.chip.read(ftl.translate(lpa)) == payload


class TestDieFailure:
    def test_quarantine_drops_only_stranded_mappings(self):
        ftl = make_ftl()
        for lpa in range(80):
            ftl.write(lpa, f"d{lpa}".encode())
        on_die0 = [lpa for lpa in range(80)
                   if ftl.chip.die_of_ppa(ftl.translate(lpa)) == 0]
        survivors = [lpa for lpa in range(80) if lpa not in on_die0]
        assert on_die0 and survivors
        ftl.chip.fail_die(0)
        lost = ftl.quarantine_die(0)
        assert lost == len(on_die0)
        for lpa in on_die0:
            assert lpa not in ftl.mapping
        for lpa in survivors:
            assert ftl.chip.read(ftl.translate(lpa)) == f"d{lpa}".encode()

    def test_writes_continue_on_surviving_dies(self):
        ftl = make_ftl()
        for lpa in range(40):
            ftl.write(lpa, f"x{lpa}".encode())
        ftl.chip.fail_die(1)
        ftl.quarantine_die(1)
        for lpa in range(40):
            cost = ftl.write(lpa, f"y{lpa}".encode())
            assert ftl.chip.die_of_ppa(cost.ppa) != 1


class TestNvmeStatusMapping:
    def test_exception_to_status(self):
        assert status_for_exception(
            EccUncorrectableError("too many raw errors", raw_errors=99)
        ) is NvmeStatus.UNRECOVERED_READ_ERROR
        assert status_for_exception(
            UncorrectableReadError(1, 2, "gone")
        ) is NvmeStatus.UNRECOVERED_READ_ERROR
        assert status_for_exception(
            DieFailureError(0)
        ) is NvmeStatus.UNRECOVERED_READ_ERROR
        assert status_for_exception(ValueError()) is NvmeStatus.INTERNAL_ERROR

    def test_host_read_of_lost_page_gets_error_status_not_crash(self):
        ftl = make_ftl()
        ftl.write(9, b"will-vanish")
        ftl.ecc.inject(100 * ftl.ecc.config.correctable_bits)
        status = NvmeStatus.SUCCESS
        try:
            ftl.read(9)
        except UncorrectableReadError as exc:
            status = status_for_exception(exc)
        assert status is NvmeStatus.UNRECOVERED_READ_ERROR


class TestEnclaveContainment:
    def _guard(self):
        guard = EnclaveIntegrityGuard()
        for tee_id in (1, 2):
            guard.register(tee_id, pages=4, aes_key=bytes([tee_id]) * 16,
                           mac_key=bytes([9 + tee_id]) * 16)
            for line in range(4):
                guard.write(tee_id, 0, line, f"t{tee_id}l{line}".encode())
        return guard

    def test_corruption_aborts_only_affected_tenant(self):
        guard = self._guard()
        guard.tenants[1].mee.tamper_mac(0, 2)
        aborts = guard.sweep()
        assert [m.tee_id for m in aborts] == [1]
        assert guard.live_tenants() == [2]
        # the neighbour still decrypts and verifies
        assert guard.read(2, 0, 1) == b"t2l1"
        assert guard.stats.tenant_aborts == 1

    def test_merkle_corruption_detected(self):
        guard = self._guard()
        guard.tenants[2].mee.tamper_counter_tree(0)
        aborts = guard.sweep()
        assert [m.tee_id for m in aborts] == [2]
        assert guard.live_tenants() == [1]

    def test_restart_provisions_fresh_generation(self):
        guard = self._guard()
        guard.tenants[1].mee.tamper_ciphertext(0, 0)
        guard.sweep()
        tenant = guard.restart(1)
        assert tenant.generation == 1
        guard.write(1, 0, 0, b"reborn")
        assert guard.read(1, 0, 0) == b"reborn"

    def test_detection_is_an_integrity_error(self):
        guard = self._guard()
        guard.tenants[1].mee.tamper_ciphertext(0, 3)
        with pytest.raises(IntegrityError):
            guard.tenants[1].mee.read_line(0, 3)

    def test_restart_replays_committed_writes(self):
        """Regression: a post-restart read of the last committed line must
        round-trip — the tamper dies with the old MEE state, not the data."""
        guard = self._guard()
        guard.write(1, 2, 1, b"last-commit")  # the final committed write
        guard.tenants[1].mee.tamper_mac(0, 2)
        guard.sweep()
        tenant = guard.restart(1)
        assert tenant.generation == 1
        assert guard.read(1, 2, 1) == b"last-commit"
        for line in range(4):
            assert guard.read(1, 0, line) == f"t1l{line}".encode()
        assert guard.live_tenants() == [1, 2]

    def test_restart_replays_last_write_wins(self):
        """The journal is an epoch: an overwritten line replays its newest
        payload, in original first-write order."""
        guard = self._guard()
        guard.write(1, 0, 1, b"v2-overwrite")
        guard.tenants[1].mee.tamper_ciphertext(0, 3)
        guard.sweep()
        guard.restart(1)
        assert guard.read(1, 0, 1) == b"v2-overwrite"
        assert guard.read(1, 0, 0) == b"t1l0"

    def test_restart_without_replay_is_scorched_earth(self):
        guard = self._guard()
        guard.tenants[1].mee.tamper_mac(0, 0)
        guard.sweep()
        tenant = guard.restart(1, replay=False)
        assert tenant.lines_written == [] and tenant.journal == {}
        # the fresh enclave accepts new writes immediately
        guard.write(1, 0, 0, b"fresh-start")
        assert guard.read(1, 0, 0) == b"fresh-start"

    def test_overflow_write_that_finds_a_tampered_line_aborts_only_that_tenant(self):
        """A minor-counter overflow verifies the page's other resident lines
        before re-keying them; what it finds is contained like a read."""
        guard = self._guard()
        guard.tenants[1].mee.tamper_ciphertext(0, 0)
        limit = IceClaveConfig().minor_counter_limit
        # line (0, 1) was seeded once, so its (limit - 1)-th write here is
        # the limit-th in all: the one that overflows and finds line (0, 0)
        for _ in range(limit - 2):
            guard.write(1, 0, 1, b"churn")
        assert guard.live_tenants() == [1, 2]
        guard.write(1, 0, 1, b"lost")
        assert guard.live_tenants() == [2]
        assert guard.tenants[1].journal[(0, 1)] == b"churn"  # the last commit before it
        assert guard.read(2, 0, 0) == b"t2l0"
        assert guard.stats.tenant_aborts == 1
        guard.restart(1)
        assert guard.read(1, 0, 1) == b"churn"

    def test_restart_of_live_tenant_is_refused(self):
        guard = self._guard()
        with pytest.raises(ValueError):
            guard.restart(2)

    def test_pair_from_before_a_restart_is_refused(self):
        """A restarted tenant's counters continue one major up, so a pair
        captured before the restart does not verify after it."""
        guard = EnclaveIntegrityGuard()
        guard.register(1, 2, b"k" * 16, b"m" * 16)
        guard.write(1, 0, 0, b"v1-old")
        old = guard.tenants[1].mee
        stale = (old.dram_ciphertext[(0, 0)], old.dram_macs[(0, 0)])
        guard.write(1, 0, 0, b"v2-new")
        guard.write(1, 0, 1, b"other")
        old.tamper_ciphertext(0, 1)
        assert guard.read(1, 0, 1) is None  # the tenant aborts
        guard.restart(1)
        mee = guard.tenants[1].mee
        assert mee.counters.pair(0, 0) == (1, 1)  # not (0, 1) again
        mee.dram_ciphertext[(0, 0)], mee.dram_macs[(0, 0)] = stale
        assert guard.read(1, 0, 0) is None
        assert guard.live_tenants() == []

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3)), min_size=1, max_size=10),
        st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_no_pair_of_one_generation_verifies_in_the_next(self, writes, restarts):
        guard = EnclaveIntegrityGuard()
        guard.register(1, 2, b"k" * 16, b"m" * 16)
        for generation in range(restarts):
            captured = []
            for i, (page, line) in enumerate(writes):
                guard.write(1, page, line, bytes([generation, i]) * 4)
                mee = guard.tenants[1].mee
                captured.append(
                    (page, line, mee.dram_ciphertext[(page, line)], mee.dram_macs[(page, line)])
                )
            page, line = writes[0]
            guard.tenants[1].mee.tamper_mac(page, line)
            assert guard.read(1, page, line) is None
            nxt = guard.restart(1).mee
            for page, line, ciphertext, mac in captured:
                kept = (nxt.dram_ciphertext[(page, line)], nxt.dram_macs[(page, line)])
                nxt.dram_ciphertext[(page, line)], nxt.dram_macs[(page, line)] = ciphertext, mac
                with pytest.raises(IntegrityError):
                    nxt.read_line(page, line)
                nxt.dram_ciphertext[(page, line)], nxt.dram_macs[(page, line)] = kept
            for page, line in writes:
                assert guard.read(1, page, line) is not None  # the replay round-trips


class TestChaosDeterminism:
    def test_same_seed_identical_log_and_stats(self):
        a = run_chaos("tpch-q1", write_ratio=0.05, seed=42, ops=1200)
        b = run_chaos("tpch-q1", write_ratio=0.05, seed=42, ops=1200)
        assert a.event_log == b.event_log
        assert a.reliability == b.reliability
        assert a.nvme_statuses == b.nvme_statuses
        assert a.ftl_counters == b.ftl_counters
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_diverges(self):
        a = run_chaos("tpch-q1", write_ratio=0.05, seed=1, ops=1200)
        b = run_chaos("tpch-q1", write_ratio=0.05, seed=2, ops=1200)
        assert a.fingerprint() != b.fingerprint()

    def test_every_nonfatal_class_recovers(self):
        report = run_chaos("tpcc", write_ratio=0.4, seed=42, ops=1500)
        rel = report.reliability
        assert report.invariant_violations == 0
        assert rel["faults_injected"] == FaultPlanConfig().total()
        assert rel["power_loss_recoveries"] >= 2  # clean cut + mid-GC (or fallback)
        assert rel["tenant_aborts"] == 2
        assert rel["read_retries"] >= 1
        assert rel["remaps"] >= 1
        assert rel["dies_failed"] == 1
        assert rel["added_latency_s"] > 0

    def test_reliability_counters_reach_run_result(self):
        from repro.platform.metrics import RunResult

        report = run_chaos("tpch-q1", write_ratio=0.05, seed=3, ops=1200)
        result = RunResult.from_chaos(report)
        assert result.reliability["faults_injected"] == report.reliability["faults_injected"]
        assert result.scheme == "chaos"


class TestChaosCli:
    def test_chaos_command_exits_clean(self, capsys):
        assert main(["chaos", "tpch-q1", "--seed", "42", "--ops", "1000"]) == 0
        out = capsys.readouterr().out
        assert "deterministic: yes" in out
        assert "faults injected" in out
        assert "faults recovered" in out
        assert "faults fatal" in out

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
    )
    def test_peak_rss_flat_in_run_length(self):
        """A 10x longer chaos run peaks within 10% of the shorter one's RSS.

        Each run is its own child process that reads its own ``VmHWM``: a
        child's ``ru_maxrss`` would carry over from this process on Linux.
        """
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        child = (
            "import sys\n"
            "from repro.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as f:\n"
            "    print(next(line for line in f if line.startswith('VmHWM:')), end='')\n"
            "sys.exit(code)\n"
        )
        peaks = {}
        for ops in (1500, 15000):
            out = subprocess.run(
                [sys.executable, "-c", child,
                 "chaos", "tpch-q1", "--seed", "42", "--ops", str(ops)],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True, text=True, check=True,
            )
            peaks[ops] = int(out.stdout.splitlines()[-1].split()[1])  # kB
        assert peaks[15000] <= 1.10 * peaks[1500], peaks

    def test_seed_flag_accepted_by_run(self, capsys):
        assert main(["run", "filter", "--dataset-gb", "1", "--seed", "5"]) == 0

    def test_injector_requires_reliability_wiring(self):
        geometry = tiny_geometry()
        bare = Ftl(geometry, chip=FlashChip(geometry, store_data=True))
        plan = FaultPlan.generate(1, 100)
        with pytest.raises(ValueError):
            FaultInjector(plan, bare)
