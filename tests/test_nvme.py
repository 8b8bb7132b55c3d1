"""Tests for the NVMe host-interface model."""

import math

import pytest

from repro.host.nvme import NvmeQueuePair, NvmeStatus, NvmeTiming
from repro.host.pcie import PcieLink
from repro.sim import Engine


def make_qp(queue_depth=64, device_latency=80e-6):
    engine = Engine()
    return engine, NvmeQueuePair(
        engine, PcieLink(), queue_depth=queue_depth, device_latency=device_latency
    )


class TestSingleCommand:
    def test_latency_composition(self):
        engine, qp = make_qp()
        cmd = qp.submit("read", 4096)
        qp.run()
        t = qp.timing
        floor = (t.doorbell_write + t.command_fetch + qp.device_latency
                 + t.interrupt_latency + t.completion_handling)
        assert cmd.latency is not None
        assert cmd.latency >= floor
        # a 4 KB read should finish well under a millisecond
        assert cmd.latency < 1e-3

    def test_bigger_transfer_longer_latency(self):
        engine, qp = make_qp()
        small = qp.submit("read", 4096)
        qp.run()
        engine2, qp2 = make_qp()
        large = qp2.submit("read", 1 << 20)
        qp2.run()
        assert large.latency > small.latency

    def test_invalid_opcode(self):
        _, qp = make_qp()
        with pytest.raises(ValueError):
            qp.submit("trim", 4096)

    def test_negative_size(self):
        _, qp = make_qp()
        with pytest.raises(ValueError):
            qp.submit("read", -1)

    def test_completion_callback(self):
        _, qp = make_qp()
        done = []
        qp.submit("write", 4096, on_done=done.append)
        qp.run()
        assert len(done) == 1
        assert done[0].opcode == "write"


class TestQueueing:
    def test_queue_depth_parallelism(self):
        """Deep queues overlap device latency; QD1 serializes it."""
        _, qd1 = make_qp(queue_depth=1)
        for _ in range(16):
            qd1.submit("read", 4096)
        t_qd1 = qd1.run()
        _, qd16 = make_qp(queue_depth=16)
        for _ in range(16):
            qd16.submit("read", 4096)
        t_qd16 = qd16.run()
        assert t_qd16 < t_qd1 / 4

    def test_all_commands_complete(self):
        _, qp = make_qp(queue_depth=4)
        for _ in range(50):
            qp.submit("read", 4096)
        qp.run()
        assert len(qp.completed) == 50
        assert all(c.latency is not None for c in qp.completed)

    def test_excess_commands_wait(self):
        """Commands beyond the queue depth see queueing delay."""
        _, qp = make_qp(queue_depth=1)
        first = qp.submit("read", 4096)
        second = qp.submit("read", 4096)
        qp.run()
        assert second.latency > first.latency

    def test_sequential_reads_approach_link_bandwidth(self):
        """Large sequential reads at depth should near the PCIe ceiling."""
        _, qp = make_qp(queue_depth=32, device_latency=50e-6)
        for _ in range(64):
            qp.submit("read", 1 << 20)  # 1 MB commands
        qp.run()
        throughput = qp.throughput_bytes_per_s()
        assert throughput > 0.7 * qp.link.effective_bandwidth
        assert throughput <= qp.link.effective_bandwidth * 1.01

    def test_small_random_reads_are_latency_bound(self):
        """4 KB commands cannot saturate the link — IOPS-bound instead."""
        _, qp = make_qp(queue_depth=4, device_latency=80e-6)
        for _ in range(64):
            qp.submit("read", 4096)
        qp.run()
        assert qp.throughput_bytes_per_s() < 0.5 * qp.link.effective_bandwidth

    def test_latency_percentiles_available(self):
        _, qp = make_qp(queue_depth=2)
        for _ in range(20):
            qp.submit("read", 4096)
        qp.run()
        assert qp.latency.percentile(99) >= qp.latency.percentile(50)


class TestTimeouts:
    def test_timeout_aborts_hung_command(self):
        """A hung die (infinite media time) completes via the abort timer."""
        engine, qp = make_qp()
        cmd = qp.submit("read", 4096, device_latency=math.inf, timeout=1e-3)
        engine.run(until=5e-3)
        assert cmd.status is NvmeStatus.COMMAND_ABORTED
        assert cmd.timed_out and cmd.failed
        assert cmd.latency == pytest.approx(1e-3)
        assert qp.timeouts == 1

    def test_timeout_releases_the_queue_slot(self):
        """The abort must free the slot or a hung die wedges the queue."""
        engine, qp = make_qp(queue_depth=1)
        hung = qp.submit("read", 4096, device_latency=math.inf, timeout=1e-3)
        queued = qp.submit("read", 4096)
        engine.run(until=5e-3)
        assert hung.timed_out
        assert queued.status is NvmeStatus.SUCCESS
        assert queued.completed_at > 1e-3  # issued only after the abort

    def test_timeout_of_a_still_queued_command(self):
        """A command that never got a slot aborts without freeing one."""
        engine, qp = make_qp(queue_depth=1)
        qp.submit("read", 4096, device_latency=math.inf)  # holds the slot
        waiting = qp.submit("read", 4096, timeout=1e-3)
        engine.run(until=5e-3)
        assert waiting.status is NvmeStatus.COMMAND_ABORTED
        assert qp.timeouts == 1

    def test_fast_completion_disarms_the_timer(self):
        engine, qp = make_qp()
        cmd = qp.submit("read", 4096, timeout=50e-3)
        engine.run(until=100e-3)
        assert cmd.status is NvmeStatus.SUCCESS
        assert qp.timeouts == 0
        assert cmd.timeout_event is None  # cancelled at completion

    def test_per_command_device_latency_override(self):
        engine, qp = make_qp(device_latency=80e-6)
        slow = qp.submit("read", 4096, device_latency=800e-6)
        qp.run()
        engine2, qp2 = make_qp(device_latency=80e-6)
        fast = qp2.submit("read", 4096)
        qp2.run()
        assert slow.latency > fast.latency
        assert slow.latency - fast.latency == pytest.approx(720e-6)


class _RefuseAll:
    def __init__(self):
        self.calls = []

    def admit(self, now, queued):
        self.calls.append((now, queued))
        return False


class TestAdmission:
    def test_shed_completes_inline_with_retryable_status(self):
        engine, qp = make_qp()
        qp.admission = _RefuseAll()
        cmd = qp.submit("read", 4096)
        # no engine.run(): the shed is synchronous at the doorbell
        assert cmd.status is NvmeStatus.COMMAND_INTERRUPTED
        assert cmd.status.is_retryable
        assert cmd.completed_at == engine.now
        assert qp.admission_rejections == 1

    def test_shed_consumes_no_queue_slot(self):
        engine, qp = make_qp(queue_depth=1)
        qp.admission = _RefuseAll()
        qp.submit("read", 4096)
        qp.admission = None  # controller relents
        accepted = qp.submit("read", 4096)
        qp.run()
        assert accepted.status is NvmeStatus.SUCCESS
        assert len(qp.completed) == 2

    def test_controller_sees_current_queue_occupancy(self):
        engine, qp = make_qp(queue_depth=1)
        refuser = _RefuseAll()
        qp.submit("read", 4096)  # admitted (no controller yet), holds the slot
        qp.submit("read", 4096)  # waits for the slot
        qp.admission = refuser
        qp.submit("read", 4096)
        assert refuser.calls == [(0.0, 2)]  # 1 in flight + 1 waiting


class TestStatusSemantics:
    def test_retryable_statuses(self):
        assert NvmeStatus.COMMAND_ABORTED.is_retryable
        assert NvmeStatus.COMMAND_INTERRUPTED.is_retryable
        assert not NvmeStatus.UNRECOVERED_READ_ERROR.is_retryable
        assert not NvmeStatus.SUCCESS.is_retryable

    def test_error_statuses(self):
        assert not NvmeStatus.SUCCESS.is_error
        assert NvmeStatus.COMMAND_ABORTED.is_error


class TestDrain:
    def test_drain_keeps_aggregates(self):
        engine, qp = make_qp()
        for _ in range(8):
            qp.submit("read", 4096)
        engine.run()
        assert qp.completed_count == 8
        assert qp.completed_bytes == 8 * 4096
        throughput = qp.throughput_bytes_per_s()
        assert qp.drain_completed() == 8
        assert qp.completed == []
        assert qp.completed_count == 8
        assert qp.throughput_bytes_per_s() == throughput
        for _ in range(4):
            qp.submit("write", 512)
        engine.run()
        assert qp.completed_count == 12
        assert qp.completed_bytes == 8 * 4096 + 4 * 512

    def test_held_record_survives_drain_and_resubmit(self):
        """A record the caller still holds is never rewritten by a later submit."""
        engine, qp = make_qp()
        held = qp.submit("read", 4096)
        engine.run()
        before = (held.opcode, held.nbytes, held.submitted_at,
                  held.completed_at, held.status)
        qp.drain_completed()
        fresh = qp.submit("write", 512)
        engine.run()
        assert fresh is not held
        assert (held.opcode, held.nbytes, held.submitted_at,
                held.completed_at, held.status) == before
