"""Tests for the integrated SSD system (FTL + event-driven flash)."""

import pytest

from repro.flash.geometry import small_geometry
from repro.flash.timing import FlashTiming
from repro.ftl.mapping import AccessDeniedError
from repro.ftl.ssd_system import SsdSystem


def tiny():
    return small_geometry(channels=2, chips_per_channel=1, dies_per_chip=1,
                          planes_per_die=1, blocks_per_plane=8, pages_per_block=8)


class TestBasicIo:
    def test_read_after_write(self):
        ssd = SsdSystem(geometry=tiny())
        ssd.write_many([0, 1, 2])
        ssd.read_many([0, 1, 2])
        assert ssd.stats.reads_issued == 3
        assert ssd.stats.read_latency.count == 3

    def test_read_latency_matches_device_timing(self):
        ssd = SsdSystem(geometry=tiny())
        ssd.write_many([0])
        ssd.read_many([0])
        t = ssd.device.timing
        expected = t.read_latency + t.transfer_time(ssd.geometry.page_bytes)
        assert ssd.mean_read_latency() == pytest.approx(expected)

    def test_write_latency_without_gc(self):
        ssd = SsdSystem(geometry=tiny())
        ssd.write_many([0])
        t = ssd.device.timing
        expected = t.transfer_time(ssd.geometry.page_bytes) + t.program_latency
        assert ssd.mean_write_latency() == pytest.approx(expected)

    def test_unmapped_read_raises(self):
        ssd = SsdSystem(geometry=tiny())
        with pytest.raises(KeyError):
            ssd.read(0)

    def test_permission_checked_read(self):
        ssd = SsdSystem(geometry=tiny())
        ssd.write(0, owner=3)
        ssd.run_to_completion()
        ssd.read(0, tee_id=3)
        with pytest.raises(AccessDeniedError):
            ssd.read(0, tee_id=5)

    def test_completion_callback_gets_latency(self):
        ssd = SsdSystem(geometry=tiny())
        seen = []
        ssd.write(0, on_done=seen.append)
        ssd.run_to_completion()
        assert len(seen) == 1 and seen[0] > 0

    def test_functional_storage(self):
        ssd = SsdSystem(geometry=tiny(), store_data=True)
        ssd.write(0, data=b"persisted")
        ssd.run_to_completion()
        assert ssd.ftl.read_data(0) == b"persisted"


class TestGcTiming:
    def test_gc_pauses_inflate_tail_latency(self):
        """Writes that trigger GC complete much later than plain writes."""
        ssd = SsdSystem(geometry=tiny())
        geo = ssd.geometry
        ssd.write_many([i % 4 for i in range(geo.total_pages * 2)])
        assert ssd.stats.gc_stalled_writes > 0
        plain = (ssd.device.timing.transfer_time(geo.page_bytes)
                 + ssd.device.timing.program_latency)
        assert ssd.p99_style_max_write() > 3 * plain

    def test_write_amplification_visible_in_device_counts(self):
        """Interleaved hot/cold writes leave live pages in GC victims, so
        relocations add device-level writes beyond the host's."""
        ssd = SsdSystem(geometry=tiny())
        geo = ssd.geometry
        cold = ssd.ftl.logical_pages // 2
        pattern = []
        for i in range(geo.total_pages * 2):
            # hot overwrites interleaved with cold (live-forever) pages
            pattern.append(i % 4 if i % 2 == 0 else 4 + (i // 2) % cold)
        ssd.write_many(pattern)
        host_writes = len(pattern)
        assert ssd.ftl.stats.gc_relocations > 0
        assert ssd.device.page_writes > host_writes
        assert ssd.device.block_erases > 0

    def test_sequential_writes_no_gc(self):
        ssd = SsdSystem(geometry=tiny())
        # half the logical space once: no overwrites, no GC needed
        ssd.write_many(list(range(ssd.ftl.logical_pages // 2)))
        assert ssd.stats.gc_stalled_writes == 0


class TestParallelism:
    def test_channel_parallel_reads_faster_than_serial(self):
        geo = tiny()
        ssd = SsdSystem(geometry=geo)
        ssd.write_many(list(range(8)))
        engine_reset = ssd.engine.now
        elapsed_parallel = ssd.read_many(list(range(8))) - engine_reset
        # a serial device would need 8 full read latencies
        serial = 8 * (ssd.device.timing.read_latency
                      + ssd.device.timing.transfer_time(geo.page_bytes))
        assert elapsed_parallel < serial

    def test_slow_flash_slows_everything(self):
        fast = SsdSystem(geometry=tiny(), timing=FlashTiming(read_latency=10e-6))
        slow = SsdSystem(geometry=tiny(), timing=FlashTiming(read_latency=110e-6))
        for ssd in (fast, slow):
            ssd.write_many(list(range(8)))
            ssd.read_many(list(range(8)))
        assert slow.mean_read_latency() > fast.mean_read_latency()
