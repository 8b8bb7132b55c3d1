"""Tests for the synthetic I/O trace generators + SSD system replay."""

import pytest

from repro.flash.geometry import small_geometry
from repro.flash.traces import (
    GENERATORS,
    TraceConfig,
    random_read,
    sequential_read,
    sequential_write,
    transaction_mix,
    zipf_write,
)
from repro.ftl.ssd_system import SsdSystem


def cfg(pages=64, length=100, seed=3):
    return TraceConfig(logical_pages=pages, length=length, seed=seed)


class TestGenerators:
    def test_sequential_read_order(self):
        reqs = list(sequential_read(cfg(length=5)))
        assert reqs == [("read", i) for i in range(5)]

    def test_sequential_wraps(self):
        reqs = list(sequential_read(cfg(pages=4, length=6)))
        assert [lpa for _, lpa in reqs] == [0, 1, 2, 3, 0, 1]

    def test_random_read_in_range_and_deterministic(self):
        a = list(random_read(cfg()))
        b = list(random_read(cfg()))
        assert a == b
        assert all(0 <= lpa < 64 for _, lpa in a)

    def test_zipf_write_concentrates_on_hot_region(self):
        reqs = list(zipf_write(cfg(pages=100, length=2000), hot_fraction=0.1,
                               hot_probability=0.9))
        hot = sum(1 for _, lpa in reqs if lpa < 10)
        assert hot / len(reqs) == pytest.approx(0.9, abs=0.05)

    def test_transaction_mix_first_touch_is_write(self):
        """A read-modify-write mix never reads an unwritten page."""
        written = set()
        for op, lpa in transaction_mix(cfg(length=500), write_ratio=0.2):
            if op == "read":
                assert lpa in written
            else:
                written.add(lpa)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            TraceConfig(logical_pages=0, length=1)
        with pytest.raises(ValueError):
            list(zipf_write(cfg(), hot_fraction=0.0))
        with pytest.raises(ValueError):
            list(transaction_mix(cfg(), write_ratio=1.5))

    def test_registry_complete(self):
        assert set(GENERATORS) == {
            "sequential-read", "sequential-write", "random-read",
            "zipf-write", "transaction-mix",
        }


class TestReplayOnSsd:
    def make_ssd(self):
        geometry = small_geometry(channels=2, chips_per_channel=1, dies_per_chip=1,
                                  planes_per_die=2, blocks_per_plane=8,
                                  pages_per_block=8)
        return SsdSystem(geometry=geometry)

    def replay(self, ssd, trace):
        for op, lpa in trace:
            if op == "write":
                ssd.write(lpa)
            else:
                ssd.read(lpa)
        return ssd.run_to_completion()

    def test_populate_then_scan(self):
        ssd = self.make_ssd()
        pages = ssd.ftl.logical_pages // 2
        self.replay(ssd, sequential_write(cfg(pages=pages, length=pages)))
        self.replay(ssd, sequential_read(cfg(pages=pages, length=pages)))
        assert ssd.stats.reads_issued == pages
        assert ssd.stats.read_latency.count == pages

    def test_zipf_churn_triggers_gc(self):
        ssd = self.make_ssd()
        pages = ssd.ftl.logical_pages // 2
        trace = zipf_write(cfg(pages=pages, length=ssd.geometry.total_pages * 3))
        self.replay(ssd, trace)
        assert ssd.ftl.stats.gc_erases > 0
        assert ssd.write_amplification() >= 1.0

    def test_skewed_writes_cost_more_than_sequential(self):
        """Zipf churn triggers GC work that sequential population avoids."""
        seq = self.make_ssd()
        pages = seq.ftl.logical_pages // 2
        length = seq.geometry.total_pages * 3
        self.replay(seq, sequential_write(cfg(pages=pages, length=length)))
        skew = self.make_ssd()
        self.replay(skew, zipf_write(cfg(pages=pages, length=length)))
        assert skew.ftl.stats.gc_relocations >= seq.ftl.stats.gc_relocations
