"""Tests for FTL maintenance machinery: read-disturb refresh."""

import pytest

from repro.flash import FlashChip, PageState
from repro.flash.geometry import small_geometry
from repro.ftl import Ftl


def tiny_geometry():
    return small_geometry(channels=2, chips_per_channel=1, dies_per_chip=1,
                          planes_per_die=1, blocks_per_plane=8, pages_per_block=8)


class TestReadDisturb:
    def make_ftl(self, threshold=20):
        geo = tiny_geometry()
        chip = FlashChip(geo, store_data=True)
        return Ftl(geo, chip=chip, read_disturb_threshold=threshold)

    def test_hot_reads_trigger_refresh(self):
        ftl = self.make_ftl(threshold=10)
        ftl.write(0, b"hot page")
        # fill both planes' active blocks so LPA 0's block is sealed
        for i in range(1, 16):
            ftl.write(i, b"filler")
        for _ in range(10):
            ftl.read(0)
        assert ftl.stats.disturb_refreshes == 1

    def test_refresh_relocates_and_preserves_data(self):
        ftl = self.make_ftl(threshold=10)
        for i in range(16):
            ftl.write(i, f"page-{i}".encode())
        old_ppa = ftl.translate(0)
        cost = None
        for _ in range(10):
            cost = ftl.read(0)
        assert cost is not None and cost.block_erases == 1
        assert ftl.translate(0) != old_ppa  # moved
        for i in range(16):
            assert ftl.read_data(i) == f"page-{i}".encode()

    def test_counter_resets_after_refresh(self):
        ftl = self.make_ftl(threshold=10)
        for i in range(16):
            ftl.write(i, b"x")
        for _ in range(10):
            ftl.read(0)
        assert ftl.stats.disturb_refreshes == 1
        for _ in range(9):
            ftl.read(0)
        assert ftl.stats.disturb_refreshes == 1  # not yet at threshold again

    def test_active_block_never_refreshed(self):
        ftl = self.make_ftl(threshold=3)
        ftl.write(0, b"in the active block")
        for _ in range(10):
            ftl.read(0)
        assert ftl.stats.disturb_refreshes == 0
        assert ftl.read_data(0) == b"in the active block"

    def test_default_threshold_is_high(self):
        ftl = self.make_ftl(threshold=100_000)
        ftl.write(0, b"x")
        for _ in range(500):
            ftl.read(0)
        assert ftl.stats.disturb_refreshes == 0

    def test_invalid_threshold(self):
        geo = tiny_geometry()
        with pytest.raises(ValueError):
            Ftl(geo, chip=FlashChip(geo), read_disturb_threshold=0)

