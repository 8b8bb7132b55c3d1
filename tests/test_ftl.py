"""Tests for the FTL: mapping table, allocator, GC, wear leveling, cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash import FlashChip, PageState
from repro.flash.geometry import small_geometry
from repro.ftl import (
    Ftl,
    MappingCache,
    MappingEntry,
    MappingTable,
    PageAllocator,
    PUBLIC_ID,
)
from repro.ftl.mapping import AccessDeniedError, MAX_TEE_ID
from repro.ftl.page_allocator import OutOfSpaceError


def tiny_geometry(**kw):
    defaults = dict(channels=2, chips_per_channel=1, dies_per_chip=1,
                    planes_per_die=1, blocks_per_plane=8, pages_per_block=8)
    defaults.update(kw)
    return small_geometry(**defaults)


class TestMappingTable:
    def test_update_and_lookup(self):
        table = MappingTable(100)
        table.update(5, 42)
        assert table.lookup(5, tee_id=1).ppa == 42

    def test_unmapped_lookup_raises(self):
        with pytest.raises(KeyError):
            MappingTable(100).lookup(5, tee_id=1)

    def test_injective_ppa_enforced(self):
        table = MappingTable(100)
        table.update(1, 42)
        with pytest.raises(ValueError):
            table.update(2, 42)

    def test_remap_releases_old_ppa(self):
        table = MappingTable(100)
        old = table.update(1, 42)
        assert old is None
        old = table.update(1, 43)
        assert old == 42
        table.update(2, 42)  # 42 is free again

    def test_id_bits_access_control(self):
        """§4.3: a TEE cannot read entries owned by another TEE."""
        table = MappingTable(100)
        table.update(1, 42)
        table.set_id_bits(1, tee_id=3)
        assert table.lookup(1, tee_id=3).ppa == 42
        with pytest.raises(AccessDeniedError):
            table.lookup(1, tee_id=4)
        assert table.permission_denials == 1

    def test_public_entries_readable_by_all(self):
        table = MappingTable(100)
        table.update(1, 42)  # owner defaults to PUBLIC_ID
        for tee in (1, 2, MAX_TEE_ID):
            assert table.lookup(1, tee_id=tee).ppa == 42

    def test_clear_id_bits_releases_ownership(self):
        table = MappingTable(100)
        table.update(1, 42)
        table.update(2, 43)
        table.set_id_bits(1, tee_id=3)
        table.set_id_bits(2, tee_id=3)
        assert table.clear_id_bits(3) == 2
        assert table.lookup(1, tee_id=7).ppa == 42

    def test_id_bits_range_checked(self):
        table = MappingTable(100)
        table.update(1, 42)
        with pytest.raises(ValueError):
            table.set_id_bits(1, tee_id=MAX_TEE_ID + 1)

    def test_entry_packing_roundtrip(self):
        entry = MappingEntry(ppa=123456, owner=9)
        assert MappingEntry.unpack(entry.packed()) == entry

    def test_id_bits_storage_overhead_matches_paper(self):
        """Paper: 4 ID bits per 8-byte entry = 6.25% cost."""
        assert MappingTable(10).id_bits_overhead() == pytest.approx(0.0625)

    def test_unmap(self):
        table = MappingTable(100)
        table.update(1, 42)
        assert table.unmap(1) == 42
        assert 1 not in table
        assert table.unmap(1) is None

    @given(st.lists(st.tuples(st.integers(0, 49), st.integers(0, 199)), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_forward_reverse_consistency(self, updates):
        """Property: reverse map is exactly the inverse of the forward map."""
        table = MappingTable(50)
        used_ppas = {}
        for lpa, ppa in updates:
            if ppa in used_ppas and used_ppas[ppa] != lpa:
                continue  # would violate injectivity; table would reject
            old = table.entry_unchecked(lpa)
            if old is not None:
                used_ppas.pop(old.ppa, None)
            table.update(lpa, ppa)
            used_ppas[ppa] = lpa
        for lpa, entry in table.items():
            assert table.lpa_of_ppa(entry.ppa) == lpa


class TestPageAllocator:
    def test_allocates_sequentially_within_block(self):
        geo = tiny_geometry(channels=1)
        chip = FlashChip(geo)
        alloc = PageAllocator(geo, chip)
        ppas = [alloc.allocate(plane=0) for _ in range(geo.pages_per_block)]
        pages = [geo.decompose(p).page for p in ppas]
        assert pages == list(range(geo.pages_per_block))
        for ppa in ppas:
            chip_block = geo.block_of(ppa)
            assert chip_block == geo.block_of(ppas[0])

    def test_round_robin_stripes_planes(self):
        geo = tiny_geometry(channels=2, planes_per_die=1)
        alloc = PageAllocator(geo, FlashChip(geo))
        planes = [geo.plane_index(alloc.allocate()) for _ in range(4)]
        assert planes == [0, 1, 0, 1]

    def test_out_of_space(self):
        geo = tiny_geometry(channels=1, blocks_per_plane=2, pages_per_block=2)
        chip = FlashChip(geo)
        alloc = PageAllocator(geo, chip)
        for _ in range(geo.total_pages):
            chip.program(alloc.allocate())
        with pytest.raises(OutOfSpaceError):
            alloc.allocate()

    def test_release_block_returns_to_pool(self):
        geo = tiny_geometry(channels=1, blocks_per_plane=2, pages_per_block=2)
        chip = FlashChip(geo)
        alloc = PageAllocator(geo, chip)
        for _ in range(geo.total_pages):
            chip.program(alloc.allocate())
        chip.erase(0)
        alloc.release_block(0)
        ppa = alloc.allocate()
        assert geo.block_of(ppa) == 0

    def test_double_release_rejected(self):
        geo = tiny_geometry(channels=1)
        chip = FlashChip(geo)
        alloc = PageAllocator(geo, chip)
        with pytest.raises(ValueError):
            alloc.release_block(0)  # still in the free pool

    def test_wear_aware_allocation_prefers_young_blocks(self):
        geo = tiny_geometry(channels=1, blocks_per_plane=4)
        chip = FlashChip(geo)
        chip.block_wear[0] = 50
        chip.block_wear[1] = 10
        chip.block_wear[2] = 30
        chip.block_wear[3] = 40
        alloc = PageAllocator(geo, chip)
        ppa = alloc.allocate(plane=0)
        assert geo.block_of(ppa) == 1


class TestFtl:
    def make_ftl(self, **kw):
        geo = tiny_geometry()
        chip = FlashChip(geo, store_data=kw.pop("store_data", False))
        return geo, Ftl(geo, chip=chip, **kw)

    def test_write_then_translate(self):
        _, ftl = self.make_ftl()
        cost = ftl.write(0)
        assert ftl.translate(0) == cost.ppa

    def test_write_is_out_of_place(self):
        _, ftl = self.make_ftl()
        first = ftl.write(0).ppa
        second = ftl.write(0).ppa
        assert first != second
        assert ftl.chip.page_state(first) is PageState.INVALID

    def test_functional_data_preserved_across_overwrites(self):
        _, ftl = self.make_ftl(store_data=True)
        ftl.write(0, b"version 1")
        ftl.write(0, b"version 2")
        assert ftl.read_data(0) == b"version 2"

    def test_gc_triggers_and_reclaims(self):
        geo, ftl = self.make_ftl()
        # hammer a small logical range so most pages become invalid
        for i in range(geo.total_pages * 2):
            ftl.write(i % 4)
        assert ftl.stats.gc_erases > 0
        assert ftl.allocator.total_free_blocks() > 0
        # all four logical pages still translate
        for lpa in range(4):
            assert ftl.translate(lpa) is not None

    def test_gc_preserves_data(self):
        geo, ftl = self.make_ftl(store_data=True)
        payload = {lpa: f"data-{lpa}".encode() for lpa in range(4)}
        for lpa, data in payload.items():
            ftl.write(lpa, data)
        # churn to force GC relocations of live data
        for i in range(geo.total_pages * 2):
            ftl.write(4 + (i % 3), b"churn")
        for lpa, data in payload.items():
            assert ftl.read_data(lpa) == data

    def test_write_amplification_reported(self):
        geo, ftl = self.make_ftl()
        for i in range(geo.total_pages * 2):
            ftl.write(i % 8)
        wa = ftl.stats.write_amplification(ftl.stats.host_writes)
        assert wa >= 1.0

    def test_permission_checked_read(self):
        _, ftl = self.make_ftl()
        ftl.write(0, owner=2)
        assert ftl.read(0, tee_id=2).page_reads == 1
        with pytest.raises(AccessDeniedError):
            ftl.read(0, tee_id=3)

    def test_trim(self):
        _, ftl = self.make_ftl()
        ppa = ftl.write(0).ppa
        ftl.trim(0)
        assert ftl.chip.page_state(ppa) is PageState.INVALID
        with pytest.raises(KeyError):
            ftl.translate(0)

    def test_wear_stays_bounded_under_churn(self):
        """Wear leveling keeps the max/min wear gap near the threshold."""
        geo, ftl = self.make_ftl(wear_threshold=4)
        for i in range(geo.total_pages * 6):
            ftl.write(i % 4)
        min_w, max_w, _ = ftl.wear_leveler.wear_stats()
        # some slack: leveling runs after the fact
        assert max_w - min_w <= 4 * 3

    def test_utilization(self):
        geo, ftl = self.make_ftl()
        assert ftl.utilization() == 0.0
        ftl.write(0)
        assert 0 < ftl.utilization() <= 1.0

    def test_overprovision_bounds_logical_space(self):
        geo, ftl = self.make_ftl()
        assert ftl.logical_pages < geo.total_pages
        with pytest.raises(ValueError):
            ftl.write(ftl.logical_pages)


class TestMappingCache:
    def test_miss_then_hit(self):
        cache = MappingCache(cache_bytes=4096 * 4)
        assert cache.access(0) is False
        assert cache.access(1) is True  # same translation page
        assert cache.miss_rate == pytest.approx(0.5)

    def test_translation_page_granularity(self):
        cache = MappingCache(cache_bytes=4096)
        assert cache.translation_page(0) == cache.translation_page(511)
        assert cache.translation_page(512) == 1

    def test_lru_eviction(self):
        cache = MappingCache(cache_bytes=4096 * 2)  # 2 pages
        cache.access(0)          # page 0
        cache.access(512)        # page 1
        cache.access(0)          # touch page 0 (page 1 becomes LRU)
        cache.access(1024)       # page 2 evicts page 1
        assert cache.contains(0)
        assert not cache.contains(512)
        assert cache.evictions == 1

    def test_sequential_scan_low_miss_rate(self):
        """A sequential scan misses once per 512 LPAs — the locality that
        yields the paper's 0.17% miss rate."""
        cache = MappingCache(cache_bytes=64 * 4096)
        for lpa in range(512 * 64):
            cache.access(lpa)
        assert cache.miss_rate == pytest.approx(1 / 512, rel=0.01)

    def test_invalidate_page(self):
        cache = MappingCache(cache_bytes=4096 * 2)
        cache.access(0)
        cache.invalidate_page(0)
        assert not cache.contains(0)

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            MappingCache(cache_bytes=4096, page_bytes=100)
