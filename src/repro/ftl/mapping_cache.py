"""Cached mapping table held in the protected memory region (§4.2, §4.6).

The full page-level mapping table of a 1 TB SSD is ~2 GB, so only hot
translation pages are cached in SSD DRAM (DFTL-style). IceClave places this
cache in the *protected* region: in-storage programs read it directly for
address translation; a miss forces a world switch into the secure FTL, which
fetches the translation page from flash (``ReadMappingEntry``, step 4 of
Figure 9). The paper measures a 0.17% miss rate.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.ftl.mapping import ENTRY_BYTES


class MappingCache:
    """LRU cache of translation pages (one page maps 512 LPAs)."""

    def __init__(self, cache_bytes: int, page_bytes: int = 4096) -> None:
        if page_bytes <= 0 or page_bytes % ENTRY_BYTES:
            raise ValueError("page_bytes must be a positive multiple of entry size")
        self.page_bytes = page_bytes
        self.entries_per_page = page_bytes // ENTRY_BYTES
        self.capacity_pages = max(1, cache_bytes // page_bytes)
        self._lru: OrderedDict[int, bool] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def translation_page(self, lpa: int) -> int:
        return lpa // self.entries_per_page

    def access(self, lpa: int) -> bool:
        """Touch the translation page covering ``lpa``; True on hit.

        On a miss the page is fetched (caller charges the secure-world switch
        and the flash read) and inserted, evicting LRU if full.
        """
        tpage = self.translation_page(lpa)
        if tpage in self._lru:
            self._lru.move_to_end(tpage)
            self.hits += 1
            return True
        self.misses += 1
        self._insert(tpage)
        return False

    def _insert(self, tpage: int) -> None:
        if len(self._lru) >= self.capacity_pages:
            self._lru.popitem(last=False)
            self.evictions += 1
        self._lru[tpage] = True

    def contains(self, lpa: int) -> bool:
        """Non-mutating membership check."""
        return self.translation_page(lpa) in self._lru

    def invalidate_page(self, tpage: int) -> None:
        """Drop one translation page (e.g. after secure-world updates)."""
        self._lru.pop(tpage, None)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
