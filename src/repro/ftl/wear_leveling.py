"""Static wear leveling (§2.1).

Flash blocks endure a bounded number of program/erase cycles; the FTL must
age blocks uniformly. This implements threshold-triggered static wear
leveling: when the wear gap between the most- and least-worn blocks exceeds
``threshold``, the coldest block's data is migrated into a worn free block
so the cold block (young, rarely erased) re-enters circulation.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.gc import Reclaim
from repro.ftl.page_allocator import PageAllocator


class WearLeveler:
    """Threshold-based static wear leveling."""

    def __init__(
        self,
        geometry: FlashGeometry,
        chip: FlashChip,
        allocator: PageAllocator,
        threshold: int = 16,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.geometry = geometry
        self.chip = chip
        self.allocator = allocator
        self.threshold = threshold

    def wear_stats(self) -> Tuple[int, int, float]:
        """(min, max, mean) wear over all blocks (unworn blocks count as 0)."""
        total_blocks = self.geometry.total_blocks
        worn = self.chip.block_wear
        if not worn:
            return (0, 0, 0.0)
        max_wear = max(worn.values())
        min_wear = min(worn.values()) if len(worn) == total_blocks else 0
        mean = sum(worn.values()) / total_blocks
        return (min_wear, max_wear, mean)

    def needs_leveling(self) -> bool:
        min_wear, max_wear, _ = self.wear_stats()
        return (max_wear - min_wear) > self.threshold

    def coldest_occupied_block(self) -> Optional[int]:
        """The least-worn block that currently holds valid data."""
        best = None
        best_wear = None
        for block in range(self.geometry.total_blocks):
            if self.chip.block_on_failed_die(block):
                continue  # unreadable and unerasable; nothing to level
            if self.chip.valid_pages_in_block(block) == 0:
                continue
            if self.allocator.is_active_block(block):
                continue  # never migrate the block currently being filled
            wear = self.chip.wear_of(block)
            if best_wear is None or wear < best_wear:
                best_wear = wear
                best = block
        return best

    def level(self, reclaim: Reclaim) -> Optional[int]:
        """Level one block if the wear gap exceeds the threshold.

        Hands the coldest occupied block to ``reclaim`` (the FTL's block
        reclaim, passed per call), which migrates its valid pages to fresh
        pages and erases it, bringing it back into the free pool where
        (being young) the wear-aware allocator will favour it. Returns the
        pages moved, or None if no block was leveled.
        """
        if not self.needs_leveling():
            return None
        cold = self.coldest_occupied_block()
        if cold is None:
            return None
        return len(reclaim(cold))
