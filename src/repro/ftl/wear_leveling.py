"""Static wear leveling (§2.1).

Flash blocks endure a bounded number of program/erase cycles; the FTL must
age blocks uniformly. This implements threshold-triggered static wear
leveling: when the wear gap between the most- and least-worn blocks exceeds
``threshold``, the coldest block's data is migrated into a worn free block
so the cold block (young, rarely erased) re-enters circulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.flash.chip import FlashChip, PageState
from repro.flash.geometry import FlashGeometry
from repro.ftl.mapping import MappingTable
from repro.ftl.page_allocator import PageAllocator
from repro.sim.state import Stateful


@dataclass
class WearLevelResult:
    migrations: int = 0
    pages_moved: int = 0


class WearLeveler(Stateful):
    """Threshold-based static wear leveling."""

    # counters only: chip, mapping and allocator are snapshotted by their owner
    STATE = ("total_migrations",)

    def __init__(
        self,
        geometry: FlashGeometry,
        chip: FlashChip,
        mapping: MappingTable,
        allocator: PageAllocator,
        threshold: int = 16,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.geometry = geometry
        self.chip = chip
        self.mapping = mapping
        self.allocator = allocator
        self.threshold = threshold
        self.total_migrations = 0

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

    def level(self) -> WearLevelResult:
        """Perform one leveling pass if the wear gap exceeds the threshold.

        Migrates the coldest occupied block's valid pages to fresh pages and
        erases it, bringing it back into the free pool where (being young)
        the wear-aware allocator will favour it.
        """
        result = WearLevelResult()
        if not self.needs_leveling():
            return result
        cold = self.coldest_occupied_block()
        if cold is None:
            return result
        moved = 0
        for ppa in self.chip.pages_of_block(cold):
            if self.chip.page_state(ppa) is not PageState.VALID:
                continue
            lpa = self.mapping.lpa_of_ppa(ppa)
            data = self.chip.read(ppa)
            new_ppa = self.allocator.allocate()
            old_oob = self.chip.oob_of(ppa)
            self.chip.program(
                new_ppa,
                data if self.chip.store_data else None,
                lpa=lpa,
                owner=old_oob.owner if old_oob is not None else 0,
            )
            self.chip.invalidate(ppa)
            if lpa is not None:
                self.mapping.update(lpa, new_ppa)
            moved += 1
        self.chip.erase(cold)
        self.allocator.release_block(cold)
        result.migrations = 1
        result.pages_moved = moved
        self.total_migrations += 1
        return result
