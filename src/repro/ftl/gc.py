"""Greedy garbage collection (§2.1).

When a plane's free-block count falls below a watermark, GC picks the block
with the fewest valid pages (greedy victim selection) and hands it to the
FTL's block reclaim, which relocates the valid pages to freshly allocated
ones, updates the mapping table, erases the victim and returns it to the
allocator. The relocations are reported so the timing layer can charge
flash reads/programs/erases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.page_allocator import PageAllocator

FaultHook = Callable[[str], None]
# Ftl._reclaim(block, fault_hook=None): the (old_ppa, new_ppa) of each move
Reclaim = Callable[..., List[Tuple[int, int]]]


@dataclass
class GcResult:
    """What one GC invocation did (for timing + tests)."""

    victims: List[int] = field(default_factory=list)
    relocated: List[Tuple[int, int]] = field(default_factory=list)  # (old_ppa, new_ppa)


class GarbageCollector:
    """Greedy per-plane garbage collector."""

    def __init__(
        self,
        geometry: FlashGeometry,
        chip: FlashChip,
        allocator: PageAllocator,
        free_block_watermark: int = 2,
    ) -> None:
        if free_block_watermark < 1:
            raise ValueError("watermark must be >= 1")
        self.geometry = geometry
        self.chip = chip
        self.allocator = allocator
        self.free_block_watermark = free_block_watermark
        # fault-injection hook (repro.faults), passed to the reclaim so a
        # power cut can land mid-collection; the injector rewires it after a
        # restore
        self.fault_hook: Optional[FaultHook] = None

    def needs_gc(self, plane: int) -> bool:
        return self.allocator.free_blocks_in_plane(plane) <= self.free_block_watermark

    def pick_victim(self, plane: int) -> Optional[int]:
        """Greedy choice: fewest valid pages, ties broken toward least wear.

        The wear tie-break matters: under small hot working sets many blocks
        are fully invalid, and always reclaiming the lowest-indexed one would
        starve the others, defeating wear leveling.
        """
        base = plane * self.geometry.blocks_per_plane
        best_block = None
        best_key = None
        for block in range(base, base + self.geometry.blocks_per_plane):
            if self._is_free_or_active(block, plane):
                continue
            key = (self.chip.valid_pages_in_block(block), self.chip.wear_of(block))
            if best_key is None or key < best_key:
                best_key = key
                best_block = block
        return best_block

    def _is_free_or_active(self, block: int, plane: int) -> bool:
        # write cursor 0 means every page is FREE: program() enforces
        # in-order programming and erase() resets pages and cursor together
        if self.allocator._active_block[plane] == block:
            return True
        return self.chip.write_cursor(block) == 0

    def collect_plane(self, plane: int, reclaim: Reclaim) -> GcResult:
        """Reclaim victims on one plane until it is back above the watermark.

        ``reclaim`` is the FTL's block reclaim (:meth:`Ftl._reclaim`), handed
        in per call so the collector keeps no reference to its FTL.
        """
        result = GcResult()
        guard = self.geometry.blocks_per_plane  # never loop more than once around
        while self.needs_gc(plane) and guard > 0:
            guard -= 1
            victim = self.pick_victim(plane)
            if victim is None:
                break
            result.relocated.extend(reclaim(victim, self.fault_hook))
            result.victims.append(victim)
        return result
