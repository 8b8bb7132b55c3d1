"""Log-structured page allocation across planes.

Writes go to the "active block" of each plane, filling pages sequentially
(the order NAND requires); planes are selected round-robin so consecutive
writes stripe across channels. The allocator owns the free-block pools that
GC refills.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Set

from repro.flash.chip import FlashChip, PageState
from repro.flash.geometry import FlashGeometry


class OutOfSpaceError(Exception):
    """No free block is available in any plane (GC failed to keep up)."""


class PageAllocator:
    """Allocates free pages plane-by-plane in log order."""

    def __init__(self, geometry: FlashGeometry, chip: FlashChip) -> None:
        self.geometry = geometry
        self.chip = chip
        self._free_blocks: List[Deque[int]] = []
        self._active_block: List[Optional[int]] = []
        self._next_page: List[int] = []
        self._quarantined: Set[int] = set()  # planes on failed dies
        self._plane_rr = 0
        blocks_per_plane = geometry.blocks_per_plane
        for plane in range(geometry.total_planes):
            pool: Deque[int] = deque(
                plane * blocks_per_plane + b for b in range(blocks_per_plane)
            )
            self._free_blocks.append(pool)
            self._active_block.append(None)
            self._next_page.append(0)

    # -- free-block accounting ---------------------------------------------

    def free_blocks_in_plane(self, plane: int) -> int:
        if plane in self._quarantined:
            return 0
        count = len(self._free_blocks[plane])
        if self._active_block[plane] is not None:
            count += 1  # the active block still has room until it fills
        return count

    def total_free_blocks(self) -> int:
        return sum(len(pool) for pool in self._free_blocks) + sum(
            1 for b in self._active_block if b is not None
        )

    def release_block(self, block: int) -> None:
        """Return an erased block to its plane's free pool."""
        plane = block // self.geometry.blocks_per_plane
        if plane in self._quarantined:
            return  # the die is gone; never hand its blocks out again
        if block in self._free_blocks[plane] or self._active_block[plane] == block:
            raise ValueError(f"block {block} is already free")
        self._free_blocks[plane].append(block)

    def is_active_block(self, block: int) -> bool:
        """True if ``block`` is currently being filled by the allocator."""
        plane = block // self.geometry.blocks_per_plane
        return self._active_block[plane] == block

    def least_worn_free_block(self, plane: int) -> Optional[int]:
        """Pop the least-worn free block of a plane (wear-aware allocation)."""
        pool = self._free_blocks[plane]
        if not pool:
            return None
        best = min(pool, key=self.chip.wear_of)
        pool.remove(best)
        return best

    # -- fault handling ----------------------------------------------------------

    def quarantine_planes(self, planes: Iterable[int]) -> int:
        """Stop allocating in ``planes`` (their die failed); returns blocks lost."""
        lost = 0
        for plane in planes:
            if not 0 <= plane < self.geometry.total_planes:
                raise ValueError(f"plane {plane} out of range")
            if plane in self._quarantined:
                continue
            self._quarantined.add(plane)
            lost += len(self._free_blocks[plane])
            self._free_blocks[plane].clear()
            if self._active_block[plane] is not None:
                self._active_block[plane] = None
                lost += 1
        return lost

    def rebuild_from_chip(self) -> None:
        """Reconstruct allocator state by scanning the chip (power-loss path).

        Blocks whose write cursor is 0 return to the free pool; the
        partially-programmed block with the most free tail pages becomes the
        plane's active block (real FTLs pad the others closed — their free
        tail is unreachable until GC erases them). Quarantined planes are
        skipped.
        """
        bpp = self.geometry.blocks_per_plane
        ppb = self.geometry.pages_per_block
        for plane in range(self.geometry.total_planes):
            self._free_blocks[plane].clear()
            self._active_block[plane] = None
            self._next_page[plane] = 0
            if plane in self._quarantined:
                continue
            best_partial = None
            best_free_tail = 0
            for block in range(plane * bpp, (plane + 1) * bpp):
                cursor = self.chip.write_cursor(block)
                if cursor == 0:
                    self._free_blocks[plane].append(block)
                elif cursor < ppb:
                    # the free tail must really be free (cursor is authoritative,
                    # but cheap to sanity-check on the page right at the cursor)
                    pages = self.chip.pages_of_block(block)
                    if self.chip.page_state(pages[cursor]) is PageState.FREE:
                        if ppb - cursor > best_free_tail:
                            best_free_tail = ppb - cursor
                            best_partial = block
            if best_partial is not None:
                self._active_block[plane] = best_partial
                self._next_page[plane] = ppb - best_free_tail
        self._plane_rr = 0

    # -- checkpoint/restore ------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Free pools keep their deque order (allocation order is state)."""
        return {
            "free_blocks": [list(pool) for pool in self._free_blocks],
            "active_block": list(self._active_block),
            "next_page": list(self._next_page),
            "quarantined": sorted(self._quarantined),
            "plane_rr": self._plane_rr,
        }

    def restore_state(self, state: dict) -> None:
        self._free_blocks = [deque(pool) for pool in state["free_blocks"]]
        self._active_block = list(state["active_block"])
        self._next_page = list(state["next_page"])
        self._quarantined = set(state["quarantined"])
        self._plane_rr = state["plane_rr"]

    # -- allocation ------------------------------------------------------------

    def allocate(self, plane: Optional[int] = None) -> int:
        """Return the next free PPA, opening a new active block as needed.

        Without an explicit ``plane`` the allocator round-robins planes,
        which stripes sequential writes across channels.
        """
        if plane is None:
            plane = self._pick_plane()
        if plane in self._quarantined:
            raise OutOfSpaceError(f"plane {plane} is quarantined (die failure)")
        if self._active_block[plane] is None:
            block = self.least_worn_free_block(plane)
            if block is None:
                raise OutOfSpaceError(f"plane {plane} has no free blocks")
            self._active_block[plane] = block
            self._next_page[plane] = 0
        block = self._active_block[plane]
        assert block is not None
        pages = self.chip.pages_of_block(block)
        ppa = pages[self._next_page[plane]]
        self._next_page[plane] += 1
        if self._next_page[plane] >= self.geometry.pages_per_block:
            self._active_block[plane] = None  # block is full; next alloc opens one
        return ppa

    def _pick_plane(self) -> int:
        total = self.geometry.total_planes
        for offset in range(total):
            plane = (self._plane_rr + offset) % total
            if self.free_blocks_in_plane(plane) > 0:
                self._plane_rr = (plane + 1) % total
                return plane
        raise OutOfSpaceError("every plane is out of free blocks")
