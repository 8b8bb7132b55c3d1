"""Greedy garbage collection (§2.1).

When a plane's free-block count falls below a watermark, GC picks the block
with the fewest valid pages (greedy victim selection), relocates the valid
pages to freshly allocated ones, updates the mapping table, erases the
victim, and returns it to the allocator. Relocation costs are reported so
the timing layer can charge flash reads/programs/erases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.flash.chip import FlashChip, PageState
from repro.flash.geometry import FlashGeometry
from repro.ftl.mapping import MappingTable
from repro.ftl.page_allocator import PageAllocator
from repro.sim.state import Stateful


@dataclass
class GcResult:
    """What one GC invocation did (for timing + tests)."""

    victims: List[int] = field(default_factory=list)
    relocated: List[tuple] = field(default_factory=list)  # (old_ppa, new_ppa)
    pages_relocated: int = 0
    blocks_erased: int = 0

    def merge(self, other: "GcResult") -> None:
        self.victims.extend(other.victims)
        self.relocated.extend(other.relocated)
        self.pages_relocated += other.pages_relocated
        self.blocks_erased += other.blocks_erased


class GarbageCollector(Stateful):
    """Greedy per-plane garbage collector."""

    # counters only: chip, mapping and allocator are snapshotted by their
    # owner, and the fault injector rewires ``fault_hook`` after a restore
    STATE = ("invocations", "total_relocations", "total_erases")

    def __init__(
        self,
        geometry: FlashGeometry,
        chip: FlashChip,
        mapping: MappingTable,
        allocator: PageAllocator,
        free_block_watermark: int = 2,
    ) -> None:
        if free_block_watermark < 1:
            raise ValueError("watermark must be >= 1")
        self.geometry = geometry
        self.chip = chip
        self.mapping = mapping
        self.allocator = allocator
        self.free_block_watermark = free_block_watermark
        self.invocations = 0
        self.total_relocations = 0
        self.total_erases = 0
        # fault-injection hook (repro.faults): called at the labelled points
        # inside _reclaim so a power cut can land mid-collection
        self.fault_hook = None  # repro: allow[recovery-unserialized-state] -- rewired by the fault injector after restore, never serialized

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
        # a block with write cursor 0 and no valid/invalid pages is free
        pages = self.chip.pages_of_block(block)
        if self.allocator._active_block[plane] == block:
            return True
        return all(self.chip.page_state(p) is PageState.FREE for p in pages)

    def collect_plane(self, plane: int) -> GcResult:
        """Run GC on one plane until it is back above the watermark."""
        result = GcResult()
        guard = self.geometry.blocks_per_plane  # never loop more than once around
        while self.needs_gc(plane) and guard > 0:
            guard -= 1
            victim = self.pick_victim(plane)
            if victim is None:
                break
            self._reclaim(victim, plane, result)
        if result.blocks_erased:
            self.invocations += 1
        return result

    def _reclaim(self, victim: int, plane: int, result: GcResult) -> None:
        moved = 0
        for ppa in self.chip.pages_of_block(victim):
            if self.chip.page_state(ppa) is not PageState.VALID:
                continue
            lpa = self.mapping.lpa_of_ppa(ppa)
            data = self.chip.read(ppa)
            # allocate on a different plane if this one is exhausted
            new_ppa = self.allocator.allocate()
            old_oob = self.chip.oob_of(ppa)
            self.chip.program(
                new_ppa,
                data if self.chip.store_data else None,
                lpa=lpa,
                owner=old_oob.owner if old_oob is not None else 0,
            )
            if self.fault_hook is not None:
                # both copies are VALID right now; a power cut here leaves a
                # duplicate that recovery must resolve by sequence number
                self.fault_hook("gc_mid_relocate")
            self.chip.invalidate(ppa)
            if lpa is not None:
                self.mapping.update(lpa, new_ppa)
            result.relocated.append((ppa, new_ppa))
            moved += 1
            if self.fault_hook is not None:
                self.fault_hook("gc_relocate")
        if self.fault_hook is not None:
            self.fault_hook("gc_pre_erase")
        self.chip.erase(victim)
        self.allocator.release_block(victim)
        result.victims.append(victim)
        result.pages_relocated += moved
        result.blocks_erased += 1
        self.total_relocations += moved
        self.total_erases += 1

    def write_amplification(self, host_writes: int) -> float:
        """WA = (host + relocated) / host writes."""
        if host_writes <= 0:
            return 1.0
        return (host_writes + self.total_relocations) / host_writes
