"""Functional flash chip model: page states, program/erase rules, wear.

Enforces the physical constraints §2.1 describes: pages are written
out-of-place (a programmed page cannot be reprogrammed until its whole block
is erased), programming within a block must be sequential, and erases happen
at block granularity and age the block.

Each programmed page can carry out-of-band (OOB) metadata — the spare-area
bytes real NAND writes atomically with the page. The FTL stamps the owning
LPA, a monotonic write sequence number, and the TEE owner there, which is
what makes the mapping table rebuildable after power loss: the spare area
survives a power cut even though every DRAM-resident FTL structure does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Set

from repro.flash.geometry import FlashGeometry


class PageState(Enum):
    FREE = "free"
    VALID = "valid"
    INVALID = "invalid"


class FlashProgramError(Exception):
    """Raised when a program violates NAND constraints."""


class DieFailureError(Exception):
    """An operation touched a die that has failed wholesale."""

    def __init__(self, die: int, ppa: Optional[int] = None) -> None:
        super().__init__(f"die {die} has failed" + (f" (PPA {ppa})" if ppa is not None else ""))
        self.die = die
        self.ppa = ppa


@dataclass(frozen=True)
class PageOob:
    """Spare-area metadata programmed atomically with a page."""

    lpa: int
    seq: int  # monotonic write sequence number (newest copy wins)
    owner: int = 0  # TEE ID bits mirrored from the mapping entry


class FlashChip:
    """State for every block/page of the whole flash array.

    Despite the name this tracks the full array (all chips); the per-chip
    split only matters for timing, which :class:`repro.flash.ssd.FlashDevice`
    handles via die resources. Page payloads are stored only when
    ``store_data`` is True (functional mode); timing-only simulations skip
    the byte storage to stay fast.
    """

    def __init__(self, geometry: FlashGeometry, store_data: bool = False) -> None:
        self.geometry = geometry
        self.store_data = store_data
        # page states as a flat list indexed by PPA; block wear by global block
        self._page_state: Dict[int, PageState] = {}
        self._write_cursor: Dict[int, int] = {}  # global block -> next page index
        self.block_wear: Dict[int, int] = {}
        self._data: Dict[int, bytes] = {}
        self._oob: Dict[int, PageOob] = {}
        self._oob_seq = 0
        self.failed_dies: Set[int] = set()
        self.reads = 0
        self.programs = 0
        self.erases = 0

    # -- state queries -------------------------------------------------------

    def page_state(self, ppa: int) -> PageState:
        return self._page_state.get(ppa, PageState.FREE)

    def oob_of(self, ppa: int) -> Optional[PageOob]:
        """Spare-area metadata of a page (survives power loss, not erase)."""
        return self._oob.get(ppa)

    def write_cursor(self, block: int) -> int:
        """Next programmable page index of a block (0 = pristine/erased)."""
        return self._write_cursor.get(block, 0)

    # -- die failures ---------------------------------------------------------

    def die_of_ppa(self, ppa: int) -> int:
        return self.geometry.die_index(ppa)

    def die_of_block(self, block: int) -> int:
        plane = block // self.geometry.blocks_per_plane
        return plane // self.geometry.planes_per_die

    def fail_die(self, die: int) -> None:
        """Mark a whole die failed: every access to it raises from now on."""
        if not 0 <= die < self.geometry.total_dies:
            raise ValueError(f"die {die} out of range")
        self.failed_dies.add(die)

    def die_failed(self, ppa: int) -> bool:
        return bool(self.failed_dies) and self.die_of_ppa(ppa) in self.failed_dies

    def block_on_failed_die(self, block: int) -> bool:
        return bool(self.failed_dies) and self.die_of_block(block) in self.failed_dies

    def _check_die(self, ppa: int) -> None:
        if self.failed_dies:
            die = self.die_of_ppa(ppa)
            if die in self.failed_dies:
                raise DieFailureError(die, ppa)

    def wear_of(self, block: int) -> int:
        return self.block_wear.get(block, 0)

    def valid_pages_in_block(self, block: int) -> int:
        state = self._page_state
        return sum(1 for ppa in self.pages_of_block(block) if state.get(ppa) is PageState.VALID)

    def pages_of_block(self, block: int) -> range:
        """PPAs of a block's pages in order (strided by the plane interleave)."""
        base = self.geometry.block_base(block)
        stride = self.geometry.total_planes
        return range(base, base + self.geometry.pages_per_block * stride, stride)

    # -- operations ------------------------------------------------------------

    def read(self, ppa: int) -> Optional[bytes]:
        """Read a page; returns stored bytes in functional mode, else None."""
        self._check_die(ppa)
        if self.page_state(ppa) is not PageState.VALID:
            raise FlashProgramError(f"read of non-valid page {ppa}")
        self.reads += 1
        return self._data.get(ppa)

    def program(
        self,
        ppa: int,
        data: Optional[bytes] = None,
        lpa: Optional[int] = None,
        owner: int = 0,
    ) -> None:
        """Program a free page; enforces sequential-in-block programming.

        When ``lpa`` is given the page's OOB area is stamped with the LPA,
        the TEE ``owner`` and a chip-wide monotonic sequence number; recovery
        relies on these to rebuild the mapping after power loss.
        """
        self._check_die(ppa)
        state = self.page_state(ppa)
        if state is not PageState.FREE:
            raise FlashProgramError(
                f"page {ppa} is {state.value}; NAND pages cannot be reprogrammed"
            )
        block, page_index = self.geometry.block_and_page(ppa)
        cursor = self._write_cursor.get(block, 0)
        if page_index != cursor:
            raise FlashProgramError(
                f"block {block}: page {page_index} programmed out of order "
                f"(expected {cursor})"
            )
        self._write_cursor[block] = cursor + 1
        self._page_state[ppa] = PageState.VALID
        self.programs += 1
        if lpa is not None:
            self._oob_seq += 1
            self._oob[ppa] = PageOob(lpa=lpa, seq=self._oob_seq, owner=owner)
        if self.store_data:
            if data is None:
                raise ValueError("functional mode requires page data")
            if len(data) > self.geometry.page_bytes:
                raise ValueError("data larger than a flash page")
            self._data[ppa] = data

    def invalidate(self, ppa: int) -> None:
        """Mark a page's contents obsolete (out-of-place overwrite)."""
        if self.page_state(ppa) is not PageState.VALID:
            raise FlashProgramError(f"invalidate of non-valid page {ppa}")
        self._page_state[ppa] = PageState.INVALID
        self._data.pop(ppa, None)

    def erase(self, block: int) -> None:
        """Erase a whole block: all pages become FREE, wear increments."""
        if not 0 <= block < self.geometry.total_blocks:
            raise ValueError(f"block {block} out of range")
        if self.block_on_failed_die(block):
            raise DieFailureError(self.die_of_block(block))
        for ppa in self.pages_of_block(block):
            self._page_state.pop(ppa, None)
            self._data.pop(ppa, None)
            self._oob.pop(ppa, None)
        self._write_cursor[block] = 0
        self.block_wear[block] = self.block_wear.get(block, 0) + 1
        self.erases += 1

    # -- checkpoint/restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Primitive state tree for :mod:`repro.recovery` snapshots.

        Geometry and ``store_data`` are constructor configuration, not state;
        everything mutable is captured, with dicts as insertion-ordered item
        lists and the frozen :class:`PageOob` records as plain tuples.
        """
        return {
            "page_state": [(ppa, s.value) for ppa, s in self._page_state.items()],
            "write_cursor": [(b, c) for b, c in self._write_cursor.items()],
            "block_wear": [(b, w) for b, w in self.block_wear.items()],
            "data": [(ppa, d) for ppa, d in self._data.items()],
            "oob": [
                (ppa, (o.lpa, o.seq, o.owner)) for ppa, o in self._oob.items()
            ],
            "oob_seq": self._oob_seq,
            "failed_dies": sorted(self.failed_dies),
            "reads": self.reads,
            "programs": self.programs,
            "erases": self.erases,
        }

    def restore_state(self, state: dict) -> None:
        self._page_state = {ppa: PageState(s) for ppa, s in state["page_state"]}
        self._write_cursor = {b: c for b, c in state["write_cursor"]}
        self.block_wear = {b: w for b, w in state["block_wear"]}
        self._data = {ppa: d for ppa, d in state["data"]}
        self._oob = {
            ppa: PageOob(lpa=lpa, seq=seq, owner=owner)
            for ppa, (lpa, seq, owner) in state["oob"]
        }
        self._oob_seq = state["oob_seq"]
        self.failed_dies = set(state["failed_dies"])
        self.reads = state["reads"]
        self.programs = state["programs"]
        self.erases = state["erases"]
