"""Stateful property test: the FTL vs a trivial reference model.

Hypothesis drives random sequences of writes, overwrites, trims, and reads
against the full FTL (with GC, wear leveling and read-disturb refresh
active) and checks that it always agrees with a plain dict — the strongest
statement that out-of-place writes, relocations, and erases never lose or
corrupt data. All three reclaim blocks through the one ``Ftl._reclaim``, so
every chip erase is one of theirs and ends its block's read count.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.flash import FlashChip, PageState
from repro.flash.geometry import small_geometry
from repro.ftl import Ftl

# small blocks on two planes: a few steps fill blocks, so GC, wear leveling
# and read-disturb refresh all run within one example
GEOMETRY = small_geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=1,
    blocks_per_plane=8,
    pages_per_block=4,
)


class FtlMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ftl = Ftl(
            GEOMETRY,
            chip=FlashChip(GEOMETRY, store_data=True),
            gc_watermark=2,
            wear_threshold=1,
            read_disturb_threshold=4,
        )
        self.model = {}  # lpa -> bytes
        # keep occupancy below the physical ceiling so GC can always win
        self.max_live = self.ftl.logical_pages // 2

    lpas = Bundle("lpas")

    @rule(target=lpas, lpa=st.integers(min_value=0, max_value=60),
          payload=st.binary(min_size=1, max_size=16))
    def write(self, lpa, payload):
        lpa = lpa % self.ftl.logical_pages
        if lpa not in self.model and len(self.model) >= self.max_live:
            return lpa  # keep occupancy bounded
        self.ftl.write(lpa, payload)
        self.model[lpa] = payload
        return lpa

    @rule(lpa=lpas, payload=st.binary(min_size=1, max_size=16))
    def overwrite(self, lpa, payload):
        if lpa in self.model:
            self.ftl.write(lpa, payload)
            self.model[lpa] = payload

    @rule(lpa=lpas, times=st.integers(min_value=1, max_value=64))
    def churn(self, lpa, times):
        """Rewrite one page many times: fills blocks and drives GC and
        wear leveling within a few steps."""
        if lpa in self.model:
            for i in range(times):
                payload = f"{lpa}:{i}".encode()
                self.ftl.write(lpa, payload)
            self.model[lpa] = payload

    @rule(lpa=lpas)
    def trim(self, lpa):
        if lpa in self.model:
            self.ftl.trim(lpa)
            del self.model[lpa]

    @rule(lpa=lpas)
    def read_matches_model(self, lpa):
        if lpa in self.model:
            assert self.ftl.read_data(lpa) == self.model[lpa]

    @rule(lpa=lpas, times=st.integers(min_value=1, max_value=8))
    def counted_read(self, lpa, times):
        """Host reads count toward read disturb and may refresh the block."""
        if lpa in self.model:
            for _ in range(times):
                self.ftl.read(lpa)
                assert self.ftl.read_data(lpa) == self.model[lpa]

    @invariant()
    def mapped_set_matches(self):
        assert len(self.ftl.mapping) == len(self.model)

    @invariant()
    def forward_reverse_consistent(self):
        for lpa, entry in self.ftl.mapping.items():
            assert self.ftl.mapping.lpa_of_ppa(entry.ppa) == lpa

    @invariant()
    def mapped_pages_are_valid_on_chip(self):
        for lpa, entry in self.ftl.mapping.items():
            assert self.ftl.chip.page_state(entry.ppa) is PageState.VALID

    @invariant()
    def free_space_never_exhausted(self):
        assert self.ftl.allocator.total_free_blocks() >= 1

    @invariant()
    def every_erase_is_a_counted_reclaim(self):
        stats = self.ftl.stats
        assert self.ftl.chip.erases == (
            stats.gc_erases + stats.wl_migrations + stats.disturb_refreshes
        )

    @invariant()
    def erased_blocks_have_no_read_count(self):
        chip = self.ftl.chip
        for block in self.ftl.block_read_counts():
            assert chip.write_cursor(block) != 0

    @invariant()
    def zero_cursor_means_all_free(self):
        chip = self.ftl.chip
        for block in range(GEOMETRY.total_blocks):
            all_free = all(
                chip.page_state(ppa) is PageState.FREE for ppa in chip.pages_of_block(block)
            )
            assert (chip.write_cursor(block) == 0) == all_free


FtlMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestFtlStateful = FtlMachine.TestCase
