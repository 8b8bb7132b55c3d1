"""FTL orchestrator: ties mapping, allocation, GC and wear leveling together.

The FTL is the secure-world component IceClave protects (§4.2). All methods
here are functional (they mutate chip/mapping state synchronously) and
return an :class:`FtlOpCost` describing the physical flash operations each
logical operation triggered, so the timing layer can charge them on the
discrete-event device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.flash.chip import FlashChip
from repro.flash.ecc import EccModel, EccUncorrectableError, ReadRetryPolicy
from repro.flash.geometry import FlashGeometry
from repro.ftl.gc import GarbageCollector, GcResult
from repro.ftl.mapping import MappingTable, PUBLIC_ID
from repro.ftl.page_allocator import OutOfSpaceError, PageAllocator
from repro.ftl.wear_leveling import WearLeveler
from repro.sim.state import Stateful
from repro.sim.stats import ReliabilityStats


class WritesSuspendedError(Exception):
    """A write was refused because the device is in a degraded service mode.

    Raised by the timing layer (:class:`~repro.ftl.ssd_system.SsdSystem`)
    when a degradation ladder has taken the device to DEGRADED_READONLY or
    FAILSAFE; the host sees a *retryable* NVMe status, not data loss.
    """

    def __init__(self, mode: str) -> None:
        super().__init__(f"writes suspended: device is in {mode} mode")
        self.mode = mode


class MappingIntegrityError(Exception):
    """The FTL's mapping invariants do not hold (corruption detected).

    Raised by :meth:`Ftl.check_mapping_integrity` callers — most importantly
    the power-loss rebuild, which must fail loudly rather than hand the host
    a silently wrong address map. Carries the full problem list so reports
    and tests can show *which* invariant broke.
    """

    def __init__(self, where: str, problems: List[str]) -> None:
        detail = "; ".join(problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        super().__init__(f"mapping integrity violated after {where}: {detail}{more}")
        self.where = where
        self.problems = problems


class UncorrectableReadError(Exception):
    """A logical read failed permanently (ECC exhausted or die gone).

    The mapping entry has already been dropped; callers translate this into
    an NVMe unrecovered-read-error status rather than crashing the device.
    """

    def __init__(self, lpa: int, ppa: int, reason: str) -> None:
        super().__init__(f"LPA {lpa} (PPA {ppa}) unreadable: {reason}")
        self.lpa = lpa
        self.ppa = ppa
        self.reason = reason


@dataclass
class RecoveryReport:
    """What one power-loss recovery pass rebuilt."""

    pages_scanned: int = 0
    mappings_recovered: int = 0
    stale_copies_discarded: int = 0
    scan_latency: float = 0.0


@dataclass
class FtlOpCost:
    """Physical flash work performed by one logical FTL operation."""

    page_reads: int = 0
    page_programs: int = 0
    block_erases: int = 0
    ppa: Optional[int] = None  # resulting physical page for read/write
    gc: Optional[GcResult] = None
    read_retries: int = 0
    remapped: bool = False
    added_latency: float = 0.0


@dataclass
class FtlStats(Stateful):
    host_reads: int = 0
    host_writes: int = 0
    gc_relocations: int = 0
    gc_erases: int = 0
    wl_migrations: int = 0
    disturb_refreshes: int = 0


class Ftl(Stateful):
    """Page-level FTL with greedy GC and static wear leveling."""

    STATE = (
        "chip",
        "mapping",
        "allocator",
        "gc",
        "wear_leveler",
        "stats",
        "_block_read_counts",
        "recovery_scan_latency_per_page",
        "ecc",
        "reliability",
    )

    def __init__(
        self,
        geometry: FlashGeometry,
        chip: Optional[FlashChip] = None,
        overprovision: float = 0.125,
        gc_watermark: int = 2,
        wear_threshold: int = 16,
        read_disturb_threshold: int = 100_000,
    ) -> None:
        if not 0.0 < overprovision < 1.0:
            raise ValueError("overprovision must be in (0, 1)")
        if read_disturb_threshold < 1:
            raise ValueError("read_disturb_threshold must be >= 1")
        self.geometry = geometry
        self.chip = chip or FlashChip(geometry)
        # logical space excludes the over-provisioned area GC needs
        self.logical_pages = int(geometry.total_pages * (1.0 - overprovision))
        self.mapping = MappingTable(self.logical_pages)
        self.allocator = PageAllocator(geometry, self.chip)
        self.gc = GarbageCollector(
            geometry, self.chip, self.mapping, self.allocator, gc_watermark
        )
        self.wear_leveler = WearLeveler(
            geometry, self.chip, self.mapping, self.allocator, wear_threshold
        )
        self.read_disturb_threshold = read_disturb_threshold
        self._block_read_counts: dict = {}
        self.stats = FtlStats()
        # optional reliability machinery (see attach_reliability)
        self.ecc: Optional[EccModel] = None
        self.retry_policy: Optional[ReadRetryPolicy] = None  # repro: allow[recovery-unserialized-state] -- escalation schedule is pure configuration attached by attach_reliability, no mutable state
        self.reliability: Optional[ReliabilityStats] = None
        # modelled cost of scanning one page's OOB during recovery
        self.recovery_scan_latency_per_page = 25e-6
        # runtime invariant monitor (repro.recovery); None = disabled
        self.invariant_monitor = None  # repro: allow[recovery-unserialized-state] -- monitors are re-armed by their owner after restore, never serialized

    def attach_reliability(
        self,
        ecc: Optional[EccModel] = None,
        retry_policy: Optional[ReadRetryPolicy] = None,
        reliability: Optional[ReliabilityStats] = None,
    ) -> None:
        """Enable the fault-tolerant read path (:mod:`repro.faults`).

        With an :class:`EccModel` attached every read is decoded; initially
        uncorrectable pages go through the escalating ``retry_policy`` and,
        when recovered, are scrubbed to a fresh physical page
        (remap-on-uncorrectable). ``reliability`` collects the counters.
        """
        self.ecc = ecc
        self.retry_policy = retry_policy or ReadRetryPolicy()
        self.reliability = reliability or ReliabilityStats()

    # -- logical operations ------------------------------------------------

    def translate(self, lpa: int, tee_id: int = PUBLIC_ID) -> int:
        """LPA→PPA with the ID-bit permission check (normal-world path)."""
        return self.mapping.lookup(lpa, tee_id).ppa

    def read(self, lpa: int, tee_id: int = PUBLIC_ID) -> FtlOpCost:
        """Read a logical page (permission-checked).

        Tracks per-block read counts: a block read past the disturb
        threshold is refreshed (valid pages relocated, block erased) to
        protect neighbouring cells, and the refresh cost is reported.
        """
        ppa = self.translate(lpa, tee_id)
        cost = FtlOpCost(page_reads=1, ppa=ppa)
        if self.chip.failed_dies and self.chip.die_failed(ppa):
            # the die is gone and there is no redundancy: committed data on
            # it is lost. Drop the mapping so the host sees a stable error.
            self.mapping.unmap(lpa)
            if self.reliability is not None:
                self.reliability.faults_fatal += 1
            raise UncorrectableReadError(lpa, ppa, "die failure")
        if self.chip.store_data:
            self.chip.read(ppa)
        if self.ecc is not None:
            self._decode_read(lpa, ppa, cost)
        self.stats.host_reads += 1
        # disturb accounting charges the block whose cells were sensed (the
        # original page, even if the data was scrubbed elsewhere afterwards)
        block = self.geometry.block_of(ppa)
        self._block_read_counts[block] = self._block_read_counts.get(block, 0) + 1
        if self._block_read_counts[block] >= self.read_disturb_threshold:
            moved = self._refresh_block(block)
            cost.page_reads += moved
            cost.page_programs += moved
            cost.block_erases += 1
        return cost

    def _decode_read(self, lpa: int, ppa: int, cost: FtlOpCost) -> None:
        """ECC-decode a page read; retry, scrub, or fail permanently.

        - clean/correctable: errors fixed inline, nothing else happens;
        - initially uncorrectable but recovered by escalating read retries:
          the data is scrubbed to a fresh physical page so the weak cells
          leave service (remap-on-uncorrectable);
        - unrecoverable: the mapping entry is dropped and
          :class:`UncorrectableReadError` propagates to the host path.
        """
        rel = self.reliability
        wear = self.chip.wear_of(self.geometry.block_of(ppa))
        try:
            corrected = self.ecc.check_read(wear)
            if rel is not None:
                rel.errors_corrected += corrected
            return
        except EccUncorrectableError:
            pass
        try:
            outcome = self.retry_policy.recover(self.ecc)
        except EccUncorrectableError as exc:
            if rel is not None:
                rel.read_retries += self.retry_policy.max_retries
                rel.added_latency_s += self.retry_policy.worst_case_latency()
                rel.faults_fatal += 1
            self.mapping.unmap(lpa)
            self.chip.invalidate(ppa)
            raise UncorrectableReadError(lpa, ppa, str(exc)) from exc
        cost.read_retries = outcome.retries
        cost.page_reads += outcome.retries
        cost.added_latency += outcome.added_latency
        if rel is not None:
            rel.read_retries += outcome.retries
            rel.errors_corrected += outcome.corrected_bits
            rel.faults_recovered += 1
            rel.added_latency_s += outcome.added_latency
        new_ppa = self._remap(lpa, ppa)
        if new_ppa is not None:
            cost.page_programs += 1
            cost.remapped = True
            cost.ppa = new_ppa
            if rel is not None:
                rel.remaps += 1

    def _remap(self, lpa: int, ppa: int) -> Optional[int]:
        """Scrub a marginal page: rewrite its data at a fresh location."""
        entry = self.mapping.entry_unchecked(lpa)
        owner = entry.owner if entry is not None else PUBLIC_ID
        data = self.chip.read(ppa) if self.chip.store_data else None
        try:
            new_ppa = self.allocator.allocate()
        except OutOfSpaceError:
            return None  # keep serving from the marginal page; GC will help
        self.chip.program(new_ppa, data, lpa=lpa, owner=owner)
        self.chip.invalidate(ppa)
        self.mapping.update(lpa, new_ppa)
        return new_ppa

    # -- die failures ----------------------------------------------------------

    def quarantine_die(self, die: int, drop_mappings: bool = True) -> int:
        """Take a failed die out of service; returns mappings lost with it.

        The allocator stops placing data on the die's planes. With
        ``drop_mappings`` the committed pages stranded on the die are
        unmapped immediately (scan once, fail fast) instead of erroring
        lazily read-by-read.
        """
        ppd = self.geometry.planes_per_die
        self.allocator.quarantine_planes(range(die * ppd, (die + 1) * ppd))
        if not drop_mappings:
            return 0
        lost = [
            lpa
            for lpa, entry in list(self.mapping.items())
            if self.chip.die_of_ppa(entry.ppa) == die
        ]
        for lpa in lost:
            self.mapping.unmap(lpa)
        return len(lost)

    # -- invariants --------------------------------------------------------------

    def check_mapping_integrity(self, where: str = "") -> List[str]:
        """Verify the mapping invariants; return a list of problems (empty = OK).

        Checked invariants (the address-map half of the recovery story):

        - **bijectivity** — the LPA→PPA map is injective and its reverse
          index agrees with it in both directions;
        - **media state** — every mapped PPA is a VALID flash page (pages on
          failed dies are exempt: their mappings are dropped lazily);
        - **OOB agreement** — the on-flash journal (LPA + owner in each
          page's OOB) matches the DRAM mapping it would be rebuilt from;
        - **valid-page accounting** — every VALID data page is reachable
          from the mapping (no leaked/orphaned valid pages).

        Pure read-only check; callers decide whether problems are fatal
        (power-loss rebuild raises :class:`MappingIntegrityError`, the
        invariant monitors raise ``InvariantViolation``).
        """
        from repro.flash.chip import PageState

        problems: List[str] = []
        mapped_ppas: Dict[int, int] = {}
        for lpa, entry in self.mapping.items():
            ppa = entry.ppa
            if ppa in mapped_ppas:
                problems.append(
                    f"LPA {lpa} and LPA {mapped_ppas[ppa]} both map to PPA {ppa}"
                )
                continue
            mapped_ppas[ppa] = lpa
            back = self.mapping.lpa_of_ppa(ppa)
            if back != lpa:
                problems.append(
                    f"reverse map disagrees: LPA {lpa} -> PPA {ppa} -> LPA {back}"
                )
            if self.chip.failed_dies and self.chip.die_failed(ppa):
                continue  # stranded mapping; dropped lazily on first read
            state = self.chip.page_state(ppa)
            if state is not PageState.VALID:
                problems.append(f"LPA {lpa} maps to PPA {ppa} in state {state.name}")
                continue
            oob = self.chip.oob_of(ppa)
            if oob is None:
                problems.append(f"mapped PPA {ppa} has no OOB journal entry")
            else:
                if oob.lpa != lpa:
                    problems.append(
                        f"OOB of PPA {ppa} names LPA {oob.lpa}, mapping says {lpa}"
                    )
                if oob.owner != entry.owner:
                    problems.append(
                        f"OOB owner {oob.owner} != mapping owner {entry.owner} "
                        f"for LPA {lpa} (PPA {ppa})"
                    )
        for block in range(self.geometry.total_blocks):
            if self.chip.block_on_failed_die(block):
                continue
            if self.chip.write_cursor(block) == 0:
                continue
            for ppa in self.chip.pages_of_block(block):
                if self.chip.page_state(ppa) is not PageState.VALID:
                    continue
                if ppa not in mapped_ppas:
                    oob = self.chip.oob_of(ppa)
                    lpa = oob.lpa if oob is not None else None
                    problems.append(
                        f"orphaned VALID page at PPA {ppa} (OOB LPA {lpa}) "
                        "not reachable from the mapping"
                    )
        if problems and where:
            problems = [f"[{where}] {p}" for p in problems]
        return problems

    # -- power loss --------------------------------------------------------------

    def recover_from_power_loss(self) -> RecoveryReport:
        """Rebuild every DRAM-resident structure after a power cut.

        The mapping table, read-disturb counts and allocator cursors all
        live in (lost) SSD DRAM. Flash state survives, and every data page's
        OOB area names its LPA, owner and a monotonic write sequence number
        — so the mapping is rebuilt by journal replay: scan all surviving
        pages, keep the newest copy of each LPA, and invalidate stale
        duplicates a power cut mid-GC may have left behind.
        """
        report = RecoveryReport()
        self._block_read_counts.clear()
        self.mapping.clear()
        from repro.flash.chip import PageState

        best: Dict[int, Tuple[int, int, int]] = {}  # lpa -> (seq, ppa, owner)
        stale: List[int] = []
        for block in range(self.geometry.total_blocks):
            if self.chip.block_on_failed_die(block):
                continue
            if self.chip.write_cursor(block) == 0:
                continue  # pristine block: nothing to scan
            for ppa in self.chip.pages_of_block(block):
                if self.chip.page_state(ppa) is not PageState.VALID:
                    continue
                oob = self.chip.oob_of(ppa)
                report.pages_scanned += 1
                if oob is None or not 0 <= oob.lpa < self.logical_pages:
                    continue
                prev = best.get(oob.lpa)
                if prev is None or oob.seq > prev[0]:
                    if prev is not None:
                        stale.append(prev[1])
                    best[oob.lpa] = (oob.seq, ppa, oob.owner)
                else:
                    stale.append(ppa)
        for ppa in stale:
            self.chip.invalidate(ppa)
        for lpa, (_, ppa, owner) in best.items():
            self.mapping.update(lpa, ppa, owner=owner)
        report.mappings_recovered = len(best)
        report.stale_copies_discarded = len(stale)
        self.allocator.rebuild_from_chip()
        report.scan_latency = report.pages_scanned * self.recovery_scan_latency_per_page
        # the rebuilt map must satisfy the bijectivity/accounting invariants;
        # a recovery that produced a corrupt map fails loudly (structured
        # error + reliability counter) instead of serving wrong addresses
        problems = self.check_mapping_integrity("power-loss recovery")
        monitor = self.invariant_monitor
        if monitor is not None:
            monitor.note_ftl_check(self, problems)
        if problems:
            if self.reliability is not None:
                self.reliability.recovery_integrity_failures += 1
            raise MappingIntegrityError("power-loss recovery", problems)
        if self.reliability is not None:
            self.reliability.power_loss_recoveries += 1
            self.reliability.faults_recovered += 1
            self.reliability.added_latency_s += report.scan_latency
        return report

    def _refresh_block(self, block: int) -> int:
        """Read-disturb refresh: rewrite valid pages, erase the block."""
        if self.allocator.is_active_block(block):
            self._block_read_counts[block] = 0
            return 0  # never refresh the block being filled
        moved = 0
        from repro.flash.chip import PageState

        for ppa in self.chip.pages_of_block(block):
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
                owner=old_oob.owner if old_oob is not None else PUBLIC_ID,
            )
            self.chip.invalidate(ppa)
            if lpa is not None:
                self.mapping.update(lpa, new_ppa)
            moved += 1
        self.chip.erase(block)
        self.allocator.release_block(block)
        self._block_read_counts[block] = 0
        self.stats.disturb_refreshes += 1
        return moved

    def read_data(self, lpa: int, tee_id: int = PUBLIC_ID) -> Optional[bytes]:
        """Functional read returning stored bytes (functional mode only)."""
        ppa = self.translate(lpa, tee_id)
        self.stats.host_reads += 1
        return self.chip.read(ppa)

    def write(
        self,
        lpa: int,
        data: Optional[bytes] = None,
        owner: Optional[int] = None,
    ) -> FtlOpCost:
        """Out-of-place write of a logical page; may trigger GC + leveling.

        Returns the total physical cost including any GC relocations, so a
        single host write can cost many flash operations (write
        amplification).
        """
        if not 0 <= lpa < self.logical_pages:
            raise ValueError(f"LPA {lpa} out of range [0, {self.logical_pages})")
        cost = FtlOpCost()
        new_ppa = self.allocator.allocate()
        prev = self.mapping.entry_unchecked(lpa)
        oob_owner = owner if owner is not None else (prev.owner if prev else PUBLIC_ID)
        self.chip.program(
            new_ppa, data if self.chip.store_data else None, lpa=lpa, owner=oob_owner
        )
        cost.page_programs += 1
        old_ppa = self.mapping.update(lpa, new_ppa, owner=owner)
        if old_ppa is not None:
            self.chip.invalidate(old_ppa)
        cost.ppa = new_ppa
        self.stats.host_writes += 1

        gc_total = GcResult()
        plane = self.geometry.plane_index(new_ppa)
        if self.gc.needs_gc(plane):
            gc_total.merge(self.gc.collect_plane(plane))
        monitor = self.invariant_monitor
        if gc_total.blocks_erased:
            cost.page_reads += gc_total.pages_relocated
            cost.page_programs += gc_total.pages_relocated
            cost.block_erases += gc_total.blocks_erased
            cost.gc = gc_total
            self.stats.gc_relocations += gc_total.pages_relocated
            self.stats.gc_erases += gc_total.blocks_erased
            if monitor is not None:
                monitor.after_ftl_step(self, "gc")

        wl = self.wear_leveler.level()
        if wl.migrations:
            cost.page_reads += wl.pages_moved
            cost.page_programs += wl.pages_moved
            cost.block_erases += wl.migrations
            self.stats.wl_migrations += wl.migrations
            if monitor is not None:
                monitor.after_ftl_step(self, "wear_level")
        return cost

    def trim(self, lpa: int) -> None:
        """Discard a logical page's mapping and invalidate its flash page."""
        ppa = self.mapping.unmap(lpa)
        if ppa is not None:
            self.chip.invalidate(ppa)

    def utilization(self) -> float:
        """Fraction of logical space currently mapped."""
        return len(self.mapping) / self.logical_pages
