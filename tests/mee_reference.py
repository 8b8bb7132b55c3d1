"""The timing MEE's per-access reference: one protected cache line at a time.

``MemoryEncryptionEngine.replay`` is the engine's one per-event path; it
inlines the cache, the tree walks and the cost booking into one loop. This
module keeps the per-access code that loop was written from, as it stood in
the engine: each access touches the counter cache through
:func:`cache_access` (once ``CounterCache.access``) with tuple keys and
returns a :class:`MeeAccessResult`. The differential tests drive both over the same
events and compare every statistic bitwise, so the reference defines what
``replay`` must produce.
"""

from __future__ import annotations

from typing import Hashable, Optional, Tuple

from repro.core.counter_cache import CounterCache
from repro.core.mee import (
    LINES_PER_PAGE,
    MACS_PER_LINE,
    MAJOR_COUNTERS_PER_BLOCK,
    TREE_ARITY,
    EncryptionScheme,
    MemoryEncryptionEngine,
)


def cache_access(
    cache: CounterCache, key: Hashable, dirty: bool = False
) -> Tuple[bool, Optional[Hashable]]:
    """Touch a metadata line of ``cache``.

    Returns ``(hit, dirty_victim_key)``: whether the line was resident,
    and — when the fill evicted a dirty line — that victim's key (the
    caller charges its write-back). ``dirty_victim_key`` is None when
    nothing dirty was evicted.
    """
    dirty_victim = None
    lru = cache.lru
    if key in lru:
        cache.hits += 1
        lru.move_to_end(key)
        if dirty:
            lru[key] = True
        return True, dirty_victim
    cache.misses += 1
    if len(lru) >= cache.capacity_lines:
        victim_key, victim_dirty = lru.popitem(last=False)
        if victim_dirty:
            cache.dirty_evictions += 1
            dirty_victim = victim_key
        else:
            cache.clean_evictions += 1
    lru[key] = dirty
    return False, dirty_victim


class MeeAccessResult:
    """Cost of one protected memory access.

    A slotted plain class (not a dataclass): one is allocated per protected
    DRAM access, which makes construction cost part of the simulator's
    innermost loop.
    """

    __slots__ = (
        "latency",
        "counter_hit",
        "counter_read_lines",
        "counter_write_lines",
        "reencrypt_lines",
        "mac_read_lines",
        "mac_write_lines",
        "tree_read_lines",
        "tree_write_lines",
        "reencrypted_page",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Re-initialize in place (scratch reuse on the replay path)."""
        self.latency = 0.0
        self.counter_hit = True
        self.counter_read_lines = 0.0  # encryption traffic (reads)
        self.counter_write_lines = 0.0  # encryption traffic (write-backs)
        self.reencrypt_lines = 0.0  # encryption traffic (page re-encryption)
        self.mac_read_lines = 0.0  # verification traffic
        self.mac_write_lines = 0.0
        self.tree_read_lines = 0.0
        self.tree_write_lines = 0.0
        self.reencrypted_page = False

    @property
    def encryption_lines(self) -> float:
        return self.counter_read_lines + self.counter_write_lines + self.reencrypt_lines

    @property
    def verification_lines(self) -> float:
        return (
            self.mac_read_lines
            + self.mac_write_lines
            + self.tree_read_lines
            + self.tree_write_lines
        )


class ReferenceMee(MemoryEncryptionEngine):
    """A timing MEE that also accounts one access at a time."""

    # -- tree walk simulation ----------------------------------------------------

    def _tree_walk(
        self, kind: str, leaf_index: int, depth: int, dirty: bool
    ) -> Tuple[float, float, float]:
        """Walk a counter's tree path through the cache.

        Returns (read_lines, writeback_lines, serialized_levels). The walk
        stops at the first cached (already verified) node on reads; updates
        touch the whole path and dirty it.
        """
        reads = 0.0
        writebacks = 0.0
        serialized = 0.0
        index = leaf_index
        cache = self.cache
        for level in range(1, depth + 1):
            index //= TREE_ARITY
            hit, victim = cache_access(cache, (kind, level, index), dirty=dirty)
            if victim is not None:
                writebacks += 1
            if hit and not dirty:
                break
            if not hit:
                reads += 1
                serialized += 1
        return reads, writebacks, serialized

    def _is_counter_key(self, key) -> bool:
        return isinstance(key, tuple) and isinstance(key[0], str) and key[0].startswith("ctr")

    def _charge_victim(self, victim, result: MeeAccessResult) -> None:
        if victim is None:
            return
        if self._is_counter_key(victim):
            result.counter_write_lines += 1
        elif victim[0] == "mac":
            result.mac_write_lines += 1
        else:
            result.tree_write_lines += 1

    # -- the two access paths ------------------------------------------------------

    def read(self, page: int, line: int = 0, readonly: bool = True) -> MeeAccessResult:
        """Account one protected cache-line read from DRAM.

        On a counter-cache hit the OTP is precomputed and the MAC check is
        pipelined with data use, so nothing lands on the critical path; a
        miss serializes the counter fetch, the uncached tree walk, and the
        OTP generation.
        """
        if not 0 <= line < LINES_PER_PAGE:
            raise ValueError(f"line {line} out of range [0, {LINES_PER_PAGE})")
        result = MeeAccessResult()
        stats = self.stats
        stats.data_reads += 1
        scheme = self.scheme
        if scheme is EncryptionScheme.NONE:
            return result

        # Inlined counter-line choice and stats booking: this method runs
        # once per protected DRAM access (``replay`` inlines it again), so the
        # common (hybrid, read-only, counter-hit) path avoids helper calls.
        if scheme is EncryptionScheme.SPLIT_COUNTER:
            use_split = True
        else:
            # HYBRID: read-only pages use major blocks unless already promoted
            use_split = (not readonly) or page in self.counters.split
        if use_split:
            key = ("ctr-s", page)
        else:
            key = ("ctr-m", page // MAJOR_COUNTERS_PER_BLOCK)
        hit, victim = cache_access(self.cache, key)
        if victim is not None:
            self._charge_victim(victim, result)
        result.counter_hit = hit
        enc_latency = self.config.aes_delay  # OTP generation (pipelined on hits)
        # §4.4: under the hybrid scheme, read-only pages never change, so
        # their reads skip per-line MAC verification (the counter path is
        # still authenticated on a miss). SC-64 verifies every access.
        # ``use_split`` is False exactly on that skip path (NONE returned
        # early, and SPLIT_COUNTER always splits).
        verify_latency = self.mac_compute_time if use_split else 0.0
        if hit:
            critical = 0.0
        else:
            # serialized: fetch counter, authenticate the uncached tree path,
            # then generate the OTP before the data can be decrypted
            result.counter_read_lines += 1
            if use_split:
                depth = self.split_tree_depth
            else:
                depth = self.major_tree_depth
            t_reads, t_wb, serialized = self._tree_walk(key[0], key[1], depth, dirty=False)
            result.tree_read_lines += t_reads
            result.tree_write_lines += t_wb
            enc_latency += self.dram_latency * (1 + serialized) + self.config.aes_delay
            verify_latency += self.mac_compute_time * serialized
            critical = enc_latency
        # The per-line data MAC rides in the DRAM spare area alongside the
        # data burst, so reads pay MAC *compute* but no extra fetch traffic
        # (this is what keeps read-side verification traffic at the ~2%
        # Table 6 reports).
        result.latency = enc_latency + verify_latency
        stats.encryption_lines += (
            result.counter_read_lines + result.counter_write_lines + result.reencrypt_lines
        )
        stats.verification_lines += (
            result.mac_read_lines
            + result.mac_write_lines
            + result.tree_read_lines
            + result.tree_write_lines
        )
        stats.encryption_latency_total += enc_latency
        stats.encryption_ops += 1
        if use_split:
            stats.verification_latency_total += verify_latency
            stats.verification_ops += 1
        stats.critical_latency_total += critical
        return result

    def write(self, page: int, line: int = 0, readonly: bool = False) -> MeeAccessResult:
        """Account one protected cache-line write back to DRAM.

        ``readonly`` describes the page's *current* permission: writing a
        read-only page under HYBRID triggers the dynamic permission change
        of §4.4 (major counter promoted into the split tree, page
        re-encrypted).
        """
        if not 0 <= line < LINES_PER_PAGE:
            raise ValueError(f"line {line} out of range [0, {LINES_PER_PAGE})")
        result = MeeAccessResult()
        stats = self.stats
        stats.data_writes += 1
        scheme = self.scheme
        if scheme is EncryptionScheme.NONE:
            return result

        enc_latency = self.config.aes_delay  # encrypt the outgoing line
        verify_latency = self.mac_compute_time  # fresh MAC over the line

        promoted, rekeyed = self.counters.bump(page, line, readonly)
        if promoted:
            stats.permission_promotions += 1
            enc_latency += self._reencrypt_page(result)
        if rekeyed:  # minor overflow: the page moved to a fresh major
            stats.minor_overflows += 1
            enc_latency += self._reencrypt_page(result)

        cache = self.cache
        hit, victim = cache_access(cache, ("ctr-s", page), dirty=True)
        if victim is not None:
            self._charge_victim(victim, result)
        result.counter_hit = hit
        if not hit:
            result.counter_read_lines += 1  # fetch-for-ownership of the block
            enc_latency += self.dram_latency

        # the write dirties the tree path (BMT update) and the MAC line
        t_reads, t_wb, _ = self._tree_walk("ctr-s", page, self.split_tree_depth, dirty=True)
        result.tree_read_lines += t_reads
        result.tree_write_lines += t_wb
        mac_hit, mac_victim = cache_access(
            cache, ("mac", page, line // MACS_PER_LINE), dirty=True
        )
        if mac_victim is not None:
            self._charge_victim(mac_victim, result)
        if not mac_hit:
            result.mac_read_lines += 1

        result.latency = enc_latency + verify_latency
        # writes drain through the write buffer; only page re-encryption
        # storms stall the pipeline (stats booked inline, as in ``read``)
        critical = self._reencrypt_stall if result.reencrypted_page else 0.0
        stats.encryption_lines += (
            result.counter_read_lines + result.counter_write_lines + result.reencrypt_lines
        )
        stats.verification_lines += (
            result.mac_read_lines
            + result.mac_write_lines
            + result.tree_read_lines
            + result.tree_write_lines
        )
        stats.encryption_latency_total += enc_latency
        stats.encryption_ops += 1
        stats.verification_latency_total += verify_latency
        stats.verification_ops += 1
        stats.critical_latency_total += critical
        return result

    # -- helpers ----------------------------------------------------------------

    @property
    def _reencrypt_stall(self) -> float:
        return LINES_PER_PAGE * (self.config.aes_delay + self.dram_latency)

    def _reencrypt_page(self, result: MeeAccessResult) -> float:
        """Re-encrypt all 64 lines of a page under a fresh counter."""
        result.reencrypt_lines += 2 * LINES_PER_PAGE  # read + write every line
        result.reencrypted_page = True
        self.stats.reencryptions += 1
        # the re-encryption streams through the AES pipeline
        return LINES_PER_PAGE * self.config.aes_delay


def per_access(mee: ReferenceMee, events) -> None:
    """Drive ``mee`` one ``(page, line, is_write, readonly)`` event at a time."""
    for page, line, is_write, readonly in events:
        (mee.write if is_write else mee.read)(page, line, readonly=readonly)
