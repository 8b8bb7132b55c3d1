"""Memory encryption engine with the hybrid-counter scheme (§4.4, Fig. 7).

Counter organization (64-byte metadata lines):

- **Split-counter block** (SC-64): one 64-bit major counter plus 64 7-bit
  minor counters — covers the 64 cache lines of one 4 KB page. Used for all
  pages under ``SPLIT_COUNTER`` and for *writable* pages under ``HYBRID``.
- **Major-counter block**: eight 64-bit major counters — covers *eight*
  read-only pages per metadata line (``HYBRID`` only). Because read-only
  pages never bump minors, dropping them packs 8× more coverage per counter
  cache line, which is the entire Figure 8 win.

Each data line also carries an 8-byte MAC (8 MACs per metadata line), and
counter blocks are protected by a Bonsai Merkle tree per counter type; both
roots live on-chip. A counter-cache hit means the counter (and the tree
path that authenticated it) is already verified on-chip, so the OTP can be
precomputed and decryption is pipelined; a miss serializes the counter
fetch plus the uncached part of the tree walk.

This module is the *timing/traffic* engine: it holds no keys and imports
no cipher. Functional encryption (real AES OTPs, real MAC verification,
real trees) lives in :class:`repro.core.functional_mee.FunctionalMee`,
built on the same counter layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple

from repro.core.config import IceClaveConfig
from repro.core.counter_cache import CounterCache

LINES_PER_PAGE = 64  # 4 KB page / 64 B line
MAJOR_COUNTERS_PER_BLOCK = 8
MACS_PER_LINE = 8
TREE_ARITY = 8


class EncryptionScheme(Enum):
    NONE = "none"
    SPLIT_COUNTER = "sc64"
    HYBRID = "hybrid"


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


@dataclass
class _SplitBlock:
    major: int = 0
    minors: List[int] = field(default_factory=lambda: [0] * LINES_PER_PAGE)


@dataclass
class MeeStats:
    data_reads: int = 0
    data_writes: int = 0
    encryption_lines: float = 0.0
    verification_lines: float = 0.0
    encryption_latency_total: float = 0.0
    verification_latency_total: float = 0.0
    critical_latency_total: float = 0.0
    encryption_ops: int = 0
    verification_ops: int = 0
    reencryptions: int = 0
    minor_overflows: int = 0
    permission_promotions: int = 0

    @property
    def data_lines(self) -> int:
        return self.data_reads + self.data_writes

    def encryption_extra_traffic(self) -> float:
        """Extra memory traffic from encryption, as a fraction (Table 6)."""
        return self.encryption_lines / self.data_lines if self.data_lines else 0.0

    def verification_extra_traffic(self) -> float:
        """Extra memory traffic from integrity verification (Table 6)."""
        return self.verification_lines / self.data_lines if self.data_lines else 0.0

    def mean_encryption_latency(self) -> float:
        """Average per-op encryption latency (Table 5: 102.6 ns)."""
        return (
            self.encryption_latency_total / self.encryption_ops
            if self.encryption_ops
            else 0.0
        )

    def mean_verification_latency(self) -> float:
        """Average per-op verification latency (Table 5: 151.2 ns)."""
        return (
            self.verification_latency_total / self.verification_ops
            if self.verification_ops
            else 0.0
        )


class MemoryEncryptionEngine:
    """Counter management, counter-cache simulation, and cost accounting."""

    def __init__(
        self,
        config: IceClaveConfig = IceClaveConfig(),
        scheme: EncryptionScheme = EncryptionScheme.HYBRID,
        dram_latency: float = 90e-9,
        mac_compute_time: float = 80e-9,
    ) -> None:
        self.config = config
        self.scheme = scheme
        self.dram_latency = dram_latency
        self.mac_compute_time = mac_compute_time
        self.cache = CounterCache(config.counter_cache_bytes, config.cache_line_bytes)
        self._split: Dict[int, _SplitBlock] = {}
        self._major: Dict[int, int] = {}  # page -> major counter
        self.stats = MeeStats()
        # runtime invariant monitor (repro.recovery); None = disabled
        self.invariant_monitor = None
        self.split_tree_depth, self.major_tree_depth = self.tree_depths(config)

    @classmethod
    def tree_depths(cls, config: IceClaveConfig) -> Tuple[int, int]:
        """(split, major) Bonsai tree depths, sized for the whole protected DRAM.

        The only way ``dram_bytes`` and ``page_bytes`` reach this engine.
        """
        dram_pages = config.dram_bytes // config.page_bytes
        return (
            cls._depth(dram_pages),
            cls._depth(math.ceil(dram_pages / MAJOR_COUNTERS_PER_BLOCK)),
        )

    @staticmethod
    def _depth(leaves: int) -> int:
        """The smallest depth >= 1 with ``TREE_ARITY**depth >= leaves``.

        Computed in integers: a float log overshoots by one level at exact
        powers of the arity (``math.log(8**7, 8)`` is 7.000000000000001).
        """
        depth = 1
        while TREE_ARITY**depth < leaves:
            depth += 1
        return depth

    # -- counter bookkeeping -------------------------------------------------

    def _uses_split_block(self, page: int, readonly: bool) -> bool:
        if self.scheme is EncryptionScheme.SPLIT_COUNTER:
            return True
        # HYBRID: read-only pages use major blocks unless already promoted
        return (not readonly) or page in self._split

    def _counter_key(self, page: int, readonly: bool) -> Tuple[str, int]:
        if self._uses_split_block(page, readonly):
            return ("ctr-s", page)
        return ("ctr-m", page // MAJOR_COUNTERS_PER_BLOCK)

    def counter_of(self, page: int, line: int, readonly: bool) -> Tuple[int, int]:
        """(major, minor) encryption counter for one cache line."""
        if self._uses_split_block(page, readonly):
            block = self._split.setdefault(page, _SplitBlock())
            return block.major, block.minors[line]
        return self._major.get(page, 0), 0

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
        cache_access = self.cache.access
        for level in range(1, depth + 1):
            index //= TREE_ARITY
            hit, victim = cache_access((kind, level, index), dirty=dirty)
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

        # Inlined _counter_key/_uses_split_block/_book: this method runs once
        # per protected DRAM access and dominates MEE replay time, so the
        # common (hybrid, read-only, counter-hit) path avoids helper calls.
        if scheme is EncryptionScheme.SPLIT_COUNTER:
            use_split = True
        else:
            # HYBRID: read-only pages use major blocks unless already promoted
            use_split = (not readonly) or page in self._split
        if use_split:
            key = ("ctr-s", page)
        else:
            key = ("ctr-m", page // MAJOR_COUNTERS_PER_BLOCK)
        hit, victim = self.cache.access(key)
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

        split = self._split
        if scheme is EncryptionScheme.HYBRID and readonly and page not in split:
            enc_latency += self._promote_page(page, result)

        block = split.get(page)
        if block is None:
            block = split[page] = _SplitBlock()
        minors = block.minors
        minors[line] += 1
        if minors[line] >= self.config.minor_counter_limit:
            # minor overflow: bump major, reset minors, re-encrypt the page
            block.major += 1
            block.minors = [0] * LINES_PER_PAGE
            stats.minor_overflows += 1
            enc_latency += self._reencrypt_page(result)

        cache_access = self.cache.access
        hit, victim = cache_access(("ctr-s", page), dirty=True)
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
        mac_hit, mac_victim = cache_access(("mac", page, line // MACS_PER_LINE), dirty=True)
        if mac_victim is not None:
            self._charge_victim(mac_victim, result)
        if not mac_hit:
            result.mac_read_lines += 1

        result.latency = enc_latency + verify_latency
        # writes drain through the write buffer; only page re-encryption
        # storms stall the pipeline (inlined _book, as in ``read``)
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
        monitor = self.invariant_monitor
        if monitor is not None:
            monitor.after_timing_mee_write(self, page, line)
        return result

    def replay(self, events: "List[Tuple[int, int, bool, bool]]") -> None:
        """Replay ``(page, line, is_write, readonly)`` events in bulk.

        Bit-identical in stats to calling :meth:`read`/:meth:`write` per
        event, but the dominant case — a counter-cache *hit* on a read —
        runs without allocating a :class:`MeeAccessResult` at all. That is
        sound because a hit never evicts (the cache only returns victims on
        fills), so every per-access traffic field would be 0.0, and adding
        0.0 to the non-negative stats accumulators is a bitwise no-op.
        """
        stats = self.stats
        scheme = self.scheme
        if scheme is EncryptionScheme.NONE:
            for _page, _line, is_write, _readonly in events:
                if is_write:
                    stats.data_writes += 1
                else:
                    stats.data_reads += 1
            return
        split = self._split
        cache_access = self.cache.access
        config = self.config
        mac_time = self.mac_compute_time
        hybrid = scheme is EncryptionScheme.HYBRID
        # scratch record for the miss path: hoisted out of the loop and
        # reset in place, so even misses stop allocating. It never escapes
        # (its fields are folded into the run stats below).
        scratch = MeeAccessResult()
        for page, line, is_write, readonly in events:
            if is_write:
                self.write(page, line, readonly=readonly)
                continue
            if not 0 <= line < LINES_PER_PAGE:
                raise ValueError(f"line {line} out of range [0, {LINES_PER_PAGE})")
            stats.data_reads += 1
            if hybrid:
                use_split = (not readonly) or page in split
            else:
                use_split = True
            if use_split:
                key = ("ctr-s", page)
            else:
                key = ("ctr-m", page // MAJOR_COUNTERS_PER_BLOCK)
            hit, victim = cache_access(key)
            if hit:
                # fast path: no traffic, nothing serialized, no allocation
                stats.encryption_latency_total += config.aes_delay
                stats.encryption_ops += 1
                if use_split:
                    stats.verification_latency_total += mac_time
                    stats.verification_ops += 1
                continue
            # miss path: mirror read()'s accounting exactly
            result = scratch
            result.reset()
            if victim is not None:
                self._charge_victim(victim, result)
            result.counter_hit = False
            enc_latency = config.aes_delay
            verify_latency = mac_time if use_split else 0.0
            result.counter_read_lines += 1
            depth = self.split_tree_depth if use_split else self.major_tree_depth
            t_reads, t_wb, serialized = self._tree_walk(key[0], key[1], depth, dirty=False)
            result.tree_read_lines += t_reads
            result.tree_write_lines += t_wb
            enc_latency += self.dram_latency * (1 + serialized) + config.aes_delay
            verify_latency += mac_time * serialized
            result.latency = enc_latency + verify_latency
            stats.encryption_lines += (
                result.counter_read_lines
                + result.counter_write_lines
                + result.reencrypt_lines
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
            stats.critical_latency_total += enc_latency

    def make_readonly(self, page: int) -> None:
        """Dynamic permission change back to read-only (§4.4).

        The major counter is incremented and copied back to the major tree;
        split state is dropped.
        """
        if self.scheme is not EncryptionScheme.HYBRID:
            return
        block = self._split.pop(page, None)
        if block is not None:
            self._major[page] = block.major + 1

    # -- helpers ----------------------------------------------------------------

    def _promote_page(self, page: int, result: MeeAccessResult) -> float:
        """Read-only → writable: seed split state and re-encrypt the page."""
        major = self._major.pop(page, 0)
        self._split[page] = _SplitBlock(major=major + 1)
        self.stats.permission_promotions += 1
        return self._reencrypt_page(result)

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

    def _book(
        self,
        result: MeeAccessResult,
        enc_latency: float,
        verify_latency: float,
        critical: float,
        performed_verify: bool = True,
    ) -> None:
        self.stats.encryption_lines += result.encryption_lines
        self.stats.verification_lines += result.verification_lines
        self.stats.encryption_latency_total += enc_latency
        self.stats.encryption_ops += 1
        if performed_verify:
            self.stats.verification_latency_total += verify_latency
            self.stats.verification_ops += 1
        self.stats.critical_latency_total += critical

    # -- aggregates -----------------------------------------------------------------

    def mean_access_overhead(self) -> float:
        """Average *critical-path* latency added per data access.

        Hit-path encryption/verification pipelines with data use; only the
        serialized miss paths and re-encryption storms slow the program.
        The full per-op latencies (Table 5) are in ``stats``.
        """
        ops = self.stats.data_lines
        if not ops:
            return 0.0
        return self.stats.critical_latency_total / ops
