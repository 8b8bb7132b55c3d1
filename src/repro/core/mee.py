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

The counters themselves follow one set of rules, :class:`CounterCore`,
which both engines hold. This module is the *timing/traffic* engine: it
holds no keys and imports no cipher. Functional encryption (real AES OTPs,
real MAC verification, real trees) lives in
:class:`repro.core.functional_mee.FunctionalMee`, over its own
:class:`CounterCore`.
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


@dataclass
class _SplitBlock:
    major: int = 0
    minors: List[int] = field(default_factory=lambda: [0] * LINES_PER_PAGE)

    def rekey(self) -> None:
        """Move to a fresh major; every minor restarts at 0."""
        self.major += 1
        self.minors = [0] * LINES_PER_PAGE


class CounterCore:
    """The §4.4 counter rules: the one owner of every encryption counter.

    Both engines hold one. The timing engine charges the promotions and
    re-keys that :meth:`bump` reports; the functional engine keys its pads
    and MACs with :meth:`pair` and hashes :meth:`leaf` into its Bonsai tree.
    A writable page has a split block (``split``); under ``HYBRID`` a
    read-only page keeps only a major counter (``major``). A line's (major,
    minor) never moves backwards: a write bumps its minor, and a re-key, a
    promotion or a demotion moves its page to a higher major. Holds no keys.
    """

    def __init__(self, scheme: EncryptionScheme, limit: int, pages: int = 0) -> None:
        self.scheme = scheme
        self.limit = limit  # writes to one line that overflow its minor counter
        # page -> split block, in creation order; pages [0, pages) up front
        self.split: Dict[int, _SplitBlock] = {page: _SplitBlock() for page in range(pages)}
        self.major: Dict[int, int] = {}  # HYBRID read-only page -> major counter
        self._leaves: Dict[int, bytes] = {}  # leaf() memo, dropped when a page moves

    def pair(self, page: int, line: int) -> Tuple[int, int]:
        """(major, minor) encryption counter of one line."""
        block = self.split.get(page)
        if block is None:
            return self.major.get(page, 0), 0
        return block.major, block.minors[line]

    def rekeys(self, page: int, line: int) -> bool:
        """Whether the next write to (page, line) re-keys the page, moving
        every other line of it to a new counter (``bump``'s ``rekeyed``)."""
        block = self.split.get(page)
        minor = 0 if block is None else block.minors[line]
        return minor + 1 >= self.limit

    def bump(self, page: int, line: int, readonly: bool = False) -> Tuple[bool, bool]:
        """Apply one write to (page, line); returns (promoted, rekeyed).

        ``readonly`` is the page's current permission. Under ``HYBRID`` a
        write to a read-only page promotes it: its split block starts one
        major past its major-only counter, so the page is re-encrypted. Any
        other page without a split block starts one at its major-only
        counter, which its lines already hold. The line's minor then moves
        up; at ``limit`` the page is re-keyed to a fresh major.
        """
        self._leaves.pop(page, None)
        block = self.split.get(page)
        promoted = False
        if block is None:
            major = self.major.pop(page, 0)
            promoted = readonly and self.scheme is EncryptionScheme.HYBRID
            block = self.split[page] = _SplitBlock(major + 1 if promoted else major)
        minors = block.minors
        minors[line] += 1
        if minors[line] < self.limit:
            return promoted, False
        block.rekey()
        return promoted, True

    def make_readonly(self, page: int) -> None:
        """Dynamic permission change back to read-only (§4.4, ``HYBRID`` only).

        The split block goes; the page's major counter, incremented, is
        copied back to the major-only counters.
        """
        if self.scheme is not EncryptionScheme.HYBRID:
            return
        block = self.split.pop(page, None)
        if block is not None:
            self.major[page] = block.major + 1
            self._leaves.pop(page, None)

    def next_generation(self) -> "CounterCore":
        """A new core with every split page at a fresh major: the overflow
        re-key, page by page, applied to a copy."""
        core = CounterCore(self.scheme, self.limit)
        core.split = {page: _SplitBlock(block.major + 1) for page, block in self.split.items()}
        return core

    def leaf(self, page: int) -> bytes:
        """A page's Bonsai leaf: its split block's major, then its minors."""
        leaf = self._leaves.get(page)
        if leaf is None:
            block = self.split[page]
            leaf = self._leaves[page] = block.major.to_bytes(8, "big") + bytes(block.minors)
        return leaf

    # -- checkpoint/restore ----------------------------------------------------

    def snapshot_state(self) -> List[Tuple[int, int, List[int]]]:
        """One ``(page, major, minors)`` per split block, in creation order.

        Major-only counters are not carried: the one checkpointed engine,
        the functional one, runs split counters only.
        """
        return [(page, block.major, list(block.minors)) for page, block in self.split.items()]

    def restore_state(self, state: List[Tuple[int, int, List[int]]]) -> None:
        self.split.clear()
        for page, major, minors in state:
            self.split[page] = _SplitBlock(major, list(minors))
        self.major.clear()
        self._leaves.clear()


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


# Counter-cache keys are ints. The low two bits hold the line's kind, the
# next six its tree level (0 for a counter or MAC line; a Bonsai tree over
# any real DRAM is far shallower than 64 levels), the rest its index within
# that kind and level. Only this module builds or reads them.
_SPLIT = 0  # a split-counter block, or a node of the split tree
_MAJOR = 1  # a major-counter block, or a node of the major tree
_MAC = 2  # a MAC line: the MACs of 8 data lines
_KIND_MASK = 3
_LEVEL_SHIFT = 2
_INDEX_SHIFT = 8
_MAC_LINES_PER_PAGE = LINES_PER_PAGE // MACS_PER_LINE


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
        self.counters = CounterCore(scheme, config.minor_counter_limit)
        self.stats = MeeStats()
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

    def replay(self, events: "List[Tuple[int, int, bool, bool]]") -> None:
        """Account ``(page, line, is_write, readonly)`` events, in order.

        ``readonly`` is the page's current permission. A read whose counter
        line is cached has its OTP precomputed and its MAC check pipelined
        with data use, so nothing lands on the critical path; a miss
        serializes the counter fetch, the uncached part of the tree walk
        (which stops at the first cached, already verified node) and the OTP
        generation. Under HYBRID a read-only page shares a major-counter
        line with 7 others, and its reads skip the per-line MAC check
        (§4.4); SC-64 verifies every access. The per-line data MAC rides in
        the DRAM spare area with the data, so a read pays MAC compute but no
        extra fetch (this is what keeps read-side verification traffic at
        the ~2% Table 6 reports).

        A write bumps the line's counter in :attr:`counters`. A write to a
        read-only page under HYBRID promotes the page (§4.4), and a minor
        overflow re-keys it; either re-encrypts all 64 lines, which streams
        through the AES pipeline and is the only write cost that stalls it
        (writes drain through the write buffer). The write then dirties the
        page's counter line, its whole tree path and its MAC line.

        State carries across calls. Counts are kept in locals and folded
        into :attr:`stats` and :attr:`cache` when the call returns, or when a
        line outside the page raises ``ValueError`` (the events before it
        stay counted). Float totals are summed in event order, so they are
        bit-identical to booking each access on its own.
        """
        stats = self.stats
        if self.scheme is EncryptionScheme.NONE:
            for _page, line, is_write, _readonly in events:
                if not 0 <= line < LINES_PER_PAGE:
                    raise ValueError(f"line {line} out of range [0, {LINES_PER_PAGE})")
                if is_write:
                    stats.data_writes += 1
                else:
                    stats.data_reads += 1
            return
        cache = self.cache
        lru = cache.lru
        move_to_end = lru.move_to_end
        get = lru.get
        popitem = lru.popitem
        capacity = cache.capacity_lines
        split = self.counters.split
        bump = self.counters.bump
        hybrid = self.scheme is EncryptionScheme.HYBRID
        aes = self.config.aes_delay
        mac_time = self.mac_compute_time
        dram = self.dram_latency
        reencrypt_latency = LINES_PER_PAGE * aes
        reencrypt_stall = LINES_PER_PAGE * (aes + dram)
        reencrypt_lines = 2 * LINES_PER_PAGE  # read + write every line
        # a tree walk's node keys less their index, one per level, leaf upwards
        split_walk, major_walk = (
            [level << _LEVEL_SHIFT | kind for level in range(1, depth + 1)]
            for kind, depth in ((_SPLIT, self.split_tree_depth), (_MAJOR, self.major_tree_depth))
        )
        reads = writes = split_reads = 0
        hits = misses = dirty_evictions = clean_evictions = 0
        promotions = overflows = 0
        encryption_lines = stats.encryption_lines
        verification_lines = stats.verification_lines
        encryption_total = stats.encryption_latency_total
        verification_total = stats.verification_latency_total
        critical_total = stats.critical_latency_total
        try:
            for page, line, is_write, readonly in events:
                if not 0 <= line < LINES_PER_PAGE:
                    raise ValueError(f"line {line} out of range [0, {LINES_PER_PAGE})")
                if not is_write:
                    reads += 1
                    # HYBRID: a read-only page uses its major-counter line
                    # unless a write has promoted it
                    use_split = not (hybrid and readonly) or page in split
                    if use_split:
                        leaf = page
                        key = leaf << _INDEX_SHIFT | _SPLIT
                    else:
                        leaf = page // MAJOR_COUNTERS_PER_BLOCK
                        key = leaf << _INDEX_SHIFT | _MAJOR
                    if key in lru:
                        hits += 1
                        move_to_end(key)
                        encryption_total += aes
                        if use_split:
                            split_reads += 1
                            verification_total += mac_time
                        continue
                    misses += 1
                    counter_wb = mac_wb = tree_wb = fetched = 0
                    if len(lru) >= capacity:
                        victim, victim_dirty = popitem(False)
                        if victim_dirty:
                            dirty_evictions += 1
                            # classed by the evicting access, not its own kind (ROADMAP: fidelity)
                            if victim & _KIND_MASK == _MAC:
                                mac_wb = 1
                            else:
                                counter_wb = 1
                        else:
                            clean_evictions += 1
                    lru[key] = False
                    for tag in split_walk if use_split else major_walk:
                        leaf //= TREE_ARITY
                        node = leaf << _INDEX_SHIFT | tag
                        if node in lru:
                            hits += 1
                            move_to_end(node)
                            break
                        misses += 1
                        if len(lru) >= capacity:
                            if popitem(False)[1]:
                                dirty_evictions += 1
                                tree_wb += 1
                            else:
                                clean_evictions += 1
                        lru[node] = False
                        fetched += 1
                    encryption_lines += 1 + counter_wb
                    verification_lines += mac_wb + fetched + tree_wb
                    # fetch the counter and each uncached node in turn, then
                    # generate the OTP before the data can be decrypted
                    latency = aes + (dram * (1 + fetched) + aes)
                    encryption_total += latency
                    if use_split:
                        split_reads += 1
                        verification_total += mac_time + mac_time * fetched
                    critical_total += latency
                    continue

                writes += 1
                latency = aes
                reencrypted = 0
                promoted, rekeyed = bump(page, line, readonly)
                if promoted:
                    promotions += 1
                    reencrypted += reencrypt_lines
                    latency += reencrypt_latency
                if rekeyed:
                    overflows += 1
                    reencrypted += reencrypt_lines
                    latency += reencrypt_latency
                counter_read = counter_wb = mac_read = mac_wb = tree_read = tree_wb = 0
                # counter line, fetched for ownership on a miss; then the
                # page's tree path and its MAC line. Each touch dirties its
                # line and moves it to the most recently used end.
                key = page << _INDEX_SHIFT | _SPLIT
                dirty = get(key)
                if dirty is None:
                    misses += 1
                    counter_read = 1
                    latency += dram
                    if len(lru) >= capacity:
                        victim, victim_dirty = popitem(False)
                        if victim_dirty:
                            dirty_evictions += 1
                            if victim & _KIND_MASK == _MAC:
                                mac_wb = 1
                            else:
                                counter_wb = 1
                        else:
                            clean_evictions += 1
                    lru[key] = True
                else:
                    hits += 1
                    move_to_end(key)
                    if not dirty:
                        lru[key] = True
                leaf = page
                for tag in split_walk:
                    leaf //= TREE_ARITY
                    node = leaf << _INDEX_SHIFT | tag
                    dirty = get(node)
                    if dirty is None:
                        misses += 1
                        tree_read += 1
                        if len(lru) >= capacity:
                            if popitem(False)[1]:
                                dirty_evictions += 1
                                tree_wb += 1
                            else:
                                clean_evictions += 1
                        lru[node] = True
                    else:
                        hits += 1
                        move_to_end(node)
                        if not dirty:
                            lru[node] = True
                key = (
                    (page * _MAC_LINES_PER_PAGE + line // MACS_PER_LINE) << _INDEX_SHIFT | _MAC
                )
                dirty = get(key)
                if dirty is None:
                    misses += 1
                    mac_read = 1
                    if len(lru) >= capacity:
                        victim, victim_dirty = popitem(False)
                        if victim_dirty:
                            dirty_evictions += 1
                            if victim & _KIND_MASK == _MAC:
                                mac_wb += 1
                            else:
                                counter_wb += 1
                        else:
                            clean_evictions += 1
                    lru[key] = True
                else:
                    hits += 1
                    move_to_end(key)
                    if not dirty:
                        lru[key] = True
                if reencrypted:
                    critical_total += reencrypt_stall
                encryption_lines += counter_read + counter_wb + reencrypted
                verification_lines += mac_read + mac_wb + tree_read + tree_wb
                encryption_total += latency
                verification_total += mac_time
        finally:
            stats.data_reads += reads
            stats.data_writes += writes
            stats.encryption_ops += reads + writes
            stats.verification_ops += split_reads + writes
            stats.permission_promotions += promotions
            stats.minor_overflows += overflows
            stats.reencryptions += promotions + overflows
            stats.encryption_lines = encryption_lines
            stats.verification_lines = verification_lines
            stats.encryption_latency_total = encryption_total
            stats.verification_latency_total = verification_total
            stats.critical_latency_total = critical_total
            cache.hits += hits
            cache.misses += misses
            cache.dirty_evictions += dirty_evictions
            cache.clean_evictions += clean_evictions

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
