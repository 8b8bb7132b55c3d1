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

This module is the *timing/traffic* engine. Functional encryption (real
AES OTPs, real MAC verification, real trees) lives in
:class:`FunctionalMee` at the bottom, built on the same counter state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Dict, List, Tuple

from repro.core.config import IceClaveConfig
from repro.core.counter_cache import CounterCache
from repro.core.exceptions import IntegrityError
from repro.core.integrity import BonsaiMerkleTree
from repro.crypto.aes import AES128
from repro.crypto.mac import Mac

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
        self.invariant_monitor = None  # repro: allow[recovery-unserialized-state] -- monitors are re-armed by their owner after restore, never serialized
        # tree depths are sized for the whole protected DRAM
        dram_pages = config.dram_bytes // config.page_bytes
        self.split_tree_depth = self._depth(dram_pages)
        self.major_tree_depth = self._depth(
            math.ceil(dram_pages / MAJOR_COUNTERS_PER_BLOCK)
        )

    @staticmethod
    def _depth(leaves: int) -> int:
        return max(1, math.ceil(math.log(max(2, leaves), TREE_ARITY)))

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

    @staticmethod
    def _check_line(line: int) -> None:
        if not 0 <= line < LINES_PER_PAGE:
            raise ValueError(f"line {line} out of range [0, {LINES_PER_PAGE})")

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

    def metadata_storage_bytes(self) -> int:
        """Current counter storage footprint."""
        line = self.config.cache_line_bytes
        split = len(self._split) * line
        major = math.ceil(len(self._major) / MAJOR_COUNTERS_PER_BLOCK) * line
        return split + major

    # -- checkpoint/restore --------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Counter state, cache contents and cost accounting.

        Config/scheme/latencies and the derived tree depths
        (``split_tree_depth``/``major_tree_depth``) are constructor-owned.
        """
        return {
            "cache": self.cache.snapshot_state(),
            "split": [
                (page, block.major, list(block.minors))
                for page, block in self._split.items()
            ],
            "major": [(page, major) for page, major in self._major.items()],
            "stats": {
                f.name: getattr(self.stats, f.name) for f in fields(self.stats)
            },
        }

    def restore_state(self, state: dict) -> None:
        self.cache.restore_state(state["cache"])
        self._split = {
            page: _SplitBlock(major=major, minors=list(minors))
            for page, major, minors in state["split"]
        }
        self._major = {page: major for page, major in state["major"]}
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)


class FunctionalMee:
    """Real encryption/MAC/tree machinery over a small page range.

    Used by tests and the attack demo to show that ciphertext in DRAM is
    unintelligible, tampering is caught by MACs, and replay is caught by
    the Bonsai Merkle tree.
    """

    def __init__(self, pages: int, aes_key: bytes, mac_key: bytes) -> None:
        if pages < 1:
            raise ValueError("need at least one page")
        self.pages = pages
        self._aes = AES128(aes_key)
        self._mac = Mac(mac_key)
        self._counters: Dict[int, _SplitBlock] = {
            p: _SplitBlock() for p in range(pages)
        }
        # serialized-counter cache: read_line re-serializes the page counter
        # for every tree verification, but counters only change in write_line
        self._ser_cache: Dict[int, bytes] = {}
        self.tree = BonsaiMerkleTree(mac_key, arity=TREE_ARITY)
        self.tree.build([self._serialize_counter(p) for p in range(pages)])
        # attacker-visible stores: ciphertext and MACs live in "DRAM"
        self.dram_ciphertext: Dict[Tuple[int, int], bytes] = {}
        self.dram_macs: Dict[Tuple[int, int], bytes] = {}
        # runtime invariant monitor (repro.recovery); None = disabled
        self.invariant_monitor = None  # repro: allow[recovery-unserialized-state] -- monitors are re-armed by their owner after restore, never serialized

    def _serialize_counter(self, page: int) -> bytes:
        cached = self._ser_cache.get(page)
        if cached is None:
            block = self._counters[page]
            cached = block.major.to_bytes(8, "big") + bytes(
                m & 0x7F for m in block.minors
            )
            self._ser_cache[page] = cached
        return cached

    def _line_counter(self, page: int, line: int) -> bytes:
        """The counter material a line's MAC binds: major + its own minor.

        Binding the whole counter block would invalidate every sibling
        line's MAC on each write to the page; binding only this line's
        minor keeps MACs independent while replay of a stale pair still
        fails (the minor has moved on).
        """
        block = self._counters[page]
        return block.major.to_bytes(8, "big") + bytes([block.minors[line] & 0x7F])

    def _otp(self, page: int, line: int, nbytes: int) -> bytes:
        major, minor = (
            self._counters[page].major,
            self._counters[page].minors[line],
        )
        seed = (major << 40) ^ (minor << 24) ^ (page << 8) ^ line
        return self._aes.otp(seed, nbytes)

    def write_line(self, page: int, line: int, plaintext: bytes) -> None:
        """Encrypt + MAC a line into DRAM, bumping its minor counter."""
        self._check(page, line)
        block = self._counters[page]
        block.minors[line] += 1
        self._ser_cache.pop(page, None)  # counter changed; drop stale serialization
        pad = self._otp(page, line, len(plaintext))
        ciphertext = bytes(p ^ k for p, k in zip(plaintext, pad))
        self.dram_ciphertext[(page, line)] = ciphertext
        self.dram_macs[(page, line)] = self._mac.digest(
            ciphertext, self._line_counter(page, line), bytes([line])
        )
        self.tree.update(page, self._serialize_counter(page))
        monitor = self.invariant_monitor
        if monitor is not None:
            monitor.after_mee_commit(self, page, line)

    def write_lines(self, items: "List[Tuple[int, int, bytes]]") -> None:
        """Batched :meth:`write_line`: one tree pass for many commits.

        Encrypts and MACs every ``(page, line, plaintext)`` in order, then
        updates the Bonsai tree once per *page* (final counter state) via
        :meth:`BonsaiMerkleTree.update_batch` — the tree nodes, root, and
        counters end up byte-identical to per-line calls, with the shared
        dirty paths recomputed once. Journal replay after a crash is the
        heavy consumer. With an armed invariant monitor the per-line path
        runs instead (monitors check tree consistency after every commit).
        """
        if self.invariant_monitor is not None:
            for page, line, plaintext in items:
                self.write_line(page, line, plaintext)
            return
        touched: Dict[int, None] = {}
        for page, line, plaintext in items:
            self._check(page, line)
            block = self._counters[page]
            block.minors[line] += 1
            self._ser_cache.pop(page, None)
            pad = self._otp(page, line, len(plaintext))
            ciphertext = bytes(p ^ k for p, k in zip(plaintext, pad))
            self.dram_ciphertext[(page, line)] = ciphertext
            self.dram_macs[(page, line)] = self._mac.digest(
                ciphertext, self._line_counter(page, line), bytes([line])
            )
            touched[page] = None
        # tree.updates must advance by len(items) (snapshots pin it), while
        # each touched page's leaf is written once with its final counters
        per_page = [(page, self._serialize_counter(page)) for page in touched]
        if per_page:
            self.tree.update_batch(per_page)
            self.tree.updates += len(items) - len(per_page)

    def read_line(self, page: int, line: int) -> bytes:
        """Verify (MAC + tree) and decrypt a line from DRAM."""
        self._check(page, line)
        ciphertext = self.dram_ciphertext.get((page, line))
        stored_mac = self.dram_macs.get((page, line))
        if ciphertext is None or stored_mac is None:
            raise KeyError(f"page {page} line {line} was never written")
        self.tree.verify(page, self._serialize_counter(page))
        expected = self._mac.digest(
            ciphertext, self._line_counter(page, line), bytes([line])
        )
        if expected != stored_mac:
            raise IntegrityError(f"MAC mismatch on page {page} line {line}")
        pad = self._otp(page, line, len(ciphertext))
        return bytes(c ^ k for c, k in zip(ciphertext, pad))

    def _check(self, page: int, line: int) -> None:
        if not 0 <= page < self.pages:
            raise ValueError(f"page {page} out of range")
        if not 0 <= line < LINES_PER_PAGE:
            raise ValueError(f"line {line} out of range")

    # -- invariant-monitor surface (repro.recovery) --------------------------------

    def verify_counter_block(self, page: int) -> None:
        """Merkle-root consistency check for one page's counter block.

        Raises :class:`IntegrityError` when the serialized counter no longer
        authenticates against the on-chip root — i.e. the counter state and
        the tree have diverged.
        """
        self.tree.verify(page, self._serialize_counter(page))

    def counter_pair(self, page: int, line: int) -> Tuple[int, int]:
        """(major, minor) for a line, for counter-monotonicity monitoring."""
        block = self._counters[page]
        return block.major, block.minors[line]

    # -- checkpoint/restore --------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Counters, tree, and the attacker-visible DRAM stores.

        ``_ser_cache`` is a derived memo and is dropped instead of captured;
        the DRAM stores keep insertion order (``written_lines()`` reports
        write order, and journal replay depends on it). Keys never leave the
        constructor: the snapshot holds ciphertext and MACs only.
        """
        return {
            "counters": [
                (page, block.major, list(block.minors))
                for page, block in self._counters.items()
            ],
            "tree": self.tree.snapshot_state(),
            "dram_ciphertext": [
                (key, value) for key, value in self.dram_ciphertext.items()
            ],
            "dram_macs": [(key, value) for key, value in self.dram_macs.items()],
        }

    def restore_state(self, state: dict) -> None:
        self._counters = {
            page: _SplitBlock(major=major, minors=list(minors))
            for page, major, minors in state["counters"]
        }
        self._ser_cache = {}  # derived; repopulated lazily
        self.tree.restore_state(state["tree"])
        self.dram_ciphertext = {
            tuple(key): value for key, value in state["dram_ciphertext"]
        }
        self.dram_macs = {tuple(key): value for key, value in state["dram_macs"]}

    # -- adversarial surface (fault injection / attack demos) ---------------------

    def written_lines(self) -> List[Tuple[int, int]]:
        """(page, line) pairs currently resident in DRAM, in write order."""
        return list(self.dram_ciphertext)

    def tamper_ciphertext(self, page: int, line: int, xor_mask: int = 0x01) -> None:
        """Corrupt a data line in DRAM (caught by its per-line MAC)."""
        ct = self.dram_ciphertext.get((page, line))
        if ct is None:
            raise KeyError(f"page {page} line {line} was never written")
        self.dram_ciphertext[(page, line)] = bytes([ct[0] ^ xor_mask]) + ct[1:]

    def tamper_mac(self, page: int, line: int, xor_mask: int = 0x01) -> None:
        """Corrupt a stored MAC in DRAM (verification then fails closed)."""
        mac = self.dram_macs.get((page, line))
        if mac is None:
            raise KeyError(f"page {page} line {line} was never written")
        self.dram_macs[(page, line)] = bytes([mac[0] ^ xor_mask]) + mac[1:]

    def tamper_counter_tree(self, page: int, xor_mask: int = 0x01) -> None:
        """Corrupt the Merkle path guarding a page's counter block.

        ``verify`` recomputes the target leaf itself, so the attack lands on
        a stored *sibling* node of the page's path — replaying or flipping
        any sibling changes the recomputed root and is detected on the next
        read of ``page``.
        """
        if self.pages < 2:
            raise ValueError("tree corruption needs at least two counter blocks")
        parent = page // TREE_ARITY
        for c in range(TREE_ARITY):
            sibling = parent * TREE_ARITY + c
            if sibling != page and (0, sibling) in self.tree.dram_nodes:
                self.tree.corrupt_node(0, sibling, xor_mask)
                return
        raise KeyError(f"page {page} has no stored sibling node to corrupt")
