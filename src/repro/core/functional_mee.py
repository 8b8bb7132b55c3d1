"""Functional memory encryption: real AES pads, MACs and Merkle trees (§4.4).

The key-holding half of the memory encryption engine. Its counters follow
the rules the timing model charges for: a :class:`repro.core.mee.CounterCore`
owns them, outside the key TCB. Of the two MEE modules only this one is in
the analyzer's key TCB; the timing model holds no keys.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Tuple

from repro.core.config import IceClaveConfig
from repro.core.exceptions import IntegrityError
from repro.core.integrity import BonsaiMerkleTree
from repro.core.mee import LINES_PER_PAGE, TREE_ARITY, CounterCore, EncryptionScheme
from repro.crypto.aes import AES128
from repro.crypto.mac import Mac
from repro.sim.state import Stateful

_MINOR_LIMIT = IceClaveConfig().minor_counter_limit  # writes that overflow a minor counter


class FunctionalMee(Stateful):
    """Real encryption/MAC/tree machinery over a small page range.

    Each tenant enclave of the chaos campaign runs on one, and tests and
    the attack demo use it to show that ciphertext in DRAM is
    unintelligible, and that tampering, splicing and replay are caught: each
    line's MAC binds its page, its line and its (major, minor) counter,
    which never repeats within one engine or across its :meth:`fresh`
    generations, and the Bonsai Merkle tree authenticates the counters.
    """

    # Keys are never serialized: a snapshot holds counters, the tree, and
    # the ciphertext and MACs. The DRAM stores keep insertion order
    # (``written_lines()`` reports write order; journal replay depends on it).
    STATE = ("counters", "tree", "dram_ciphertext", "dram_macs")

    def __init__(self, pages: int, aes_key: bytes, mac_key: bytes) -> None:
        if pages < 1:
            raise ValueError("need at least one page")
        self.pages = pages
        self._keys = (aes_key, mac_key)  # for fresh(); never serialized
        self._aes = AES128(aes_key)
        self._mac = Mac(mac_key)
        self.counters = CounterCore(EncryptionScheme.SPLIT_COUNTER, _MINOR_LIMIT, pages)
        self.tree = BonsaiMerkleTree(mac_key, arity=TREE_ARITY)
        self.tree.build([self.counters.leaf(p) for p in range(pages)])
        # attacker-visible stores: ciphertext and MACs live in "DRAM"
        self.dram_ciphertext: Dict[Tuple[int, int], bytes] = {}
        self.dram_macs: Dict[Tuple[int, int], bytes] = {}
        # runtime invariant monitor (repro.recovery); None = disabled
        self.invariant_monitor = None  # repro: allow[recovery-unserialized-state] -- monitors are re-armed by their owner after restore, never serialized

    def fresh(self) -> "FunctionalMee":
        """A new engine over the same pages and keys, one generation on.

        An aborted enclave restarts on it, so its owner never holds the raw
        keys. It shares the cipher and MAC, not the DRAM contents or invariant
        monitor. Its counters continue this engine's, every page moved to a
        fresh major (the overflow re-key, applied to every page), so no counter
        a MAC bound in one generation recurs in the next, and no pad is reused.
        """
        engine = copy.copy(self)
        engine.counters = self.counters.next_generation()
        engine.tree = BonsaiMerkleTree(self._keys[1], arity=TREE_ARITY)
        engine.tree.build([engine.counters.leaf(p) for p in range(self.pages)])
        engine.dram_ciphertext, engine.dram_macs = {}, {}
        engine.invariant_monitor = None
        return engine

    def _otp(self, page: int, line: int, nbytes: int) -> bytes:
        major, minor = self.counters.pair(page, line)
        seed = (major << 40) ^ (minor << 24) ^ (page << 8) ^ line
        return self._aes.otp(seed, nbytes)

    def _tag(self, page: int, line: int, ciphertext: bytes) -> bytes:
        """A line's MAC: its ciphertext, page, own (major, minor) and index.

        The page and line pin a pair to its place, so a pair copied onto
        another line fails. Binding the whole counter block would invalidate
        every sibling line's MAC on each write to the page; binding only this
        line's minor keeps MACs independent while replay of a stale pair
        still fails (the minor has moved on).
        """
        major, minor = self.counters.pair(page, line)
        return self._mac.digest(
            ciphertext,
            page.to_bytes(8, "big"),
            major.to_bytes(8, "big") + bytes([minor]),
            bytes([line]),
        )

    def _seal(self, page: int, line: int, plaintext: bytes) -> None:
        """Encrypt + MAC a line into DRAM under its current counter."""
        pad = self._otp(page, line, len(plaintext))
        ciphertext = bytes(p ^ k for p, k in zip(plaintext, pad))
        self.dram_ciphertext[(page, line)] = ciphertext
        self.dram_macs[(page, line)] = self._tag(page, line, ciphertext)

    def _open(self, page: int, line: int) -> bytes:
        """Check a resident line's MAC under its current counter and decrypt it."""
        ciphertext = self.dram_ciphertext[(page, line)]
        if self._tag(page, line, ciphertext) != self.dram_macs.get((page, line)):
            raise IntegrityError(f"MAC mismatch on page {page} line {line}")
        pad = self._otp(page, line, len(ciphertext))
        return bytes(c ^ k for c, k in zip(ciphertext, pad))

    def write_line(self, page: int, line: int, plaintext: bytes) -> None:
        """Encrypt + MAC a line into DRAM, bumping its minor counter.

        A write that re-keys the page (its minor reaches
        ``minor_counter_limit``) first opens every other resident line under
        its old counter, so a re-key cannot launder a tampered line, then
        seals each under the new one.
        """
        self._check(page, line)
        counters = self.counters
        resident = []
        if counters.rekeys(page, line):
            resident = [
                (other, self._open(page, other))
                for other in range(LINES_PER_PAGE)
                if other != line and (page, other) in self.dram_ciphertext
            ]
        counters.bump(page, line)
        for other, text in resident:
            self._seal(page, other, text)
        self._seal(page, line, plaintext)
        self.tree.update(page, counters.leaf(page))
        monitor = self.invariant_monitor
        if monitor is not None:
            monitor.after_mee_commit(self, page, line)

    def read_line(self, page: int, line: int) -> bytes:
        """Verify (MAC + tree) and decrypt a line from DRAM."""
        self._check(page, line)
        if (page, line) not in self.dram_ciphertext or (page, line) not in self.dram_macs:
            raise KeyError(f"page {page} line {line} was never written")
        self.tree.verify(page, self.counters.leaf(page))
        return self._open(page, line)

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
        self.tree.verify(page, self.counters.leaf(page))

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
