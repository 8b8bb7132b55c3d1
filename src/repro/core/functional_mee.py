"""Functional memory encryption: real AES pads, MACs and Merkle trees (§4.4).

The key-holding half of the memory encryption engine, built on the
split-counter layout of :mod:`repro.core.mee`. Of the two MEE modules only
this one is in the analyzer's key TCB; the timing model holds no keys.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.config import IceClaveConfig
from repro.core.exceptions import IntegrityError
from repro.core.integrity import BonsaiMerkleTree
from repro.core.mee import LINES_PER_PAGE, TREE_ARITY, _SplitBlock
from repro.crypto.aes import AES128
from repro.crypto.mac import Mac

_MINOR_LIMIT = IceClaveConfig().minor_counter_limit  # writes that overflow a minor counter


class FunctionalMee:
    """Real encryption/MAC/tree machinery over a small page range.

    Each tenant enclave of the chaos campaign runs on one, and tests and
    the attack demo use it to show that ciphertext in DRAM is
    unintelligible, and that tampering and replay are caught: each line's
    MAC binds its (major, minor) counter, which never repeats within one
    engine, and the Bonsai Merkle tree authenticates the counters themselves.
    """

    def __init__(self, pages: int, aes_key: bytes, mac_key: bytes) -> None:
        if pages < 1:
            raise ValueError("need at least one page")
        self.pages = pages
        self._keys = (aes_key, mac_key)  # for fresh(); never serialized
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

    def fresh(self) -> "FunctionalMee":
        """A new, empty engine over the same pages and keys.

        An aborted enclave restarts on it, so its owner never holds the raw
        keys. Being a new object, it carries over no counters, DRAM contents
        or invariant monitor; its counters restart at 0 under the same keys.
        """
        return FunctionalMee(self.pages, *self._keys)

    def _serialize_counter(self, page: int) -> bytes:
        cached = self._ser_cache.get(page)
        if cached is None:
            block = self._counters[page]
            cached = block.major.to_bytes(8, "big") + bytes(block.minors)
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
        return block.major.to_bytes(8, "big") + bytes([block.minors[line]])

    def _otp(self, page: int, line: int, nbytes: int) -> bytes:
        major, minor = (
            self._counters[page].major,
            self._counters[page].minors[line],
        )
        seed = (major << 40) ^ (minor << 24) ^ (page << 8) ^ line
        return self._aes.otp(seed, nbytes)

    def _advance(self, page: int, line: int) -> None:
        """Bump a line's minor counter; at ``minor_counter_limit``, re-key the page.

        As in :meth:`MemoryEncryptionEngine.write`, the page takes a fresh
        major and its minors restart at 0, so within this engine no (major,
        minor) a MAC binds repeats. Every other resident line is verified
        under its old counter (an overflow must not launder a tampered line),
        then sealed under the new one. The caller writes the page's tree leaf.
        """
        block = self._counters[page]
        self._ser_cache.pop(page, None)  # counter changes; drop stale serialization
        if block.minors[line] + 1 < _MINOR_LIMIT:
            block.minors[line] += 1
            return
        resident = [
            (other, self._open(page, other))
            for other in range(LINES_PER_PAGE)
            if other != line and (page, other) in self.dram_ciphertext
        ]
        block.major += 1
        block.minors = [0] * LINES_PER_PAGE
        for other, plaintext in resident:
            self._seal(page, other, plaintext)

    def _seal(self, page: int, line: int, plaintext: bytes) -> None:
        """Encrypt + MAC a line into DRAM under its current counter."""
        pad = self._otp(page, line, len(plaintext))
        ciphertext = bytes(p ^ k for p, k in zip(plaintext, pad))
        self.dram_ciphertext[(page, line)] = ciphertext
        self.dram_macs[(page, line)] = self._mac.digest(
            ciphertext, self._line_counter(page, line), bytes([line])
        )

    def _open(self, page: int, line: int) -> bytes:
        """Check a resident line's MAC under its current counter and decrypt it."""
        ciphertext = self.dram_ciphertext[(page, line)]
        expected = self._mac.digest(ciphertext, self._line_counter(page, line), bytes([line]))
        if expected != self.dram_macs.get((page, line)):
            raise IntegrityError(f"MAC mismatch on page {page} line {line}")
        pad = self._otp(page, line, len(ciphertext))
        return bytes(c ^ k for c, k in zip(ciphertext, pad))

    def write_line(self, page: int, line: int, plaintext: bytes) -> None:
        """Encrypt + MAC a line into DRAM, bumping its minor counter."""
        self._check(page, line)
        self._advance(page, line)
        self._seal(page, line, plaintext)
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
            self._advance(page, line)
            self._seal(page, line, plaintext)
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
        if (page, line) not in self.dram_ciphertext or (page, line) not in self.dram_macs:
            raise KeyError(f"page {page} line {line} was never written")
        self.tree.verify(page, self._serialize_counter(page))
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
        write order, and journal replay depends on it). Keys are never
        serialized: the snapshot holds ciphertext and MACs only.
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
