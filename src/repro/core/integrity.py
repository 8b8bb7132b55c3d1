"""Bonsai Merkle Tree (Rogers et al., MICRO'07) for memory integrity (§4.4).

The BMT hashes *counter blocks* (not data blocks) at its first level; data
blocks are covered by per-block MACs keyed with their counters. IceClave
maintains two trees — one over split-counter blocks (writable pages), one
over major-counter blocks (read-only pages) — with both roots in on-chip
registers.

This implementation is functional: node digests live in an
attacker-visible store (``dram_nodes``) while the root is private, so tests
and the attack demo can demonstrate tamper and replay detection.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from repro.core.exceptions import IntegrityError
from repro.crypto.mac import Mac
from repro.sim.state import Stateful

NodeKey = Tuple[int, int]  # (level, index); level 0 = leaves

# Bounded node-hash memo: beyond this many distinct child combinations the
# memo is cleared wholesale (deterministic, state-independent policy).
_MEMO_MAX = 1 << 14


class BonsaiMerkleTree(Stateful):
    """An arity-N hash tree over counter blocks with an on-chip root."""

    # The MAC key and arity are constructor configuration: restoring into a
    # tree built with another key makes every verify fail, and a snapshot
    # never carries key material.
    STATE = ("leaf_count", "depth", "dram_nodes", "_root", "updates", "verifications")

    def __init__(self, key: bytes, arity: int = 8) -> None:
        if arity < 2:
            raise ValueError("tree arity must be >= 2")
        self._mac = Mac(key)
        self.arity = arity
        self.leaf_count = 0
        self.depth = 0  # number of levels above the leaves
        # The "DRAM-resident" node store: (level, index) -> digest.
        # Level 0 holds leaf digests; higher levels hold parents.
        self.dram_nodes: Dict[NodeKey, bytes] = {}
        self._root: bytes = b""
        self.updates = 0
        self.verifications = 0
        # node-hash memo keyed on the tuple of child digests. The parent
        # MAC is a pure function of its children (the b"node" domain does
        # not bind level or index), so memo lookups are *exactly* the MAC —
        # including under tampering: a corrupted child changes the key,
        # misses, and recomputes. Derived state: never snapshotted.
        self._memo: Dict[Tuple[bytes, ...], bytes] = {}  # repro: allow[recovery-unserialized-state] -- derived memo of pure node MACs, never snapshotted
        self.memo_hits = 0  # repro: allow[recovery-unserialized-state] -- derived perf counter, resets with the memo
        self.memo_misses = 0  # repro: allow[recovery-unserialized-state] -- derived perf counter, resets with the memo

    # -- construction ----------------------------------------------------------

    def build(self, leaves: List[bytes]) -> None:
        """Build the tree over ``leaves`` (counter-block serializations)."""
        if not leaves:
            raise ValueError("cannot build a tree over zero leaves")
        self.leaf_count = len(leaves)
        # the smallest depth >= 1 whose top level is one node, in integers
        # (a float log overshoots at exact powers of the arity)
        self.depth = 1
        while self.arity**self.depth < self.leaf_count:
            self.depth += 1
        self.dram_nodes.clear()
        for i, leaf in enumerate(leaves):
            self.dram_nodes[(0, i)] = self._leaf_digest(leaf)
        width = self.leaf_count
        for level in range(1, self.depth + 1):
            width = math.ceil(width / self.arity)
            for i in range(width):
                self.dram_nodes[(level, i)] = self._parent_digest(level, i)
        self._root = self.dram_nodes[(self.depth, 0)]

    def _leaf_digest(self, leaf: bytes) -> bytes:
        return self._mac.digest(b"leaf", leaf)

    def _children(self, level: int, index: int) -> List[bytes]:
        children = []
        for c in range(self.arity):
            child = self.dram_nodes.get((level - 1, index * self.arity + c))
            if child is not None:
                children.append(child)
        return children

    def _parent_digest(self, level: int, index: int) -> bytes:
        return self._node_digest(tuple(self._children(level, index)))

    def _node_digest(self, children: Tuple[bytes, ...]) -> bytes:
        memo = self._memo
        digest = memo.get(children)
        if digest is not None:
            self.memo_hits += 1
            return digest
        self.memo_misses += 1
        digest = self._mac.digest(b"node", *children)
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        memo[children] = digest
        return digest

    # -- root management ---------------------------------------------------------

    @property
    def root(self) -> bytes:
        """The on-chip root MAC (not part of ``dram_nodes``)."""
        return self._root

    # -- operations ----------------------------------------------------------------

    def update(self, index: int, leaf: bytes) -> int:
        """Re-hash the path from leaf ``index`` to the root.

        Returns the number of node writes (for traffic accounting).
        """
        self._check_index(index)
        self.dram_nodes[(0, index)] = self._leaf_digest(leaf)
        writes = 1
        node = index
        for level in range(1, self.depth + 1):
            node //= self.arity
            self.dram_nodes[(level, node)] = self._parent_digest(level, node)
            writes += 1
        self._root = self.dram_nodes[(self.depth, 0)]
        self.updates += 1
        return writes

    def update_batch(self, updates: Iterable[Tuple[int, bytes]]) -> int:
        """Apply many leaf updates with one dirty-path recomputation.

        ``updates`` may repeat an index (the last write wins, exactly as a
        sequence of :meth:`update` calls). Each shared interior node on the
        dirty paths is recomputed *once* over final child values instead of
        once per touching leaf — and because every node digest is a pure
        function of its children, the resulting ``dram_nodes`` and root are
        identical to the sequential path (the differential test pins this).

        The ``updates`` counter advances by the number of items, matching
        what per-leaf calls would record (snapshots stay byte-identical);
        the return value counts *actual* node writes, which is the traffic
        the batch saved.
        """
        dirty: Dict[int, None] = {}
        count = 0
        for index, leaf in updates:
            self._check_index(index)
            self.dram_nodes[(0, index)] = self._leaf_digest(leaf)
            dirty[index] = None
            count += 1
        if count == 0:
            return 0
        writes = len(dirty)
        nodes = self.dram_nodes
        level_dirty = dirty
        for level in range(1, self.depth + 1):
            parents: Dict[int, None] = {}
            for node in level_dirty:
                parents[node // self.arity] = None
            for parent in parents:
                nodes[(level, parent)] = self._parent_digest(level, parent)
            writes += len(parents)
            level_dirty = parents
        self._root = nodes[(self.depth, 0)]
        self.updates += count
        return writes

    def verify(self, index: int, leaf: bytes) -> int:
        """Verify leaf ``index`` against the on-chip root.

        Recomputes the path using the (untrusted) stored siblings; any
        tampering with the leaf, a sibling, or a rolled-back (replayed)
        combination changes the recomputed root and is detected.

        Returns the number of node reads performed.
        """
        self._check_index(index)
        self.verifications += 1
        digest = self._leaf_digest(leaf)
        reads = 1
        node = index
        for level in range(1, self.depth + 1):
            parent = node // self.arity
            children = []
            for c in range(self.arity):
                child_idx = parent * self.arity + c
                key = (level - 1, child_idx)
                if child_idx == node:
                    children.append(digest)
                elif key in self.dram_nodes:
                    children.append(self.dram_nodes[key])
                    reads += 1
            digest = self._node_digest(tuple(children))
            node = parent
        if digest != self._root:
            raise IntegrityError(
                f"integrity verification failed for counter block {index}"
            )
        return reads

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.leaf_count:
            raise IndexError(f"leaf {index} out of range [0, {self.leaf_count})")

    # -- adversarial surface (fault injection / attack demos) ---------------------

    def corrupt_node(self, level: int, index: int, xor_mask: int = 0x01) -> None:
        """Flip bits in a DRAM-resident tree node (attacker / DRAM fault).

        The root is on-chip and out of reach; any corrupted path node makes
        the next :meth:`verify` of a leaf under it raise IntegrityError.
        """
        key = (level, index)
        node = self.dram_nodes.get(key)
        if node is None:
            raise KeyError(f"no tree node at level {level} index {index}")
        self.dram_nodes[key] = bytes([node[0] ^ xor_mask]) + node[1:]

    # -- sizing (the paper's footnote: 0.5 MB + 4 MB for 4 GB DRAM) ---------------

    def node_count(self) -> int:
        return len(self.dram_nodes)

    def storage_bytes(self, mac_bytes: int = 8) -> int:
        """DRAM footprint of all tree nodes."""
        return self.node_count() * mac_bytes

    @staticmethod
    def storage_estimate(leaves: int, arity: int = 8, mac_bytes: int = 8) -> int:
        """Closed-form footprint estimate without building the tree."""
        total = leaves
        width = leaves
        while width > 1:
            width = math.ceil(width / arity)
            total += width
        return total * mac_bytes
