"""Tests for the Bonsai Merkle tree: tamper and replay detection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BonsaiMerkleTree, IntegrityError
from repro.core import integrity
from repro.core.config import IceClaveConfig
from repro.core.mee import MemoryEncryptionEngine


def make_tree(n=20, arity=4):
    tree = BonsaiMerkleTree(b"tree-key", arity=arity)
    leaves = [f"counter-{i}".encode() for i in range(n)]
    tree.build(leaves)
    return tree, leaves


class TestBuildVerify:
    def test_all_leaves_verify_after_build(self):
        tree, leaves = make_tree()
        for i, leaf in enumerate(leaves):
            tree.verify(i, leaf)

    def test_wrong_leaf_content_fails(self):
        tree, _ = make_tree()
        with pytest.raises(IntegrityError):
            tree.verify(3, b"forged counter")

    def test_update_then_verify(self):
        tree, leaves = make_tree()
        tree.update(5, b"new counter value")
        tree.verify(5, b"new counter value")
        with pytest.raises(IntegrityError):
            tree.verify(5, leaves[5])  # the old value no longer verifies

    def test_update_changes_root(self):
        tree, _ = make_tree()
        old_root = tree.root
        tree.update(0, b"bump")
        assert tree.root != old_root

    def test_single_leaf_tree(self):
        tree = BonsaiMerkleTree(b"k")
        tree.build([b"only"])
        tree.verify(0, b"only")

    def test_empty_build_rejected(self):
        with pytest.raises(ValueError):
            BonsaiMerkleTree(b"k").build([])

    def test_index_bounds(self):
        tree, _ = make_tree(5)
        with pytest.raises(IndexError):
            tree.verify(5, b"x")

    def test_bad_arity_rejected(self):
        with pytest.raises(ValueError):
            BonsaiMerkleTree(b"k", arity=1)


class TestAttackDetection:
    def test_tampering_dram_node_detected(self):
        """Flipping a stored node is caught when it serves as a sibling.

        Verifying a leaf *recomputes* its own path, so the tamper surfaces
        through any leaf whose path uses the flipped node as a sibling —
        here (1, 0) is a sibling for leaves under (1, 1).
        """
        tree, leaves = make_tree(n=20, arity=4)
        tree.dram_nodes[(1, 0)] = b"\x00" * 8
        with pytest.raises(IntegrityError):
            tree.verify(4, leaves[4])  # leaf 4 sits under node (1, 1)

    def test_tampering_leaf_digest_detected(self):
        tree, leaves = make_tree(n=20, arity=4)
        tree.dram_nodes[(0, 1)] = b"\xff" * 8
        with pytest.raises(IntegrityError):
            tree.verify(0, leaves[0])  # leaf 1 is leaf 0's sibling

    def test_replay_attack_detected(self):
        """Rolling a leaf digest AND its path back to a stale snapshot still
        fails because the root register is on-chip (§4.4)."""
        tree, leaves = make_tree()
        # snapshot the attacker-visible state
        stale_nodes = dict(tree.dram_nodes)
        tree.update(2, b"counter-2-v2")
        # attacker restores the entire stale DRAM image (perfect replay)
        tree.dram_nodes.clear()
        tree.dram_nodes.update(stale_nodes)
        with pytest.raises(IntegrityError):
            tree.verify(2, leaves[2])  # old value + old nodes != new on-chip root

    def test_cross_leaf_splice_detected(self):
        """Substituting another leaf's digest in place fails."""
        tree, leaves = make_tree()
        tree.dram_nodes[(0, 1)] = tree.dram_nodes[(0, 2)]
        with pytest.raises(IntegrityError):
            tree.verify(1, leaves[2])


class TestSizing:
    def test_storage_estimate_matches_built_tree(self):
        tree, _ = make_tree(100, arity=8)
        assert tree.storage_bytes() == BonsaiMerkleTree.storage_estimate(100, arity=8)

    def test_paper_footnote_tree_sizes(self):
        """Footnote 1: ~0.5 MB (major tree) + ~4 MB (split tree) for 4 GB DRAM.

        4 GB / 4 KB pages = 1 Mi split-counter leaves; major blocks cover
        8 pages so 128 Ki leaves. MAC width 8 bytes, arity 8.
        """
        split_leaves = (4 << 30) // 4096
        major_leaves = split_leaves // 8
        split_mb = BonsaiMerkleTree.storage_estimate(split_leaves, 8) / (1 << 20)
        major_mb = BonsaiMerkleTree.storage_estimate(major_leaves, 8) / (1 << 20)
        # interior-node-only trees in the paper; our estimate includes the
        # leaf digests, so allow a generous band around 4 MB / 0.5 MB
        assert 4 <= split_mb <= 12
        assert 0.5 <= major_mb <= 1.5

    def test_depth_is_exact_at_powers_of_the_arity(self):
        """A float log overshoots there: ``math.log(125, 5)`` is 3.0000000000000004."""
        tree = BonsaiMerkleTree(b"k", arity=5)
        leaves = [bytes([i]) for i in range(125)]
        tree.build(leaves)
        assert tree.depth == 3
        assert tree.storage_bytes() == BonsaiMerkleTree.storage_estimate(125, arity=5)
        tree.verify(124, leaves[124])
        # 8 GiB holds 8**7 pages: (7, 6), as at 4 GiB; 64 and 512 GiB go one
        # level deeper per tree
        depths = MemoryEncryptionEngine.tree_depths
        assert depths(IceClaveConfig().with_dram(8 << 30)) == (7, 6)
        assert depths(IceClaveConfig().with_dram(64 << 30)) == (8, 7)
        assert depths(IceClaveConfig().with_dram(512 << 30)) == (9, 8)

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_verify_update_consistency_property(self, n):
        tree = BonsaiMerkleTree(b"k", arity=8)
        leaves = [bytes([i % 256]) * 4 for i in range(n)]
        tree.build(leaves)
        idx = n // 2
        tree.update(idx, b"changed")
        tree.verify(idx, b"changed")
        for other in {0, n - 1} - {idx}:
            tree.verify(other, leaves[other])


MAC_KEY = bytes(range(16, 32))


class TestIncrementalUpdate:
    def test_tamper_detected_after_batched_update(self):
        """A batch of per-leaf updates, then a tampered sibling node."""
        tree = BonsaiMerkleTree(MAC_KEY)
        tree.build([bytes([i]) for i in range(64)])
        for i in range(16):
            tree.update(i, bytes([0x40 + i]))
        # node (1, 0) sits on leaf 9's sibling set; verify recomputes leaf
        # 9's own path but trusts stored siblings, so this must be caught
        tree.corrupt_node(1, 0)
        with pytest.raises(IntegrityError):
            tree.verify(9, bytes([0x49]))

    def test_replayed_leaf_detected_after_batched_update(self):
        tree = BonsaiMerkleTree(MAC_KEY)
        tree.build([bytes([i]) for i in range(64)])
        tree.update(5, b"new-epoch")
        with pytest.raises(IntegrityError):
            tree.verify(5, bytes([5]))  # stale (replayed) leaf value

    def test_memo_stays_bounded(self):
        """Update until more node digests were computed than the memo holds."""
        tree = BonsaiMerkleTree(MAC_KEY)
        tree.build([bytes([i]) for i in range(64)])
        round_no = 0
        while tree.memo_misses <= integrity._MEMO_MAX:
            for i in range(0, 64, 3):
                tree.update(i, round_no.to_bytes(2, "big") + bytes([i]))
            round_no += 1
        assert len(tree._memo) <= integrity._MEMO_MAX
        assert len(tree._memo) < tree.memo_misses  # the memo was cleared
