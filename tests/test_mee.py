"""Tests for the memory encryption engine (hybrid counters, SC-64)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BonsaiMerkleTree,
    CounterCache,
    EncryptionScheme,
    IceClaveConfig,
    IntegrityError,
)
from repro.core.functional_mee import FunctionalMee
from repro.core.mee import LINES_PER_PAGE, MAJOR_COUNTERS_PER_BLOCK
from tests.mee_reference import ReferenceMee, cache_access


def make_mee(scheme=EncryptionScheme.HYBRID, cache_kib=128):
    config = IceClaveConfig(counter_cache_bytes=cache_kib * 1024)
    return ReferenceMee(config=config, scheme=scheme)


class TestCounterCache:
    def test_hit_miss(self):
        cache = CounterCache(1024)
        hit, _ = cache_access(cache, "a")
        assert not hit
        hit, _ = cache_access(cache, "a")
        assert hit

    def test_dirty_eviction_returns_victim(self):
        cache = CounterCache(2 * 64)  # 2 lines
        cache_access(cache, "a", dirty=True)
        cache_access(cache, "b")
        _, victim = cache_access(cache, "c")  # evicts dirty "a"
        assert victim == "a"
        assert cache.dirty_evictions == 1

    def test_clean_eviction_returns_none(self):
        cache = CounterCache(2 * 64)
        cache_access(cache, "a")
        cache_access(cache, "b")
        _, victim = cache_access(cache, "c")
        assert victim is None
        assert cache.clean_evictions == 1

    def test_flush_counts_dirty(self):
        cache = CounterCache(1024)
        cache_access(cache, "a", dirty=True)
        cache_access(cache, "b")
        assert cache.flush() == 1

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            CounterCache(10)


class TestSchemes:
    def test_none_scheme_is_free(self):
        mee = make_mee(EncryptionScheme.NONE)
        r = mee.read(0, 0)
        w = mee.write(0, 0)
        assert r.latency == 0 and w.latency == 0
        assert mee.stats.encryption_extra_traffic() == 0.0

    def test_read_costs_less_after_counter_cached(self):
        mee = make_mee()
        first = mee.read(0, 0)
        second = mee.read(0, 1)
        assert not first.counter_hit
        assert second.counter_hit
        assert second.latency < first.latency

    def test_hybrid_major_block_covers_eight_pages(self):
        """One major-counter line serves 8 read-only pages: 1 counter miss."""
        mee = make_mee(EncryptionScheme.HYBRID)
        misses = 0
        for page in range(MAJOR_COUNTERS_PER_BLOCK):
            if not mee.read(page, 0, readonly=True).counter_hit:
                misses += 1
        assert misses == 1

    def test_sc64_one_counter_line_per_page(self):
        mee = make_mee(EncryptionScheme.SPLIT_COUNTER)
        misses = 0
        for page in range(MAJOR_COUNTERS_PER_BLOCK):
            if not mee.read(page, 0, readonly=True).counter_hit:
                misses += 1
        assert misses == MAJOR_COUNTERS_PER_BLOCK

    def test_hybrid_beats_sc64_on_streaming_reads(self):
        """The Figure 8 mechanism: 8x counter coverage => less extra traffic."""
        results = {}
        for scheme in (EncryptionScheme.SPLIT_COUNTER, EncryptionScheme.HYBRID):
            mee = make_mee(scheme, cache_kib=8)  # small cache to expose misses
            for page in range(4096):
                for line in range(0, LINES_PER_PAGE, 8):
                    mee.read(page, line, readonly=True)
            results[scheme] = mee.stats.encryption_extra_traffic()
        assert results[EncryptionScheme.HYBRID] < results[EncryptionScheme.SPLIT_COUNTER]

    def test_write_dirties_counter_state(self):
        mee = make_mee()
        mee.write(0, 0, readonly=False)
        major, minor = mee.counters.pair(0, 0)
        assert minor == 1

    def test_minor_overflow_reencrypts_page(self):
        mee = make_mee()
        limit = mee.config.minor_counter_limit
        reencrypted = False
        for _ in range(limit):
            reencrypted = mee.write(0, 0, readonly=False).reencrypted_page
        assert reencrypted
        assert mee.stats.minor_overflows == 1
        # counters reset; a fresh major
        major, minor = mee.counters.pair(0, 0)
        assert major == 1 and minor == 0

    def test_hybrid_promotion_on_write_to_readonly_page(self):
        """§4.4 dynamic permission change: read-only -> writable."""
        mee = make_mee(EncryptionScheme.HYBRID)
        mee.read(0, 0, readonly=True)  # establishes major-counter use
        result = mee.write(0, 0, readonly=True)
        assert result.reencrypted_page
        assert mee.stats.permission_promotions == 1
        # the page now uses split counters
        assert 0 in mee.counters.split

    def test_make_readonly_demotes(self):
        mee = make_mee(EncryptionScheme.HYBRID)
        mee.write(0, 0, readonly=True)
        old_major, _ = mee.counters.pair(0, 0)
        mee.counters.make_readonly(0)
        assert 0 not in mee.counters.split
        new_major, _ = mee.counters.pair(0, 0)
        assert new_major == old_major + 1  # §4.4: incremented on copy-back

    def test_write_heavy_traffic_exceeds_read_heavy(self):
        """Table 6's gradient: write ratio drives extra traffic.

        Reads stream a read-only input region; writes churn a writable
        intermediate region (dirty counter/MAC/tree lines get written back).
        """
        def run(writes_per_page):
            mee = make_mee(cache_kib=16)
            for page in range(512):
                for line in range(LINES_PER_PAGE):
                    mee.read(page, line, readonly=True)
                for w in range(writes_per_page):
                    mee.write(4096 + page, w % LINES_PER_PAGE, readonly=False)
            return (mee.stats.encryption_extra_traffic()
                    + mee.stats.verification_extra_traffic())

        assert run(writes_per_page=32) > run(writes_per_page=1)

    def test_latency_means_are_positive(self):
        mee = make_mee()
        for i in range(100):
            mee.read(i % 16, i % LINES_PER_PAGE)
            mee.write(i % 16, i % LINES_PER_PAGE, readonly=False)
        assert mee.stats.mean_encryption_latency() > 0
        assert mee.stats.mean_verification_latency() > 0

    def test_line_bounds_checked(self):
        with pytest.raises(ValueError):
            make_mee().read(0, LINES_PER_PAGE)


class TestFunctionalMee:
    def make(self):
        return FunctionalMee(pages=8, aes_key=b"0123456789abcdef", mac_key=b"mac-key")

    def test_write_read_roundtrip(self):
        mee = self.make()
        mee.write_line(0, 0, b"secret intermediate data" + bytes(40))
        assert mee.read_line(0, 0).startswith(b"secret intermediate data")

    def test_ciphertext_differs_from_plaintext(self):
        mee = self.make()
        plain = b"A" * 64
        mee.write_line(1, 2, plain)
        assert mee.dram_ciphertext[(1, 2)] != plain

    def test_same_plaintext_twice_different_ciphertext(self):
        """Counter bump => temporal uniqueness of the OTP."""
        mee = self.make()
        mee.write_line(0, 0, b"A" * 64)
        ct1 = mee.dram_ciphertext[(0, 0)]
        mee.write_line(0, 0, b"A" * 64)
        ct2 = mee.dram_ciphertext[(0, 0)]
        assert ct1 != ct2

    def test_tampered_ciphertext_detected(self):
        mee = self.make()
        mee.write_line(0, 0, b"B" * 64)
        ct = bytearray(mee.dram_ciphertext[(0, 0)])
        ct[0] ^= 1
        mee.dram_ciphertext[(0, 0)] = bytes(ct)
        with pytest.raises(IntegrityError):
            mee.read_line(0, 0)

    def test_replayed_line_detected(self):
        """Replay: restore an old (ciphertext, MAC) pair -> its MAC no longer
        verifies, because it binds a minor counter the line has moved past."""
        mee = self.make()
        mee.write_line(0, 0, b"v1" + bytes(62))
        stale = (mee.dram_ciphertext[(0, 0)], mee.dram_macs[(0, 0)])
        mee.write_line(0, 0, b"v2" + bytes(62))
        mee.dram_ciphertext[(0, 0)], mee.dram_macs[(0, 0)] = stale
        with pytest.raises(IntegrityError):
            mee.read_line(0, 0)

    def test_pair_spliced_onto_another_page_is_refused(self):
        """The pad binds the page, and so must the MAC: the same line of two
        pages at the same counter must not accept each other's pair."""
        mee = FunctionalMee(4, b"k" * 16, b"m" * 16)
        mee.write_line(0, 5, b"page-0" + bytes(10))
        mee.write_line(1, 5, b"page-1" + bytes(10))
        mee.dram_ciphertext[(1, 5)] = mee.dram_ciphertext[(0, 5)]
        mee.dram_macs[(1, 5)] = mee.dram_macs[(0, 5)]
        with pytest.raises(IntegrityError):
            mee.read_line(1, 5)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_pair_moved_to_any_other_line_is_refused(self, writes):
        """Every written pair, planted on every other line of 4 pages x 4 lines."""
        mee = FunctionalMee(4, b"k" * 16, b"m" * 16)
        for i, (page, line) in enumerate(writes):
            mee.write_line(page, line, bytes([i]) * 16)
        ciphertext, macs = dict(mee.dram_ciphertext), dict(mee.dram_macs)
        for source in set(writes):
            for target in [(page, line) for page in range(4) for line in range(4)]:
                if target == source:
                    continue
                mee.dram_ciphertext = {**ciphertext, target: ciphertext[source]}
                mee.dram_macs = {**macs, target: macs[source]}
                with pytest.raises(IntegrityError):
                    mee.read_line(*target)

    def test_unwritten_line_raises(self):
        with pytest.raises(KeyError):
            self.make().read_line(0, 1)

    def test_fresh_builds_its_tree_once(self, monkeypatch):
        """A restarted generation hashes its counters into one tree, once."""
        mee = self.make()
        mee.write_line(2, 7, b"x" * 16)
        builds = []
        build = BonsaiMerkleTree.build

        def counting(tree, leaves):
            builds.append(len(leaves))
            build(tree, leaves)

        monkeypatch.setattr(BonsaiMerkleTree, "build", counting)
        fresh = mee.fresh()
        assert builds == [8]
        assert fresh.counters.pair(2, 7) == (1, 0)  # one major on, minors restart
        assert fresh.written_lines() == [] and fresh.invariant_monitor is None
        fresh.write_line(2, 7, b"y" * 16)
        assert fresh.read_line(2, 7) == b"y" * 16

    def test_bounds(self):
        mee = self.make()
        with pytest.raises(ValueError):
            mee.write_line(8, 0, b"x")


def _replay_after(writes):
    """Keep line (1, 3)'s first (ciphertext, MAC), overwrite the line
    ``writes`` more times, put the kept pair back and read it."""
    mee = FunctionalMee(4, b"k" * 16, b"m" * 16)
    mee.write_line(1, 3, b"A" * 64)
    mee.write_line(1, 5, b"C" * 64)  # a resident neighbour the overflow re-keys
    stale = (mee.dram_ciphertext[(1, 3)], mee.dram_macs[(1, 3)])
    for _ in range(writes):
        mee.write_line(1, 3, b"B" * 64)
    assert mee.read_line(1, 3) == b"B" * 64
    assert mee.read_line(1, 5) == b"C" * 64
    mee.dram_ciphertext[(1, 3)], mee.dram_macs[(1, 3)] = stale
    with pytest.raises(IntegrityError):
        mee.read_line(1, 3)
    return mee


class TestMinorCounterOverflow:
    """A line's minor counter overflows at ``minor_counter_limit`` writes;
    the page then moves to a fresh major, so the counter a MAC binds never
    repeats and no stale pair verifies again."""

    @pytest.mark.parametrize("writes", [1, 127, 128, 256])
    def test_stale_pair_is_refused(self, writes):
        _replay_after(writes)

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=10, deadline=None)
    def test_stale_pair_is_refused_after_any_number_of_writes(self, writes):
        mee = _replay_after(writes)
        limit = IceClaveConfig().minor_counter_limit
        assert mee.counters.pair(1, 3) == divmod(1 + writes, limit)

    def test_overflow_does_not_launder_a_tampered_line(self):
        limit = IceClaveConfig().minor_counter_limit
        mee = FunctionalMee(2, b"k" * 16, b"m" * 16)
        mee.write_line(0, 0, b"resident" * 8)
        mee.tamper_ciphertext(0, 0)
        for _ in range(limit - 1):
            mee.write_line(0, 1, b"x" * 64)
        before = mee.snapshot_state()
        with pytest.raises(IntegrityError):
            mee.write_line(0, 1, b"x" * 64)  # the re-key must verify line 0 first
        assert mee.snapshot_state() == before
        with pytest.raises(IntegrityError):
            mee.read_line(0, 0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(1, 150)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_counters_match_the_timing_engine(self, runs):
        """One write sequence (runs of writes to one line), both engines:
        equal (major, minor) on every line after every write, and equal
        overflow counts."""
        timing = ReferenceMee(scheme=EncryptionScheme.SPLIT_COUNTER)
        functional = FunctionalMee(2, b"k" * 16, b"m" * 16)
        for page, line, count in runs:
            for _ in range(count):
                timing.write(page, line, readonly=False)
                functional.write_line(page, line, bytes([page, line]) * 8)
                for p in range(2):
                    for ln in range(3):
                        assert functional.counters.pair(p, ln) == timing.counters.pair(p, ln)
        # a functional major moves only on overflow
        majors = sum(functional.counters.pair(p, 0)[0] for p in range(2))
        assert majors == timing.stats.minor_overflows
        for page, line, _ in runs:
            assert functional.read_line(page, line) == bytes([page, line]) * 8

    def test_counters_match_the_timing_engine_at_full_width(self):
        timing = ReferenceMee(scheme=EncryptionScheme.SPLIT_COUNTER)
        functional = FunctionalMee(1, b"k" * 16, b"m" * 16)
        for i in range(300):
            line = 0 if i % 3 else 1
            timing.write(0, line, readonly=False)
            functional.write_line(0, line, b"%03d" % i)
        for line in (0, 1, 2):
            assert functional.counters.pair(0, line) == timing.counters.pair(0, line)
        assert timing.stats.minor_overflows == functional.counters.pair(0, 0)[0] == 1
