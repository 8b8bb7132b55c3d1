"""Property-based tests for MEE counter-state invariants, and the engine's
replay against the per-access reference."""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import EncryptionScheme, IceClaveConfig
from repro.core.mee import LINES_PER_PAGE, CounterCore, MemoryEncryptionEngine
from tests.mee_reference import ReferenceMee, per_access


def make_mee(scheme=EncryptionScheme.HYBRID, minor_bits=7):
    config = IceClaveConfig(minor_counter_bits=minor_bits)
    return ReferenceMee(config=config, scheme=scheme)


ops = st.lists(
    st.tuples(
        st.booleans(),  # is_write
        st.integers(0, 15),  # page
        st.integers(0, LINES_PER_PAGE - 1),  # line
        st.booleans(),  # readonly region flag
    ),
    max_size=120,
)


class TestCounterInvariants:
    @given(ops)
    @settings(max_examples=40, deadline=None)
    def test_counters_never_decrease(self, operations):
        """(major, minor) pairs are non-decreasing lexicographically."""
        mee = make_mee()
        last = {}
        for is_write, page, line, readonly in operations:
            if is_write:
                mee.write(page, line, readonly=readonly)
            else:
                mee.read(page, line, readonly=readonly)
            major, minor = mee.counters.pair(page, line)
            key = (page, line)
            if key in last:
                assert (major, minor) >= last[key] or major > last[key][0]
            last[key] = (major, minor)

    @given(ops)
    @settings(max_examples=40, deadline=None)
    def test_traffic_accounting_consistent(self, operations):
        """Stats totals equal the number of operations issued."""
        mee = make_mee()
        reads = writes = 0
        for is_write, page, line, readonly in operations:
            if is_write:
                mee.write(page, line, readonly=readonly)
                writes += 1
            else:
                mee.read(page, line, readonly=readonly)
                reads += 1
        assert mee.stats.data_reads == reads
        assert mee.stats.data_writes == writes
        assert mee.stats.encryption_lines >= 0
        assert mee.stats.verification_lines >= 0

    @given(st.integers(0, 63), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_minor_overflow_always_resets(self, line, minor_bits):
        """Whatever the counter width, overflow bumps major and zeroes minors."""
        mee = make_mee(minor_bits=minor_bits)
        limit = 1 << minor_bits
        for _ in range(limit):
            mee.write(0, line, readonly=False)
        major, minor = mee.counters.pair(0, line)
        assert major == 1
        assert minor == 0
        assert mee.stats.minor_overflows == 1

    @given(st.integers(0, 15))
    @settings(max_examples=15, deadline=None)
    def test_promote_demote_cycle_monotone(self, page):
        """§4.4 permission flips: the major counter strictly grows each flip."""
        mee = make_mee()
        mee.read(page, 0, readonly=True)
        majors = []
        for _ in range(3):
            mee.write(page, 0, readonly=True)  # promote (re-encrypt)
            majors.append(mee.counters.pair(page, 0)[0])
            mee.counters.make_readonly(page)  # demote (copy back, increment)
            majors.append(mee.counters.pair(page, 0)[0])
        assert majors == sorted(majors)
        assert majors[-1] > majors[0]

    def test_demotion_does_not_rewind_a_line(self):
        """A writable write to a demoted page starts from its major-only counter."""
        mee = make_mee()
        for _ in range(3):
            mee.write(0, 0, readonly=False)
        mee.counters.make_readonly(0)
        mee.write(0, 0, readonly=True)  # a promotion
        assert mee.counters.pair(0, 0) == (2, 1)
        mee.counters.make_readonly(0)
        assert mee.counters.pair(0, 0) == (3, 0)
        mee.write(0, 0, readonly=False)
        assert mee.counters.pair(0, 0) == (3, 1)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["write", "write-readonly", "make_readonly"]),
                st.integers(0, 3),  # page
                st.integers(0, 3),  # line
            ),
            max_size=80,
        ),
        st.integers(2, 4),  # minor counter bits: small, so re-keys happen
    )
    @settings(max_examples=60, deadline=None)
    def test_no_counter_rewinds(self, operations, minor_bits):
        """Writes of either flag and demotions over 4 pages under HYBRID:
        after every write the line's pair is above every pair it held, and
        ``rekeys`` told beforehand whether the write would move the page."""
        core = CounterCore(EncryptionScheme.HYBRID, 1 << minor_bits)
        held = {(page, line): (0, 0) for page in range(4) for line in range(4)}
        for op, page, line in operations:
            if op == "make_readonly":
                core.make_readonly(page)
            else:
                rekeys = core.rekeys(page, line)
                _, rekeyed = core.bump(page, line, readonly=op == "write-readonly")
                assert rekeyed == rekeys
                assert core.pair(page, line) > held[(page, line)]
            for key in held:
                held[key] = max(held[key], core.pair(*key))

    @given(ops)
    @settings(max_examples=25, deadline=None)
    def test_none_scheme_is_always_free(self, operations):
        mee = make_mee(scheme=EncryptionScheme.NONE)
        for is_write, page, line, readonly in operations:
            result = (mee.write if is_write else mee.read)(page, line, readonly=readonly)
            assert result.latency == 0.0
            assert result.encryption_lines == 0.0
            assert result.verification_lines == 0.0


@st.composite
def replay_calls(draw):
    """Batches of events over at most 8 pages, each with the pages to make
    read-only after it. A batch mixes single accesses of either permission
    (a write to a read-only page promotes it), scans of a few lines of one
    page (repeat reads of a counter line), and runs of writes to one line
    long enough to overflow its minor counter. Few pages make shared
    counter lines and re-fetches common."""
    page = st.integers(0, draw(st.integers(1, 8)) - 1)
    line = st.integers(0, LINES_PER_PAGE - 1)
    access = st.tuples(page, line, st.booleans(), st.booleans()).map(lambda event: [event])
    scan = st.tuples(page, st.booleans(), st.integers(2, 8)).map(
        lambda scan: [(scan[0], line, False, scan[1]) for line in range(scan[2])]
    )
    run = st.tuples(page, line, st.integers(128, 200)).map(
        lambda run: [(run[0], run[1], True, False)] * run[2]
    )
    batch = st.lists(st.one_of(access, access, scan, scan, run), max_size=24).map(
        lambda parts: [event for part in parts for event in part]
    )
    return draw(st.lists(st.tuples(batch, st.lists(page, max_size=2)), max_size=4))


class TestReplayMatchesReference:
    @pytest.mark.parametrize("scheme", list(EncryptionScheme))
    @given(
        # counter-cache lines: at 1-8 every kind of line is evicted dirty and
        # clean; a read's lines (counter + tree path) stay resident from 8 up
        st.integers(1, 8) | st.sampled_from([16, 64, 2048]),
        replay_calls(),
    )
    # a repeat read under the other permission uses the other counter line
    @example(2048, [([(0, 0, False, True), (0, 1, False, True), (0, 2, False, False)], [])])
    # a write between two reads of a page evicts the page's counter line
    @example(8, [([(0, 0, False, False), (0, 1, False, False), (1, 0, True, False),
                   (0, 2, False, False)], [])])
    # a write hit on a clean tree node dirties it; the next read evicts it
    @example(8, [([(0, 0, False, False), (0, 0, True, False), (64, 0, False, False)], [])])
    @settings(max_examples=80, deadline=None)
    def test_replay_equals_the_per_access_reference(self, scheme, cache_lines, calls):
        """``replay`` over several calls, with pages made read-only between
        them, books every statistic bit for bit as the reference does one
        access at a time, and leaves every counter where it leaves it."""
        config = IceClaveConfig(counter_cache_bytes=cache_lines * 64)
        engine = MemoryEncryptionEngine(config=config, scheme=scheme)
        reference = ReferenceMee(config=config, scheme=scheme)
        touched = set()
        for batch, demoted in calls:
            engine.replay(batch)
            per_access(reference, batch)
            for page in demoted:
                engine.counters.make_readonly(page)
                reference.counters.make_readonly(page)
            touched.update((page, line) for page, line, _, _ in batch)
            for name, value in vars(reference.stats).items():
                other = getattr(engine.stats, name)
                if isinstance(value, float):
                    assert struct.pack("d", value) == struct.pack("d", other), name
                else:
                    assert value == other, name
            for name in ("hits", "misses", "dirty_evictions", "clean_evictions"):
                assert getattr(engine.cache, name) == getattr(reference.cache, name), name
            for page, line in touched:
                assert engine.counters.pair(page, line) == reference.counters.pair(page, line)
