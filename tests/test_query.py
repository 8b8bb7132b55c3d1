"""Tests for the columnar query engine: correctness against naive Python."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.query.operators import (
    OpStats,
    aggregate,
    filter_rows,
    hash_join,
    positional_join,
    scan,
)
from repro.query.table import Table
from repro.query.trace import (
    INPUT_REGION_PAGE,
    LINE_BYTES,
    LINES_PER_PAGE,
    OUTPUT_REGION_PAGE,
    WORKSET_REGION_PAGE,
    TraceRecorder,
)


def make_table(n=100, seed=3):
    rng = np.random.default_rng(seed)
    return Table(
        "t",
        {
            "k": rng.integers(0, 10, size=n, dtype=np.int64),
            "v": rng.uniform(0, 100, size=n),
        },
    )


class TestTable:
    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("bad", {"a": np.arange(3), "b": np.arange(4)})

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("bad", {})

    def test_unknown_column_error_names_candidates(self):
        t = make_table()
        with pytest.raises(KeyError, match="has: k, v"):
            t.column("missing")

    def test_row_bytes(self):
        t = make_table()
        assert t.row_bytes() == 8 + 8
        assert t.total_bytes() == 16 * len(t)

    def test_take_mask(self):
        t = make_table()
        mask = t.column("k") == 5
        sub = t.take(mask)
        assert sub.num_rows == int(mask.sum())


class TestOperators:
    def test_scan_counts_bytes(self):
        t = make_table(50)
        stats = OpStats()
        out = scan(t, ["v"], stats)
        assert len(out["v"]) == 50
        assert stats.bytes_read == 8 * 50
        assert stats.instructions > 0

    def test_filter_matches_numpy(self):
        t = make_table(200)
        stats = OpStats()
        result = filter_rows(t, lambda x: x.column("v") > 50, stats)
        assert result.num_rows == int((t.column("v") > 50).sum())
        assert stats.rows_read == 200

    def test_filter_bad_predicate_rejected(self):
        t = make_table()
        with pytest.raises(ValueError):
            filter_rows(t, lambda x: x.column("v"), OpStats())  # not boolean

    def test_aggregate_full_table(self):
        t = make_table(100)
        result = aggregate(t, None, {"v": np.mean}, OpStats())
        assert result.column("v_mean")[0] == pytest.approx(t.column("v").mean())

    def test_aggregate_group_by_matches_naive(self):
        t = make_table(300)
        result = aggregate(t, "k", {"v": np.sum}, OpStats())
        naive = {}
        for k, v in zip(t.column("k"), t.column("v")):
            naive[int(k)] = naive.get(int(k), 0.0) + float(v)
        for k, s in zip(result.column("k"), result.column("v_sum")):
            assert s == pytest.approx(naive[int(k)])

    def test_hash_join_matches_naive(self):
        rng = np.random.default_rng(5)
        left = Table("l", {"id": rng.integers(0, 20, 50, dtype=np.int64),
                           "x": np.arange(50, dtype=np.int64)})
        right = Table("r", {"id": rng.integers(0, 20, 80, dtype=np.int64),
                            "y": np.arange(80, dtype=np.int64)})
        stats = OpStats()
        joined = hash_join(left, right, "id", "id", stats)
        naive = sum(
            1
            for lid in left.column("id")
            for rid in right.column("id")
            if lid == rid
        )
        assert joined.num_rows == naive
        # every output row satisfies the equi-join condition
        assert joined.num_rows == 0 or "id" in joined.columns

    def test_hash_join_preserves_payload_pairs(self):
        left = Table("l", {"id": np.array([1, 2, 3]), "x": np.array([10, 20, 30])})
        right = Table("r", {"id": np.array([2, 3, 3]), "y": np.array([200, 300, 301])})
        joined = hash_join(left, right, "id", "id", OpStats())
        pairs = set(zip(joined.column("x").tolist(), joined.column("y").tolist()))
        assert pairs == {(20, 200), (30, 300), (30, 301)}

    def test_positional_join_matches_hash_join(self):
        rng = np.random.default_rng(7)
        dim = Table("d", {"id": np.arange(30, dtype=np.int64),
                          "attr": rng.integers(0, 5, 30, dtype=np.int64)})
        probe = Table("p", {"id": rng.integers(0, 30, 100, dtype=np.int64),
                            "val": np.arange(100, dtype=np.int64)})
        pj = positional_join(probe, dim, "id", "id", OpStats())
        hj = hash_join(probe, dim, "id", "id", OpStats())
        assert pj.num_rows == hj.num_rows == 100
        order_p = np.argsort(pj.column("val"))
        order_h = np.argsort(hj.column("val"))
        assert np.array_equal(pj.column("attr")[order_p], hj.column("attr")[order_h])

    def test_positional_join_requires_dense_keys(self):
        dim = Table("d", {"id": np.array([5, 6, 7]), "a": np.array([1, 2, 3])})
        probe = Table("p", {"id": np.array([5]), "v": np.array([0])})
        with pytest.raises(ValueError):
            positional_join(probe, dim, "id", "id", OpStats())

    @given(st.integers(10, 300), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_filter_then_count_property(self, n, seed):
        rng = np.random.default_rng(seed)
        t = Table("t", {"v": rng.integers(0, 100, n, dtype=np.int64)})
        kept = filter_rows(t, lambda x: x.column("v") < 50, OpStats())
        dropped = filter_rows(t, lambda x: x.column("v") >= 50, OpStats())
        assert kept.num_rows + dropped.num_rows == n


class TestTraceRecorder:
    def test_input_reads_counted_exactly(self):
        rec = TraceRecorder()
        rec.read_input(64 * 100)
        assert rec.trace.cpu_reads == 100
        assert rec.trace.dram_reads == 100

    def test_sampling_rate(self):
        rec = TraceRecorder(sample_every=10, burst_length=4)
        rec.read_input(64 * 4000)
        # one in ten sampled, in bursts of 4
        assert len(rec.trace.events) == pytest.approx(400, rel=0.1)

    def test_burst_sampling_preserves_locality(self):
        rec = TraceRecorder(sample_every=8, burst_length=64)
        rec.read_input(64 * 64 * 100)  # 100 pages
        events = rec.trace.events
        # consecutive sampled events inside a burst sit on consecutive lines
        consecutive = sum(
            1
            for a, b in zip(events, events[1:])
            if b[0] == a[0] and b[1] == a[1] + 1
        )
        assert consecutive > len(events) * 0.8

    def test_small_workset_is_cache_filtered(self):
        rec = TraceRecorder()
        rec.write_workset(64 * 10, count=1000)  # 640 B working set
        assert rec.trace.cpu_writes == 1000
        assert rec.trace.dram_writes == 0
        assert rec.trace.fixed_dram_writes == 10  # one writeback per line

    def test_large_workset_misses(self):
        rec = TraceRecorder(cache_filter_bytes=1 << 20)
        rec.write_workset(4 << 20, count=1000)  # 4 MB >> 1 MB cache
        assert 600 <= rec.trace.dram_writes <= 800  # 75% miss fraction

    def test_hot_fraction_reduces_misses(self):
        cold = TraceRecorder()
        cold.read_workset(4 << 20, count=1000)
        hot = TraceRecorder()
        hot.read_workset(4 << 20, count=1000, hot_fraction=0.9)
        assert hot.trace.dram_reads < cold.trace.dram_reads

    def test_readonly_workset_events_flagged(self):
        rec = TraceRecorder(sample_every=1)
        rec.read_workset(4 << 20, count=10, readonly=True)
        assert all(readonly for (_, _, _, readonly) in rec.trace.events)

    def test_write_ratio(self):
        rec = TraceRecorder()
        rec.read_input(64 * 90)
        rec.write_output(64 * 10)
        assert rec.trace.write_ratio == pytest.approx(0.1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TraceRecorder(sample_every=0)
        with pytest.raises(ValueError):
            TraceRecorder().read_workset(100, 10, hot_fraction=1.0)


class SlotRecorder(TraceRecorder):
    """The recorder as it sampled one slot at a time: the reference that
    burst-wise sampling must reproduce event for event."""

    def _sample_slots(self, count):
        period = self.burst_length * self.sample_every
        room = self.max_samples - len(self.trace.events)
        if room <= 0:
            self._tick += count
            return []
        slots = []
        offset = self._tick % period
        pos = 0
        while pos < count and len(slots) < room:
            in_period = (offset + pos) % period
            if in_period < self.burst_length:
                slots.append(pos)
                pos += 1
            else:
                pos += period - in_period  # jump to the next burst start
        self._tick += count
        return slots

    @staticmethod
    def _page_line(region_base, line_index):
        return region_base + line_index // LINES_PER_PAGE, line_index % LINES_PER_PAGE

    def read_input(self, nbytes):
        lines = max(1, int(nbytes) // LINE_BYTES)
        self.trace.cpu_reads += lines
        self.trace.dram_reads += lines
        for offset in self._sample_slots(lines):
            page, line = self._page_line(INPUT_REGION_PAGE, self._input_cursor + offset)
            self.trace.events.append((page, line, False, True))
        self._input_cursor += lines

    def _workset(self, working_set_bytes, count, hot_fraction, is_write, readonly=False):
        if count <= 0:
            return
        if not 0.0 <= hot_fraction < 1.0:
            raise ValueError("hot_fraction must lie in [0, 1)")
        lines = max(1, int(working_set_bytes) // LINE_BYTES)
        if is_write:
            self.trace.cpu_writes += count
        else:
            self.trace.cpu_reads += count
        ws_bytes = lines * LINE_BYTES
        if ws_bytes <= self.cache_filter_bytes:
            dram_count = min(count, lines)
            if is_write:
                self.trace.fixed_dram_writes += dram_count
            else:
                self.trace.fixed_dram_reads += dram_count
        else:
            miss_fraction = (1.0 - hot_fraction) * (
                1.0 - self.cache_filter_bytes / ws_bytes
            )
            dram_count = max(1, int(count * miss_fraction))
            if is_write:
                self.trace.dram_writes += dram_count
            else:
                self.trace.dram_reads += dram_count
        region = INPUT_REGION_PAGE if readonly else WORKSET_REGION_PAGE
        for _ in self._sample_slots(dram_count):
            idx = self._rng.next_below(lines)
            page, line = self._page_line(region, idx)
            self.trace.events.append((page, line, is_write, readonly))

    def write_output(self, nbytes):
        lines = max(1, int(nbytes) // LINE_BYTES)
        self.trace.cpu_writes += lines
        self.trace.dram_writes += lines
        for offset in self._sample_slots(lines):
            page, line = self._page_line(OUTPUT_REGION_PAGE, self._output_cursor + offset)
            self.trace.events.append((page, line, True, False))
        self._output_cursor += lines


recorder_calls = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["read_input", "write_output"]), st.integers(0, 64 * 300)),
        st.tuples(
            st.sampled_from(["read_workset", "write_workset"]),
            st.integers(0, 64 * 64),  # working-set bytes, either side of the filter
            st.integers(0, 300),  # count
            st.sampled_from([0.0, 0.5, 0.9]),  # hot fraction
            st.booleans(),  # readonly (reads only)
        ),
    ),
    max_size=25,
)


class TestBurstSampling:
    @given(
        st.integers(1, 8),  # sample_every
        st.integers(1, 16),  # burst_length
        st.integers(0, 400),  # max_samples: small enough to cut a burst
        recorder_calls,
    )
    @example(2, 4, 6, [("read_input", 64 * 20)])  # the cap cuts the second burst
    @settings(max_examples=80, deadline=None)
    def test_bursts_equal_the_per_slot_reference(self, every, burst, cap, calls):
        recorders = [
            cls(sample_every=every, burst_length=burst, max_samples=cap,
                cache_filter_bytes=64 * 16, seed=5)
            for cls in (TraceRecorder, SlotRecorder)
        ]
        for call in calls:
            for rec in recorders:
                if call[0] == "read_workset":
                    rec.read_workset(call[1], call[2], call[3], readonly=call[4])
                elif call[0] == "write_workset":
                    rec.write_workset(call[1], call[2], call[3])
                else:
                    getattr(rec, call[0])(call[1])
        assert recorders[0].finish() == recorders[1].finish()


class TestSortLimit:
    def test_topk_matches_naive(self):
        from repro.query.operators import sort_limit
        import numpy as np
        rng = np.random.default_rng(11)
        t = Table("t", {"v": rng.uniform(0, 1000, 500)})
        top = sort_limit(t, "v", OpStats(), limit=10)
        naive = np.sort(t.column("v"))[::-1][:10]
        assert np.allclose(top.column("v"), naive)

    def test_ascending_full_sort(self):
        from repro.query.operators import sort_limit
        import numpy as np
        t = Table("t", {"v": np.array([3.0, 1.0, 2.0])})
        out = sort_limit(t, "v", OpStats(), descending=False)
        assert out.column("v").tolist() == [1.0, 2.0, 3.0]

    def test_limit_larger_than_table(self):
        from repro.query.operators import sort_limit
        import numpy as np
        t = Table("t", {"v": np.array([2.0, 1.0])})
        out = sort_limit(t, "v", OpStats(), limit=10)
        assert out.num_rows == 2

    def test_full_sort_records_spill_traffic(self):
        from repro.query.operators import sort_limit
        import numpy as np
        rng = np.random.default_rng(2)
        t = Table("t", {"v": rng.uniform(0, 1, 10_000)})
        rec = TraceRecorder()
        sort_limit(t, "v", OpStats(), recorder=rec)
        assert rec.trace.cpu_writes > 0  # sorted runs spill

    def test_topk_is_cache_resident(self):
        from repro.query.operators import sort_limit
        import numpy as np
        t = Table("t", {"v": np.arange(1000.0)})
        rec = TraceRecorder()
        sort_limit(t, "v", OpStats(), recorder=rec, limit=5)
        assert rec.trace.cpu_writes == 0  # heap never hits memory
