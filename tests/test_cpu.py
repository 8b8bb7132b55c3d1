"""Tests for the analytic core models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import CORTEX_A53, CORTEX_A72, INTEL_I7_7700K, core_by_name


class TestCoreModel:
    def test_presets_lookup(self):
        assert core_by_name("cortex-a72") is CORTEX_A72
        with pytest.raises(KeyError):
            core_by_name("pentium")

    def test_host_faster_than_arm(self):
        """The i7 out-computes the A72 on identical work (Fig. 11 compute gap)."""
        work = dict(instructions=1e9, memory_accesses=1e8, memory_miss_rate=0.02)
        assert INTEL_I7_7700K.compute_time(**work) < CORTEX_A72.compute_time(**work)

    def test_a72_beats_a53_at_same_frequency(self):
        """Figure 15: the OoO A72 outperforms the in-order A53."""
        work = dict(instructions=1e9, memory_accesses=1e8, memory_miss_rate=0.02)
        assert CORTEX_A72.compute_time(**work) < CORTEX_A53.compute_time(**work)

    def test_frequency_scaling(self):
        """Figure 15: lower clock => proportionally more issue time."""
        slow = CORTEX_A72.with_frequency(0.8e9)
        t_fast = CORTEX_A72.compute_time(instructions=1e9)
        t_slow = slow.compute_time(instructions=1e9)
        assert t_slow == pytest.approx(2 * t_fast)

    def test_extra_memory_latency_slows_down(self):
        """MEE per-access latency shows up as longer compute time."""
        base = CORTEX_A72.compute_time(1e8, memory_accesses=1e7, memory_miss_rate=0.1)
        mee = CORTEX_A72.compute_time(
            1e8, memory_accesses=1e7, memory_miss_rate=0.1,
            extra_memory_latency_s=250e-9,
        )
        assert mee > base

    def test_invalid_work_rejected(self):
        with pytest.raises(ValueError):
            CORTEX_A72.compute_time(-1)
        with pytest.raises(ValueError):
            CORTEX_A72.compute_time(1, memory_miss_rate=2.0)

    @given(st.floats(min_value=0.4e9, max_value=4e9))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_frequency(self, freq):
        t = CORTEX_A72.with_frequency(freq).compute_time(1e8, 1e6)
        t2 = CORTEX_A72.with_frequency(freq * 2).compute_time(1e8, 1e6)
        assert t2 < t

