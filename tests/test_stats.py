"""Statistics collectors."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.engine.stats import LatencyStats, RateMeter, TimeSeries


class TestLatencyStats:
    def test_empty(self):
        s = LatencyStats()
        assert s.count == 0
        assert math.isnan(s.mean)
        assert math.isnan(s.percentile(50))

    def test_basic_moments(self):
        s = LatencyStats()
        for v in (1, 2, 3, 4):
            s.record(v)
        assert s.mean == pytest.approx(2.5)
        assert s.min == 1
        assert s.max == 4

    def test_percentiles_nearest_rank(self):
        s = LatencyStats()
        for v in range(1, 101):
            s.record(v)
        assert s.percentile(50) == 50
        assert s.percentile(90) == 90
        assert s.percentile(100) == 100
        assert s.percentile(0) == 1

    def test_percentile_bounds_checked(self):
        s = LatencyStats()
        s.record(1)
        with pytest.raises(ValueError):
            s.percentile(101)

    def test_inverse_cdf_monotone_decreasing(self):
        s = LatencyStats()
        for v in (1, 1, 2, 5, 10, 10, 40):
            s.record(v)
        xs, fracs = s.inverse_cdf(num_points=50)
        assert fracs[0] <= 1.0
        assert np.all(np.diff(fracs) <= 1e-12)
        assert fracs[-1] == 0.0  # nothing exceeds the max

    def test_inverse_cdf_fraction_semantics(self):
        s = LatencyStats()
        for v in (1, 2, 3, 4):
            s.record(v)
        xs, fracs = s.inverse_cdf(num_points=4)
        # at x = 1 exactly, 3 of 4 samples are strictly greater
        assert fracs[0] == pytest.approx(0.75)

    def test_merged(self):
        a, b = LatencyStats(), LatencyStats()
        a.record(1)
        b.record(3)
        merged = a.merged_with(b)
        assert merged.count == 2
        assert merged.mean == 2

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_percentile_is_a_sample(self, values):
        s = LatencyStats()
        for v in values:
            s.record(v)
        for pct in (0, 25, 50, 90, 99, 100):
            assert s.percentile(pct) in values

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_percentile_monotone(self, values, p1, p2):
        s = LatencyStats()
        for v in values:
            s.record(v)
        lo, hi = sorted((p1, p2))
        assert s.percentile(lo) <= s.percentile(hi)


class TestRateMeter:
    def test_counts_only_in_window(self):
        m = RateMeter()
        m.record(5)  # before window: dropped
        m.open_window(100)
        m.record(3)
        m.record(2)
        m.close_window(110)
        m.record(7)  # after window: dropped
        assert m.count == 5
        assert m.rate() == pytest.approx(0.5)

    def test_rate_nan_without_window(self):
        assert math.isnan(RateMeter().rate())

    def test_zero_span_empty_window_is_zero(self):
        # regression: a degenerate window used to divide by zero (inf/NaN)
        m = RateMeter()
        m.open_window(50)
        m.close_window(50)
        assert m.rate() == 0.0

    def test_zero_span_with_events_is_an_error(self):
        m = RateMeter()
        m.open_window(50)
        m.record(3)
        m.close_window(50)
        with pytest.raises(ValueError, match="zero-span"):
            m.rate()


class TestTimeSeries:
    def test_binning(self):
        ts = TimeSeries(period=10)
        ts.record(0, 1.0)
        ts.record(5, 3.0)
        ts.record(15, 10.0)
        t, v = ts.series()
        assert list(t) == [5.0, 15.0]
        assert list(v) == [2.0, 10.0]

    def test_hold_last_fills_gaps(self):
        ts = TimeSeries(period=10, hold_last=True)
        ts.record(5, 4.0)
        ts.record(35, 8.0)
        t, v = ts.series()
        assert list(v) == [4.0, 4.0, 4.0, 8.0]

    def test_no_hold_skips_gaps(self):
        ts = TimeSeries(period=10, hold_last=False)
        ts.record(5, 4.0)
        ts.record(35, 8.0)
        _, v = ts.series()
        assert list(v) == [4.0, 8.0]

    def test_empty(self):
        t, v = TimeSeries(period=10).series()
        assert t.size == 0 and v.size == 0

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            TimeSeries(period=0)

