"""Price-series primitives: validation, detrending, alignment."""

import math
import tracemalloc

import numpy as np
import pytest

from condcorr import (
    DataError,
    PriceSeries,
    ValidationError,
    align_panel,
    detrend_log_price,
)

from conftest import calendar


def series(closes, ticker="X", start=np.datetime64("2000-01-03")):
    closes = np.asarray(closes, dtype=float)
    return PriceSeries(ticker=ticker, dates=calendar(closes.size, start), closes=closes)


class TestPriceSeriesValidation:
    def test_rejects_nonpositive_close(self):
        with pytest.raises(DataError):
            series([100.0, 0.0, 101.0])

    def test_rejects_nonfinite_close(self):
        with pytest.raises(DataError):
            series([100.0, math.nan, 101.0])

    def test_rejects_unsorted_dates(self):
        dates = calendar(3)[::-1].copy()
        with pytest.raises(DataError):
            PriceSeries(ticker="X", dates=dates, closes=np.array([1.0, 2.0, 3.0]))

    def test_rejects_duplicate_dates(self):
        dates = np.array(["2000-01-03", "2000-01-03", "2000-01-04"], dtype="datetime64[D]")
        with pytest.raises(DataError):
            PriceSeries(ticker="X", dates=dates, closes=np.array([1.0, 2.0, 3.0]))

    def test_rejects_two_dimensional_dates(self):
        dates = [["2000-01-03", "2000-01-04", "2000-01-05"]]
        with pytest.raises(ValidationError, match="one-dimensional"):
            PriceSeries(ticker="X", dates=dates, closes=np.array([1.0, 2.0, 3.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            PriceSeries(ticker="X", dates=calendar(3), closes=np.array([1.0, 2.0]))

    def test_arrays_are_immutable(self):
        s = series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.closes[0] = 5.0


class TestDetrend:
    def test_log_linear_price_detrends_to_zero(self):
        # symmetric average of a linear ramp equals the center value
        closes = np.exp(0.001 * np.arange(40.0))
        d = detrend_log_price(series(closes), drift_window=7, mode="centered")
        np.testing.assert_allclose(d, 0.0, atol=1e-14)

    def test_constant_price_detrends_to_zero(self):
        for mode in ("centered", "trailing"):
            d = detrend_log_price(series([5.0] * 20), drift_window=5, mode=mode)
            np.testing.assert_allclose(d, 0.0, atol=1e-14)

    def test_centered_spike(self):
        # ln p = [0, 0, 1, 0, 0]: centered width-3 average at the spike is 1/3
        closes = np.exp([0.0, 0.0, 1.0, 0.0, 0.0])
        d = detrend_log_price(series(closes), drift_window=3, mode="centered")
        assert d.shape == (3,)
        assert d[1] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_centered_keeps_covered_days(self):
        """Entry k is day k + 5 less the mean of days k..k + 10."""
        s = series(np.exp(np.random.default_rng(3).normal(0.0, 0.1, 30)))
        d = detrend_log_price(s, drift_window=11, mode="centered")
        logp = s.log_closes
        expected = [logp[k + 5] - logp[k:k + 11].mean() for k in range(20)]
        np.testing.assert_allclose(d, expected, rtol=0, atol=1e-12)

    def test_trailing_keeps_covered_days(self):
        """Entry k is day k + 10 less the mean of days k..k + 10."""
        s = series(np.exp(np.random.default_rng(4).normal(0.0, 0.1, 30)))
        d = detrend_log_price(s, drift_window=11, mode="trailing")
        logp = s.log_closes
        expected = [logp[k + 10] - logp[k:k + 11].mean() for k in range(20)]
        np.testing.assert_allclose(d, expected, rtol=0, atol=1e-12)

    def test_centered_window_must_be_odd(self):
        with pytest.raises(ValidationError):
            detrend_log_price(series([1.0] * 20), drift_window=4, mode="centered")

    def test_window_must_fit_series(self):
        with pytest.raises(ValidationError):
            detrend_log_price(series([1.0] * 5), drift_window=7)
        with pytest.raises(ValidationError):
            detrend_log_price(series([1.0] * 5), drift_window=1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            detrend_log_price(series([1.0] * 20), drift_window=5, mode="middle")


class TestAlignPanel:
    def test_intersects_calendars(self):
        d = calendar(4)
        a = PriceSeries("A", d[:3], np.array([1.0, 2.0, 3.0]))
        b = PriceSeries("B", d[1:], np.array([4.0, 5.0, 6.0]))
        idx = PriceSeries("IDX", d, np.array([1.0, 1.0, 1.0, 1.0]))
        panel = align_panel([a, b], idx)
        np.testing.assert_array_equal(panel.calendar, d[1:3])
        assert panel.tickers == ("A", "B")
        np.testing.assert_array_equal(panel.stocks[0].closes, [2.0, 3.0])
        np.testing.assert_array_equal(panel.stocks[1].closes, [4.0, 5.0])
        np.testing.assert_array_equal(panel.index_series.closes, [1.0, 1.0])

    def test_disjoint_calendars_rejected(self):
        a = PriceSeries("A", calendar(3), np.ones(3))
        b = PriceSeries("B", calendar(3, np.datetime64("2001-01-01")), np.ones(3))
        idx = PriceSeries("IDX", calendar(3), np.ones(3))
        with pytest.raises(DataError):
            align_panel([a, b], idx)

    def test_min_days_enforced(self):
        d = calendar(4)
        a = PriceSeries("A", d[:2], np.array([1.0, 2.0]))
        b = PriceSeries("B", d[1:3], np.array([4.0, 5.0]))
        idx = PriceSeries("IDX", d, np.ones(4))
        with pytest.raises(DataError):
            align_panel([a, b], idx)

    def test_needs_two_stocks(self):
        a = PriceSeries("A", calendar(3), np.ones(3))
        with pytest.raises(ValidationError):
            align_panel([a], a)

    def test_duplicate_tickers_rejected(self):
        a = PriceSeries("A", calendar(3), np.ones(3))
        b = PriceSeries("A", calendar(3), 2 * np.ones(3))
        with pytest.raises(ValidationError):
            align_panel([a, b], a)

    def test_panel_accessors(self):
        d = calendar(5)
        a = PriceSeries("A", d, np.exp(np.arange(5.0)))
        b = PriceSeries("B", d, np.full(5, 2.0))
        idx = PriceSeries("IDX", d, np.full(5, 3.0))
        panel = align_panel([a, b], idx)
        assert panel.n_stocks == 2 and panel.n_days == 5
        np.testing.assert_allclose(panel.log_close_matrix[0], np.arange(5.0))
        np.testing.assert_allclose(panel.index_series.log_closes, math.log(3.0))

    def test_one_misaligned_member_gives_the_intersection(self):
        d = calendar(12)
        rng = np.random.default_rng(5)
        stocks = [PriceSeries(f"S{i}", d, rng.uniform(1.0, 2.0, 12)) for i in range(4)]
        keep = np.ones(12, dtype=bool)
        keep[[0, 4, 9]] = False
        stocks[2] = PriceSeries("S2", d[keep], rng.uniform(1.0, 2.0, keep.sum()))
        idx = PriceSeries("IDX", d[1:], rng.uniform(1.0, 2.0, 11))
        panel = align_panel(stocks, idx)
        common = d[keep & (d != d[0])]
        np.testing.assert_array_equal(panel.calendar, common)
        expected = np.vstack([s.log_closes[np.isin(s.dates, common)] for s in stocks])
        np.testing.assert_array_equal(panel.log_close_matrix, expected)
        np.testing.assert_array_equal(panel.index_series.log_closes,
                                      idx.log_closes[np.isin(idx.dates, common)])

    def test_aligned_members_are_kept(self):
        d = calendar(30)
        rng = np.random.default_rng(6)
        stocks = [PriceSeries(f"S{i}", d, rng.uniform(1.0, 2.0, 30)) for i in range(3)]
        idx = PriceSeries("IDX", d, rng.uniform(1.0, 2.0, 30))
        panel = align_panel(stocks, idx)
        np.testing.assert_array_equal(panel.calendar, d)
        assert all(a is b for a, b in zip(panel.stocks, stocks))
        assert panel.index_series is idx
        np.testing.assert_array_equal(panel.log_close_matrix,
                                      np.vstack([s.log_closes for s in stocks]))


def traced_peak(compute):
    """compute() and the tracemalloc peak of the allocations it made."""
    tracemalloc.start()
    try:
        result = compute()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestFrozenArrays:
    def test_inputs_are_copied_and_read_only(self):
        dates, closes = calendar(4), np.array([1.0, 2.0, 3.0, 4.0])
        s = PriceSeries("X", dates, closes)
        closes[0] = 9.0
        dates[0] = dates[0] - 1
        assert s.closes[0] == 1.0 and s.dates[0] == calendar(4)[0]
        for arr in (s.dates, s.closes, s.log_closes):
            assert not arr.flags.writeable

    def test_log_arrays_are_frozen_in_place(self):
        """``log_closes`` and ``log_close_matrix`` freeze their fresh result
        instead of copying it: with the stocks' log closes built, the traced
        peak of the matrix is the matrix itself."""
        d = calendar(5000)
        rng = np.random.default_rng(8)
        stocks = [PriceSeries(f"S{i}", d, rng.uniform(1.0, 2.0, 5000)) for i in range(10)]
        panel = align_panel(stocks, PriceSeries("IDX", d, np.full(5000, 3.0)))
        log_closes, peak = traced_peak(lambda: stocks[0].log_closes)
        assert peak <= 1.1 * log_closes.nbytes
        for s in stocks[1:]:
            s.log_closes
        matrix, peak = traced_peak(lambda: panel.log_close_matrix)
        assert matrix.shape == (10, 5000) and not matrix.flags.writeable
        assert peak <= 1.1 * matrix.nbytes
