"""Date-indexed daily price series primitives.

Core building blocks for everything downstream: validated price series,
drift removal in log-price space, and alignment of several assets onto a
common trading calendar.

Conventions used throughout the package:

* Time is measured in trading days; only days present in the data exist,
  there is no gap filling.
* A window described by a start ``t`` and a span ``dt`` covers the ``dt + 1``
  entries ``t, t+1, ..., t+dt`` (inclusive endpoints).
* Windowed volatility is the population form (divisor ``dt + 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DataError, ValidationError

__all__ = [
    "PriceSeries",
    "AlignedPanel",
    "detrend_log_price",
    "align_panel",
]


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, made read-only; the constructors pass it a copy of
    what the caller handed them, the cached properties their fresh result."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PriceSeries:
    """One asset's daily closing prices on strictly increasing dates."""

    ticker: str
    dates: np.ndarray
    closes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", _read_only(np.array(self.dates, "datetime64[D]")))
        object.__setattr__(self, "closes", _read_only(np.array(self.closes, np.float64)))
        if self.dates.ndim != 1 or self.closes.ndim != 1:
            raise ValidationError("dates and closes must be one-dimensional")
        if len(self.dates) != len(self.closes):
            raise ValidationError(
                f"{self.ticker}: {len(self.dates)} dates vs {len(self.closes)} closes"
            )
        if len(self.dates) > 1 and not np.all(self.dates[1:] > self.dates[:-1]):
            raise DataError(f"{self.ticker}: dates must be strictly increasing")
        if not np.all(np.isfinite(self.closes)) or np.any(self.closes <= 0.0):
            raise DataError(f"{self.ticker}: closes must be finite and positive")

    def __len__(self) -> int:
        return len(self.closes)

    @cached_property
    def log_closes(self) -> np.ndarray:
        return _read_only(np.log(self.closes))


class AlignedPanel:
    """N >= 2 stocks plus a market index on one common trading calendar.

    All member series share identical dates.  Instances are treated as
    immutable; the cached matrices below are safe to share across threads.
    """

    def __init__(self, calendar: np.ndarray, stocks: Sequence[PriceSeries],
                 index_series: PriceSeries):
        self.calendar = _read_only(np.array(calendar, "datetime64[D]"))
        self.stocks = tuple(stocks)
        self.index_series = index_series
        if len(self.stocks) < 2:
            raise ValidationError("panel needs at least 2 stocks")
        tickers = [s.ticker for s in self.stocks]
        if len(set(tickers)) != len(tickers):
            raise ValidationError("duplicate tickers in panel")
        for s in (*self.stocks, self.index_series):
            if len(s) != len(self.calendar) or not np.array_equal(s.dates, self.calendar):
                raise ValidationError(f"{s.ticker}: dates differ from panel calendar")

    @property
    def tickers(self) -> tuple[str, ...]:
        return tuple(s.ticker for s in self.stocks)

    @property
    def n_stocks(self) -> int:
        return len(self.stocks)

    @property
    def n_days(self) -> int:
        return len(self.calendar)

    @cached_property
    def log_close_matrix(self) -> np.ndarray:
        """Stacked log closes, shape (n_stocks, n_days), logged in place."""
        matrix = np.vstack([s.closes for s in self.stocks])
        return _read_only(np.log(matrix, out=matrix))


def _moving_average(values: np.ndarray, width: int) -> np.ndarray:
    csum = np.concatenate(([0.0], np.cumsum(values)))
    return (csum[width:] - csum[:-width]) / width


def detrend_log_price(series: PriceSeries, drift_window: int = 251) -> np.ndarray:
    """Remove slow drift: log price minus its centred moving average over
    ``drift_window`` days, which must be odd.

    The returned array holds only the ``len(series) - drift_window + 1``
    fully covered days: entry k is day ``k + (drift_window - 1) // 2`` of
    the series.
    """
    w = drift_window
    if w < 3 or w > len(series):
        raise ValidationError(
            f"drift window {w} outside [3, {len(series)}] for {series.ticker}"
        )
    if w % 2 == 0:
        raise ValidationError("centered drift window must be odd")
    half = (w - 1) // 2
    logp = series.log_closes
    return logp[half:len(series) - half] - _moving_average(logp, w)


def align_panel(stocks: Sequence[PriceSeries], index: PriceSeries) -> AlignedPanel:
    """Intersect all calendars and restrict every series to the common dates.

    A member whose dates already equal the running calendar is not
    intersected, and one as long as the common calendar is kept as it is:
    it holds every common date and no other.  Raises if fewer than two
    stocks are given, tickers repeat, or the common calendar ends up
    shorter than two days.
    """
    if len(stocks) < 2:
        raise ValidationError("need at least 2 stocks to build a panel")
    tickers = [s.ticker for s in stocks]
    if len(set(tickers)) != len(tickers):
        raise ValidationError(f"duplicate tickers: {sorted(tickers)}")
    calendar = index.dates
    for s in stocks:
        if not np.array_equal(calendar, s.dates):
            calendar = np.intersect1d(calendar, s.dates, assume_unique=True)
    if len(calendar) == 0:
        raise DataError("no common trading dates across panel members")
    if len(calendar) < 2:
        raise DataError(f"common calendar has {len(calendar)} days, below minimum 2")
    def fit(s: PriceSeries) -> PriceSeries:
        if len(s) == len(calendar):
            return s
        mask = np.isin(s.dates, calendar, assume_unique=True)
        return PriceSeries(s.ticker, s.dates[mask], s.closes[mask])

    return AlignedPanel(calendar, [fit(s) for s in stocks], fit(index))
