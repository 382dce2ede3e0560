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
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, ValidationError

__all__ = [
    "PriceSeries",
    "DetrendedLogPrice",
    "AlignedPanel",
    "detrend_log_price",
    "align_panel",
    "DETREND_MODES",
]

DETREND_MODES = ("centered", "trailing")


def _as_dates(dates: Iterable) -> np.ndarray:
    arr = np.asarray(dates)
    if arr.dtype.kind != "M":
        arr = np.array([np.datetime64(d, "D") for d in np.ravel(arr)])
    return arr.astype("datetime64[D]")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PriceSeries:
    """One asset's daily closing prices on strictly increasing dates."""

    ticker: str
    dates: np.ndarray
    closes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", _frozen(_as_dates(self.dates)))
        closes = np.asarray(self.closes, dtype=np.float64)
        object.__setattr__(self, "closes", _frozen(closes))
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
        return _frozen(np.log(self.closes))


@dataclass(frozen=True)
class DetrendedLogPrice:
    """Log price minus a moving average of itself, on the covered dates."""

    ticker: str
    dates: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", _frozen(_as_dates(self.dates)))
        object.__setattr__(
            self, "values", _frozen(np.asarray(self.values, dtype=np.float64))
        )

    def __len__(self) -> int:
        return len(self.values)


class AlignedPanel:
    """N >= 2 stocks plus a market index on one common trading calendar.

    All member series share identical dates.  Instances are treated as
    immutable; the cached matrices below are safe to share across threads.
    """

    def __init__(self, calendar: np.ndarray, stocks: Sequence[PriceSeries],
                 index_series: PriceSeries):
        self.calendar = _frozen(_as_dates(calendar))
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
        """Stacked log closes, shape (n_stocks, n_days)."""
        return _frozen(np.vstack([s.log_closes for s in self.stocks]))


def _moving_average(values: np.ndarray, width: int) -> np.ndarray:
    csum = np.concatenate(([0.0], np.cumsum(values)))
    return (csum[width:] - csum[:-width]) / width


def detrend_log_price(series: PriceSeries, drift_window: int = 251,
                      mode: str = "centered") -> DetrendedLogPrice:
    """Remove slow drift: log price minus its moving average over ``drift_window``.

    ``mode="centered"`` subtracts the symmetric average around each day (the
    window width must be odd); ``mode="trailing"`` subtracts the average of
    the window ending at each day.  Either way the output keeps only the
    ``len(series) - drift_window + 1`` fully covered days.
    """
    w = drift_window
    if mode not in DETREND_MODES:
        raise ValidationError(f"unknown detrend mode {mode!r}")
    if w < 3 or w > len(series):
        raise ValidationError(
            f"drift window {w} outside [3, {len(series)}] for {series.ticker}"
        )
    if mode == "centered" and w % 2 == 0:
        raise ValidationError("centered drift window must be odd")
    logp = series.log_closes
    ma = _moving_average(logp, w)
    if mode == "centered":
        half = (w - 1) // 2
        covered = slice(half, len(series) - half)
    else:
        covered = slice(w - 1, len(series))
    values = logp[covered] - ma
    return DetrendedLogPrice(series.ticker, series.dates[covered], values)


def align_panel(stocks: Sequence[PriceSeries], index: PriceSeries,
                min_days: int = 2) -> AlignedPanel:
    """Intersect all calendars and restrict every series to the common dates.

    A member whose dates already equal the running calendar is not
    intersected, and one as long as the common calendar is kept as it is:
    it holds every common date and no other.  Raises if fewer than two
    stocks are given, tickers repeat, or the common calendar ends up
    shorter than ``min_days``.
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
    if len(calendar) < min_days:
        raise DataError(
            f"common calendar has {len(calendar)} days, below minimum {min_days}"
        )
    def fit(s: PriceSeries) -> PriceSeries:
        if len(s) == len(calendar):
            return s
        mask = np.isin(s.dates, calendar, assume_unique=True)
        return PriceSeries(s.ticker, s.dates[mask], s.closes[mask])

    return AlignedPanel(calendar, [fit(s) for s in stocks], fit(index))
