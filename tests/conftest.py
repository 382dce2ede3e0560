"""Shared fixtures and panel builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from condcorr import AlignedPanel, PriceSeries, conditional

START = np.datetime64("2000-01-03")


def calendar(n_days, start=START):
    return start + np.arange(n_days)


def make_panel(close_rows, index_closes=None):
    """Build an AlignedPanel from per-stock close rows on a shared calendar.

    When index_closes is omitted the index is the equal-weight mean price,
    matching the simulator's index construction.
    """
    close_rows = [np.asarray(row, dtype=float) for row in close_rows]
    n_days = close_rows[0].size
    dates = calendar(n_days)
    stocks = tuple(
        PriceSeries(ticker=f"S{i:02d}", dates=dates, closes=row)
        for i, row in enumerate(close_rows)
    )
    if index_closes is None:
        index_closes = np.mean(np.stack(close_rows), axis=0)
    index = PriceSeries(
        ticker="INDEX", dates=dates, closes=np.asarray(index_closes, dtype=float)
    )
    return AlignedPanel(calendar=dates, stocks=stocks, index_series=index)


def random_oracle_panel(rng):
    """Small random panel for oracle comparisons.

    Mixes smooth geometric walks with occasional flat stretches so the
    zero-volatility definedness rule is exercised, and draws an index that
    is partly coupled to the stocks so both condition branches populate.
    """
    n_stocks = int(rng.integers(2, 5))
    n_days = int(rng.integers(20, 61))
    rows = []
    for _ in range(n_stocks):
        steps = rng.normal(0.0, 0.02, size=n_days - 1)
        if rng.random() < 0.35:
            # inject a constant-return run (flat log price) inside the series
            k = int(rng.integers(3, 8))
            start = int(rng.integers(0, max(n_days - 1 - k, 1)))
            steps[start: start + k] = 0.0
        log_price = np.concatenate([[0.0], np.cumsum(steps)])
        rows.append(np.exp(log_price + rng.normal(0.0, 0.5)))
    common = np.mean([np.log(r) for r in rows], axis=0)
    noise = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.01, size=n_days - 1))])
    index_closes = np.exp(common + noise)
    return make_panel(rows, index_closes)


def window_probe(panel, span, horizon=1, columns=None, starts=None):
    """S_0 and the defined-pair count of one span at every valid window start
    (or at ``starts``), straight from the kernel that ``analyze_panel``
    sweeps.  Over two columns (x, y), taken in the order given, S_0 is
    S_(x,y); NaN marks an undefined window."""
    returns = conditional._returns(panel, horizon)
    if columns is not None:
        returns = np.ascontiguousarray(returns[:, list(columns)])
    if starts is None:
        starts = np.arange(max(len(returns) - span, 0))
    s0, n_pairs = conditional._window_kernel(returns, np.asarray(starts), span, span)[3:]
    return s0[:, 0], n_pairs[:, 0]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
