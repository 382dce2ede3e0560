"""Shared fixtures and panel builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from condcorr import AlignedPanel, PriceSeries, conditional, inverse_stats

import reference

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


def symmetric_market(n_stocks, n_steps, step_size, p_sync, seed):
    """A correlated market whose true directional asymmetry is exactly zero.

    Each step, with probability ``p_sync`` every stock moves by the same
    ±``step_size``, up or down with probability 1/2; otherwise each stock
    moves ±``step_size`` on its own, up or down with probability 1/2.  The
    PCG64 draws are one sync uniform per step, one direction uniform per
    step, then an (n_steps, n_stocks) block.  The index is exp(mean log
    price), so flipping the sign of every step gives an equally likely
    market with C(+ρ) and C(−ρ) swapped.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    sync = rng.random(n_steps) < p_sync
    sync_steps = np.where(rng.random(n_steps) < 0.5, step_size, -step_size)
    steps = np.where(rng.random((n_steps, n_stocks)) < 0.5, step_size, -step_size)
    steps[sync] = sync_steps[sync, None]
    log_prices = np.zeros((n_steps + 1, n_stocks))
    np.cumsum(steps, axis=0, out=log_prices[1:])
    dates = calendar(n_steps + 1)
    stocks = [PriceSeries(f"S{i:02d}", dates, np.exp(log_prices[:, i]))
              for i in range(n_stocks)]
    index = PriceSeries("INDEX", dates, np.exp(log_prices.mean(axis=1)))
    return AlignedPanel(dates, stocks, index)


def window_probe(panel, span, horizon=1, columns=None, starts=None):
    """S_0 and the defined-pair count of one span at every valid window start
    (or at ``starts``), straight from the kernel that ``analyze_panel``
    sweeps.  Over two columns (x, y), taken in the order given, S_0 is
    S_(x,y); NaN marks an undefined window.  The kernel runs the spans
    (span, span + 1): with one span alone its matrix product is a
    matrix–vector one, which rounds unlike a sweep over several spans."""
    returns = conditional._returns(panel, horizon)
    if columns is not None:
        returns = np.ascontiguousarray(returns[:, list(columns)])
    if starts is None:
        starts = np.arange(max(len(returns) - span, 0))
    n = returns.shape[1]
    work = np.empty(len(starts) * ((span + 2) * n + 4 * n + 2 * (span + 2)))
    _, _, scale, s0 = conditional._window_kernel(returns, np.asarray(starts), span, span + 1,
                                                 work, conditional._screen_bound(returns))
    defined = np.count_nonzero(scale[0], axis=1)  # a stock is defined where 1/sd > 0
    return s0[:, 0], defined * (defined - 1) // 2


def descent(values, sign, magnitudes):
    """Every start's waiting time to a move of ``sign`` times each magnitude,
    0 where the start is censored: one row per magnitude, the chunks of the
    descent that ``gain_loss_report`` runs per sign joined."""
    return np.concatenate(list(inverse_stats._first_passage_up(
        inverse_stats._first_passage_tables(values, sign), magnitudes)), axis=1)


def brute_force_waits(values, sign, magnitudes):
    """The plain loop's waiting times in the descent's layout, 0 if censored."""
    waits = np.zeros((len(magnitudes), len(values) - 1), dtype=np.int64)
    for row, magnitude in zip(waits, magnitudes):
        hits, censored = reference.first_passage(values.tolist(), sign * magnitude)
        for t0, tau in hits:
            row[t0] = tau
        assert np.count_nonzero(row == 0) == censored
    return waits


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
