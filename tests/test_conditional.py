"""Conditional correlation pipeline: pair windows through χ and C_t."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import condcorr
from condcorr import (SimConfig, ValidationError, analyze_panel, conditional,
                      relative_difference_chi, simulate_market, to_aligned_panel)

import reference
from conftest import make_panel, random_oracle_panel, window_probe


def panel_from_returns(return_rows, index_closes=None):
    rows = [np.exp(np.concatenate([[0.0], np.cumsum(r)])) for r in return_rows]
    return make_panel(rows, index_closes)


def pair_value(p, span=2, columns=(0, 1), t=0):
    """S_(x,y) of one window through the kernel; None when undefined."""
    value = window_probe(p, span, columns=columns)[0][t]
    return None if np.isnan(value) else float(value)


def per_span_members(panel, level, spans, horizon=1):
    """For each span, the defined S_0 of the windows in the level-ρ set,
    selected here by the rule itself: r ≥ ρ for ρ ≥ 0, r < ρ for ρ < 0."""
    members = []
    for span in spans:
        s0, _ = window_probe(panel, span, horizon)
        r = conditional._condition_returns(np.log(panel.index_series.closes), horizon, span)
        member = r < level if level < 0 else r >= level
        members.append(s0[member & ~np.isnan(s0)])
    return members


def assert_point_matches(got, members):
    """A curve point against per-span member sets: the mean of the member
    means, the member total, and the spans without members."""
    sizes = [len(m) for m in members]
    if sum(sizes) == 0:
        assert got is None
        return
    assert got.sample_count == sum(sizes)
    assert got.excluded_windows == sizes.count(0)
    assert got.value == pytest.approx(np.mean([m.mean() for m in members if len(m)]),
                                      abs=1e-10)


class TestPairCorrelation:
    def test_identical_motion_gives_one(self):
        p = panel_from_returns([[0.01, -0.02, 0.03], [0.01, -0.02, 0.03]])
        assert pair_value(p) == pytest.approx(1.0, abs=1e-12)

    def test_mirrored_motion_gives_minus_one(self):
        p = panel_from_returns([[0.01, -0.02, 0.03], [-0.01, 0.02, -0.03]])
        assert pair_value(p) == pytest.approx(-1.0, abs=1e-12)

    def test_half_correlated_window(self):
        p = panel_from_returns([[0.01, 0.02, 0.03], [0.01, 0.03, 0.02]])
        assert pair_value(p) == pytest.approx(0.5, abs=1e-12)

    def test_flat_stock_is_undefined(self):
        p = panel_from_returns([[0.01, -0.02, 0.03], [0.0, 0.0, 0.0]])
        assert pair_value(p) is None
        assert window_probe(p, 2)[1][0] == 0

    def test_self_pair_gives_one(self):
        p = panel_from_returns([[0.01, -0.02, 0.03], [0.02, 0.01, -0.01]])
        assert pair_value(p, columns=(0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_is_exact(self, rng):
        """Definedness exactly, values to 1e-14: the χ outputs list each
        unordered pair once, so no output depends on the column order."""
        for _ in range(20):
            p = random_oracle_panel(rng)
            a = window_probe(p, 5, columns=(0, 1))[0]
            b = window_probe(p, 5, columns=(1, 0))[0]
            np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14, equal_nan=True)

    def test_bounded_by_one(self, rng):
        for _ in range(5):
            p = random_oracle_panel(rng)
            values = window_probe(p, 4, columns=(0, 1))[0]
            finite = values[~np.isnan(values)]
            assert np.all(np.abs(finite) <= 1.0 + 1e-9)

    def test_series_matches_pointwise(self, rng):
        p = random_oracle_panel(rng)
        returns = reference.log_return_rows([s.closes.tolist() for s in p.stocks], 1)
        values = window_probe(p, 3, columns=(0, 1))[0]
        for t, value in enumerate(values):
            single = reference.pair_corr(returns[0], returns[1], t, 3)
            if single is None:
                assert math.isnan(value)
            else:
                assert value == pytest.approx(single, abs=1e-12)

    def test_affine_return_invariance(self, rng):
        """Per-stock maps r -> a*r + b (a > 0) leave every window correlation alone."""
        p = random_oracle_panel(rng)
        t_grid = np.arange(p.n_days)
        scaled = [
            np.exp(a * np.log(s.closes) + b * t_grid)
            for s, a, b in zip(p.stocks, (1.7, 0.4, 2.2, 0.9), (0.001, -0.002, 0.0, 0.003))
        ]
        q = make_panel(scaled[: p.n_stocks], p.index_series.closes)
        s_p = window_probe(p, 4, columns=(0, 1))[0]
        s_q = window_probe(q, 4, columns=(0, 1))[0]
        np.testing.assert_allclose(s_q, s_p, atol=1e-9, equal_nan=True)


def long_drift_panel():
    """20000-day ±0.01 binary walks with constant-return stretches.

    Deep into a long panel, moments taken from running sums over the whole
    history carry rounding noise above the 1e-12 relative variance floor,
    so constant windows there (the drift stretches, and the flat runs a
    binary walk makes by itself) are where definedness goes wrong first.
    """
    rng = np.random.default_rng(20000)
    steps = rng.choice([-0.01, 0.01], size=(3, 19_999))
    steps[:, 12000:12060] = 0.0005
    steps[0, 15000:15030] = -0.0005
    return panel_from_returns(steps)


def block_edge_panel():
    """300 days of ±0.01 walks with constant-return stretches placed against
    the (δt2 + 1)-row blocks of window range (4, 12), each block shifted by
    its first row."""
    rng = np.random.default_rng(2024)
    steps = rng.choice([-0.01, 0.01], size=(3, 299))
    steps[0, 40:53] = 0.003     # exactly start 40's block
    steps[1, 100:113] = 0.002   # start 100's block varies only on its shift row
    steps[1, 100] = -0.004
    steps[:, 150:161] = 0.001   # every stock flat inside blocks: no S_0 there
    steps[2, 185:193] = -0.002  # ends on the last row of start 180's block
    # defined, but its spread is 3e-4 of its mean: a shift by a row outside
    # the window (the -0.01 after it) would cost these windows their digits
    steps[2, 230:242] = 0.01 + 3e-6 * (-1.0) ** np.arange(12)
    steps[2, 242] = -0.01
    steps[0, 287:] = 0.004      # the last starts, which only δt < 12 reach
    return panel_from_returns(steps)


class TestNestedSpanOracle:
    """One multi-span sweep over a short panel against the plain-loop
    reference: member counts exactly, values to 1e-10."""

    WINDOW_RANGE = (4, 12)
    GRID = (-0.03, -0.01, -0.004, 0.0, 0.004, 0.01, 0.03)

    def test_sweep_matches_reference(self):
        p = block_edge_panel()
        rows = [s.closes.tolist() for s in p.stocks]
        idx = p.index_series.closes.tolist()
        dt1, dt2 = self.WINDOW_RANGE
        analysis = analyze_panel(p, self.GRID, self.WINDOW_RANGE, chi_levels=(0.004, 0.01),
                                 ct_levels=(0.004, -0.01))
        for level in self.GRID:
            got = analysis.curve.point(level)
            value, n_samples, n_excluded = reference.curve_point(rows, idx, level,
                                                                 dt1, dt2, 1)
            assert (got.sample_count, got.excluded_windows) == (n_samples, n_excluded)
            assert got.value == pytest.approx(value, abs=1e-10)
        assert_pairs_match_reference(p, analysis, self.WINDOW_RANGE)
        for level, ct in analysis.time_resolved.items():
            want = reference.time_resolved(rows, idx, level, dt1, dt2, 1)
            np.testing.assert_array_equal(ct.times, sorted(want))
            np.testing.assert_allclose(ct.values, [want[t] for t in sorted(want)],
                                       rtol=0, atol=1e-10)
        # the stretches do reach the sweep: windows with no defined S_0 among
        # the members, and members among the starts only short spans reach
        returns = reference.log_return_rows(rows, 1)
        assert reference.market_corr(returns, 150, dt1) is None
        assert reference.window_moments(returns[2][230:230 + dt1 + 1])[2]
        assert max(analysis.time_resolved[0.004].times) > p.n_days - 1 - dt2


class TestLongPanelOracle:
    """Every window of a long panel against the plain-loop reference:
    definedness exactly, values to 1e-10."""

    SPANS = (10, 20, 35)
    # starts around both drift stretches plus a stride through the panel
    SPOT_STARTS = sorted(set(range(11_950, 12_070)) | set(range(14_950, 15_040))
                         | set(range(0, 19_960, 397)))

    @pytest.fixture(scope="class")
    def long_panel(self):
        p = long_drift_panel()
        rows = [s.closes.tolist() for s in p.stocks]
        return p, reference.log_return_rows(rows, 1)

    @staticmethod
    def assert_matches(got, want):
        """got: floats with NaN for undefined; want: floats or None."""
        got = np.asarray(got, dtype=float)
        undefined = np.array([w is None for w in want])
        np.testing.assert_array_equal(np.isnan(got), undefined)
        expected = np.array([np.nan if w is None else w for w in want])
        np.testing.assert_allclose(got[~undefined], expected[~undefined],
                                   rtol=0, atol=1e-10)

    def test_pair_series(self, long_panel):
        p, returns = long_panel
        for span in self.SPANS:
            for x, y in ((0, 1), (0, 2), (1, 2)):
                got = window_probe(p, span, columns=(x, y))[0]
                want = [reference.pair_corr(returns[x], returns[y], t, span)
                        for t in range(len(got))]
                self.assert_matches(got, want)

    def test_market_series_and_pair_counts(self, long_panel):
        p, returns = long_panel
        for span in self.SPANS:
            values, pair_counts = window_probe(p, span)
            n_t = len(values)
            self.assert_matches(
                values, [reference.market_corr(returns, t, span) for t in range(n_t)]
            )
            defined = [
                sum(reference.window_moments(r[t: t + span + 1])[2] for r in returns)
                for t in range(n_t)
            ]
            np.testing.assert_array_equal(pair_counts, [d * (d - 1) // 2 for d in defined])

    def test_sweep_matches_per_span_selection(self, long_panel):
        p, _ = long_panel
        levels = (-0.03, -0.01, 0.0, 0.01, 0.03)
        analysis = analyze_panel(p, levels, window_range=(10, 35))
        for level in levels:
            assert_point_matches(analysis.curve.point(level),
                                 per_span_members(p, level, range(10, 36)))

    def test_single_windows(self, long_panel):
        """The kernel at scattered starts, as the sweep gathers its members."""
        p, returns = long_panel
        for span in self.SPANS:
            s0, pairs = window_probe(p, span, starts=self.SPOT_STARTS)
            s01 = window_probe(p, span, columns=(0, 1), starts=self.SPOT_STARTS)[0]
            self.assert_matches(s0, [reference.market_corr(returns, t, span)
                                     for t in self.SPOT_STARTS])
            self.assert_matches(s01, [reference.pair_corr(returns[0], returns[1], t, span)
                                      for t in self.SPOT_STARTS])
            defined = [sum(reference.window_moments(r[t: t + span + 1])[2] for r in returns)
                       for t in self.SPOT_STARTS]
            np.testing.assert_array_equal(pairs, [d * (d - 1) // 2 for d in defined])


class TestKernelBits:
    """The kernel against ``reference.window_kernel``, its arithmetic written
    out step by step: every mean, scale and S_0 bit for bit, NaN in the same
    places.  The oracle tests allow 1e-10, so only this one sees a rounding
    step change."""

    @staticmethod
    def assert_same_bits(p, window_range):
        """Compare at every start the sweep can visit; return the count of
        undefined (stock, window) cells."""
        returns = conditional._returns(p, 1)
        dt1, dt2 = window_range
        starts = np.arange(len(returns) - dt1)
        n, s = returns.shape[1], dt2 - dt1 + 1
        work = np.empty(len(starts) * ((dt2 + 1) * n + 2 * s * n + (dt2 + 1) * s))
        _, mean, scale, s0 = conditional._window_kernel(returns, starts, dt1, dt2, work)
        for got, want in zip((mean, scale, s0),
                             reference.window_kernel(returns, starts, dt1, dt2)):
            np.testing.assert_array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # the signs of zeros too
        return np.count_nonzero(scale == 0.0)

    def test_random_panels(self, rng):
        undefined = 0
        for _ in range(40):
            p = random_oracle_panel(rng)
            dt2 = int(rng.integers(2, p.n_days - 2))
            undefined += self.assert_same_bits(p, (int(rng.integers(1, dt2)), dt2))
        assert undefined > 0  # the flat stretches reach the floor test

    def test_long_window(self):
        assert self.assert_same_bits(block_edge_panel(), (10, 120)) > 0
        market = to_aligned_panel(simulate_market(SimConfig(
            n_stocks=30, n_steps=400, fear_probability=0.05, step_size=0.01, seed=1)))
        self.assert_same_bits(market, (10, 120))


class TestMarketCorrelation:
    def test_two_stocks_reduce_to_single_pair(self):
        p = panel_from_returns([[0.01, 0.02, 0.03], [0.01, 0.03, 0.02]])
        s0, n_pairs = window_probe(p, 2)
        assert n_pairs[0] == 1
        assert s0[0] == pytest.approx(0.5, abs=1e-12)

    def test_mean_over_defined_pairs(self, rng):
        p = random_oracle_panel(rng)
        span = 5
        values, pair_counts = window_probe(p, span)
        pairs = [window_probe(p, span, columns=(i, j))[0]
                 for i in range(p.n_stocks) for j in range(i + 1, p.n_stocks)]
        for t in range(min(len(values), 10)):
            vals = [v[t] for v in pairs if not np.isnan(v[t])]
            if not vals:
                assert math.isnan(values[t])
            else:
                assert values[t] == pytest.approx(np.mean(vals), abs=1e-12)
                assert pair_counts[t] == len(vals)

    def test_no_defined_pair_gives_none(self):
        p = panel_from_returns([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        s0, n_pairs = window_probe(p, 2)
        assert math.isnan(s0[0]) and n_pairs[0] == 0

    def test_partially_flat_panel_drops_pairs(self):
        p = panel_from_returns(
            [[0.01, -0.02, 0.03], [0.02, 0.01, -0.01], [0.0, 0.0, 0.0]]
        )
        s0, n_pairs = window_probe(p, 2)
        assert n_pairs[0] == 1  # only the two moving stocks form a defined pair
        assert s0[0] == pytest.approx(pair_value(p), abs=1e-12)


class TestConditionalSelect:
    """The level-ρ set through ``analyze_panel``: r ≥ ρ for ρ ≥ 0 (ρ = 0
    included), r < ρ for ρ < 0.  The index closes repeat and halve, so every
    span-1 and span-2 index return is exactly 0, ±h or 2h with h = log ½
    (log ¼ = 2·log ½ in floating point), and windows tie with the levels."""

    INDEX = [1.0, 0.5, 0.25, 0.25, 0.5, 0.5, 1.0, 1.0]
    RETURNS = [[0.01, -0.02, 0.03, -0.01, 0.02, -0.03, 0.01],
               [0.02, 0.01, -0.01, 0.03, -0.02, 0.01, 0.02]]
    H = math.log(0.5)

    def point(self, level):
        p = panel_from_returns(self.RETURNS, self.INDEX)
        point = analyze_panel(p, (level,), window_range=(1, 2)).curve.point(level)
        assert_point_matches(point, per_span_members(p, level, (1, 2)))
        return point

    def test_zero_level_takes_nonnegative_branch(self):
        p = panel_from_returns(self.RETURNS, self.INDEX)
        index_log = np.log(p.index_series.closes)
        span1, span2 = (conditional._condition_returns(index_log, 1, span) for span in (1, 2))
        np.testing.assert_array_equal(span1, [self.H, self.H, 0.0, -self.H, 0.0, -self.H])
        np.testing.assert_array_equal(span2, [2 * self.H, self.H, -self.H, -self.H, -self.H])
        # span 1 starts 2-5 (two of them exactly at 0) and span 2 starts 2-4
        assert self.point(0.0).sample_count == 7

    def test_negative_level_takes_strict_below_branch(self):
        # three windows sit exactly at h; only the 2h window lies below it
        assert self.point(self.H).sample_count == 1
        assert self.point(self.H).excluded_windows == 1
        assert self.point(2 * self.H) is None

    def test_unreached_level_gives_empty_set(self):
        assert self.point(1.0) is None
        assert self.point(-2.0) is None

    def test_negative_zero_behaves_as_zero(self):
        assert self.point(-0.0) == self.point(0.0)

    def test_undefined_windows_are_skipped_and_counted(self):
        # stock 0 is flat over returns 0-2: span-1 starts 0 and 1 and span-2
        # start 0 have no defined pair; the index rises, so every window is a
        # member at ρ = 0, and those three are the ones skipped
        p = panel_from_returns([[0.01, 0.01, 0.01, -0.02, 0.03, -0.01],
                                [0.02, -0.01, 0.03, 0.01, -0.02, 0.02]],
                               np.exp(0.001 * np.arange(7.0)))
        undefined = [np.flatnonzero(window_probe(p, span)[1] == 0) for span in (1, 2)]
        assert [u.tolist() for u in undefined] == [[0, 1], [0]]
        point = analyze_panel(p, (0.0,), window_range=(1, 2)).curve.point(0.0)
        assert point.sample_count == (5 + 4) - 3
        assert_point_matches(point, per_span_members(p, 0.0, (1, 2)))

    def test_partition_counts_on_random_panel(self, rng):
        p = random_oracle_panel(rng)
        # r < the largest negative float exactly when r < 0, so the two
        # levels split the windows into the ρ = 0 set and its complement
        below = np.nextafter(0.0, -1.0)
        analysis = analyze_panel(p, (below, 0.0), window_range=(4, 5))
        n_defined = sum(int(np.sum(~np.isnan(window_probe(p, span)[0]))) for span in (4, 5))
        counts = [point.sample_count for point in analysis.curve.points]
        assert sum(counts) == n_defined


class TestIndexConditionReturns:
    def test_window_return_definition(self, rng):
        p = random_oracle_panel(rng)
        span = 6
        r = conditional._condition_returns(np.log(p.index_series.closes), 1, span)
        logc = np.log(p.index_series.closes)
        n_returns = p.n_days - 1
        assert r.shape == (n_returns - span,)
        np.testing.assert_allclose(r, logc[span: n_returns] - logc[: n_returns - span],
                                   atol=1e-15)

    def test_horizon_trims_starts(self, rng):
        p = random_oracle_panel(rng)
        r = conditional._condition_returns(np.log(p.index_series.closes), 2, 4)
        assert r.shape == ((p.n_days - 2) - 4,)


class TestConditionalAverages:
    def test_c0_is_member_mean(self):
        # two stocks always at correlation 0.5; index return sign alternates by start
        p = panel_from_returns(
            [[0.01, 0.02, 0.03, 0.01, 0.02, 0.03], [0.01, 0.03, 0.02, 0.01, 0.03, 0.02]],
            index_closes=np.exp([0.0, 0.01, -0.01, 0.02, -0.02, 0.03, -0.03])[:7],
        )
        point = analyze_panel(p, (0.0,), window_range=(2, 3)).curve.point(0.0)
        assert point is not None
        assert_point_matches(point, per_span_members(p, 0.0, (2, 3)))

    def test_empty_set_gives_none(self):
        p = panel_from_returns(
            [[0.01, 0.02, 0.03], [0.01, 0.03, 0.02]],
            index_closes=np.exp([0.0, -0.01, -0.02, -0.03]),
        )
        assert analyze_panel(p, (0.5,), window_range=(1, 2)).curve.point(0.5) is None

    def test_average_over_windows_mean_of_span_means(self, rng):
        p = random_oracle_panel(rng)
        point = analyze_panel(p, (0.0,), window_range=(2, 4)).curve.point(0.0)
        assert_point_matches(point, per_span_members(p, 0.0, (2, 3, 4)))

    def test_constant_correlation_passes_through(self):
        rng = np.random.default_rng(7)
        steps = rng.normal(0.0, 0.02, size=19)
        p = panel_from_returns([steps, steps])  # identical stocks: S_0 = 1 always
        point = analyze_panel(p, (0.0,), window_range=(2, 5)).curve.point(0.0)
        assert point.value == pytest.approx(1.0, abs=1e-9)

    def test_empty_spans_excluded_and_counted(self):
        rng = np.random.default_rng(11)
        rows = [rng.normal(0.0, 0.02, size=14) for _ in range(2)]
        # index log price rises 0.001/day: a span-s window return is ~0.001*s,
        # so a 0.0115 level admits only the span-12 windows of range (10, 12)
        index = np.exp(0.001 * np.arange(15.0))
        p = panel_from_returns(rows, index)
        curve = analyze_panel(p, (0.0115, 0.5), window_range=(10, 12)).curve
        point = curve.point(0.0115)
        assert point.excluded_windows == 2
        assert point.sample_count == 2  # n_returns(14) - span(12) starts
        assert curve.point(0.5) is None

    def test_min_samples_flags_thin_points(self, rng, monkeypatch):
        """A point is flagged exactly when it has fewer than MIN_SAMPLES members."""
        p = random_oracle_panel(rng)
        point = analyze_panel(p, (0.0,), window_range=(2, 3)).curve.point(0.0)
        assert point.flagged == (point.sample_count < conditional.MIN_SAMPLES)
        assert point.stderr is None or point.stderr >= 0.0
        for bar, flagged in ((point.sample_count, False), (point.sample_count + 1, True)):
            monkeypatch.setattr(conditional, "MIN_SAMPLES", bar)
            assert analyze_panel(p, (0.0,), window_range=(2, 3)).curve.point(0.0).flagged == flagged


class TestCurve:
    def test_points_match_single_level_runs(self, rng):
        p = random_oracle_panel(rng)
        grid = [-0.02, -0.01, 0.0, 0.01]
        curve = analyze_panel(p, grid, window_range=(2, 4)).curve
        for rho in grid:
            single = analyze_panel(p, (rho,), window_range=(2, 4)).curve.point(rho)
            got = curve.point(rho)
            if single is None:
                assert got is None
            else:
                assert got.value == pytest.approx(single.value, abs=1e-12)
                assert got.sample_count == single.sample_count
        assert curve.point(0.77) is None

    def test_antisymmetric_market_swaps_branches(self, rng):
        """Negating every log price swaps C(+ρ) and C(−ρ) up to the tie set."""
        for _ in range(3):
            p = random_oracle_panel(rng)
            mirrored = make_panel(
                [1.0 / s.closes for s in p.stocks], 1.0 / p.index_series.closes
            )
            rho = 0.004
            plus = analyze_panel(p, (rho,), window_range=(2, 4)).curve.point(rho)
            minus_m = analyze_panel(mirrored, (-rho,), window_range=(2, 4)).curve.point(-rho)
            # r' < -rho  <=>  r > rho; ties r == rho have zero measure here
            if plus is None or minus_m is None:
                assert plus is None and minus_m is None
                continue
            assert minus_m.value == pytest.approx(plus.value, abs=1e-11)
            assert minus_m.sample_count == plus.sample_count


class TestChi:
    def test_hand_values(self):
        assert relative_difference_chi(0.55, 0.5) == pytest.approx(0.1, abs=1e-12)
        assert relative_difference_chi(0.5, 0.5) == 0.0
        assert relative_difference_chi(0.3, -0.2) == pytest.approx(2.5, abs=1e-12)

    def test_small_denominator_excluded(self):
        assert relative_difference_chi(0.3, 0.0) is None
        assert conditional.EPSILON == 1e-6
        assert relative_difference_chi(0.3, 1e-6) is None
        assert relative_difference_chi(0.3, -5e-7) is None
        assert relative_difference_chi(0.3, 2e-6) is not None

    def test_overflowing_chi_excluded(self):
        # a quotient beyond the float range is excluded like a small denominator
        assert relative_difference_chi(1e308, 0.5) is None
        assert relative_difference_chi(1e308, 2e-6) is None
        assert relative_difference_chi(1e300, 0.5) == pytest.approx(2e300, rel=1e-12)

    @pytest.mark.parametrize("c_minus, c_plus", [(math.nan, 0.5), (0.3, math.inf),
                                                 (0.3, math.nan)],
                             ids=["nan-minus", "inf-plus", "nan-plus"])
    def test_non_finite_c_rejected(self, c_minus, c_plus):
        with pytest.raises(ValidationError, match="^C values must be finite"):
            relative_difference_chi(c_minus, c_plus)

    def test_distribution_report(self, rng, monkeypatch):
        """Each pair's χ is the reference χ of its own C values, None where a
        side has no members or the guard excludes it.  The guard is moved to
        the lower median of the panel's |C(+)|, so it excludes some pairs and
        keeps others."""
        reached = set()
        for _ in range(10):
            p = random_oracle_panel(rng)

            def report_at(epsilon):
                monkeypatch.setattr(conditional, "EPSILON", epsilon)
                return analyze_panel(p, (-0.004, 0.004), window_range=(2, 4),
                                     chi_levels=(0.004,)).chi[0.004]

            c_plus = sorted(abs(pc.c_plus) for pc in report_at(0.0).pairs
                            if pc.c_minus is not None and pc.c_plus is not None)
            epsilon = c_plus[(len(c_plus) - 1) // 2] if c_plus else 0.0
            report = report_at(epsilon)
            n_pairs = p.n_stocks * (p.n_stocks - 1) // 2
            assert len(report.pairs) == n_pairs
            outcomes = []
            for pc in report.pairs:
                if pc.c_minus is None or pc.c_plus is None:
                    outcomes.append("missing")
                    assert pc.chi is None
                    continue
                expected = reference.chi(pc.c_minus, pc.c_plus, epsilon)
                outcomes.append("excluded" if expected is None else "chi")
                if expected is None:
                    assert pc.chi is None
                else:
                    assert pc.chi == pytest.approx(expected, abs=1e-12)
            assert report.excluded_denominator == outcomes.count("excluded")
            assert report.excluded_missing == outcomes.count("missing")
            reached.update(outcomes)
        assert {"excluded", "chi"} <= reached

    def test_level_must_be_positive(self, rng):
        # a χ level is a magnitude: its sign is dropped, and ±0 has none
        p = random_oracle_panel(rng)
        for zero in (0.0, -0.0):
            with pytest.raises(ValidationError):
                analyze_panel(p, (), window_range=(2, 4), chi_levels=(zero,))
        analysis = analyze_panel(p, (), window_range=(2, 4), chi_levels=(-0.004,))
        assert list(analysis.chi) == [0.004]


def assert_pairs_match_reference(p, analysis, window_range, horizon=1):
    """Every pair's C_(x,y) and member counts at ∓|ρ| of each χ level against
    the plain-loop reference."""
    rows = [s.closes.tolist() for s in p.stocks]
    idx = p.index_series.closes.tolist()
    for level_abs, report in analysis.chi.items():
        for pc in report.pairs:
            x, y = (p.tickers.index(t) for t in pc.pair)
            for c, count, level in ((pc.c_minus, pc.count_minus, -level_abs),
                                    (pc.c_plus, pc.count_plus, level_abs)):
                want, want_n = reference.pair_conditional(rows, idx, x, y, level,
                                                          *window_range, horizon)
                assert count == want_n
                if want is None:
                    assert c is None
                else:
                    assert c == pytest.approx(want, abs=1e-10)


class TestPairConditional:
    def test_self_pair_is_unit_correlation(self, rng):
        p = random_oracle_panel(rng)
        twin = make_panel([p.stocks[0].closes] * 2, p.index_series.closes)
        analysis = analyze_panel(twin, (), window_range=(2, 4), chi_levels=(0.004,))
        pc, = analysis.chi[0.004].pairs
        assert pc.c_minus is not None or pc.c_plus is not None
        for c in (pc.c_minus, pc.c_plus):
            assert c is None or c == pytest.approx(1.0, abs=1e-9)

    def test_matches_reference(self, rng):
        for _ in range(4):
            p = random_oracle_panel(rng)
            analysis = analyze_panel(p, (), window_range=(2, 5), chi_levels=(0.004,))
            assert_pairs_match_reference(p, analysis, (2, 5))


class TestTimeResolved:
    def test_unit_correlation_panel(self):
        rng = np.random.default_rng(3)
        steps = rng.normal(0.0, 0.02, size=24)
        p = panel_from_returns([steps, steps], np.exp(0.001 * np.arange(25.0)))
        tr = analyze_panel(p, (), window_range=(2, 4), ct_levels=(0.0,)).time_resolved[0.0]
        n_returns = p.n_days - 1
        np.testing.assert_array_equal(tr.times, np.arange(n_returns - 2))
        np.testing.assert_allclose(tr.values, 1.0, atol=1e-9)

    def test_selective_membership(self):
        rng = np.random.default_rng(5)
        rows = [rng.normal(0.0, 0.02, size=14) for _ in range(2)]
        index = np.exp(0.001 * np.arange(15.0))
        p = panel_from_returns(rows, index)
        tr = analyze_panel(p, (), window_range=(10, 12),
                           ct_levels=(0.0115,)).time_resolved[0.0115]
        # only span-12 windows qualify (see excluded-span test above)
        np.testing.assert_array_equal(tr.times, [0, 1])
        np.testing.assert_allclose(tr.values, window_probe(p, 12)[0][:2], atol=1e-12)


def burst_panel():
    """1200 days of three ±1% stock walks under a calm index (daily sd 3e-4)
    with one rising and one falling burst of 0.0035 a day.  Over window
    range (2, 5) the bursts' index returns reach ±0.008 from span 3 on and
    ±0.015 only at span 5; stock 0 is flat inside the rising burst."""
    rng = np.random.default_rng(77)
    steps = rng.choice([-0.01, 0.01], size=(3, 1199))
    steps[0, 405:412] = 0.0
    index_steps = rng.normal(0.0, 3e-4, size=1199)
    index_steps[400:420] += 0.0035
    index_steps[800:820] -= 0.0035
    return panel_from_returns(steps, np.exp(np.concatenate([[0.0], np.cumsum(index_steps)])))


def level_windows(p, starts, spans, levels):
    """(start, span) flags: the window lies in some level's set."""
    flags = np.zeros((len(starts), len(spans)), dtype=bool)
    for j, span in enumerate(spans):
        r = conditional._condition_returns(np.log(p.index_series.closes), 1, span)
        inside = starts < len(r)
        flags[inside, j] = np.any([r[starts[inside]] < lev if lev < 0
                                   else r[starts[inside]] >= lev for lev in levels], axis=0)
    return flags


class TestChunkedSweep:
    """χ and C_t over several ``_CHUNK``s of starts, where some chunks and
    spans hold no χ or C_t window and the sweep skips their χ passes."""

    WINDOW_RANGE = (2, 5)
    GRID = (-0.01, -0.0002, 0.0, 0.01)
    CHI, CT = 0.015, (-0.008, 0.008)

    def analyze(self, p, chi_levels=(CHI,), ct_levels=CT):
        return analyze_panel(p, self.GRID, self.WINDOW_RANGE, chi_levels=chi_levels,
                             ct_levels=ct_levels)

    def test_multi_chunk_matches_reference(self, monkeypatch):
        p = burst_panel()
        chunks, kernel = [], conditional._window_kernel

        def recording_kernel(returns, starts, *span_range):
            chunks.append(starts)
            return kernel(returns, starts, *span_range)

        monkeypatch.setattr(conditional, "_window_kernel", recording_kernel)
        analysis = self.analyze(p)
        spans = range(self.WINDOW_RANGE[0], self.WINDOW_RANGE[1] + 1)
        chi = [level_windows(p, t, spans, (-self.CHI, self.CHI)) for t in chunks]
        ct = [level_windows(p, t, spans, self.CT).any() for t in chunks]
        assert len(chunks) >= 3
        assert {f.any() for f in chi} == {True, False} and set(ct) == {True, False}
        assert any(f.any() and not f.any(axis=0).all() for f in chi)

        assert_pairs_match_reference(p, analysis, self.WINDOW_RANGE)
        assert any(pc.count_minus and pc.count_plus for pc in analysis.chi[self.CHI].pairs)
        rows = [s.closes.tolist() for s in p.stocks]
        idx = p.index_series.closes.tolist()
        for level, tr in analysis.time_resolved.items():
            want = reference.time_resolved(rows, idx, level, *self.WINDOW_RANGE, 1)
            assert len(want) > 0
            np.testing.assert_array_equal(tr.times, sorted(want))
            np.testing.assert_allclose(tr.values, [want[t] for t in sorted(want)],
                                       rtol=0, atol=1e-10)

        # chunks of 7 starts split the χ and C_t windows over many chunks
        monkeypatch.setattr(conditional, "_CHUNK", 7)
        small = self.analyze(p)
        assert small.curve == analysis.curve
        for a, b in zip(analysis.chi[self.CHI].pairs, small.chi[self.CHI].pairs, strict=True):
            assert (a.pair, a.count_minus, a.count_plus) == (b.pair, b.count_minus, b.count_plus)
            for x, y in ((a.c_minus, b.c_minus), (a.c_plus, b.c_plus)):
                assert (x is None) == (y is None)
                assert x is None or x == pytest.approx(y, rel=0, abs=1e-12)
        for level, tr in analysis.time_resolved.items():
            np.testing.assert_array_equal(small.time_resolved[level].times, tr.times)
            np.testing.assert_array_equal(small.time_resolved[level].values, tr.values)

    def test_chunks_reuse_the_kernel_buffers(self, monkeypatch):
        """Every chunk's block, mean and scale are views of one buffer, so a
        sweep faults its pages in once rather than once per chunk."""
        outputs, kernel = [], conditional._window_kernel

        def recording_kernel(*args):
            result = kernel(*args)
            outputs.extend(result[:3])  # kept alive, so no later array can take its memory
            return result

        def owner(a):
            while a.base is not None:
                a = a.base
            return a

        monkeypatch.setattr(conditional, "_window_kernel", recording_kernel)
        monkeypatch.setattr(conditional, "_CHUNK", 7)
        self.analyze(burst_panel())
        assert len(outputs) >= 9
        assert len({id(owner(a)) for a in outputs}) == 1

    def test_unreached_levels_skip_every_pass(self):
        p = burst_panel()
        analysis = self.analyze(p, chi_levels=(1.0,), ct_levels=(-1.0, 1.0))
        report = analysis.chi[1.0]
        assert report.excluded_missing == len(report.pairs) == 3
        assert all((pc.c_minus, pc.c_plus, pc.count_minus, pc.count_plus, pc.chi)
                   == (None, None, 0, 0, None) for pc in report.pairs)
        assert report.excluded_denominator == 0
        assert all(len(tr) == 0 for tr in analysis.time_resolved.values())
        assert analysis.curve == self.analyze(p, chi_levels=(), ct_levels=()).curve


class TestReturns:
    def test_filled_one_stock_at_a_time(self):
        """``_returns`` writes each stock's returns into its column of the
        time-major array from that stock's log closes alone: the values are
        the stacked log prices' differences, and the traced peak stays
        within the returns plus two stock rows."""
        p = to_aligned_panel(simulate_market(SimConfig(
            n_stocks=10, n_steps=5000, fear_probability=0.05, step_size=0.01, seed=2)))
        tracemalloc.start()
        try:
            returns = conditional._returns(p, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= returns.nbytes + 2 * p.stocks[0].closes.nbytes
        log_prices = np.log(np.vstack([s.closes for s in p.stocks]))
        np.testing.assert_array_equal(returns, (log_prices[:, 3:] - log_prices[:, :-3]).T)
        assert returns.flags.c_contiguous


class TestAnalyzePanel:
    def test_single_sweep_matches_componentwise_runs(self, rng):
        p = random_oracle_panel(rng)
        grid = [-0.01, -0.004, 0.0, 0.004, 0.01]
        analysis = analyze_panel(
            p, grid, window_range=(2, 4), chi_levels=(0.004,), ct_levels=(0.0,),
        )
        assert analysis.curve == analyze_panel(p, grid, window_range=(2, 4)).curve
        chi_direct = analyze_panel(p, (-0.004, 0.004), window_range=(2, 4),
                                   chi_levels=(0.004,)).chi[0.004]
        for a, b in zip(analysis.chi[0.004].pairs, chi_direct.pairs, strict=True):
            assert (a.chi is None) == (b.chi is None)
            assert a.chi is None or a.chi == pytest.approx(b.chi, abs=1e-12)
        tr_direct = analyze_panel(p, (), window_range=(2, 4),
                                  ct_levels=(0.0,)).time_resolved[0.0]
        np.testing.assert_array_equal(analysis.time_resolved[0.0].times, tr_direct.times)
        np.testing.assert_array_equal(analysis.time_resolved[0.0].values, tr_direct.values)

    def test_curve_and_ct_ignore_other_levels_and_chunking(self, monkeypatch):
        """On a 30 × 6000 fear market at the control grid, the curve and C_t
        are bit for bit the same with or without the χ and C_t levels, and
        with chunks of 7 starts: both are sums over the S_0 grid in start
        order, whatever order the chunks visit the starts in."""
        p = to_aligned_panel(simulate_market(SimConfig(
            n_stocks=30, n_steps=6000, fear_probability=0.05, step_size=0.01, seed=3)))
        grid, chi, ct = (-0.10, -0.05, -0.03, 0.03, 0.05, 0.10), (0.03, 0.05, 0.10), (-0.03, 0.03)
        full = analyze_panel(p, grid, chi_levels=chi, ct_levels=ct)
        assert full.curve == analyze_panel(p, grid).curve
        time_only = analyze_panel(p, grid, ct_levels=ct).time_resolved
        monkeypatch.setattr(conditional, "_CHUNK", 7)
        small = analyze_panel(p, grid, chi_levels=chi, ct_levels=ct)
        assert small.curve == full.curve
        for level, tr in full.time_resolved.items():
            assert len(tr) > 0
            for other in (time_only[level], small.time_resolved[level]):
                np.testing.assert_array_equal(other.times, tr.times)
                np.testing.assert_array_equal(other.values, tr.values)

    def test_rejects_zero_chi_level(self, rng):
        # chi levels are magnitudes: signs are dropped, zero is meaningless
        p = random_oracle_panel(rng)
        with pytest.raises(ValidationError):
            analyze_panel(p, [-0.01, 0.01], window_range=(2, 3), chi_levels=(0.0,))

    @pytest.mark.parametrize("levels, message", [
        # a NaN cannot be ordered among the levels that split the index returns
        ({"rho_grid": [-0.01, math.nan, 0.01]}, "rho_grid: nan is not finite"),
        # an infinite level would select no window, or every window
        ({"rho_grid": (math.inf, -0.05)}, "rho_grid: inf is not finite"),
        ({"ct_levels": (-math.inf,)}, "ct_levels: -inf is not finite"),
        ({"chi_levels": (math.inf,)}, "chi_levels: inf is not finite"),
        ({"rho_grid": ("0.05",)}, "rho_grid: '0.05' is not a number"),
        ({"ct_levels": (True,)}, "ct_levels: True is not a number"),
    ], ids=["nan", "inf", "ct-minus-inf", "chi-inf", "string", "bool"])
    def test_rejects_level_that_is_not_a_finite_number(self, rng, levels, message):
        """Every level passes the one rule ``RunConfig`` applies to its level
        lists, ``errors.check_level``."""
        p = random_oracle_panel(rng)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            analyze_panel(p, **{"rho_grid": (), **levels}, window_range=(2, 3))

    def test_window_range_validated(self, rng):
        p = random_oracle_panel(rng)
        with pytest.raises(ValidationError):
            analyze_panel(p, [-0.01, 0.01], window_range=(5, 5))
        with pytest.raises(ValidationError):
            analyze_panel(p, [-0.01, 0.01], window_range=(0, 4))



class TestOracleSpotCheck:
    """Light cross-check against the plain-loop reference (the full sweep
    with 100+ panels runs in the acceptance suite)."""

    def test_curve_points_match_reference(self, rng):
        for _ in range(5):
            p = random_oracle_panel(rng)
            rows = [s.closes.tolist() for s in p.stocks]
            idx = p.index_series.closes.tolist()
            for level in (-0.006, 0.0, 0.006):
                got = analyze_panel(p, (level,), window_range=(2, 5)).curve.point(level)
                want = reference.curve_point(rows, idx, level, 2, 5, 1)
                if want is None:
                    assert got is None
                else:
                    value, n_samples, n_excluded = want
                    assert got.value == pytest.approx(value, abs=1e-10)
                    assert got.sample_count == n_samples
                    assert got.excluded_windows == n_excluded

            # one multi-level sweep: several levels per sign, 0.0, two χ
            # magnitudes (one off the grid), and levels tied exactly to
            # realised span-3 index returns
            grid = [-0.02, -0.01, -0.004, 0.0, 0.004, 0.01, 0.02]
            realised = np.sort(conditional._condition_returns(np.log(p.index_series.closes), 1, 3))
            n = len(realised)
            ties = sorted({float(realised[i]) for i in (0, n // 4, n // 2, 3 * n // 4, -1)})
            analysis = analyze_panel(p, grid + ties, window_range=(2, 5),
                                     chi_levels=(0.004, 0.015))
            for level in grid:
                got = analysis.curve.point(level)
                want = reference.curve_point(rows, idx, level, 2, 5, 1)
                if want is None:
                    assert got is None
                else:
                    value, n_samples, n_excluded = want
                    assert got.value == pytest.approx(value, abs=1e-10)
                    assert got.sample_count == n_samples
                    assert got.excluded_windows == n_excluded
            for level in ties:
                assert_point_matches(analysis.curve.point(level),
                                     per_span_members(p, level, range(2, 6)))
            assert_pairs_match_reference(p, analysis, (2, 5))


# analyze_panel on a small fear panel, printed as JSON: every float exactly
_KERNEL_RUN = """
import json
from condcorr import SimConfig, analyze_panel, simulate_market, to_aligned_panel
panel = to_aligned_panel(simulate_market(SimConfig(
    n_stocks=10, n_steps=3000, fear_probability=0.05, step_size=0.01, seed=1)))
a = analyze_panel(panel, (-0.05, -0.03, 0.03, 0.05), chi_levels=(0.03, 0.05),
                  ct_levels=(0.03, -0.03))
print(json.dumps({
    "curve": [v for p in a.curve.points for v in (p.value, p.stderr)],
    "pairs": [c for r in a.chi.values() for pc in r.pairs for c in (pc.c_minus, pc.c_plus)],
    "ct": [v for t in a.time_resolved.values() for v in t.values.tolist()],
    "times": [t.times.tolist() for t in a.time_resolved.values()],
}))
"""


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_openblas(), reason="BLAS is not a DYNAMIC_ARCH OpenBLAS")
def test_blas_kernels_agree_within_oracle_tolerance():
    """Outputs are byte-identical only under one BLAS kernel: the S_0
    kernel's matmul and the χ products round differently under another.
    Under OpenBLAS's Haswell and Sandybridge kernels every curve value and
    SE, pair C and C_t agrees within the oracle's 1e-10, and the same pairs
    and times are defined."""
    src = str(Path(condcorr.__file__).resolve().parent.parent)
    runs = []
    for core in ("Haswell", "Sandybridge"):
        env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _KERNEL_RUN], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    haswell, sandybridge = runs
    assert haswell["times"] == sandybridge["times"]
    for key in ("curve", "pairs", "ct"):
        a, b = haswell[key], sandybridge[key]
        assert len(a) == len(b) and [x is None for x in a] == [x is None for x in b]
        largest = max(abs(x - y) for x, y in zip(a, b) if x is not None)
        print(f"{key}: largest |Haswell - Sandybridge| = {largest:.3g}")
        assert largest <= 1e-10
