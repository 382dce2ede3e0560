"""Conditional correlation pipeline: pair windows through χ and C_t."""

import math

import numpy as np
import pytest

from condcorr import (
    ValidationError,
    analyze_panel,
    average_over_windows,
    chi_distribution,
    conditional_market_correlation,
    conditional_select,
    correlation_curve,
    index_condition_returns,
    market_component_correlation,
    market_correlation_series,
    pair_conditional_correlation,
    pair_correlation,
    pair_correlation_series,
    relative_difference_chi,
    time_resolved_correlation,
)

import reference
from conftest import make_panel, random_oracle_panel


def panel_from_returns(return_rows, index_closes=None):
    rows = [np.exp(np.concatenate([[0.0], np.cumsum(r)])) for r in return_rows]
    return make_panel(rows, index_closes)


class TestPairCorrelation:
    def test_identical_motion_gives_one(self):
        p = panel_from_returns([[0.01, -0.02, 0.03], [0.01, -0.02, 0.03]])
        assert pair_correlation(p, 0, 1, 0, 2) == pytest.approx(1.0, abs=1e-12)

    def test_mirrored_motion_gives_minus_one(self):
        p = panel_from_returns([[0.01, -0.02, 0.03], [-0.01, 0.02, -0.03]])
        assert pair_correlation(p, 0, 1, 0, 2) == pytest.approx(-1.0, abs=1e-12)

    def test_half_correlated_window(self):
        p = panel_from_returns([[0.01, 0.02, 0.03], [0.01, 0.03, 0.02]])
        assert pair_correlation(p, 0, 1, 0, 2) == pytest.approx(0.5, abs=1e-12)

    def test_flat_stock_is_undefined(self):
        p = panel_from_returns([[0.01, -0.02, 0.03], [0.0, 0.0, 0.0]])
        assert pair_correlation(p, 0, 1, 0, 2) is None

    def test_self_pair_gives_one(self):
        p = panel_from_returns([[0.01, -0.02, 0.03], [0.02, 0.01, -0.01]])
        assert pair_correlation(p, 0, 0, 0, 2) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_tickers(self):
        p = panel_from_returns([[0.01, 0.02, 0.03], [0.01, 0.03, 0.02]])
        by_name = pair_correlation(p, "S00", "S01", 0, 2)
        by_index = pair_correlation(p, 0, 1, 0, 2)
        assert by_name == by_index

    def test_window_bounds(self):
        p = panel_from_returns([[0.01, -0.02, 0.03], [0.02, 0.01, -0.01]])
        with pytest.raises(ValidationError):
            pair_correlation(p, 0, 1, 1, 2)  # start 1 + span 2 needs 4 returns
        with pytest.raises(ValidationError):
            pair_correlation(p, 0, 1, 0, 0)
        with pytest.raises(ValidationError):
            pair_correlation(p, 0, 1, -1, 2)

    def test_symmetry_is_exact(self, rng):
        p = random_oracle_panel(rng)
        for t in range(0, 8, 2):
            a = pair_correlation(p, 0, 1, t, 5)
            b = pair_correlation(p, 1, 0, t, 5)
            assert a == b  # bit-identical, not approximately equal

    def test_bounded_by_one(self, rng):
        for _ in range(5):
            p = random_oracle_panel(rng)
            s = pair_correlation_series(p, 0, 1, window_span=4)
            finite = s.values[~np.isnan(s.values)]
            assert np.all(np.abs(finite) <= 1.0 + 1e-9)

    def test_series_matches_pointwise(self, rng):
        p = random_oracle_panel(rng)
        s = pair_correlation_series(p, 0, 1, window_span=3)
        for t in range(len(s.values)):
            single = pair_correlation(p, 0, 1, t, 3)
            if single is None:
                assert math.isnan(s.values[t])
            else:
                assert s.values[t] == pytest.approx(single, abs=1e-12)

    def test_affine_return_invariance(self, rng):
        """Per-stock maps r -> a*r + b (a > 0) leave every window correlation alone."""
        p = random_oracle_panel(rng)
        t_grid = np.arange(p.n_days)
        scaled = [
            np.exp(a * np.log(s.closes) + b * t_grid)
            for s, a, b in zip(p.stocks, (1.7, 0.4, 2.2, 0.9), (0.001, -0.002, 0.0, 0.003))
        ]
        q = make_panel(scaled[: p.n_stocks], p.index_series.closes)
        s_p = pair_correlation_series(p, 0, 1, window_span=4).values
        s_q = pair_correlation_series(q, 0, 1, window_span=4).values
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
                                 ct_levels=(0.004, -0.01), min_samples=1)
        for level in self.GRID:
            got = analysis.curve.point(level)
            value, n_samples, n_excluded = reference.curve_point(rows, idx, level,
                                                                 dt1, dt2, 1)
            assert (got.sample_count, got.excluded_windows) == (n_samples, n_excluded)
            assert got.value == pytest.approx(value, abs=1e-10)
        for level_abs, report in analysis.chi.items():
            for pc in report.pairs:
                x, y = (p.stock_index(t) for t in pc.pair)
                for c, count, level in ((pc.c_minus, pc.count_minus, -level_abs),
                                        (pc.c_plus, pc.count_plus, level_abs)):
                    want, want_n = reference.pair_conditional(rows, idx, x, y, level,
                                                              dt1, dt2, 1)
                    assert count == want_n
                    if want is None:
                        assert c is None
                    else:
                        assert c == pytest.approx(want, abs=1e-10)
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
                got = pair_correlation_series(p, x, y, window_span=span).values
                want = [reference.pair_corr(returns[x], returns[y], t, span)
                        for t in range(len(got))]
                self.assert_matches(got, want)

    def test_market_series_and_pair_counts(self, long_panel):
        p, returns = long_panel
        for span in self.SPANS:
            series = market_correlation_series(p, span)
            n_t = len(series.values)
            self.assert_matches(
                series.values, [reference.market_corr(returns, t, span) for t in range(n_t)]
            )
            defined = [
                sum(reference.window_moments(r[t: t + span + 1])[2] for r in returns)
                for t in range(n_t)
            ]
            np.testing.assert_array_equal(series.pair_counts,
                                          [d * (d - 1) // 2 for d in defined])

    def test_sweep_matches_per_span_selection(self, long_panel):
        p, _ = long_panel
        levels = (-0.03, -0.01, 0.0, 0.01, 0.03)
        analysis = analyze_panel(p, levels, window_range=(10, 35), min_samples=1)
        members = {level: [] for level in levels}
        for span in range(10, 36):
            series = market_correlation_series(p, span)
            returns = index_condition_returns(p, span)
            for level in levels:
                members[level].append(conditional_select(series, returns, level))
        for level in levels:
            got = analysis.curve.point(level)
            sizes = [len(m) for m in members[level]]
            assert got.sample_count == sum(sizes)
            assert got.excluded_windows == sizes.count(0)
            means = [m.member_values.mean() for m in members[level] if len(m)]
            assert got.value == pytest.approx(np.mean(means), abs=1e-10)

    def test_single_windows(self, long_panel):
        p, returns = long_panel
        for span in self.SPANS:
            s0, pairs, s01 = [], [], []
            for t in self.SPOT_STARTS:
                got = market_component_correlation(p, t, span)
                s0.append(np.nan if got is None else got[0])
                pairs.append(0 if got is None else got[1])
                got = pair_correlation(p, 0, 1, t, span)
                s01.append(np.nan if got is None else got)
            self.assert_matches(s0, [reference.market_corr(returns, t, span)
                                     for t in self.SPOT_STARTS])
            self.assert_matches(s01, [reference.pair_corr(returns[0], returns[1], t, span)
                                      for t in self.SPOT_STARTS])
            defined = [sum(reference.window_moments(r[t: t + span + 1])[2] for r in returns)
                       for t in self.SPOT_STARTS]
            np.testing.assert_array_equal(pairs, [d * (d - 1) // 2 for d in defined])


class TestMarketCorrelation:
    def test_two_stocks_reduce_to_single_pair(self):
        p = panel_from_returns([[0.01, 0.02, 0.03], [0.01, 0.03, 0.02]])
        s0, n_pairs = market_component_correlation(p, 0, 2)
        assert n_pairs == 1
        assert s0 == pytest.approx(pair_correlation(p, 0, 1, 0, 2), abs=1e-12)

    def test_mean_over_defined_pairs(self, rng):
        p = random_oracle_panel(rng)
        span = 5
        series = market_correlation_series(p, span)
        for t in range(min(len(series.values), 10)):
            vals = [
                pair_correlation(p, i, j, t, span)
                for i in range(p.n_stocks)
                for j in range(i + 1, p.n_stocks)
            ]
            vals = [v for v in vals if v is not None]
            if not vals:
                assert math.isnan(series.values[t])
            else:
                assert series.values[t] == pytest.approx(np.mean(vals), abs=1e-12)
                assert series.pair_counts[t] == len(vals)

    def test_no_defined_pair_gives_none(self):
        p = panel_from_returns([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert market_component_correlation(p, 0, 2) is None

    def test_partially_flat_panel_drops_pairs(self):
        p = panel_from_returns(
            [[0.01, -0.02, 0.03], [0.02, 0.01, -0.01], [0.0, 0.0, 0.0]]
        )
        s0, n_pairs = market_component_correlation(p, 0, 2)
        assert n_pairs == 1  # only the two moving stocks form a defined pair
        assert s0 == pytest.approx(pair_correlation(p, 0, 1, 0, 2), abs=1e-12)


class TestConditionalSelect:
    S0 = [0.2, 0.5, 0.3]
    R = [0.02, -0.04, 0.00]

    def test_zero_level_takes_nonnegative_branch(self):
        cs = conditional_select(self.S0, self.R, 0.0)
        np.testing.assert_array_equal(cs.member_times, [0, 2])
        np.testing.assert_allclose(cs.member_values, [0.2, 0.3])

    def test_negative_level_takes_strict_below_branch(self):
        cs = conditional_select(self.S0, self.R, -0.03)
        np.testing.assert_array_equal(cs.member_times, [1])
        np.testing.assert_allclose(cs.member_values, [0.5])

    def test_unreached_level_gives_empty_set(self):
        cs = conditional_select(self.S0, self.R, 0.05)
        assert len(cs) == 0

    def test_negative_zero_behaves_as_zero(self):
        cs = conditional_select(self.S0, self.R, -0.0)
        np.testing.assert_array_equal(cs.member_times, [0, 2])

    def test_branch_override_partitions_at_zero(self):
        ge = conditional_select(self.S0, self.R, 0.0, branch="ge")
        lt = conditional_select(self.S0, self.R, 0.0, branch="lt")
        assert len(ge) + len(lt) == len(self.S0)
        assert set(ge.member_times) | set(lt.member_times) == {0, 1, 2}

    def test_undefined_windows_are_skipped_and_counted(self):
        cs = conditional_select([0.2, math.nan, 0.3], [0.02, 0.05, 0.01], 0.0)
        np.testing.assert_allclose(cs.member_values, [0.2, 0.3])
        assert cs.undefined_skipped == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            conditional_select([0.1, 0.2], [0.01], 0.0)

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValidationError):
            conditional_select(self.S0, self.R, 0.0, branch="le")

    def test_partition_counts_on_random_panel(self, rng):
        p = random_oracle_panel(rng)
        span = 4
        series = market_correlation_series(p, span)
        cond = index_condition_returns(p, span)
        ge = conditional_select(series, cond, 0.0, branch="ge")
        lt = conditional_select(series, cond, 0.0, branch="lt")
        n_defined = int(np.sum(~np.isnan(series.values)))
        assert len(ge) + len(lt) == n_defined
        assert ge.undefined_skipped + lt.undefined_skipped == len(series.values) - n_defined


class TestIndexConditionReturns:
    def test_window_return_definition(self, rng):
        p = random_oracle_panel(rng)
        span = 6
        r = index_condition_returns(p, span)
        logc = np.log(p.index_series.closes)
        n_returns = p.n_days - 1
        assert r.shape == (n_returns - span,)
        np.testing.assert_allclose(r, logc[span: n_returns] - logc[: n_returns - span],
                                   atol=1e-15)

    def test_horizon_trims_starts(self, rng):
        p = random_oracle_panel(rng)
        r = index_condition_returns(p, 4, horizon=2)
        assert r.shape == ((p.n_days - 2) - 4,)

    @pytest.mark.parametrize("span", [-2, 0, 39])
    def test_rejects_span_without_windows(self, rng, span):
        # 40 days give 39 one-day returns: span 39 leaves no window start
        p = panel_from_returns(rng.normal(0.0, 0.01, size=(3, 39)))
        assert index_condition_returns(p, 38).shape == (1,)
        with pytest.raises(ValidationError, match="window span"):
            index_condition_returns(p, span)


class TestConditionalAverages:
    def test_c0_is_member_mean(self):
        # two stocks always at correlation 0.5; index return sign alternates by start
        p = panel_from_returns(
            [[0.01, 0.02, 0.03, 0.01, 0.02, 0.03], [0.01, 0.03, 0.02, 0.01, 0.03, 0.02]],
            index_closes=np.exp([0.0, 0.01, -0.01, 0.02, -0.02, 0.03, -0.03])[:7],
        )
        out = conditional_market_correlation(p, 0.0, window_span=2)
        assert out is not None
        c0, count = out
        series = market_correlation_series(p, 2)
        cond = index_condition_returns(p, 2)
        members = conditional_select(series, cond, 0.0)
        assert count == len(members)
        assert c0 == pytest.approx(float(np.mean(members.member_values)), abs=1e-12)

    def test_empty_set_gives_none(self):
        p = panel_from_returns(
            [[0.01, 0.02, 0.03], [0.01, 0.03, 0.02]],
            index_closes=np.exp([0.0, -0.01, -0.02, -0.03]),
        )
        assert conditional_market_correlation(p, 0.5, window_span=2) is None

    def test_average_over_windows_mean_of_span_means(self, rng):
        p = random_oracle_panel(rng)
        point = average_over_windows(p, 0.0, window_range=(2, 4), min_samples=1)
        per_span = [
            conditional_market_correlation(p, 0.0, window_span=s) for s in (2, 3, 4)
        ]
        values = [v for v in per_span if v is not None]
        assert point.value == pytest.approx(
            float(np.mean([v[0] for v in values])), abs=1e-12
        )
        assert point.sample_count == sum(v[1] for v in values)
        assert point.excluded_windows == sum(v is None for v in per_span)

    def test_constant_correlation_passes_through(self):
        rng = np.random.default_rng(7)
        steps = rng.normal(0.0, 0.02, size=19)
        p = panel_from_returns([steps, steps])  # identical stocks: S_0 = 1 always
        point = average_over_windows(p, 0.0, window_range=(2, 5), min_samples=1)
        assert point.value == pytest.approx(1.0, abs=1e-9)

    def test_empty_spans_excluded_and_counted(self):
        rng = np.random.default_rng(11)
        rows = [rng.normal(0.0, 0.02, size=14) for _ in range(2)]
        # index log price rises 0.001/day: a span-s window return is ~0.001*s,
        # so a 0.0115 level admits only the span-12 windows of range (10, 12)
        index = np.exp(0.001 * np.arange(15.0))
        p = panel_from_returns(rows, index)
        point = average_over_windows(p, 0.0115, window_range=(10, 12), min_samples=1)
        assert point.excluded_windows == 2
        assert point.sample_count == 2  # n_returns(14) - span(12) starts
        assert average_over_windows(p, 0.5, window_range=(10, 12)) is None

    def test_min_samples_flags_thin_points(self, rng):
        p = random_oracle_panel(rng)
        point = average_over_windows(p, 0.0, window_range=(2, 3), min_samples=10 ** 6)
        assert point.flagged
        healthy = average_over_windows(p, 0.0, window_range=(2, 3), min_samples=1)
        assert not healthy.flagged
        assert healthy.stderr is None or healthy.stderr >= 0.0


class TestCurve:
    def test_grid_must_cover_both_branches(self, rng):
        p = random_oracle_panel(rng)
        with pytest.raises(ValidationError):
            correlation_curve(p, [], window_range=(2, 3))
        with pytest.raises(ValidationError):
            correlation_curve(p, [0.01, 0.02], window_range=(2, 3))
        with pytest.raises(ValidationError):
            correlation_curve(p, [-0.02, -0.01], window_range=(2, 3))

    def test_points_match_single_level_runs(self, rng):
        p = random_oracle_panel(rng)
        grid = [-0.02, -0.01, 0.0, 0.01]
        curve = correlation_curve(p, grid, window_range=(2, 4), min_samples=1)
        for rho in grid:
            single = average_over_windows(p, rho, window_range=(2, 4), min_samples=1)
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
            plus = average_over_windows(p, rho, window_range=(2, 4), min_samples=1)
            minus_m = average_over_windows(mirrored, -rho, window_range=(2, 4),
                                           min_samples=1)
            # r' < -rho  <=>  r > rho; ties r == rho have zero measure here
            if plus is None or minus_m is None:
                assert plus is None and minus_m is None
                continue
            series = market_correlation_series(p, 3)
            del series
            assert minus_m.value == pytest.approx(plus.value, abs=1e-11)
            assert minus_m.sample_count == plus.sample_count


class TestChi:
    def test_hand_values(self):
        assert relative_difference_chi(0.55, 0.5) == pytest.approx(0.1, abs=1e-12)
        assert relative_difference_chi(0.5, 0.5) == 0.0
        assert relative_difference_chi(0.3, -0.2) == pytest.approx(2.5, abs=1e-12)

    def test_small_denominator_excluded(self):
        assert relative_difference_chi(0.3, 0.0) is None
        assert relative_difference_chi(0.3, 5e-7, epsilon=1e-6) is None
        assert relative_difference_chi(0.3, 2e-6, epsilon=1e-6) is not None

    def test_distribution_report(self, rng):
        p = random_oracle_panel(rng)
        report = chi_distribution(p, 0.004, window_range=(2, 4))
        n_pairs = p.n_stocks * (p.n_stocks - 1) // 2
        assert len(report.pairs) == n_pairs
        assert (
            len(report.samples) + report.excluded_denominator + report.excluded_missing
            == n_pairs
        )
        for pc, sample in zip(
            [p_ for p_ in report.pairs if p_.c_minus is not None and p_.c_plus is not None],
            report.samples,
        ):
            expected = reference.chi(pc.c_minus, pc.c_plus)
            if expected is not None:
                assert sample.chi == pytest.approx(expected, abs=1e-12)

    def test_level_must_be_positive(self, rng):
        p = random_oracle_panel(rng)
        with pytest.raises(ValidationError):
            chi_distribution(p, 0.0, window_range=(2, 4))


class TestPairConditional:
    def test_self_pair_is_unit_correlation(self, rng):
        p = random_oracle_panel(rng)
        point = pair_conditional_correlation(p, 0, 0, 0.0, window_range=(2, 4))
        assert point.value == pytest.approx(1.0, abs=1e-9)

    def test_matches_reference(self, rng):
        for _ in range(4):
            p = random_oracle_panel(rng)
            rows = [s.closes.tolist() for s in p.stocks]
            idx = p.index_series.closes.tolist()
            for level in (-0.004, 0.0, 0.004):
                got = pair_conditional_correlation(p, 0, 1, level, window_range=(2, 5))
                want, want_n = reference.pair_conditional(rows, idx, 0, 1, level, 2, 5, 1)
                if want is None:
                    assert got is None
                else:
                    assert got.value == pytest.approx(want, abs=1e-10)
                    assert got.sample_count == want_n


class TestTimeResolved:
    def test_unit_correlation_panel(self):
        rng = np.random.default_rng(3)
        steps = rng.normal(0.0, 0.02, size=24)
        p = panel_from_returns([steps, steps], np.exp(0.001 * np.arange(25.0)))
        tr = time_resolved_correlation(p, 0.0, window_range=(2, 4))
        n_returns = p.n_days - 1
        np.testing.assert_array_equal(tr.times, np.arange(n_returns - 2))
        np.testing.assert_allclose(tr.values, 1.0, atol=1e-9)

    def test_selective_membership(self):
        rng = np.random.default_rng(5)
        rows = [rng.normal(0.0, 0.02, size=14) for _ in range(2)]
        index = np.exp(0.001 * np.arange(15.0))
        p = panel_from_returns(rows, index)
        tr = time_resolved_correlation(p, 0.0115, window_range=(10, 12))
        # only span-12 windows qualify (see excluded-span test above)
        np.testing.assert_array_equal(tr.times, [0, 1])
        series = market_correlation_series(p, 12)
        np.testing.assert_allclose(tr.values, series.values[:2], atol=1e-12)


class TestAnalyzePanel:
    def test_single_sweep_matches_componentwise_runs(self, rng):
        p = random_oracle_panel(rng)
        grid = [-0.01, -0.004, 0.0, 0.004, 0.01]
        analysis = analyze_panel(
            p, grid, window_range=(2, 4), chi_levels=(0.004,), ct_levels=(0.0,),
            min_samples=1,
        )
        for rho in grid:
            single = average_over_windows(p, rho, window_range=(2, 4), min_samples=1)
            got = analysis.curve.point(rho)
            if single is None:
                assert got is None
            else:
                assert got.value == pytest.approx(single.value, abs=1e-12)
        chi_direct = chi_distribution(p, 0.004, window_range=(2, 4))
        assert len(analysis.chi[0.004].samples) == len(chi_direct.samples)
        for a, b in zip(analysis.chi[0.004].samples, chi_direct.samples):
            assert a.chi == pytest.approx(b.chi, abs=1e-12)
        tr_direct = time_resolved_correlation(p, 0.0, window_range=(2, 4))
        np.testing.assert_array_equal(analysis.time_resolved[0.0].times, tr_direct.times)
        np.testing.assert_allclose(
            analysis.time_resolved[0.0].values, tr_direct.values, atol=1e-12
        )

    def test_rejects_zero_chi_level(self, rng):
        # chi levels are magnitudes: signs are dropped, zero is meaningless
        p = random_oracle_panel(rng)
        with pytest.raises(ValidationError):
            analyze_panel(p, [-0.01, 0.01], window_range=(2, 3), chi_levels=(0.0,))

    def test_rejects_nan_level(self, rng):
        # a NaN cannot be ordered among the levels that split the index returns
        p = random_oracle_panel(rng)
        with pytest.raises(ValidationError):
            analyze_panel(p, [-0.01, float("nan"), 0.01], window_range=(2, 3))

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
                got = average_over_windows(p, level, window_range=(2, 5), min_samples=1)
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
            realised = np.sort(index_condition_returns(p, 3))
            n = len(realised)
            ties = sorted({float(realised[i]) for i in (0, n // 4, n // 2, 3 * n // 4, -1)})
            analysis = analyze_panel(p, grid + ties, window_range=(2, 5),
                                     chi_levels=(0.004, 0.015), min_samples=1)
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
                per_span = []
                for span in range(2, 6):
                    members = conditional_select(market_correlation_series(p, span),
                                                 index_condition_returns(p, span), level)
                    single = conditional_market_correlation(p, level, span)
                    assert (0 if single is None else single[1]) == len(members)
                    per_span.append(len(members))
                got = analysis.curve.point(level)
                if sum(per_span) == 0:
                    assert got is None
                else:
                    assert got.sample_count == sum(per_span)
                    assert got.excluded_windows == per_span.count(0)
            for level_abs, report in analysis.chi.items():
                for pc in report.pairs:
                    x, y = (p.stock_index(t) for t in pc.pair)
                    for c, count, level in ((pc.c_minus, pc.count_minus, -level_abs),
                                            (pc.c_plus, pc.count_plus, level_abs)):
                        want, want_n = reference.pair_conditional(rows, idx, x, y, level,
                                                                  2, 5, 1)
                        assert count == want_n
                        if want is None:
                            assert c is None
                        else:
                            assert c == pytest.approx(want, abs=1e-10)
