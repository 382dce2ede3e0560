"""First-passage waiting times, log-binned histograms, tail fits, gain/loss."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import condcorr.inverse_stats as inverse_stats
from condcorr import (
    DataError,
    InsufficientDataError,
    PriceSeries,
    RunConfig,
    SimConfig,
    ValidationError,
    WaitingTimeHistogram,
    WaitingTimeSample,
    default_fit_range,
    detrend_log_price,
    first_passage_times,
    fit_tail_exponent,
    gain_loss_report,
    simulate_market,
    to_aligned_panel,
    waiting_time_histogram,
)

import reference
from conftest import calendar


class TestFirstPassage:
    def test_rising_path_hits_gain_level(self):
        r = first_passage_times(np.array([0.0, 0.01, 0.03, 0.06]), 0.05)
        assert r.level == 0.05
        assert r.n_starts == 3
        # start 0 needs 0.05: reached at index 3.  Start 1's float threshold
        # 0.01 + 0.05 sits one ulp above 0.06, so it is censored — threshold
        # arithmetic is part of the contract and the oracle reproduces it.
        np.testing.assert_array_equal(r.start_indices, [0])
        np.testing.assert_array_equal(r.waiting_times, [3])
        assert r.censored_count == 2

    def test_rising_path_never_hits_loss_level(self):
        r = first_passage_times(np.array([0.0, 0.01, 0.03, 0.06]), -0.05)
        assert len(r) == 0
        assert r.censored_count == 3

    def test_falling_path_hits_loss_level(self):
        r = first_passage_times(np.array([0.0, -0.02, -0.06]), -0.05)
        np.testing.assert_array_equal(r.start_indices, [0])
        np.testing.assert_array_equal(r.waiting_times, [2])
        assert r.censored_count == 1

    def test_sequence_protocol(self):
        r = first_passage_times(np.array([0.0, 0.01, 0.02, 0.08]), 0.05)
        assert r[0] == WaitingTimeSample(0, 3, 0.05)
        assert [s.waiting_time for s in r] == [3, 2, 1]
        assert r[0:2] == [WaitingTimeSample(0, 3, 0.05),
                          WaitingTimeSample(1, 2, 0.05)]
        assert len(r) == 3 and r.censored_count == 0

    def test_price_series_uses_log_closes(self):
        s = PriceSeries("X", calendar(5), np.array([100.0, 101.0, 99.0, 103.0, 98.0]))
        via_series = first_passage_times(s, 0.02)
        via_values = first_passage_times(s.log_closes, 0.02)
        np.testing.assert_array_equal(via_series.waiting_times, via_values.waiting_times)
        np.testing.assert_array_equal(via_series.start_indices, via_values.start_indices)

    def test_detrended_series_uses_values(self):
        rng = np.random.default_rng(2)
        s = PriceSeries("X", calendar(60), np.exp(np.cumsum(rng.normal(0, 0.02, 60))))
        d = detrend_log_price(s, drift_window=11)
        via_obj = first_passage_times(d, 0.01)
        via_values = first_passage_times(d.values, 0.01)
        np.testing.assert_array_equal(via_obj.waiting_times, via_values.waiting_times)

    def test_validation(self):
        with pytest.raises(ValidationError):
            first_passage_times(np.array([0.0, 0.1]), 0.0)
        with pytest.raises(ValidationError):
            first_passage_times(np.array([0.0, 0.1]), math.nan)
        with pytest.raises(ValidationError):
            first_passage_times(np.array([0.0]), 0.05)
        with pytest.raises(ValidationError):
            first_passage_times(np.zeros((3, 3)), 0.05)
        with pytest.raises(DataError):
            first_passage_times(np.array([0.0, math.inf, 1.0]), 0.05)

    def test_matches_brute_force_exactly(self, rng):
        """Two-scale table scan must agree bit-for-bit with a plain loop.

        Beyond random walks, every length around a power of two reaches the
        ends of the fine tables, and lengths around small multiples of the
        block size the ends of the block tables: a dyadic lattice walk (sums
        and thresholds exact, so ties with the threshold are exact) and flat
        series that cross, on a tie, only at the last index, which sends the
        block search to the last block.  Staircases that step at every block
        boundary put every tie on a block's first position.
        """
        cases = [(np.cumsum(rng.normal(0.0, 0.01, size=300)),
                  (0.004, 0.02, -0.004, -0.02)) for _ in range(8)]
        step = 2.0 ** -7
        lattice_levels = (step, 2 * step, 3 * step, -step, -2 * step, -3 * step)
        block = inverse_stats._BLOCK
        lengths = {2, 3, 4, 5, 7, 8, 9, 16, 17, block - 1, block, block + 1,
                   2 * block, 2 * block + 1, 4 * block, 4 * block + 1}
        for n in sorted(lengths):
            walk = np.concatenate([[0.0], np.cumsum(rng.choice([-step, step], n - 1))])
            cases.append((walk, lattice_levels))
            for jump in (2 * step, -2 * step):
                last_only = np.zeros(n)
                last_only[-1] = jump
                cases.append((last_only, lattice_levels))
        for n in (4 * block + 1, 8 * block):
            stairs = step * (np.arange(n) // block)
            cases += [(stairs, lattice_levels), (-stairs, lattice_levels)]
        for values, levels in cases:
            for level in levels:
                got = first_passage_times(values, level)
                hits, censored = reference.first_passage(values.tolist(), level)
                np.testing.assert_array_equal(got.start_indices,
                                              [t0 for t0, _ in hits])
                np.testing.assert_array_equal(got.waiting_times,
                                              [tau for _, tau in hits])
                assert got.censored_count == censored

    @pytest.mark.parametrize("chunk", [1, 3, 8])
    def test_matches_brute_force_across_chunk_edges(self, rng, monkeypatch, chunk):
        """The same cases with a descent chunk of a few starts, so the
        lattice and last-index ties fall on both sides of chunk edges."""
        monkeypatch.setattr(inverse_stats, "_DESCENT_CHUNK", chunk)
        self.test_matches_brute_force_exactly(rng)

    def test_flat_lattice_path(self):
        """Ties with the threshold on a repeating lattice still match the loop."""
        values = np.array([0.0, 0.01, 0.0, 0.02, 0.01, 0.02, 0.03, 0.0] * 5)
        for level in (0.01, 0.02, -0.01):
            got = first_passage_times(values, level)
            hits, censored = reference.first_passage(values.tolist(), level)
            np.testing.assert_array_equal(got.waiting_times, [t for _, t in hits])
            assert got.censored_count == censored

    def test_mirror_symmetry_is_exact(self, rng):
        values = np.cumsum(rng.normal(0.0, 0.01, size=500))
        up = first_passage_times(values, 0.015)
        down = first_passage_times(-values, -0.015)
        np.testing.assert_array_equal(up.start_indices, down.start_indices)
        np.testing.assert_array_equal(up.waiting_times, down.waiting_times)
        assert up.censored_count == down.censored_count

    def test_waiting_time_monotone_in_level(self, rng):
        values = np.cumsum(rng.normal(0.0, 0.01, size=2000))
        near = first_passage_times(values, 0.01)
        far = first_passage_times(values, 0.03)
        tau_near = dict(zip(near.start_indices.tolist(), near.waiting_times.tolist()))
        assert set(far.start_indices.tolist()) <= set(tau_near)
        for t0, tau in zip(far.start_indices.tolist(), far.waiting_times.tolist()):
            assert tau >= tau_near[t0]


class TestWaitingTimeHistogram:
    def test_repeated_value_has_unit_density(self):
        samples = [WaitingTimeSample(i, 5, 0.05) for i in range(5)]
        h = waiting_time_histogram(samples, binning="linear")
        assert h.total_samples == 5
        widths = np.diff(h.bin_edges)
        in_bin = (h.bin_edges[:-1] < 5) & (5 <= h.bin_edges[1:])
        assert h.densities[in_bin][0] == pytest.approx(1.0, abs=1e-12)
        assert float(np.sum(h.densities * widths)) == pytest.approx(1.0, abs=1e-9)

    def test_two_level_split(self):
        samples = [WaitingTimeSample(i, tau, 0.05)
                   for i, tau in enumerate([1, 1, 3, 3])]
        h = waiting_time_histogram(samples, binning="linear")
        np.testing.assert_allclose(h.bin_edges, [0.5, 1.5, 2.5, 3.5], atol=1e-12)
        np.testing.assert_allclose(h.densities, [0.5, 0.0, 0.5], atol=1e-12)
        np.testing.assert_array_equal(h.counts, [2, 0, 2])

    def test_log_edges_floor_at_unit_width(self):
        samples = [WaitingTimeSample(i, tau, 0.05)
                   for i, tau in enumerate([1, 2, 5, 17, 60, 200])]
        h = waiting_time_histogram(samples, binning="log", ratio=1.25)
        edges = h.bin_edges
        assert edges[0] == 0.5
        widths = np.diff(edges)
        assert np.all(widths >= 1.0 - 1e-12)
        # beyond width 1/(ratio-1) the edges grow multiplicatively
        grown = widths > 1.0 + 1e-9
        ratios = edges[1:][grown] / edges[:-1][grown]
        np.testing.assert_allclose(ratios, 1.25, rtol=1e-12)
        assert edges[-1] > 200

    @pytest.mark.parametrize("binning, params", [
        ("log", {"ratio": 1.25}), ("log", {"ratio": 2.0}),
        ("linear", {"width": 1.0}), ("linear", {"width": 0.5}), ("linear", {"width": 3.0}),
    ])
    def test_counts_match_numpy_histogram(self, rng, binning, params):
        """Counts from the integer cumulative counts equal np.histogram's,
        also where edges land exactly on integers (ratio 2.0, width 0.5)."""
        taus = rng.geometric(0.05, size=3000)
        samples = [WaitingTimeSample(i, int(t), 0.05) for i, t in enumerate(taus)]
        h = waiting_time_histogram(samples, binning, **params)
        on_integers = h.bin_edges == np.round(h.bin_edges)
        assert on_integers.any() == (params in ({"ratio": 2.0}, {"width": 0.5}))
        np.testing.assert_array_equal(h.counts, np.histogram(taus, bins=h.bin_edges)[0])

    @pytest.mark.parametrize("binning", ["log", "linear"])
    def test_rejects_waiting_times_below_one(self, binning):
        """A waiting time below 1 would fall outside every bin yet count in
        the density's denominator."""
        samples = [WaitingTimeSample(i, t, 0.05) for i, t in enumerate([0, 2, -3])]
        with pytest.raises(ValidationError):
            waiting_time_histogram(samples, binning)

    def test_normalization_both_binnings(self, rng):
        taus = np.clip(rng.geometric(0.1, size=400), 1, None)
        samples = [WaitingTimeSample(i, int(t), -0.02) for i, t in enumerate(taus)]
        for binning in ("log", "linear"):
            h = waiting_time_histogram(samples, binning=binning)
            integral = float(np.sum(h.densities * np.diff(h.bin_edges)))
            assert integral == pytest.approx(1.0, abs=1e-9)
            assert h.counts.sum() == 400

    def test_mode_is_geometric_center_of_peak_bin(self):
        taus = [1] * 3 + [7] * 10 + [8] * 2 + [40] * 1
        samples = [WaitingTimeSample(i, t, 0.05) for i, t in enumerate(taus)]
        h = waiting_time_histogram(samples, binning="log", ratio=2.0)
        peak = int(np.argmax(h.densities))
        assert h.mode == pytest.approx(
            math.sqrt(h.bin_edges[peak] * h.bin_edges[peak + 1]), rel=1e-12
        )

    def test_accepts_first_passage_result(self, rng):
        values = np.cumsum(rng.normal(0.0, 0.01, size=3000))
        r = first_passage_times(values, 0.01)
        h = waiting_time_histogram(r)
        assert h.level == 0.01
        assert h.censored_count == r.censored_count
        assert h.total_samples == len(r)

    def test_list_input_has_no_censoring_information(self):
        samples = [WaitingTimeSample(0, 2, 0.05), WaitingTimeSample(1, 4, 0.05)]
        assert waiting_time_histogram(samples, binning="linear").censored_count == 0

    def test_rejects_mixed_levels(self):
        samples = [WaitingTimeSample(0, 2, 0.05), WaitingTimeSample(1, 4, -0.05)]
        with pytest.raises(ValidationError):
            waiting_time_histogram(samples)

    def test_empty_input(self):
        with pytest.raises(InsufficientDataError):
            waiting_time_histogram([])
        rising = first_passage_times(np.array([0.0, 0.01, 0.02]), -0.05)
        with pytest.raises(InsufficientDataError):
            waiting_time_histogram(rising)

    def test_bad_bin_parameters(self):
        samples = [WaitingTimeSample(0, 2, 0.05)]
        for ratio in (1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                waiting_time_histogram(samples, binning="log", ratio=ratio)
        for width in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                waiting_time_histogram(samples, binning="linear", width=width)
        with pytest.raises(ValidationError):
            waiting_time_histogram(samples, binning="cubic")


def power_law_histogram(exponent, n_bins=14):
    """Histogram whose densities follow an exact power law at the centers."""
    edges = [0.5]
    while len(edges) <= n_bins:
        edges.append(max(edges[-1] * 1.6, edges[-1] + 1.0))
    edges = np.asarray(edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    densities = centers ** (-exponent)
    return WaitingTimeHistogram(
        level=0.05, bin_edges=edges, densities=densities,
        counts=np.full(len(centers), 50), total_samples=50 * len(centers),
        censored_count=0, binning="log",
    )


class TestTailFit:
    @pytest.mark.parametrize("exponent", [1.5, 2.0])
    def test_recovers_exact_power_law(self, exponent):
        h = power_law_histogram(exponent)
        fit = fit_tail_exponent(h, fit_range=(h.bin_centers[0], h.bin_centers[-1]))
        assert fit.exponent == pytest.approx(exponent, abs=1e-9)
        assert fit.stderr == pytest.approx(0.0, abs=1e-6)
        assert fit.n_bins == len(h.bin_centers)

    def test_default_range_semantics(self):
        taus = [2] * 40 + [3] * 25 + [5] * 18 + [9] * 11 + [15] * 7 + [30] * 3
        samples = [WaitingTimeSample(i, t, 0.05) for i, t in enumerate(taus)]
        h = waiting_time_histogram(samples, binning="log", ratio=1.4)
        lo, hi = default_fit_range(h, min_count=5)
        assert lo == pytest.approx(3.0 * h.mode, rel=1e-12)
        filled = np.nonzero(h.counts >= 5)[0]
        assert hi == pytest.approx(float(h.bin_centers[filled[-1]]), rel=1e-12)

    def test_default_range_needs_a_filled_bin(self):
        samples = [WaitingTimeSample(i, t, 0.05) for i, t in enumerate([1, 4, 9])]
        h = waiting_time_histogram(samples)
        with pytest.raises(InsufficientDataError):
            default_fit_range(h, min_count=5)

    def test_fit_needs_four_nonzero_bins(self):
        h = power_law_histogram(1.5, n_bins=6)
        with pytest.raises(InsufficientDataError):
            fit_tail_exponent(h, fit_range=(h.bin_centers[0], h.bin_centers[2]))

    def test_inverted_range_rejected(self):
        h = power_law_histogram(1.5)
        with pytest.raises(ValidationError):
            fit_tail_exponent(h, fit_range=(10.0, 2.0))

    @pytest.mark.parametrize("case", ["fair-walk", "power-law", "flat"])
    def test_matches_linregress_exactly(self, case):
        """Exponent and stderr equal scipy's linregress bit for bit, the
        undefined stderr of a flat density included."""
        stats = pytest.importorskip("scipy.stats")
        if case == "fair-walk":
            rng = np.random.default_rng(9)
            steps = np.where(rng.random(200_000) < 0.5, 0.01, -0.01)
            values = np.concatenate([[0.0], np.cumsum(steps)])
            h = waiting_time_histogram(first_passage_times(values, 0.1))
            fit_range = default_fit_range(h)
        else:
            h = power_law_histogram(1.5)
            if case == "flat":
                h = dataclasses.replace(h, densities=np.ones_like(h.densities))
            fit_range = (h.bin_centers[0], h.bin_centers[-1])
        fit = fit_tail_exponent(h, fit_range)
        c = h.bin_centers
        use = (c >= fit_range[0]) & (c <= fit_range[1]) & (h.densities > 0.0)
        ref = stats.linregress(np.log(c[use]), np.log(h.densities[use]))
        assert fit.n_bins == int(np.sum(use)) >= 4
        np.testing.assert_array_equal([fit.exponent, fit.stderr], [-ref.slope, ref.stderr])
        assert math.isnan(fit.stderr) == (case == "flat")

    def test_fair_walk_tail_near_three_halves(self):
        """A long fair multiplicative walk should show the ~tau^(-3/2) tail."""
        rng = np.random.default_rng(9)
        steps = np.where(rng.random(1_000_000) < 0.5, 0.01, -0.01)
        values = np.concatenate([[0.0], np.cumsum(steps)])
        r = first_passage_times(values, 0.3)
        fit = fit_tail_exponent(waiting_time_histogram(r))
        assert 1.3 <= fit.exponent <= 1.7


class TestGainLoss:
    def test_mirrored_series_swaps_modes_exactly(self, rng):
        values = np.cumsum(rng.normal(0.0, 0.01, size=5000))
        rep = gain_loss_report(values, [0.02])
        mirrored = gain_loss_report(-values, [0.02])
        e, m = rep.entry(0.02), mirrored.entry(0.02)
        assert m.mode_plus == e.mode_minus
        assert m.mode_minus == e.mode_plus
        assert m.asymmetry == -e.asymmetry

    def test_asymmetry_definition(self, rng):
        values = np.cumsum(rng.normal(0.0005, 0.01, size=5000))
        e = gain_loss_report(values, [0.02]).entry(0.02)
        assert e.asymmetry == e.mode_plus - e.mode_minus
        assert e.plus.level == 0.02 and e.minus.level == -0.02

    def test_rejects_zero_level(self, rng):
        values = np.cumsum(rng.normal(0.0, 0.01, size=100))
        with pytest.raises(ValidationError):
            gain_loss_report(values, [0.0])

    def test_shared_tables_match_per_level_scans(self, rng):
        values = np.cumsum(rng.normal(0.0, 0.01, size=4000))
        levels = [0.03, -0.005, 0.05, 0.01]
        rep = gain_loss_report(values, levels)
        assert [e.level_abs for e in rep.entries] == [0.03, 0.005, 0.05, 0.01]
        for e in rep.entries:
            for hist, level in ((e.plus, e.level_abs), (e.minus, -e.level_abs)):
                alone = waiting_time_histogram(first_passage_times(values, level))
                assert hist.level == level
                np.testing.assert_array_equal(hist.bin_edges, alone.bin_edges)
                np.testing.assert_array_equal(hist.counts, alone.counts)
                assert hist.censored_count == alone.censored_count

    def test_batched_descent_matches_brute_force(self, rng, monkeypatch):
        """Three magnitudes per sign in one descent, over more than two
        default chunks of starts, against the plain loop start by start."""
        step = 2.0 ** -7
        n = 2 * (inverse_stats._DESCENT_CHUNK // 3) + 1000
        t = np.arange(n)
        # a lattice walk (exact ties with the thresholds) plus an oscillation
        # that widens by one step every 4 days, so every loop scan ends soon
        values = step * (np.cumsum(rng.choice([-1.0, 1.0], n))
                         + np.where(t % 2 == 0, 1.0, -1.0) * (t // 4))
        scans = []
        scan = inverse_stats.first_passage_times

        def recording(*args, **kwargs):
            scans.append(scan(*args, **kwargs))
            return scans[-1]

        monkeypatch.setattr(inverse_stats, "first_passage_times", recording)
        gain_loss_report(values, [2 * step, step, 3 * step])
        levels = [2 * step, step, 3 * step, -2 * step, -step, -3 * step]
        assert [r.level for r in scans] == levels
        for got in scans:
            hits, censored = reference.first_passage(values.tolist(), got.level)
            np.testing.assert_array_equal(got.start_indices, [t0 for t0, _ in hits])
            np.testing.assert_array_equal(got.waiting_times, [tau for _, tau in hits])
            assert got.censored_count == censored

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_bad_level_raises_before_any_scan(self, rng, monkeypatch, bad):
        """A bad level, log bin ratio or binning raises before any table is
        built; each value of ``bad`` is also a bad ratio."""
        def no_scan(*args, **kwargs):
            raise AssertionError("scan started before the parameters were checked")

        monkeypatch.setattr(inverse_stats, "_first_passage_tables", no_scan)
        monkeypatch.setattr(inverse_stats, "first_passage_times", no_scan)
        values = np.cumsum(rng.normal(0.0, 0.01, size=100))
        with pytest.raises(ValidationError):
            gain_loss_report(values, [0.02, 0.01, bad])
        with pytest.raises(ValidationError):
            gain_loss_report(values, [0.02, 0.01], ratio=bad)
        with pytest.raises(ValidationError):
            gain_loss_report(values, [0.02, 0.01], binning="cubic")

    def test_table_memory_is_linear(self, rng):
        """Traced peak of a report on a 2**18-day walk at the 8 default
        magnitudes: about 89 bytes a day with the two-scale tables, where a
        doubling table at every scale made it about 188."""
        n = 1 << 18
        values = np.cumsum(rng.normal(0.0, 0.01, size=n))
        levels = sorted({abs(rho) for rho in RunConfig().rho_grid})
        assert len(levels) == 8
        tracemalloc.start()
        try:
            gain_loss_report(values, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 120

    def test_unknown_entry_rejected(self, rng):
        values = np.cumsum(rng.normal(0.0, 0.01, size=1000))
        rep = gain_loss_report(values, [0.02])
        with pytest.raises(ValidationError):
            rep.entry(0.05)

    def test_single_fair_walk_is_symmetric(self):
        """One stock alone shows no gain/loss asymmetry at small levels."""
        cfg = SimConfig(n_stocks=1, n_steps=1_000_000, fear_probability=0.0,
                        step_size=0.01, seed=3)
        panel = simulate_market(cfg)
        rep = gain_loss_report(panel.log_prices[0], [0.05])
        e = rep.entry(0.05)
        assert abs(e.mode_plus - e.mode_minus) / e.mode_plus < 0.2

    def test_fear_market_index_reaches_losses_sooner(self):
        """Diversified fear-coupled market: losses cluster, gains diffuse.

        Uses a wide panel over a horizon short enough that the index stays
        diversified, with the level a couple of fear-steps deep.
        """
        cfg = SimConfig(n_stocks=100, n_steps=20_000, fear_probability=0.05,
                        step_size=0.005, seed=1)
        sim = simulate_market(cfg)
        panel = to_aligned_panel(sim)
        detrended = detrend_log_price(panel.index_series, drift_window=251)
        e = gain_loss_report(detrended, [0.01]).entry(0.01)
        assert e.mode_minus < e.mode_plus
