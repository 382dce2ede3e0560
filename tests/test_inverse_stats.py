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
    default_fit_range,
    detrend_log_price,
    fit_tail_exponent,
    gain_loss_report,
    simulate_market,
    to_aligned_panel,
)

from conftest import brute_force_waits, calendar, descent


def histogram_of(waits, ratio=inverse_stats.LOG_BIN_RATIO, n=None):
    """The histogram ``gain_loss_report`` bins from these waiting times (0
    for a censored start) on the edges and lookup of a walk of ``n`` days,
    by default one past the longest wait; None if every start is censored."""
    waits = np.asarray(waits, dtype=np.int64)
    n = int(waits.max()) + 1 if n is None else n
    edges = inverse_stats._log_edges(n, ratio)
    counts = np.bincount(inverse_stats._bin_lookup(edges, n)[waits], minlength=len(edges))
    return inverse_stats._histogram(counts, edges) if counts[1:].any() else None


def assert_same_histogram(got, want):
    """Both sides None, or equal fields with byte-identical arrays."""
    assert (got is None) == (want is None)
    if got is None:
        return
    for name in ("bin_edges", "bin_centers", "densities", "counts"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert (got.total_samples, got.censored_count) == (
        want.total_samples, want.censored_count)


@pytest.fixture
def no_scan(monkeypatch):
    """Fail the test if a first-passage table is built or a descent starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("scan started before the parameters were checked")

    monkeypatch.setattr(inverse_stats, "_first_passage_tables", refuse)
    monkeypatch.setattr(inverse_stats, "_first_passage_up", refuse)


class TestFirstPassage:
    def test_rising_path_hits_gain_level(self):
        # start 0 needs 0.05: reached at index 3.  Start 1's float threshold
        # 0.01 + 0.05 sits one ulp above 0.06, so it is censored — threshold
        # arithmetic is part of the contract and the oracle reproduces it.
        values = np.array([0.0, 0.01, 0.03, 0.06])
        np.testing.assert_array_equal(descent(values, 1.0, [0.05]), [[3, 0, 0]])
        np.testing.assert_array_equal(brute_force_waits(values, 1.0, [0.05]), [[3, 0, 0]])

    def test_rising_path_never_hits_loss_level(self):
        values = np.array([0.0, 0.01, 0.03, 0.06])
        np.testing.assert_array_equal(descent(values, -1.0, [0.05]), [[0, 0, 0]])

    def test_falling_path_hits_loss_level(self):
        values = np.array([0.0, -0.02, -0.06])
        np.testing.assert_array_equal(descent(values, -1.0, [0.05]), [[2, 0]])

    def test_validation(self, no_scan):
        """A bad level or series raises before any table is built."""
        for level in (0.0, math.nan, -math.inf, "0.05", True):
            with pytest.raises(ValidationError):
                gain_loss_report(np.array([0.0, 0.1]), [level])
        with pytest.raises(ValidationError):
            gain_loss_report(np.array([0.0]), [0.05])
        with pytest.raises(ValidationError):
            gain_loss_report(np.zeros((3, 3)), [0.05])
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DataError):
                gain_loss_report(np.array([0.0, bad, 1.0]), [0.05])
        # a series object is not an array of log prices
        series = PriceSeries("X", calendar(3), np.array([100.0, 101.0, 99.0]))
        with pytest.raises(ValidationError, match="array of numbers, got PriceSeries"):
            gain_loss_report(series, [0.05])

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
                sign = math.copysign(1.0, level)
                np.testing.assert_array_equal(descent(values, sign, [abs(level)]),
                                              brute_force_waits(values, sign, [abs(level)]))

    @pytest.mark.parametrize("chunk", [1, 3, 8])
    def test_matches_brute_force_across_chunk_edges(self, rng, monkeypatch, chunk):
        """The same cases with a descent chunk of a few starts, so the
        lattice and last-index ties fall on both sides of chunk edges."""
        monkeypatch.setattr(inverse_stats, "_DESCENT_CHUNK", chunk)
        self.test_matches_brute_force_exactly(rng)

    def test_flat_lattice_path(self):
        """Ties with the threshold on a repeating lattice still match the loop."""
        values = np.array([0.0, 0.01, 0.0, 0.02, 0.01, 0.02, 0.03, 0.0] * 5)
        for sign, magnitudes in ((1.0, [0.01, 0.02]), (-1.0, [0.01])):
            np.testing.assert_array_equal(descent(values, sign, magnitudes),
                                          brute_force_waits(values, sign, magnitudes))

    def test_waiting_time_monotone_in_level(self, rng):
        values = np.cumsum(rng.normal(0.0, 0.01, size=2000))
        near, far = descent(values, 1.0, [0.01, 0.03]).astype(np.int64)
        crossed = far > 0
        assert np.all(near[crossed] > 0)
        assert np.all(far[crossed] >= near[crossed])


class TestWaitingTimeHistogram:
    def test_repeated_value_has_unit_density(self):
        # at ratio 1.2 the edges stay one apart up to 5.5
        h = histogram_of([5] * 5, ratio=1.2)
        assert h.total_samples == 5
        widths = np.diff(h.bin_edges)
        in_bin = (h.bin_edges[:-1] < 5) & (5 <= h.bin_edges[1:])
        assert h.densities[in_bin][0] == pytest.approx(1.0, abs=1e-12)
        assert float(np.sum(h.densities * widths)) == pytest.approx(1.0, abs=1e-9)

    def test_two_level_split(self):
        h = histogram_of([1, 1, 3, 3])
        np.testing.assert_allclose(h.bin_edges, [0.5, 1.5, 2.5, 3.5], atol=1e-12)
        np.testing.assert_array_equal(h.bin_centers, np.sqrt([0.75, 3.75, 8.75]))
        np.testing.assert_allclose(h.densities, [0.5, 0.0, 0.5], atol=1e-12)
        np.testing.assert_array_equal(h.counts, [2, 0, 2])

    def test_log_edges_floor_at_unit_width(self):
        h = histogram_of([1, 2, 5, 17, 60, 200], ratio=1.25)
        edges = h.bin_edges
        assert edges[0] == 0.5
        widths = np.diff(edges)
        assert np.all(widths >= 1.0 - 1e-12)
        # beyond width 1/(ratio-1) the edges grow multiplicatively
        grown = widths > 1.0 + 1e-9
        ratios = edges[1:][grown] / edges[:-1][grown]
        np.testing.assert_allclose(ratios, 1.25, rtol=1e-12)
        assert edges[-1] > 200

    @pytest.mark.parametrize("ratio", [1.25, 2.0], ids=["log-params0", "log-params1"])
    def test_counts_match_numpy_histogram(self, rng, ratio):
        """Counts from the integer cumulative counts equal np.histogram's,
        also where edges land exactly on integers (ratio 2.0)."""
        taus = rng.geometric(0.05, size=3000)
        h = histogram_of(taus, ratio)
        on_integers = h.bin_edges == np.round(h.bin_edges)
        assert on_integers.any() == (ratio == 2.0)
        np.testing.assert_array_equal(h.counts, np.histogram(taus, bins=h.bin_edges)[0])

    def test_normalization_both_binnings(self, rng):
        taus = np.clip(rng.geometric(0.1, size=400), 1, None)
        for ratio in (1.25, 2.0):
            h = histogram_of(taus, ratio)
            integral = float(np.sum(h.densities * np.diff(h.bin_edges)))
            assert integral == pytest.approx(1.0, abs=1e-9)
            assert h.counts.sum() == 400

    def test_mode_is_geometric_center_of_peak_bin(self):
        taus = [1] * 3 + [7] * 10 + [8] * 2 + [40] * 1
        h = histogram_of(taus, ratio=2.0)
        peak = int(np.argmax(h.densities))
        assert h.mode == pytest.approx(
            math.sqrt(h.bin_edges[peak] * h.bin_edges[peak + 1]), rel=1e-12
        )

    def test_empty_input(self):
        """A side no start crosses has no histogram, mode or asymmetry; the
        side that crosses keeps its histogram."""
        e = gain_loss_report(np.array([0.0, 0.03, 0.06]), [0.05]).entry(0.05)
        assert e.minus is None and e.mode_minus is None and e.asymmetry is None
        assert (e.plus.total_samples, e.plus.censored_count) == (1, 1)
        assert e.mode_plus == e.plus.mode


def power_law_histogram(exponent, n_bins=14):
    """Histogram whose densities follow an exact power law at the centers."""
    edges = [0.5]
    while len(edges) <= n_bins:
        edges.append(max(edges[-1] * 1.6, edges[-1] + 1.0))
    edges = np.asarray(edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    densities = centers ** (-exponent)
    return WaitingTimeHistogram(
        bin_edges=edges, bin_centers=centers, densities=densities,
        counts=np.full(len(centers), 50), total_samples=50 * len(centers),
        censored_count=0,
    )


class TestTailFit:
    @pytest.mark.parametrize("exponent", [1.5, 2.0])
    def test_recovers_exact_power_law(self, exponent):
        h = power_law_histogram(exponent)
        fit = fit_tail_exponent(h)
        assert fit.exponent == pytest.approx(exponent, abs=1e-9)
        assert fit.stderr == pytest.approx(0.0, abs=1e-6)
        # every bin is well filled, so the fit runs from 3x the mode to the end
        assert fit.fit_range == (3.0 * h.mode, h.bin_centers[-1])
        assert fit.n_bins == int(np.sum(h.bin_centers >= 3.0 * h.mode)) == 12

    def test_default_range_semantics(self):
        taus = [2] * 40 + [3] * 25 + [5] * 18 + [9] * 11 + [15] * 7 + [30] * 3
        h = histogram_of(taus, ratio=1.4)
        lo, hi = default_fit_range(h)
        assert lo == pytest.approx(3.0 * h.mode, rel=1e-12)
        filled = np.nonzero(h.counts >= 5)[0]
        assert hi == pytest.approx(float(h.bin_centers[filled[-1]]), rel=1e-12)

    def test_default_range_needs_a_filled_bin(self):
        h = histogram_of([1, 4, 9])
        with pytest.raises(InsufficientDataError):
            default_fit_range(h)

    def test_fit_needs_four_nonzero_bins(self):
        # 5 bins leave 3 past 3x the mode, 6 leave the 4 a fit needs
        with pytest.raises(InsufficientDataError, match="^only 3 nonzero bins"):
            fit_tail_exponent(power_law_histogram(1.5, n_bins=5))
        assert fit_tail_exponent(power_law_histogram(1.5, n_bins=6)).n_bins == 4

    @pytest.mark.parametrize("case", ["fair-walk", "power-law", "flat"])
    def test_matches_linregress_exactly(self, case):
        """Exponent and stderr equal scipy's linregress bit for bit, the
        undefined stderr of a flat density included."""
        stats = pytest.importorskip("scipy.stats")
        if case == "fair-walk":
            rng = np.random.default_rng(9)
            steps = np.where(rng.random(200_000) < 0.5, 0.01, -0.01)
            values = np.concatenate([[0.0], np.cumsum(steps)])
            h = gain_loss_report(values, [0.1]).entry(0.1).plus
        else:
            h = power_law_histogram(1.5)
            if case == "flat":
                h = dataclasses.replace(h, densities=np.ones_like(h.densities))
        fit = fit_tail_exponent(h)
        fit_range = default_fit_range(h)
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
        fit = fit_tail_exponent(gain_loss_report(values, [0.3]).entry(0.3).plus)
        assert 1.3 <= fit.exponent <= 1.7


class TestGainLoss:
    def test_asymmetry_definition(self, rng):
        values = np.cumsum(rng.normal(0.0005, 0.01, size=5000))
        e = gain_loss_report(values, [0.02]).entry(0.02)
        assert e.asymmetry == e.mode_plus - e.mode_minus
        assert e.level_abs == 0.02
        assert (e.mode_plus, e.mode_minus) == (e.plus.mode, e.minus.mode)

    def test_rejects_zero_level(self, rng):
        values = np.cumsum(rng.normal(0.0, 0.01, size=100))
        with pytest.raises(ValidationError):
            gain_loss_report(values, [0.0])

    def test_shared_tables_match_per_level_scans(self, rng, monkeypatch):
        """Histograms built from the batched descent's counts equal, byte for
        byte, the ones binned from each level's own one-magnitude descent,
        at the module's ratio and another one; a magnitude no start crosses
        has no sides."""
        values = np.cumsum(rng.normal(0.0, 0.01, size=4000))
        levels = [0.03, -0.005, 0.05, 0.01, 100.0]
        for ratio in (1.25, 1.6):
            monkeypatch.setattr(inverse_stats, "LOG_BIN_RATIO", ratio)
            rep = gain_loss_report(values, levels)
            assert [e.level_abs for e in rep.entries] == [0.03, 0.005, 0.05, 0.01, 100.0]
            for e in rep.entries:
                for hist, sign in ((e.plus, 1.0), (e.minus, -1.0)):
                    alone = histogram_of(descent(values, sign, [e.level_abs])[0],
                                         ratio, len(values))
                    assert_same_histogram(hist, alone)
            never = rep.entry(100.0)
            assert never.plus is None and never.minus is None
            assert never.mode_plus is None and never.asymmetry is None

    def test_batched_descent_matches_brute_force(self, rng):
        """Three magnitudes per sign in one descent, over more than two
        default chunks of starts, against the plain loop start by start:
        each start's waiting time, 0 where the start is censored."""
        step = 2.0 ** -7
        n = 2 * (inverse_stats._DESCENT_CHUNK // 3) + 1000
        t = np.arange(n)
        # a lattice walk (exact ties with the thresholds) plus an oscillation
        # that widens by one step every 4 days, so every loop scan ends soon
        values = step * (np.cumsum(rng.choice([-1.0, 1.0], n))
                         + np.where(t % 2 == 0, 1.0, -1.0) * (t // 4))
        magnitudes = [2 * step, step, 3 * step]
        for sign in (1.0, -1.0):
            taus = descent(values, sign, magnitudes)
            assert taus.shape == (len(magnitudes), n - 1)
            expected = brute_force_waits(values, sign, magnitudes)
            np.testing.assert_array_equal(taus, expected)

    def test_split_descent_matches_brute_force(self, rng, monkeypatch):
        """Near and far block searches against the plain loop, at splits of
        1, 2 and the default G block levels (G is at least 1).

        A lattice walk around an oscillation that widens by one step every
        block puts most crossings a few blocks out.  A staircase that rises
        one step a block and then falls puts the crossing at k steps k - 1
        blocks past b0 from most starts, so k = 2**G + 1 lands exactly on
        the first far block; starts near the apex and on the far slope are
        censored in both branches.  Walks of 2 to 70 days have tables of
        two coarse levels, fewer than the default G.  At every split
        each sign reaches crossed and censored starts in both branches.
        """
        step = 2.0 ** -7
        block = inverse_stats._BLOCK
        split = inverse_stats._NEAR_LEVELS
        t = np.arange(3000)
        widening = step * (rng.choice([-1.0, 0.0, 1.0], len(t))
                           + np.where(t % 2 == 0, 1.0, -1.0) * (t // block))
        rise = (1 << split) + 4
        heights = np.arange(2 * rise * block) // block
        stairs = step * np.minimum(heights, 2 * rise - 1 - heights)
        boundary = sorted({1, 2, 3, 1 << split, (1 << split) + 1})
        cases = [(widening, [step, 2 * step, 4 * step]),
                 (stairs, [k * step for k in boundary])]
        cases += [(step * np.cumsum(rng.choice([-1.0, 1.0], n)), [step, 2 * step, 3 * step])
                  for n in range(2, 71)]
        expected = {(i, sign): brute_force_waits(values, sign, magnitudes)
                    for i, (values, magnitudes) in enumerate(cases)
                    for sign in (1.0, -1.0)}
        for near_levels in (1, 2, split):
            monkeypatch.setattr(inverse_stats, "_NEAR_LEVELS", near_levels)
            reached = set()  # (sign, far, censored) the cases reach
            for (i, sign), want in expected.items():
                values, magnitudes = cases[i]
                np.testing.assert_array_equal(descent(values, sign, magnitudes), want)
                coarse = inverse_stats._first_passage_tables(values, sign).coarse
                b0 = np.arange(1, len(values)) // block + 1
                top = coarse[min(near_levels, len(coarse) - 1)][b0]
                far = top < sign * values[:-1] + np.asarray(magnitudes)[:, None]
                reached.update((sign, *pair) for pair in zip(far.flat, (want == 0).flat))
            assert reached == {(sign, far, censored) for sign in (1.0, -1.0)
                               for far in (False, True) for censored in (False, True)}

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_bad_level_raises_before_any_scan(self, rng, no_scan, bad):
        """A bad level raises before any table is built."""
        values = np.cumsum(rng.normal(0.0, 0.01, size=100))
        with pytest.raises(ValidationError):
            gain_loss_report(values, [0.02, 0.01, bad])

    def test_table_memory_is_linear(self, rng):
        """Traced peak of a report on a 2**18-day walk at the 8 default
        magnitudes: about 61 bytes a day with the two-scale tables and the
        waits binned chunk by chunk.  Keeping every start's waits made it
        about 91, and a doubling table at every scale about 188."""
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
        assert peak / n < 70

    @pytest.mark.parametrize("ratio", [1.25, 1.6, 1.001])
    def test_chunked_bins_match_full_waits(self, rng, monkeypatch, ratio):
        """Each side's histogram is np.histogram of every start's waiting
        time, censored starts left out, over the edges _log_edges builds to
        the longest wait: walks of 2 and 33 days and one of more than two
        descent chunks at the 8 default magnitudes, plus one no start
        crosses.  At ratio 1.001 the long walk takes more than 255 bins."""
        monkeypatch.setattr(inverse_stats, "LOG_BIN_RATIO", ratio)
        magnitudes = sorted({abs(rho) for rho in RunConfig().rho_grid}) + [100.0]
        widest = 0
        for n in (2, 33, 2 * inverse_stats._DESCENT_CHUNK + 1000):
            values = np.cumsum(rng.normal(0.0, 0.01, size=n))
            assert gain_loss_report(values, []).entries == ()
            rep = gain_loss_report(values, magnitudes)
            for sign in (1.0, -1.0):
                waits = descent(values, sign, magnitudes)
                for e, row in zip(rep.entries, waits):
                    hist = e.plus if sign > 0 else e.minus
                    crossed = row[row > 0]
                    if len(crossed) == 0:
                        assert hist is None
                        continue
                    edges = inverse_stats._log_edges(crossed.max(), ratio)
                    counts = np.histogram(crossed, bins=edges)[0]
                    assert hist.bin_edges.tobytes() == edges.tobytes()
                    np.testing.assert_array_equal(hist.counts, counts)
                    assert hist.densities.tobytes() == (
                        counts / (len(crossed) * np.diff(edges))).tobytes()
                    assert (hist.total_samples, hist.censored_count) == (
                        len(crossed), n - 1 - len(crossed))
                    widest = max(widest, len(edges) - 1)
            assert rep.entry(100.0).plus is None and rep.entry(100.0).minus is None
        assert (widest > 255) == (ratio == 1.001)

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
