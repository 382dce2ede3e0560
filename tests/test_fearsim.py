"""Synthetic fear-factor market: marginals, synchronization, reproducibility."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from condcorr import fearsim
from condcorr import (
    SimConfig,
    SimPanel,
    ValidationError,
    build_index,
    simulate_market,
    to_aligned_panel,
)

from conftest import make_panel


def run(n_stocks=2, n_steps=1000, p=0.05, delta=0.01, seed=0):
    return simulate_market(SimConfig(n_stocks=n_stocks, n_steps=n_steps,
                                     fear_probability=p, step_size=delta, seed=seed))


def one_shot(cfg):
    """The simulator as one pass over all steps: the fear uniforms, then the
    whole (T, N) block of move uniforms, ±δ by ``np.where``, the fear
    override, and one cumsum along the steps."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    fear = rng.random(cfg.n_steps) < cfg.fear_probability
    move_u = rng.random((cfg.n_steps, cfg.n_stocks))
    q = 1 / (2 * (1 - cfg.fear_probability))
    increments = np.where(move_u < q, cfg.step_size, -cfg.step_size)
    increments[fear, :] = -cfg.step_size
    log_prices = np.zeros((cfg.n_stocks, cfg.n_steps + 1))
    np.cumsum(increments.T, axis=1, out=log_prices[:, 1:])
    return log_prices, fear


B = fearsim._BLOCK


class TestUpProbability:
    """q = 1/(2(1 − p)) solves p + (1 − p)(1 − q) = 1/2: a stock moves up on
    exactly the non-fear steps whose move uniform lies below q."""

    @staticmethod
    def up_moves_match(p, q):
        cfg = SimConfig(n_stocks=4, n_steps=3000, fear_probability=p, step_size=0.01, seed=5)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        fear = rng.random(cfg.n_steps) < p
        up = (rng.random((cfg.n_steps, cfg.n_stocks)) < q) & ~fear[:, None]
        steps = np.diff(simulate_market(cfg).log_prices, axis=1)
        np.testing.assert_array_equal(steps.T > 0, up)

    def test_no_fear_is_fair(self):
        self.up_moves_match(0.0, 0.5)

    def test_quarter_fear_compensates(self):
        self.up_moves_match(0.25, 2.0 / 3.0)

    def test_degenerate_rate_rejected(self):
        # SimConfig is the one range check: at p = 0.5, q would reach 1
        for p in (0.5, -0.1):
            with pytest.raises(ValidationError, match="^fear_probability"):
                SimConfig(n_stocks=2, n_steps=10, fear_probability=p, step_size=0.01, seed=0)


class TestConfigValidation:
    def test_rejects_out_of_range_parameters(self):
        with pytest.raises(ValidationError):
            SimConfig(n_stocks=0, n_steps=10, fear_probability=0.0, step_size=0.01, seed=0)
        with pytest.raises(ValidationError):
            SimConfig(n_stocks=2, n_steps=0, fear_probability=0.0, step_size=0.01, seed=0)
        with pytest.raises(ValidationError):
            SimConfig(n_stocks=2, n_steps=10, fear_probability=0.6, step_size=0.01, seed=0)
        with pytest.raises(ValidationError):
            SimConfig(n_stocks=2, n_steps=10, fear_probability=0.0, step_size=0.0, seed=0)

    @pytest.mark.parametrize("field, value, message", [
        ("n_stocks", 2.5, "expected an integer"),
        ("n_stocks", True, "expected an integer"),
        ("n_steps", "10", "expected an integer"),
        ("seed", 1.5, "expected an integer"),
        ("fear_probability", "0.1", "expected a number"),
        ("step_size", None, "expected a number"),
        ("seed", -1, "must be >= 0"),
        ("step_size", math.inf, "must be finite"),
        ("step_size", math.nan, "must be finite"),
        pytest.param("step_size", 10**400, "must be finite", id="step_size-huge-int"),
    ])
    def test_rejects_bad_values_naming_the_field(self, field, value, message):
        """A mistyped, negative or non-finite value is a ValidationError
        naming the field, not a TypeError or ValueError from numpy."""
        values = {"n_stocks": 2, "n_steps": 10, "fear_probability": 0.1,
                  "step_size": 0.01, "seed": 0, field: value}
        with pytest.raises(ValidationError, match=f"^{field}.*{message}"):
            SimConfig(**values)

    def test_float_fields_kept_as_floats(self):
        config = SimConfig(n_stocks=2, n_steps=10, fear_probability=0, step_size=1, seed=0)
        assert type(config.fear_probability) is float and type(config.step_size) is float

    def test_result_arrays_are_immutable(self):
        panel = run()
        with pytest.raises(ValueError):
            panel.log_prices[0, 0] = 1.0
        with pytest.raises(ValueError):
            panel.fear_step_flags[0] = True


class TestIncrements:
    def test_steps_are_exactly_plus_minus_delta(self):
        panel = run(n_stocks=3, n_steps=500, p=0.1, delta=0.01)
        assert np.all(panel.log_prices[:, 0] == 0.0)  # every stock starts at price 1
        steps = np.diff(panel.log_prices, axis=1)
        assert set(np.unique(np.round(steps, 15))) <= {-0.01, 0.01}

    def test_fear_steps_drop_every_stock(self):
        panel = run(n_stocks=5, n_steps=2000, p=0.2, delta=0.01, seed=3)
        steps = np.diff(panel.log_prices, axis=1)
        flagged = panel.fear_step_flags
        assert flagged.any()
        # differencing the cumulative log prices reintroduces ulp noise
        np.testing.assert_allclose(steps[:, flagged], -0.01, atol=1e-14)

    def test_no_fear_flags_when_p_zero(self):
        panel = run(p=0.0, n_steps=5000)
        assert not panel.fear_step_flags.any()

    def test_flagged_fraction_tracks_rate(self):
        n = 100_000
        panel = run(n_stocks=1, n_steps=n, p=0.25, seed=7)
        frac = panel.fear_step_flags.mean()
        assert abs(frac - 0.25) < 3.0 * math.sqrt(0.25 * 0.75 / n)

    def test_single_stock_marginal_is_symmetric(self):
        """p + (1-p)(1-q) = 1/2: down moves occur exactly half the time."""
        n = 1_000_000
        panel = run(n_stocks=1, n_steps=n, p=0.05, seed=11)
        steps = np.diff(panel.log_prices[0])
        down_frac = np.mean(steps < 0)
        assert abs(down_frac - 0.5) < 4.0 * math.sqrt(0.25 / n)

    def test_single_stock_increments_are_white(self):
        n = 1_000_000
        panel = run(n_stocks=1, n_steps=n, p=0.1, seed=13)
        steps = np.sign(np.diff(panel.log_prices[0]))
        lag1 = float(np.mean(steps[1:] * steps[:-1]))
        assert abs(lag1) < 4.0 / math.sqrt(n)

    def test_fear_couples_stocks(self):
        n = 200_000
        coupled = run(n_stocks=2, n_steps=n, p=0.05, seed=17)
        a, b = np.diff(coupled.log_prices, axis=1)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert corr > 0.02  # roughly p/(1-p+...) worth of synchronization

        independent = run(n_stocks=2, n_steps=n, p=0.0, seed=17)
        a0, b0 = np.diff(independent.log_prices, axis=1)
        corr0 = float(np.corrcoef(a0, b0)[0, 1])
        assert abs(corr0) < 4.0 / math.sqrt(n)


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        one, two = run(seed=42), run(seed=42)
        np.testing.assert_array_equal(one.log_prices, two.log_prices)
        np.testing.assert_array_equal(one.fear_step_flags, two.fear_step_flags)

    def test_different_seed_differs(self):
        assert not np.array_equal(run(seed=1).log_prices, run(seed=2).log_prices)

    def test_draw_order_contract(self):
        """Fear uniforms first (length T), then the (T, N) move block; the log
        prices are the running sum of the steps, exactly."""
        cfg = SimConfig(n_stocks=3, n_steps=50, fear_probability=0.2,
                        step_size=0.01, seed=99)
        panel = simulate_market(cfg)
        rng = np.random.Generator(np.random.PCG64(99))
        fear_u = rng.random(50)
        move_u = rng.random((50, 3))
        q = 1 / (2 * (1 - 0.2))
        inc = np.where(move_u < q, 0.01, -0.01)
        inc[fear_u < 0.2, :] = -0.01
        np.testing.assert_array_equal(panel.fear_step_flags, fear_u < 0.2)
        assert panel.log_prices[:, 0].tobytes() == np.zeros(3).tobytes()
        assert panel.log_prices[:, 1:].tobytes() == np.cumsum(inc.T, axis=1).tobytes()


class TestBlockedSimulation:
    """``simulate_market`` works ``_BLOCK`` steps at a time; its bytes, and
    those of ``build_index`` on its result, must be the one-shot generator's
    at every block boundary."""

    @staticmethod
    def assert_matches_one_shot(cfg):
        sim = simulate_market(cfg)
        log_prices, fear = one_shot(cfg)
        assert sim.log_prices.tobytes() == log_prices.tobytes()
        assert sim.fear_step_flags.tobytes() == fear.tobytes()
        expected = np.mean(np.exp(log_prices), axis=0)
        assert build_index(sim).tobytes() == expected.tobytes()
        return sim

    @pytest.mark.parametrize("n_steps", [1, B - 1, B, B + 1, 3 * B + 5])
    def test_matches_one_shot_generator(self, n_steps):
        self.assert_matches_one_shot(SimConfig(
            n_stocks=12, n_steps=n_steps, fear_probability=0.05,
            step_size=0.01, seed=n_steps))

    @pytest.mark.parametrize("n_stocks", [1, 12])
    @pytest.mark.parametrize("step_size", [0.1, 7.7, 5e-324, 9e307, 1e308, sys.float_info.max])
    def test_matches_one_shot_at_any_step_size(self, step_size, n_stocks):
        """Every finite δ gives the one-shot generator's bytes, the smallest
        subnormal and the float maximum included, where the walk overflows to
        ±inf and then NaN.  The δ > max/2 cases catch a fill by 2δ·up − δ,
        whose 2δ overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_matches_one_shot(SimConfig(
                n_stocks=n_stocks, n_steps=B + 1, fear_probability=0.05,
                step_size=step_size, seed=7))

    def test_multi_block_fear_market(self):
        cfg = SimConfig(n_stocks=30, n_steps=2 * B + 3, fear_probability=0.4,
                        step_size=0.003, seed=23)
        sim = self.assert_matches_one_shot(cfg)
        # fear steps fall in every block, the first and the last included
        flags = sim.fear_step_flags
        assert flags[:B].any() and flags[B:2 * B].any() and flags[2 * B:].any()

    @pytest.mark.parametrize("n_steps", [1, B - 1, B, B + 1, 2 * B])
    def test_index_adds_stocks_in_row_order(self, n_steps):
        """One stock at price 1 and 31 at 1e-17: added in row order the tiny
        prices never move the sum off 1, while a pairwise sum (what numpy
        does to a lone column of 9 or more rows) gathers them into a change
        of 1 ulp."""
        cfg = SimConfig(n_stocks=32, n_steps=n_steps, fear_probability=0.0,
                        step_size=0.01, seed=0)
        log_prices = np.full((32, n_steps + 1), math.log(1e-17))
        log_prices[0] = 0.0
        index = build_index(SimPanel(cfg, log_prices, np.zeros(n_steps, bool)))
        assert np.all(index == 1.0 / 32)

    def test_peak_memory_is_about_one_log_price_matrix(self):
        """Traced peaks at 10 × 200,000: the one-shot generator held about
        3.1 log-price matrices, the blocked one about 1.1; build_index
        holds the index (a tenth) and one block beyond its input."""
        cfg = SimConfig(n_stocks=10, n_steps=200_000, fear_probability=0.05,
                        step_size=0.01, seed=1)
        tracemalloc.start()
        try:
            sim = simulate_market(cfg)
            simulate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            build_index(sim)
            index_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        matrix = sim.log_prices.nbytes
        assert simulate_peak <= 1.25 * matrix
        assert index_peak <= 0.5 * matrix


class TestIndex:
    def test_identical_stocks_collapse_to_member(self):
        panel = run(n_stocks=1, n_steps=100, seed=5)
        stacked = SimPanel(
            SimConfig(n_stocks=3, n_steps=100, fear_probability=0.05,
                      step_size=0.01, seed=5),
            np.vstack([panel.log_prices] * 3).copy(),
            panel.fear_step_flags.copy(),
        )
        np.testing.assert_allclose(build_index(stacked),
                                   np.exp(panel.log_prices[0]), rtol=1e-12)

    def test_arithmetic_mean_of_prices(self):
        cfg = SimConfig(n_stocks=2, n_steps=1, fear_probability=0.0,
                        step_size=0.01, seed=0)
        prices = np.log(np.array([[100.0, 100.0], [200.0, 200.0]]))
        panel = SimPanel(cfg, prices, np.array([False]))
        np.testing.assert_allclose(build_index(panel), [150.0, 150.0], rtol=1e-12)

    def test_single_stock_index_is_identity(self):
        panel = run(n_stocks=1, n_steps=50, seed=9)
        np.testing.assert_allclose(build_index(panel), np.exp(panel.log_prices[0]),
                                   rtol=1e-12)

    def test_fear_step_moves_index_by_delta(self):
        panel = run(n_stocks=10, n_steps=2000, p=0.1, delta=0.01, seed=21)
        idx_returns = np.diff(np.log(build_index(panel)))
        np.testing.assert_allclose(idx_returns[panel.fear_step_flags], -0.01,
                                   atol=1e-12)


class TestToAlignedPanel:
    def test_structure(self):
        sim = run(n_stocks=3, n_steps=20, seed=4)
        panel = to_aligned_panel(sim)
        assert panel.tickers == ("S00", "S01", "S02")
        assert panel.n_days == 21
        assert panel.calendar[0] == np.datetime64("2000-01-03")
        diffs = np.diff(panel.calendar).astype(int)
        assert np.all(diffs == 1)
        np.testing.assert_allclose(np.log(np.vstack([s.closes for s in panel.stocks])),
                                   sim.log_prices, atol=1e-12)

    def test_one_calendar_and_no_copies(self):
        """The calendar, each stock's closes and the index are frozen once
        and kept by the constructors: members, index and panel share one
        calendar, and the traced peak at 10 × 50,000 stays at or below 1.4
        log-price matrices (2.41 when each series copied its dates)."""
        sim = run(n_stocks=10, n_steps=50_000, seed=1)
        tracemalloc.start()
        try:
            panel = to_aligned_panel(sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * sim.log_prices.nbytes
        for s in (*panel.stocks, panel.index_series):
            assert np.shares_memory(s.dates, panel.calendar)

    def test_prices_and_index_bytes(self):
        """Each price is exponentiated once, and the index is the bytes of
        ``build_index``."""
        sim = run(n_stocks=12, n_steps=B, p=0.1, seed=6)
        panel = to_aligned_panel(sim)
        assert panel.index_series.closes.tobytes() == build_index(sim).tobytes()
        for stock, log_prices in zip(panel.stocks, sim.log_prices):
            assert stock.closes.tobytes() == np.exp(log_prices).tobytes()

    def test_wide_panels_get_wide_tickers(self):
        sim = run(n_stocks=120, n_steps=5, seed=4)
        panel = to_aligned_panel(sim)
        assert panel.tickers[0] == "S000" and panel.tickers[119] == "S119"

    def test_needs_two_stocks(self):
        sim = run(n_stocks=1, n_steps=20, seed=4)
        with pytest.raises(ValidationError):
            to_aligned_panel(sim)

    def test_round_trip_through_make_panel_helper(self):
        sim = run(n_stocks=2, n_steps=15, seed=8)
        direct = to_aligned_panel(sim)
        rebuilt = make_panel([np.exp(lp) for lp in sim.log_prices])
        np.testing.assert_allclose(np.log(rebuilt.index_series.closes),
                                   np.log(direct.index_series.closes), atol=1e-12)
