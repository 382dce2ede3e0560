"""Seeded synthetic market generator with a synchronization ("fear") factor.

Each step, with probability ``p`` every stock's log price drops by δ
simultaneously; otherwise each stock moves ±δ independently, up with
probability q = 1/(2(1 − p)) so that the unconditional single-stock marginal
stays exactly symmetric (and increments stay white).  ``p = 0`` gives
independent fair walks — the null market.

The increment scheme and the q formula are this package's concretization of
three constraints: symmetric single-stock marginals, uncorrelated increments,
and synchronized all-stock down moves.  Binary ±δ steps keep the symmetry
constraint exactly solvable.

Draw order is part of the reproducibility contract: one PCG64 uniform per
step for the fear flag (a length n_steps vector), then an (n_steps,
n_stocks) row-major block of move uniforms, drawn ``_BLOCK`` steps at a time,
which continues one stream — identical seeds give bit-identical panels.
Each block's ±δ steps are summed in place into the log-price rows, the same
running sum as one cumsum; the peak is 1.07 log-price matrices at 10 × 500,000.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_scalar_fields
from .timeseries import AlignedPanel, PriceSeries

__all__ = [
    "SimConfig",
    "SimPanel",
    "derive_up_probability",
    "simulate_market",
    "build_index",
    "to_aligned_panel",
]

_EPOCH = np.datetime64("2000-01-03", "D")
# steps per block of simulate_market and build_index: small temporaries
_BLOCK = 1 << 14


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulated market run; a value of the wrong type or
    out of range raises ValidationError naming the field."""

    n_stocks: int
    n_steps: int
    fear_probability: float
    step_size: float
    seed: int

    def __post_init__(self):
        check_scalar_fields(self)
        if self.n_stocks < 1:
            raise ValidationError("n_stocks must be >= 1")
        if self.n_steps < 1:
            raise ValidationError("n_steps must be >= 1")
        if not 0.0 <= self.fear_probability < 0.5:
            raise ValidationError(
                f"fear_probability {self.fear_probability} outside [0, 0.5): "
                "at 0.5 the compensating up-probability reaches 1"
            )
        if not 0.0 < self.step_size < np.inf:
            raise ValidationError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SimPanel:
    """Result of one run: log prices, per-step fear flags, derived index."""

    config: SimConfig
    log_prices: np.ndarray        # (n_stocks, n_steps + 1), starting at 0 (price 1)
    fear_step_flags: np.ndarray   # (n_steps,) bool

    def __post_init__(self):
        n, t = self.config.n_stocks, self.config.n_steps
        if self.log_prices.shape != (n, t + 1):
            raise ValidationError(f"log_prices shape {self.log_prices.shape} != {(n, t + 1)}")
        if self.fear_step_flags.shape != (t,):
            raise ValidationError("fear_step_flags length mismatch")
        self.log_prices.flags.writeable = False
        self.fear_step_flags.flags.writeable = False

    @property
    def n_stocks(self) -> int:
        return self.config.n_stocks

    @property
    def n_steps(self) -> int:
        return self.config.n_steps


def derive_up_probability(fear_probability: float) -> float:
    """Up-move probability q making the single-stock marginal symmetric.

    Solves p + (1 − p)(1 − q) = 1/2 for q: with probability p a down move is
    forced, so the independent phase must move up slightly more often than
    half the time.  q = 1/(2(1 − p)); p ≥ 0.5 is degenerate (q would reach 1).
    """
    p = fear_probability
    if not 0.0 <= p < 0.5:
        raise ValidationError(f"fear probability {p} outside [0, 0.5)")
    return 1.0 / (2.0 * (1.0 - p))


def simulate_market(config: SimConfig) -> SimPanel:
    """Run the model under a fixed seed; bit-identical for identical configs."""
    p = config.fear_probability
    q = derive_up_probability(p)
    delta = config.step_size
    n, t = config.n_stocks, config.n_steps

    rng = np.random.Generator(np.random.PCG64(config.seed))
    fear = rng.random(t) < p
    log_prices = np.zeros((n, t + 1))
    for a in range(0, t, _BLOCK):
        b = min(a + _BLOCK, t)
        up = rng.random((b - a, n)) < q
        up &= ~fear[a:b, None]
        block = log_prices[:, a + 1:b + 1]
        block[...] = np.where(up.T, delta, -delta)
        block[:, 0] += log_prices[:, a]
        np.cumsum(block, axis=1, out=block)
    return SimPanel(config, log_prices, fear)


def build_index(panel: SimPanel) -> np.ndarray:
    """Equal-weight price-average index of a simulated market: the index
    price at step t is the arithmetic mean of the stocks' prices at t.

    Built in blocks that overlap by a column, so none is one column wide
    (numpy sums a lone column pairwise): each column adds the stocks in row
    order, byte for byte as ``np.mean(np.exp(log_prices), axis=0)`` does.
    """
    log_prices = panel.log_prices
    index = np.empty(log_prices.shape[1])
    for a in range(0, len(index) - 1, _BLOCK):
        cols = slice(a, a + _BLOCK + 1)
        np.mean(np.exp(log_prices[:, cols]), axis=0, out=index[cols])
    return index


def _ticker(i: int, n_stocks: int) -> str:
    width = max(2, len(str(n_stocks - 1)))
    return f"S{i:0{width}d}"


def to_aligned_panel(panel: SimPanel) -> AlignedPanel:
    """Dress a SimPanel in real-data clothes: consecutive-day calendar from
    2000-01-03, tickers S00.., index ticker INDEX.  Downstream analysis then
    treats synthetic and ingested panels identically."""
    calendar = _EPOCH + np.arange(panel.n_steps + 1)
    stocks = [PriceSeries(_ticker(i, panel.n_stocks), calendar, np.exp(log_prices))
              for i, log_prices in enumerate(panel.log_prices)]
    # build_index's bytes from the stocks' prices: their sum in row order
    index = PriceSeries("INDEX", calendar, sum(s.closes for s in stocks) / len(stocks))
    return AlignedPanel(calendar, stocks, index)
