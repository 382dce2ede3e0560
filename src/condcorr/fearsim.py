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

Draw order is part of the reproducibility contract: one uniform per step for
the fear flag (a length n_steps vector), then an (n_steps, n_stocks) block of
move uniforms — identical seeds give bit-identical panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulated market run."""

    n_stocks: int
    n_steps: int
    fear_probability: float
    step_size: float
    seed: int

    def __post_init__(self):
        if self.n_stocks < 1:
            raise ValidationError("n_stocks must be >= 1")
        if self.n_steps < 1:
            raise ValidationError("n_steps must be >= 1")
        if not 0.0 <= self.fear_probability < 0.5:
            raise ValidationError(
                f"fear_probability {self.fear_probability} outside [0, 0.5): "
                "at 0.5 the compensating up-probability reaches 1"
            )
        if not self.step_size > 0.0:
            raise ValidationError("step_size must be > 0")


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
    fear_u = rng.random(t)
    move_u = rng.random((t, n))

    fear = fear_u < p
    increments = np.where(move_u < q, delta, -delta)
    increments[fear, :] = -delta

    log_prices = np.zeros((n, t + 1))
    np.cumsum(increments.T, axis=1, out=log_prices[:, 1:])
    return SimPanel(config, log_prices, fear)


def build_index(panel: SimPanel) -> np.ndarray:
    """Equal-weight price-average index of a simulated market: the index
    price at step t is the arithmetic mean of the stocks' prices at t."""
    return np.mean(np.exp(panel.log_prices), axis=0)


def _ticker(i: int, n_stocks: int) -> str:
    width = max(2, len(str(n_stocks - 1)))
    return f"S{i:0{width}d}"


def to_aligned_panel(panel: SimPanel) -> AlignedPanel:
    """Dress a SimPanel in real-data clothes: consecutive-day calendar from
    2000-01-03, tickers S00.., index ticker INDEX.  Downstream analysis then
    treats synthetic and ingested panels identically."""
    calendar = _EPOCH + np.arange(panel.n_steps + 1)
    stocks = [
        PriceSeries(_ticker(i, panel.n_stocks), calendar, np.exp(panel.log_prices[i]))
        for i in range(panel.n_stocks)
    ]
    index = PriceSeries("INDEX", calendar, build_index(panel))
    return AlignedPanel(calendar, stocks, index)
