"""Direction-conditioned market correlation pipeline.

The chain, for a panel of N stocks plus an index:

1. S_(x,y)(t, δt, Δt): windowed Pearson correlation of two stocks' Δt-day
   log returns over days t..t+δt (population moments, δt + 1 samples).
2. S_0(t, δt, Δt): mean of S_(x,y) over all unordered pairs with defined
   correlation — the market component correlation.
3. Conditioning: a time t belongs to the level-ρ set when the index's own
   δt-day log return r_δt(t) satisfies r ≥ ρ (for ρ ≥ 0) or r < ρ (ρ < 0).
4. C_0(ρ, δt, Δt): mean of S_0 over the conditional set.
5. C(ρ, Δt): mean of C_0 over every integer δt in [δt1, δt2]; window sizes
   with an empty set are excluded and counted.

A window's correlation is undefined when either stock's return variance
vanishes; "vanishes" is relative — var ≤ 1e−12 × mean-square — so constant
windows stay undefined under floating-point noise.  Undefined pairs are
dropped from the S_0 mean, never treated as zero.

Every correlation entry point runs through one window kernel.  It gathers
the windows at the requested starts time-major, as (c, δt + 1, N) blocks,
takes each stock's two-pass mean and variance, and z-scores the window
(zero where undefined), so S_(x,y) = z_x·z_y / (δt + 1).  S_0 then costs
O(N·δt) per window through Σ_(x≠y) z_x·z_y = ‖Σ_x z_x‖² − Σ_x ‖z_x‖², and
the per-pair sums behind χ are one matrix product Zᵀ Z over the stacked
member windows, with the pair counts Dᵀ D over the definedness flags D.
The sweep gathers windows only at conditional member times, so cost scales
with the member count rather than the series length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .timeseries import AlignedPanel

__all__ = [
    "PairCorrelationSeries",
    "MarketCorrelationSeries",
    "ConditionalSet",
    "CurvePoint",
    "CorrelationCurve",
    "ChiSample",
    "PairConditional",
    "ChiReport",
    "TimeResolvedCorrelation",
    "PanelAnalysis",
    "pair_correlation",
    "pair_correlation_series",
    "market_component_correlation",
    "market_correlation_series",
    "index_condition_returns",
    "conditional_select",
    "conditional_market_correlation",
    "average_over_windows",
    "correlation_curve",
    "pair_conditional_correlation",
    "relative_difference_chi",
    "chi_distribution",
    "time_resolved_correlation",
    "analyze_panel",
]

# variance at or below mean-square × this is treated as zero volatility
_REL_VAR_FLOOR = 1e-12
_CHUNK = 512

DEFAULT_WINDOW_RANGE = (10, 35)
DEFAULT_EPSILON = 1e-6
DEFAULT_MIN_SAMPLES = 10


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class PairCorrelationSeries:
    """S_(x,y) for every valid window start; NaN marks undefined windows."""

    pair: tuple[str, str]
    window_span: int
    horizon: int
    values: np.ndarray

    @property
    def undefined_count(self) -> int:
        return int(np.sum(np.isnan(self.values)))


@dataclass(frozen=True)
class MarketCorrelationSeries:
    """S_0 for every valid window start; pair_counts gives defined pairs per t."""

    window_span: int
    horizon: int
    values: np.ndarray
    pair_counts: np.ndarray


@dataclass(frozen=True)
class ConditionalSet:
    """Times (and matching values) whose index return clears the level."""

    level: float
    member_times: np.ndarray
    member_values: np.ndarray
    undefined_skipped: int = 0

    def __len__(self) -> int:
        return len(self.member_times)


@dataclass(frozen=True)
class CurvePoint:
    """One C(ρ, Δt) value with its conditioning statistics.

    sample_count totals the conditional members over all window sizes;
    excluded_windows counts δt values that contributed no members; stderr is
    a dependence-conservative standard error: within one δt the member
    variance is inflated by δt + 1 because overlapping windows share days,
    and across δt the per-window SEs are averaged in quadrature with no
    reduction for the δt count, since every window size reuses the same
    days.  flagged marks points below the min_samples bar.
    """

    rho: float
    value: float
    sample_count: int
    excluded_windows: int
    stderr: float | None = None
    flagged: bool = False


@dataclass(frozen=True)
class CorrelationCurve:
    horizon: int
    window_range: tuple[int, int]
    points: tuple[CurvePoint, ...]

    def point(self, rho: float) -> CurvePoint | None:
        for p in self.points:
            if p.rho == rho:
                return p
        return None


@dataclass(frozen=True)
class ChiSample:
    """Per-pair relative conditional-correlation difference χ_ρ."""

    pair: tuple[str, str]
    level: float
    chi: float


@dataclass(frozen=True)
class PairConditional:
    """One pair's C_(x,y) at −|ρ| and +|ρ| with the member counts behind them."""

    pair: tuple[str, str]
    c_minus: float | None
    c_plus: float | None
    count_minus: int
    count_plus: int


@dataclass(frozen=True)
class ChiReport:
    level_abs: float
    horizon: int
    window_range: tuple[int, int]
    pairs: tuple[PairConditional, ...]
    samples: tuple[ChiSample, ...]
    excluded_denominator: int
    excluded_missing: int
    epsilon: float


@dataclass(frozen=True)
class TimeResolvedCorrelation:
    """C_t(ρ, Δt): per-time mean of S_0 over the window sizes where t qualifies."""

    level: float
    horizon: int
    window_range: tuple[int, int]
    times: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class PanelAnalysis:
    curve: CorrelationCurve
    chi: dict[float, ChiReport]
    time_resolved: dict[float, TimeResolvedCorrelation]


# ---------------------------------------------------------------------------
# shared precomputation and the member-gather sweep


def _check_horizon(panel: AlignedPanel, horizon: int):
    if horizon < 1:
        raise ValidationError("horizon must be >= 1 trading day")
    if panel.n_days <= horizon:
        raise ValidationError(
            f"panel of {panel.n_days} days too short for horizon {horizon}"
        )


def _check_window_range(window_range: tuple[int, int]):
    dt1, dt2 = window_range
    if not (1 <= dt1 < dt2):
        raise ValidationError(
            f"window range must satisfy 1 <= dt1 < dt2, got ({dt1}, {dt2})"
        )


class _PanelEngine:
    """Time-major return matrix and index log prices for one (panel, Δt)."""

    def __init__(self, panel: AlignedPanel, horizon: int):
        _check_horizon(panel, horizon)
        self.panel = panel
        self.horizon = horizon
        logm = panel.log_close_matrix
        # time-major, so each gathered window is one contiguous (m, N) block
        self.returns = np.ascontiguousarray((logm[:, horizon:] - logm[:, :-horizon]).T)
        self.n_returns, self.n_stocks = self.returns.shape
        self.index_log = panel.index_log_closes

    def n_starts(self, span: int) -> int:
        return max(self.n_returns - span, 0)

    def condition_returns(self, span: int) -> np.ndarray:
        """Index log return over [t, t+span] for each valid window start."""
        n_t = self.n_starts(span)
        return self.index_log[span: span + n_t] - self.index_log[:n_t]


def _zscored_windows(returns: np.ndarray, starts: np.ndarray, span: int):
    """Yield (chunk_slice, z, defined) over the windows at ``starts``.

    ``returns`` is time-major (days, N).  z is (c, span + 1, N): each
    column's window minus its mean, divided by its population sd, and zero
    where the window is undefined; defined is (c, N).  Moments are two-pass
    over the window alone, so rounding does not grow with the series length.
    """
    offsets = np.arange(span + 1)
    for lo in range(0, len(starts), _CHUNK):
        sel = slice(lo, min(lo + _CHUNK, len(starts)))
        z = returns[starts[sel, None] + offsets]
        mean = z.mean(axis=1, keepdims=True)
        z -= mean
        var = np.einsum("cmn,cmn->cn", z, z) / (span + 1)
        defined = var > (var + mean[:, 0] ** 2) * _REL_VAR_FLOOR
        sd = np.sqrt(np.where(defined, var, 1.0))
        z *= (defined / sd)[:, None, :]
        yield sel, z, defined


def _market_s0(z: np.ndarray, defined: np.ndarray):
    """S_0 per window (NaN where no pair is defined) and its defined-pair count.

    Σ_(x≠y) z_x·z_y = ‖Σ_x z_x‖² − Σ_x ‖z_x‖², so the pair mean costs O(N·m)
    per window without forming the N×N correlation matrix.
    """
    total = z.sum(axis=2)
    off_diagonal = np.einsum("cm,cm->c", total, total) - np.einsum("cmn,cmn->c", z, z)
    d = defined.sum(axis=1, dtype=np.int64)
    n_pairs = d * (d - 1) // 2
    s0 = np.full(len(d), np.nan)
    have = n_pairs > 0
    s0[have] = off_diagonal[have] / z.shape[1] / 2.0 / n_pairs[have]
    return s0, n_pairs


def _market_values(returns: np.ndarray, starts: np.ndarray, span: int):
    """S_0 and defined-pair counts at each start, as _market_s0 gives them."""
    s0 = np.empty(len(starts))
    n_pairs = np.empty(len(starts), dtype=np.int64)
    for sel, z, defined in _zscored_windows(returns, starts, span):
        s0[sel], n_pairs[sel] = _market_s0(z, defined)
    return s0, n_pairs


def _pair_values(pair_returns: np.ndarray, starts: np.ndarray, span: int) -> np.ndarray:
    """S_(x,y) at each start from the (days, 2) returns of x and y; NaN where
    either window is undefined."""
    values = np.empty(len(starts))
    for sel, z, defined in _zscored_windows(pair_returns, starts, span):
        s = np.einsum("cm,cm->c", z[:, :, 0], z[:, :, 1]) / (span + 1)
        values[sel] = np.where(defined.all(axis=1), s, np.nan)
    return values


def _membership(cond_returns: np.ndarray, level: float) -> np.ndarray:
    # ρ = 0 belongs to the non-negative branch
    if level < 0.0:
        return cond_returns < level
    return cond_returns >= level


@dataclass
class _LevelAccumulator:
    level: float
    track_pairs: bool
    track_time: bool
    n_stocks: int
    n_times: int

    def __post_init__(self):
        n = self.n_stocks
        self.span_counts: list[int] = []
        self.span_means: list[float] = []
        self.span_se2: list[float] = []
        if self.track_pairs:
            self.pair_num = np.zeros((n, n))
            self.pair_den = np.zeros((n, n), dtype=np.int64)
            self.pair_members = np.zeros((n, n), dtype=np.int64)
        if self.track_time:
            self.time_num = np.zeros(self.n_times)
            self.time_den = np.zeros(self.n_times, dtype=np.int64)


def _sweep(engine: _PanelEngine, spans: Iterable[int],
           accumulators: list[_LevelAccumulator]):
    """One pass over all window sizes, visiting only conditional members."""
    n = engine.n_stocks
    for span in spans:
        n_t = engine.n_starts(span)
        if n_t == 0:
            for acc in accumulators:
                acc.span_counts.append(0)
                acc.span_means.append(np.nan)
                acc.span_se2.append(np.nan)
            continue
        cond = engine.condition_returns(span)
        masks = [_membership(cond, acc.level) for acc in accumulators]
        union = np.zeros(n_t, dtype=bool)
        for mask in masks:
            union |= mask
        starts = np.nonzero(union)[0]

        sums = np.zeros(len(accumulators))
        sumsqs = np.zeros(len(accumulators))
        counts = np.zeros(len(accumulators), dtype=np.int64)
        # per-pair Σ z_x·z_y and defined-window counts over the members
        span_psum = [np.zeros((n, n)) if a.track_pairs else None for a in accumulators]
        span_pcnt = [np.zeros((n, n)) if a.track_pairs else None for a in accumulators]

        for sel, z, defined in _zscored_windows(engine.returns, starts, span):
            s0, n_pairs = _market_s0(z, defined)
            s0_def = n_pairs > 0
            chunk_starts = starts[sel]
            for i, acc in enumerate(accumulators):
                memb = masks[i][chunk_starts]
                use = memb & s0_def
                if np.any(use):
                    vals = s0[use]
                    sums[i] += vals.sum()
                    sumsqs[i] += (vals * vals).sum()
                    counts[i] += len(vals)
                    if acc.track_time:
                        np.add.at(acc.time_num, chunk_starts[use], vals)
                        np.add.at(acc.time_den, chunk_starts[use], 1)
                if acc.track_pairs and np.any(memb):
                    stacked = z[memb].reshape(-1, n)
                    flags = defined[memb].astype(np.float64)
                    span_psum[i] += stacked.T @ stacked
                    span_pcnt[i] += flags.T @ flags

        for i, acc in enumerate(accumulators):
            c = int(counts[i])
            acc.span_counts.append(c)
            if c > 0:
                mean = sums[i] / c
                acc.span_means.append(mean)
                if c > 1:
                    var = max(sumsqs[i] / c - mean * mean, 0.0)
                    # adjacent member windows share span of their span+1
                    # days, so the mean's variance shrinks roughly like
                    # var×(span+1)/count, not var/count
                    acc.span_se2.append(var * (span + 1) / (c - 1))
                else:
                    acc.span_se2.append(np.nan)
            else:
                acc.span_means.append(np.nan)
                acc.span_se2.append(np.nan)
            if acc.track_pairs:
                has = span_pcnt[i] > 0
                acc.pair_num[has] += span_psum[i][has] / (span + 1) / span_pcnt[i][has]
                acc.pair_den[has] += 1
                acc.pair_members += span_pcnt[i].astype(np.int64)


def _curve_point(acc: _LevelAccumulator, min_samples: int) -> CurvePoint | None:
    counts = np.asarray(acc.span_counts)
    means = np.asarray(acc.span_means)
    se2 = np.asarray(acc.span_se2)
    have = counts > 0
    if not np.any(have):
        return None
    value = float(np.mean(means[have]))
    total = int(counts.sum())
    se_ok = np.isfinite(se2)
    stderr = float(np.sqrt(np.mean(se2[se_ok]))) if np.any(se_ok) else None
    return CurvePoint(
        rho=acc.level,
        value=value,
        sample_count=total,
        excluded_windows=int(np.sum(~have)),
        stderr=stderr,
        flagged=total < min_samples,
    )


# ---------------------------------------------------------------------------
# definitional (single-window) operations


def _resolve(panel: AlignedPanel, stock) -> int:
    return stock if isinstance(stock, (int, np.integer)) else panel.stock_index(stock)


def _check_start(engine: _PanelEngine, t: int, window_span: int):
    if window_span < 1:
        raise ValidationError("window span must be >= 1")
    if t < 0 or t >= engine.n_starts(window_span):
        raise ValidationError(
            f"window start {t} outside [0, {engine.n_starts(window_span)})"
        )


def _check_span(engine: _PanelEngine, window_span: int) -> int:
    """Number of valid starts; raises when the span leaves none."""
    if window_span < 1:
        raise ValidationError("window span must be >= 1")
    n_t = engine.n_starts(window_span)
    if n_t == 0:
        raise ValidationError(
            f"window span {window_span} leaves no valid starts "
            f"({engine.n_returns} returns)"
        )
    return n_t


def pair_correlation(panel: AlignedPanel, x, y, t: int, window_span: int,
                     horizon: int = 1) -> float | None:
    """S_(x,y)(t, δt, Δt) for one window; None when either volatility is zero.

    x == y is tolerated (gives 1.0 when defined) so test harnesses can probe
    the self-correlation identity.
    """
    engine = _PanelEngine(panel, horizon)
    _check_start(engine, t, window_span)
    pair_returns = engine.returns[:, [_resolve(panel, x), _resolve(panel, y)]]
    value = float(_pair_values(pair_returns, np.array([t]), window_span)[0])
    return None if np.isnan(value) else value


def pair_correlation_series(panel: AlignedPanel, x, y, window_span: int,
                            horizon: int = 1) -> PairCorrelationSeries:
    """S_(x,y) at every valid start (vectorized); NaN marks undefined windows."""
    engine = _PanelEngine(panel, horizon)
    n_t = _check_span(engine, window_span)
    xi, yi = _resolve(panel, x), _resolve(panel, y)
    values = _pair_values(engine.returns[:, [xi, yi]], np.arange(n_t), window_span)
    name = (x if isinstance(x, str) else panel.tickers[xi],
            y if isinstance(y, str) else panel.tickers[yi])
    return PairCorrelationSeries(name, window_span, horizon, values)


def market_component_correlation(panel: AlignedPanel, t: int, window_span: int,
                                 horizon: int = 1) -> tuple[float, int] | None:
    """S_0(t, δt, Δt) and its defined-pair count; None when no pair is defined."""
    engine = _PanelEngine(panel, horizon)
    _check_start(engine, t, window_span)
    s0, n_pairs = _market_values(engine.returns, np.array([t]), window_span)
    if n_pairs[0] == 0:
        return None
    return float(s0[0]), int(n_pairs[0])


def market_correlation_series(panel: AlignedPanel, window_span: int,
                              horizon: int = 1) -> MarketCorrelationSeries:
    """S_0 at every valid start; NaN where no pair is defined."""
    engine = _PanelEngine(panel, horizon)
    n_t = _check_span(engine, window_span)
    values, pair_counts = _market_values(engine.returns, np.arange(n_t), window_span)
    return MarketCorrelationSeries(window_span, horizon, values, pair_counts)


def index_condition_returns(panel: AlignedPanel, window_span: int,
                            horizon: int = 1) -> np.ndarray:
    """r_δt(t): the index's own return over each correlation window.

    Trimmed to the same valid starts as the matching correlation series, so
    the two share a time index.
    """
    engine = _PanelEngine(panel, horizon)
    return engine.condition_returns(window_span)


def conditional_select(s0_values, index_returns, level: float,
                       branch: str | None = None) -> ConditionalSet:
    """Times whose index return satisfies the level-ρ condition.

    The branch follows the sign of ``level`` (≥ for ρ ≥ 0, < for ρ < 0);
    pass ``branch="ge"`` or ``"lt"`` to override — used e.g. to split at
    ρ = 0 into the two complementary sets.  NaN values (undefined windows)
    are skipped and counted.
    """
    values = np.asarray(getattr(s0_values, "values", s0_values), dtype=np.float64)
    returns = np.asarray(index_returns, dtype=np.float64)
    if values.shape != returns.shape:
        raise ValidationError(
            f"series of {values.shape} vs index returns of {returns.shape}"
        )
    if branch is None:
        mask = _membership(returns, level)
    elif branch == "ge":
        mask = returns >= level
    elif branch == "lt":
        mask = returns < level
    else:
        raise ValidationError(f"unknown branch {branch!r}")
    have = ~np.isnan(values)
    keep = mask & have
    return ConditionalSet(
        level=level,
        member_times=np.nonzero(keep)[0],
        member_values=values[keep],
        undefined_skipped=int(np.sum(mask & ~have)),
    )


def conditional_market_correlation(panel: AlignedPanel, level: float,
                                   window_span: int, horizon: int = 1
                                   ) -> tuple[float, int] | None:
    """C_0(ρ, δt, Δt) and the member count; None when the set is empty."""
    engine = _PanelEngine(panel, horizon)
    _check_span(engine, window_span)
    starts = np.nonzero(_membership(engine.condition_returns(window_span), level))[0]
    s0, _ = _market_values(engine.returns, starts, window_span)
    s0 = s0[~np.isnan(s0)]
    if len(s0) == 0:
        return None
    return float(np.mean(s0)), len(s0)


def average_over_windows(panel: AlignedPanel, level: float,
                         window_range: tuple[int, int] = DEFAULT_WINDOW_RANGE,
                         horizon: int = 1,
                         min_samples: int = DEFAULT_MIN_SAMPLES) -> CurvePoint | None:
    """C(ρ, Δt): mean of C_0 over integer δt in [δt1, δt2]; None when no
    window size has members."""
    analysis = analyze_panel(panel, (level,), window_range, horizon,
                             min_samples=min_samples)
    return analysis.curve.point(level)


def correlation_curve(panel: AlignedPanel, rho_grid: Sequence[float],
                      window_range: tuple[int, int] = DEFAULT_WINDOW_RANGE,
                      horizon: int = 1,
                      min_samples: int = DEFAULT_MIN_SAMPLES) -> CorrelationCurve:
    """C(ρ, Δt) over a signed grid; grid must probe both branches."""
    levels = sorted(set(float(r) for r in rho_grid))
    if not levels:
        raise ValidationError("rho grid is empty")
    if not (any(r < 0 for r in levels) and any(r >= 0 for r in levels)):
        raise ValidationError("rho grid must contain both a ρ < 0 and a ρ ≥ 0 level")
    analysis = analyze_panel(panel, levels, window_range, horizon,
                             chi_levels=(), ct_levels=(), min_samples=min_samples)
    return analysis.curve


def pair_conditional_correlation(panel: AlignedPanel, x, y, level: float,
                                 window_range: tuple[int, int] = DEFAULT_WINDOW_RANGE,
                                 horizon: int = 1) -> CurvePoint | None:
    """C_(x,y)(ρ, Δt): the conditional pipeline with one pair's S in place of S_0."""
    _check_window_range(window_range)
    engine = _PanelEngine(panel, horizon)
    pair_returns = engine.returns[:, [_resolve(panel, x), _resolve(panel, y)]]
    span_means = []
    counts = []
    excluded = 0
    for span in range(window_range[0], window_range[1] + 1):
        _check_span(engine, span)
        starts = np.nonzero(_membership(engine.condition_returns(span), level))[0]
        values = _pair_values(pair_returns, starts, span)
        values = values[~np.isnan(values)]
        if len(values) == 0:
            excluded += 1
            continue
        span_means.append(float(np.mean(values)))
        counts.append(len(values))
    if not span_means:
        return None
    return CurvePoint(
        rho=level,
        value=float(np.mean(span_means)),
        sample_count=int(sum(counts)),
        excluded_windows=excluded,
    )


def relative_difference_chi(c_minus: float, c_plus: float,
                            epsilon: float = DEFAULT_EPSILON) -> float | None:
    """χ_ρ = (C(−|ρ|) − C(+|ρ|)) / |C(+|ρ|)|; None when the denominator is
    within ``epsilon`` of zero (excluded sample)."""
    if abs(c_plus) <= epsilon:
        return None
    return (c_minus - c_plus) / abs(c_plus)


def chi_distribution(panel: AlignedPanel, level_abs: float,
                     window_range: tuple[int, int] = DEFAULT_WINDOW_RANGE,
                     horizon: int = 1,
                     epsilon: float = DEFAULT_EPSILON) -> ChiReport:
    """Per-pair χ_ρ over every unordered stock pair at one |ρ|."""
    if level_abs <= 0:
        raise ValidationError("chi level must be a positive magnitude")
    analysis = analyze_panel(panel, rho_grid=(-abs(level_abs), abs(level_abs)),
                             window_range=window_range, horizon=horizon,
                             chi_levels=(abs(level_abs),), ct_levels=())
    return analysis.chi[abs(level_abs)]


def time_resolved_correlation(panel: AlignedPanel, level: float,
                              window_range: tuple[int, int] = DEFAULT_WINDOW_RANGE,
                              horizon: int = 1) -> TimeResolvedCorrelation:
    """C_t(ρ, Δt) samples: for each time qualifying under at least one δt,
    the mean of S_0(t, δt) over the qualifying window sizes."""
    analysis = analyze_panel(panel, (), window_range, horizon, ct_levels=(level,))
    return analysis.time_resolved[float(level)]


def _chi_report(panel: AlignedPanel, acc_minus: _LevelAccumulator,
                acc_plus: _LevelAccumulator, level_abs: float, horizon: int,
                window_range: tuple[int, int], epsilon: float) -> ChiReport:
    tickers = panel.tickers
    iu, ju = np.triu_indices(len(tickers), k=1)
    pairs = []
    samples = []
    small_denom = 0
    missing = 0
    for i, j in zip(iu, ju):
        dm, dp = int(acc_minus.pair_den[i, j]), int(acc_plus.pair_den[i, j])
        c_minus = float(acc_minus.pair_num[i, j] / dm) if dm else None
        c_plus = float(acc_plus.pair_num[i, j] / dp) if dp else None
        pc = PairConditional(
            pair=(tickers[i], tickers[j]),
            c_minus=c_minus, c_plus=c_plus,
            count_minus=int(acc_minus.pair_members[i, j]),
            count_plus=int(acc_plus.pair_members[i, j]),
        )
        pairs.append(pc)
        if c_minus is None or c_plus is None:
            missing += 1
            continue
        chi = relative_difference_chi(c_minus, c_plus, epsilon)
        if chi is None:
            small_denom += 1
        else:
            samples.append(ChiSample(pc.pair, level_abs, chi))
    return ChiReport(
        level_abs=level_abs, horizon=horizon, window_range=tuple(window_range),
        pairs=tuple(pairs), samples=tuple(samples),
        excluded_denominator=small_denom, excluded_missing=missing,
        epsilon=epsilon,
    )


def analyze_panel(panel: AlignedPanel, rho_grid: Sequence[float],
                  window_range: tuple[int, int] = DEFAULT_WINDOW_RANGE,
                  horizon: int = 1,
                  chi_levels: Sequence[float] = (),
                  ct_levels: Sequence[float] = (),
                  min_samples: int = DEFAULT_MIN_SAMPLES,
                  epsilon: float = DEFAULT_EPSILON) -> PanelAnalysis:
    """Run curve, per-pair χ, and time-resolved analyses in one sweep.

    chi_levels are |ρ| magnitudes (each expands to a ± pair of conditional
    runs); ct_levels are signed.  All requested levels share the window
    gathering, so adding analyses is nearly free.
    """
    _check_window_range(window_range)
    engine = _PanelEngine(panel, horizon)

    chi_levels = tuple(abs(float(l)) for l in chi_levels)
    for lev in chi_levels:
        if lev <= 0:
            raise ValidationError("chi levels must be positive magnitudes")
    ct_levels = tuple(float(l) for l in ct_levels)
    curve_levels = sorted(set(float(r) for r in rho_grid))

    tracked: dict[float, dict] = {}
    for lev in curve_levels:
        tracked.setdefault(lev, {"pairs": False, "time": False})
    for lev in chi_levels:
        for signed in (lev, -lev):
            tracked.setdefault(signed, {"pairs": False, "time": False})
            tracked[signed]["pairs"] = True
    for lev in ct_levels:
        tracked.setdefault(lev, {"pairs": False, "time": False})
        tracked[lev]["time"] = True

    order = sorted(tracked)
    accs = [
        _LevelAccumulator(lev, track_pairs=tracked[lev]["pairs"],
                          track_time=tracked[lev]["time"],
                          n_stocks=engine.n_stocks, n_times=engine.n_returns)
        for lev in order
    ]
    by_level = dict(zip(order, accs))
    _sweep(engine, range(window_range[0], window_range[1] + 1), accs)

    points = []
    for lev in curve_levels:
        point = _curve_point(by_level[lev], min_samples)
        if point is not None:
            points.append(point)
    curve = CorrelationCurve(horizon=horizon, window_range=tuple(window_range),
                             points=tuple(points))

    chi = {
        lev: _chi_report(panel, by_level[-lev], by_level[lev], lev, horizon,
                         window_range, epsilon)
        for lev in chi_levels
    }

    time_resolved = {}
    for lev in ct_levels:
        acc = by_level[lev]
        have = acc.time_den > 0
        times = np.nonzero(have)[0]
        time_resolved[lev] = TimeResolvedCorrelation(
            level=lev, horizon=horizon, window_range=tuple(window_range),
            times=times, values=acc.time_num[have] / acc.time_den[have],
        )

    return PanelAnalysis(curve=curve, chi=chi, time_resolved=time_resolved)
