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

Every conditional result comes from one sweep.  For one sign the level
sets are nested half-lines in r, so per δt each window falls in one band,
b = the number of requested levels ≤ r; level i holds the bands b ≤ i when
ρ_i < 0 and b > i when ρ_i ≥ 0 (which keeps ρ = 0 and exact ties on the
branches of step 3).  The sweep gathers each window that some level holds
once, takes the member counts and the S_0 sums, and the Zᵀ Z and Dᵀ D of
the χ levels, per band, and maps bands to levels with that 0/1 matrix.
Its cost therefore scales with the member windows, not with the series
length or the number of levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def _n_starts(panel: AlignedPanel, horizon: int, span: int) -> int:
    return max(panel.n_days - horizon - span, 0)


def _check_span(panel: AlignedPanel, horizon: int, window_span: int,
                t: int | None = None) -> int:
    """Number of valid starts; raises when the span leaves none or, given a
    start ``t``, when t is not one of them."""
    _check_horizon(panel, horizon)
    if window_span < 1:
        raise ValidationError("window span must be >= 1")
    n_t = _n_starts(panel, horizon, window_span)
    if t is not None and not 0 <= t < n_t:
        raise ValidationError(f"window start {t} outside [0, {n_t})")
    if n_t == 0:
        raise ValidationError(
            f"window span {window_span} leaves no valid starts "
            f"({panel.n_days - horizon} returns)"
        )
    return n_t


def _returns(panel: AlignedPanel, horizon: int, columns=slice(None), first: int = 0,
             n: int | None = None) -> np.ndarray:
    """Δt-day log returns of the chosen stocks at the ``n`` starts from day
    ``first`` (through the panel's end by default), time-major so each
    gathered window is one contiguous (m, N) block."""
    if n is None:
        n = panel.n_days - horizon - first
    logm = panel.log_close_matrix[columns, first: first + n + horizon]
    return np.ascontiguousarray((logm[:, horizon:] - logm[:, :n]).T)


def _condition_returns(panel: AlignedPanel, horizon: int, span: int) -> np.ndarray:
    """Index log return over [t, t+span] for each valid window start."""
    n_t = _n_starts(panel, horizon, span)
    index_log = panel.index_log_closes
    return index_log[span: span + n_t] - index_log[:n_t]


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


@dataclass(frozen=True)
class _SweepSums:
    """Member sums of one sweep over the window sizes ``spans``.

    counts, sums and sumsqs are (n_spans, n_levels): the members with a
    defined S_0, and Σ S_0 and Σ S_0² over them.  pair_num, pair_den and
    pair_members are (n_pair_levels, N, N): the sum over δt of each pair's
    member mean, the δt count behind it, and the member windows where the
    pair is defined.  time_num and time_den are (n_time_levels, n_returns):
    Σ S_0(t) over the δt where t is a member, and that δt count.
    """

    spans: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    sumsqs: np.ndarray
    pair_num: np.ndarray
    pair_den: np.ndarray
    pair_members: np.ndarray
    time_num: np.ndarray
    time_den: np.ndarray


def _sweep(panel: AlignedPanel, horizon: int, spans: Sequence[int],
           levels: Sequence[float], pair_levels: Sequence[float] = (),
           time_levels: Sequence[float] = (), columns=slice(None)) -> _SweepSums:
    """One pass over all window sizes that gathers each member window once.

    ``levels`` are sorted and distinct; ``pair_levels`` and ``time_levels``
    name those that also need per-pair and per-time sums.  Per δt a window
    falls in band b, the number of levels ≤ its index return r.  Level i
    holds the bands b ≤ i when ρ_i < 0 (r < ρ_i) and b > i otherwise
    (r ≥ ρ_i), so every sum is taken per band and mapped to the levels by
    that 0/1 matrix.
    """
    returns = _returns(panel, horizon, columns)
    n_returns, n = returns.shape
    levels = np.asarray(levels, dtype=np.float64)
    n_bands = len(levels) + 1
    band_ids = np.arange(n_bands)[:, None]
    level_ids = np.arange(len(levels))
    member = np.where(levels < 0.0, band_ids <= level_ids, band_ids > level_ids)
    column = {lev: i for i, lev in enumerate(levels.tolist())}
    pair_member = member[:, [column[lev] for lev in pair_levels]]
    time_member = member[:, [column[lev] for lev in time_levels]]
    gathered = member.any(axis=1)
    pair_band = pair_member.any(axis=1)
    pair_row = np.cumsum(pair_band) - 1  # a pair band's row in band_psum

    spans = np.asarray(spans)
    counts = np.zeros((len(spans), len(levels)), dtype=np.int64)
    sums = np.zeros(counts.shape)
    sumsqs = np.zeros(counts.shape)
    pair_num = np.zeros((len(pair_levels), n, n))
    pair_den = np.zeros(pair_num.shape, dtype=np.int64)
    pair_members = np.zeros(pair_num.shape, dtype=np.int64)
    time_num = np.zeros((len(time_levels), n_returns))
    time_den = np.zeros(time_num.shape, dtype=np.int64)

    for k, span in enumerate(spans):
        band = np.searchsorted(levels, _condition_returns(panel, horizon, span),
                               side="right")
        starts = np.nonzero(gathered[band])[0]
        # band-major (t order within a band), so a chunk spans few bands
        starts = starts[np.argsort(band[starts], kind="stable")]
        band_count = np.zeros(n_bands, dtype=np.int64)
        band_sum = np.zeros(n_bands)
        band_sumsq = np.zeros(n_bands)
        # Σ z_x·z_y and defined-window counts per band that a pair level holds
        band_psum = np.zeros((pair_row[-1] + 1, n, n))
        band_pcnt = np.zeros(band_psum.shape)
        for sel, z, defined in _zscored_windows(returns, starts, span):
            s0, n_pairs = _market_s0(z, defined)
            b = band[starts[sel]]
            use = n_pairs > 0
            vals, b_use, t_use = s0[use], b[use], starts[sel][use]
            band_count += np.bincount(b_use, minlength=n_bands)
            band_sum += np.bincount(b_use, vals, n_bands)
            band_sumsq += np.bincount(b_use, vals * vals, n_bands)
            in_level = time_member[b_use].T
            time_num[:, t_use] += in_level * vals
            time_den[:, t_use] += in_level
            for j in np.unique(b[pair_band[b]]):
                rows = b == j
                stacked = z[rows].reshape(-1, n)
                flags = defined[rows].astype(np.float64)
                band_psum[pair_row[j]] += stacked.T @ stacked
                band_pcnt[pair_row[j]] += flags.T @ flags
        counts[k] = band_count @ member
        sums[k] = band_sum @ member
        sumsqs[k] = band_sumsq @ member
        psum = np.tensordot(pair_member[pair_band].T, band_psum, axes=1)
        pcnt = np.tensordot(pair_member[pair_band].T, band_pcnt, axes=1)
        has = pcnt > 0
        pair_num[has] += psum[has] / (span + 1) / pcnt[has]
        pair_den += has
        pair_members += pcnt.astype(np.int64)
    return _SweepSums(spans, counts, sums, sumsqs, pair_num, pair_den, pair_members,
                      time_num, time_den)


def _span_average(sums: _SweepSums, i: int):
    """(mean over δt of the member means, member total, δt without members,
    standard error) for level i of a sweep; None when no δt has members."""
    counts, level_sums = sums.counts[:, i], sums.sums[:, i]
    have, ok = counts > 0, counts > 1
    if not np.any(have):
        return None
    mean = level_sums[ok] / counts[ok]
    var = np.maximum(sums.sumsqs[ok, i] / counts[ok] - mean * mean, 0.0)
    # adjacent member windows share span of their span+1 days, so the mean's
    # variance shrinks roughly like var×(span+1)/count, not var/count
    se2 = var * (sums.spans[ok] + 1) / (counts[ok] - 1)
    return (float(np.mean(level_sums[have] / counts[have])), int(counts.sum()),
            int(np.sum(~have)), float(np.sqrt(np.mean(se2))) if np.any(ok) else None)


# ---------------------------------------------------------------------------
# definitional (single-window) operations


def _resolve(panel: AlignedPanel, stock) -> int:
    return stock if isinstance(stock, (int, np.integer)) else panel.stock_index(stock)


def pair_correlation(panel: AlignedPanel, x, y, t: int, window_span: int,
                     horizon: int = 1) -> float | None:
    """S_(x,y)(t, δt, Δt) for one window; None when either volatility is zero.

    x == y is tolerated (gives 1.0 when defined) so test harnesses can probe
    the self-correlation identity.
    """
    _check_span(panel, horizon, window_span, t)
    columns = [_resolve(panel, x), _resolve(panel, y)]
    pair_returns = _returns(panel, horizon, columns, t, window_span + 1)
    value = float(_pair_values(pair_returns, np.array([0]), window_span)[0])
    return None if np.isnan(value) else value


def pair_correlation_series(panel: AlignedPanel, x, y, window_span: int,
                            horizon: int = 1) -> PairCorrelationSeries:
    """S_(x,y) at every valid start (vectorized); NaN marks undefined windows."""
    n_t = _check_span(panel, horizon, window_span)
    xi, yi = _resolve(panel, x), _resolve(panel, y)
    values = _pair_values(_returns(panel, horizon, [xi, yi]), np.arange(n_t), window_span)
    name = (x if isinstance(x, str) else panel.tickers[xi],
            y if isinstance(y, str) else panel.tickers[yi])
    return PairCorrelationSeries(name, window_span, horizon, values)


def market_component_correlation(panel: AlignedPanel, t: int, window_span: int,
                                 horizon: int = 1) -> tuple[float, int] | None:
    """S_0(t, δt, Δt) and its defined-pair count; None when no pair is defined."""
    _check_span(panel, horizon, window_span, t)
    returns = _returns(panel, horizon, first=t, n=window_span + 1)
    s0, n_pairs = _market_values(returns, np.array([0]), window_span)
    if n_pairs[0] == 0:
        return None
    return float(s0[0]), int(n_pairs[0])


def market_correlation_series(panel: AlignedPanel, window_span: int,
                              horizon: int = 1) -> MarketCorrelationSeries:
    """S_0 at every valid start; NaN where no pair is defined."""
    n_t = _check_span(panel, horizon, window_span)
    values, pair_counts = _market_values(_returns(panel, horizon), np.arange(n_t),
                                         window_span)
    return MarketCorrelationSeries(window_span, horizon, values, pair_counts)


def index_condition_returns(panel: AlignedPanel, window_span: int,
                            horizon: int = 1) -> np.ndarray:
    """r_δt(t): the index's own return over each correlation window.

    Trimmed to the same valid starts as the matching correlation series, so
    the two share a time index.
    """
    _check_span(panel, horizon, window_span)
    return _condition_returns(panel, horizon, window_span)


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
        # ρ = 0 belongs to the non-negative branch
        branch = "lt" if level < 0.0 else "ge"
    if branch == "ge":
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
    _check_span(panel, horizon, window_span)
    average = _span_average(_sweep(panel, horizon, [window_span], [level]), 0)
    return None if average is None else average[:2]


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
    _check_span(panel, horizon, window_range[1])
    # over the two columns x and y, S_0 is S_(x,y)
    columns = [_resolve(panel, x), _resolve(panel, y)]
    sums = _sweep(panel, horizon, range(window_range[0], window_range[1] + 1), [level],
                  columns=columns)
    average = _span_average(sums, 0)
    if average is None:
        return None
    value, total, excluded, _ = average
    return CurvePoint(rho=level, value=value, sample_count=total,
                      excluded_windows=excluded)


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


def _chi_report(panel: AlignedPanel, sums: _SweepSums, minus: int, plus: int,
                level_abs: float, horizon: int, window_range: tuple[int, int],
                epsilon: float) -> ChiReport:
    tickers = panel.tickers
    iu, ju = np.triu_indices(len(tickers), k=1)
    pairs = []
    samples = []
    small_denom = 0
    missing = 0
    for i, j in zip(iu, ju):
        dm, dp = int(sums.pair_den[minus, i, j]), int(sums.pair_den[plus, i, j])
        c_minus = float(sums.pair_num[minus, i, j] / dm) if dm else None
        c_plus = float(sums.pair_num[plus, i, j] / dp) if dp else None
        pc = PairConditional(
            pair=(tickers[i], tickers[j]),
            c_minus=c_minus, c_plus=c_plus,
            count_minus=int(sums.pair_members[minus, i, j]),
            count_plus=int(sums.pair_members[plus, i, j]),
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
    runs); ct_levels are signed.  Every requested level shares one gather
    of the member windows, and the sums are taken once per band between
    adjacent levels, so adding levels or analyses is nearly free.
    """
    _check_window_range(window_range)
    _check_horizon(panel, horizon)

    chi_levels = tuple(abs(float(l)) for l in chi_levels)
    if any(lev <= 0 for lev in chi_levels):
        raise ValidationError("chi levels must be positive magnitudes")
    pair_levels = [signed for lev in chi_levels for signed in (-lev, lev)]
    ct_levels = tuple(float(l) for l in ct_levels)
    curve_levels = sorted(set(float(r) for r in rho_grid))
    levels = sorted(set(curve_levels) | set(pair_levels) | set(ct_levels))
    if any(np.isnan(levels)):
        raise ValidationError("levels must be numbers, not NaN")

    sums = _sweep(panel, horizon, range(window_range[0], window_range[1] + 1), levels,
                  pair_levels, ct_levels)

    points = []
    for lev in curve_levels:
        average = _span_average(sums, levels.index(lev))
        if average is not None:
            value, total, excluded, stderr = average
            points.append(CurvePoint(rho=lev, value=value, sample_count=total,
                                     excluded_windows=excluded, stderr=stderr,
                                     flagged=total < min_samples))
    curve = CorrelationCurve(horizon=horizon, window_range=tuple(window_range),
                             points=tuple(points))

    chi = {
        lev: _chi_report(panel, sums, 2 * k, 2 * k + 1, lev, horizon, window_range,
                         epsilon)
        for k, lev in enumerate(chi_levels)
    }

    time_resolved = {}
    for k, lev in enumerate(ct_levels):
        have = sums.time_den[k] > 0
        time_resolved[lev] = TimeResolvedCorrelation(
            level=lev, horizon=horizon, window_range=tuple(window_range),
            times=np.nonzero(have)[0],
            values=sums.time_num[k][have] / sums.time_den[k][have],
        )

    return PanelAnalysis(curve=curve, chi=chi, time_resolved=time_resolved)
