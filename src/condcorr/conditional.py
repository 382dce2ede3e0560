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

``analyze_panel`` is the one entry point.  It takes the curve C(ρ), each
pair's C_(x,y) and χ, and C_t from one sweep of a nested-span kernel.  Per
window start t the kernel gathers the (δt2 + 1)-day block of returns once
and subtracts the block's first row.  Running sums of the shifted rows and
of their squares give every span's mean and variance, one row-add per day;
the shift lies inside each window, so rounding is bounded by the window
length, not the panel length, and a constant window has variance exactly
0.  A stock's variance is tested against its floor only where it is at
most 2e-12·max x² over all the returns x: a variance above that bound is
above its floor too.  The undefined cells among those set a = 0 and count
d.  With a = defined/σ per
stock, U = block·aᵀ and m = δt + 1 rows,
Σ_(x≠y) z_x·z_y = Σ U² − m·ū² − m·d (d the defined stocks), so S_0 of every
span is one batched matrix product.

The sweep sorts the windows into bands.  For one sign the level sets are
nested half-lines in r, so each (t, δt) window falls in one band, b = the
number of requested levels ≤ r; level i holds the bands b ≤ i when
ρ_i < 0 and b > i when ρ_i ≥ 0 (which keeps ρ = 0 and exact ties on the
branches of step 3).  Chunks of the starts with a member span write S_0
into a (t, δt) grid, NaN where undefined or not visited, and add χ's Zᵀ Z
and pair counts Dᵀ D (D the definedness flags) per δt and band between χ
levels.  Member counts and S_0 sums are then bincounts of the grid over
(δt, band), mapped to levels by that 0/1 matrix, and C_t(t) is a mean
over row t: both are sums in start order, whatever the chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, check_level
from .timeseries import AlignedPanel

__all__ = [
    "CurvePoint",
    "CorrelationCurve",
    "PairConditional",
    "ChiReport",
    "TimeResolvedCorrelation",
    "PanelAnalysis",
    "analyze_panel",
]

# variance at or below mean-square × this is treated as zero volatility
_REL_VAR_FLOOR = 1e-12
_CHUNK = 256  # starts per chunk of the sweep, at most
_CHUNK_FLOATS = 1 << 22  # the kernel's scratch per chunk: 32 MiB, 256 starts at the default spans
_ROWS = 256  # grid rows (starts) per partial sum of the curve's member sums

DEFAULT_WINDOW_RANGE = (10, 35)
# χ is None where |C(+|ρ|)| is at most this
EPSILON = 1e-6
# a curve point with fewer conditional members than this is flagged
MIN_SAMPLES = 10


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class CurvePoint:
    """One C(ρ, Δt) value with its conditioning statistics.

    sample_count totals the conditional members over all window sizes;
    excluded_windows counts δt values that contributed no members; stderr is
    a dependence-conservative standard error: within one δt the member
    variance is inflated by δt + 1 because overlapping windows share days,
    and across δt the per-window SEs are averaged in quadrature with no
    reduction for the δt count, since every window size reuses the same
    days.  flagged marks points with fewer than MIN_SAMPLES members.
    """

    rho: float
    value: float
    sample_count: int
    excluded_windows: int
    stderr: float | None = None
    flagged: bool = False


@dataclass(frozen=True)
class CorrelationCurve:
    points: tuple[CurvePoint, ...]

    def point(self, rho: float) -> CurvePoint | None:
        for p in self.points:
            if p.rho == rho:
                return p
        return None


@dataclass(frozen=True)
class PairConditional:
    """One pair's C_(x,y) at −|ρ| and +|ρ| with the member counts behind them,
    and its χ_ρ = (C(−|ρ|) − C(+|ρ|)) / |C(+|ρ|)|: None when a side has no
    members or |C(+|ρ|)| ≤ ``EPSILON`` (an excluded sample).  Each C is a
    mean of finite Pearson correlations, so |C| ≤ 1 up to rounding and a
    defined |χ| stays within about 1/``EPSILON`` + 1."""

    pair: tuple[str, str]
    c_minus: float | None
    c_plus: float | None
    count_minus: int
    count_plus: int
    chi: float | None


@dataclass(frozen=True)
class ChiReport:
    pairs: tuple[PairConditional, ...]
    excluded_denominator: int
    excluded_missing: int


@dataclass(frozen=True)
class TimeResolvedCorrelation:
    """C_t(ρ, Δt): per-time mean of S_0 over the window sizes where t qualifies."""

    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class PanelAnalysis:
    curve: CorrelationCurve
    chi: dict[float, ChiReport]
    time_resolved: dict[float, TimeResolvedCorrelation]


# ---------------------------------------------------------------------------
# the nested-span kernel and the sweep


def _returns(panel: AlignedPanel, horizon: int) -> np.ndarray:
    """Δt-day log returns of every stock at every start, time-major (days, N)."""
    returns = np.empty((panel.n_days - horizon, panel.n_stocks))
    log_closes = np.empty(panel.n_days)  # one stock's at a time
    for column, stock in zip(returns.T, panel.stocks):
        np.log(stock.closes, out=log_closes)
        np.subtract(log_closes[horizon:], log_closes[:-horizon], out=column)
    return returns


def _condition_returns(index_log: np.ndarray, horizon: int, span: int) -> np.ndarray:
    """Index log return over [t, t+span] for each valid window start, from
    the index's log closes."""
    n_t = max(len(index_log) - horizon - span, 0)
    return index_log[span: span + n_t] - index_log[:n_t]


def _screen_bound(returns: np.ndarray) -> float:
    """B = 2·_REL_VAR_FLOOR·max x² over the returns x, ``_window_kernel``'s bound."""
    return 2.0 * _REL_VAR_FLOOR * max(returns.max(initial=0.0), -returns.min(initial=0.0)) ** 2


def _window_kernel(returns: np.ndarray, starts: np.ndarray, dt1: int, dt2: int, work, bound):
    """(block, mean, scale, s0) at the c starts, per span δt in [dt1, dt2]
    over the window's δt + 1 first block rows.

    block (dt2 + 1, c, N): each start's rows of the time-major ``returns``
    (the last row repeats past the end) minus its first.  mean (S, c, N):
    each stock's mean of those shifted rows; scale (S, c, N): 1/sd where the
    stock is defined, else 0; s0 (c, S): S_0, NaN where no pair is defined.
    block, mean and scale, and U are consecutive views of the flat ``work``
    buffer: a sweep reuses it, so its pages fault in once, not once per chunk.
    A stock is undefined where var ≤ ((mu + first)² + var)·_REL_VAR_FLOOR,
    the complement of the defined test (every value is finite).  mu + first
    is a window mean of the returns x, so |mu + first| ≤ max|x| up to about
    1e-13 relative rounding, and the floor is at most about
    1.0000001e-12·(max x² + var).  Above ``bound`` = B = 2e-12·max x², the
    floor is below var/2 + 1e-12·var, so the stock is defined.  Only the
    cells at or below B take the floor test, in its steps and order; the
    undefined cells it lists set scale to 0 and count the defined stocks d.
    """
    offsets = np.arange(dt2 + 1)
    sizes = offsets[dt1:] + 1  # δt + 1 rows per span
    c, n, s = len(starts), returns.shape[1], len(sizes)
    shapes = ((dt2 + 1, c, n), (2, s, c, n), (c, dt2 + 1, s))
    cuts = np.cumsum([0] + [math.prod(d) for d in shapes])
    block, (mean, scale), u = (work[a:b].reshape(d) for a, b, d in zip(cuts, cuts[1:], shapes))
    np.take(returns, starts + offsets[:, None], axis=0, mode="clip", out=block)
    first = block[0].copy()
    block -= first
    low = np.empty(mean.shape, dtype=bool)  # var ≤ B
    total, total_sq, sq = np.zeros((3,) + first.shape)
    # running sums of the rows and their squares, one row-add per day; each
    # span's moments are taken once its last row is in
    for row in offsets:
        total += block[row]
        total_sq += np.multiply(block[row], block[row], out=sq)
        if row >= dt1:
            mu = np.divide(total, row + 1, out=mean[row - dt1])
            var = np.divide(total_sq, row + 1, out=scale[row - dt1])
            var -= np.multiply(mu, mu, out=sq)
            np.less_equal(var, bound, out=low[row - dt1])
    cells = np.flatnonzero(low)  # the floor test, at these cells alone
    var, mean_x = scale.take(cells), mean.take(cells) + first.take(cells % (c * n))
    undefined = cells[var <= (mean_x * mean_x + var) * _REL_VAR_FLOOR]
    # 1/sd in place; an undefined stock's variance becomes inf, so its scale is 0
    scale.put(undefined, np.inf)
    np.divide(1.0, np.sqrt(scale, out=scale), out=scale)
    # per window row, Σ_x z_x = U − ū with U = block·scale and ū = mean·scale,
    # so Σ_(x≠y) z_x·z_y = ‖Σ_x z_x‖² − Σ_x ‖z_x‖² = Σ U² − m·ū² − m·d
    np.matmul(block.transpose(1, 0, 2), scale.transpose(1, 2, 0), out=u)
    in_window = (offsets[:, None] < sizes) * 1.0  # the rows inside each span's window
    u_bar = np.einsum("scn,scn->cs", mean, scale)
    d = n - np.bincount(undefined // n, minlength=s * c).reshape(s, c).T
    n_pairs = d * (d - 1) // 2
    off_diagonal = np.einsum("cms,cms,ms->cs", u, u, in_window) - sizes * (u_bar * u_bar + d)
    off_diagonal /= 2.0 * sizes * np.maximum(n_pairs, 1)
    return block, mean, scale, np.where(n_pairs > 0, off_diagonal, np.nan)


@dataclass(frozen=True)
class _SweepSums:
    """Member sums of one sweep over the window sizes ``spans``, the
    requested ones that fit in the panel.

    stats is (3, len(spans), n_levels): the members with a defined S_0, and
    Σ S_0 and Σ S_0² over them, summed in start order.  pair_num,
    pair_den and pair_members are (n_pair_levels, N, N): the sum over δt of
    each pair's member mean, the δt count behind it, and the member windows
    where the pair is defined.  time_resolved holds C_t per time level.
    """

    spans: np.ndarray
    stats: np.ndarray
    pair_num: np.ndarray
    pair_den: np.ndarray
    pair_members: np.ndarray
    time_resolved: list[TimeResolvedCorrelation]


def _held_bands(edges: np.ndarray, chosen) -> np.ndarray:
    """Which bands (rows) each chosen level (column) holds: band b has b
    edges ≤ r, and the last band, windows past the panel's end, none."""
    band = np.arange(len(edges) + 2)[:, None]
    edge = np.searchsorted(edges, chosen)
    return np.where(np.asarray(chosen) < 0.0, band <= edge,
                    (band > edge) & (band <= len(edges)))


def _sweep(panel: AlignedPanel, horizon: int, window_range: tuple[int, int],
           levels: Sequence[float], pair_levels: Sequence[float] = (),
           time_levels: Sequence[float] = ()) -> _SweepSums:
    """One pass of the nested-span kernel over every start some level holds.

    ``levels`` are sorted and distinct; ``pair_levels`` and ``time_levels``
    name those that also need per-pair sums and C_t.  Each chunk of starts
    writes its S_0 into the (start, span) grid and adds its χ products; the
    χ products use the coarser bands between the pair levels alone, and the
    starts are sorted by those bands, so each Zᵀ Z covers many windows of
    one band.  The curve's sums and C_t are then read off the grid.
    """
    returns = _returns(panel, horizon)
    n_returns, n = returns.shape
    dt1, dt2 = window_range
    # a window longer than the returns has no members: run the spans up to
    # the longest that fits (dt1 alone, with no starts, if none fits)
    dt2 = max(dt1, min(dt2, n_returns - 1))
    spans = np.arange(dt1, dt2 + 1)
    n_bands = len(levels) + 2
    member = _held_bands(levels, levels)
    time_member = _held_bands(levels, time_levels)
    pair_edges = np.sort(pair_levels)
    pair_member = _held_bands(pair_edges, pair_levels)
    held = pair_member.any(axis=1)
    pair_member = pair_member[held]
    # a band's χ band (pair levels ≤ r) as a pair_member row, -1 if none holds it
    chi_band = np.append(np.searchsorted(pair_edges, np.append(-np.inf, levels), "right"),
                         len(pair_edges) + 1)
    pair_row = np.where(held, np.cumsum(held) - 1, -1)[chi_band].astype(
        np.min_scalar_type(-1 - len(pair_member)))  # the smallest signed sort keys
    bands = np.full((max(n_returns - dt1, 0), len(spans)), n_bands - 1,
                    dtype=np.min_scalar_type(n_bands))
    index_log = np.log(panel.index_series.closes)
    for j, span in enumerate(spans):
        r = _condition_returns(index_log, horizon, span)
        bands[:len(r), j] = np.searchsorted(levels, r, side="right")
    starts = np.flatnonzero(member.any(axis=1)[bands].any(axis=1))
    starts = starts[np.lexsort(pair_row[bands[starts]].T)]  # by χ band, if any

    s0 = np.full(bands.shape, np.nan)
    products = np.zeros((2, len(spans), len(pair_member), n, n))  # Σ Zᵀ Z, Σ Dᵀ D
    per_start = (dt2 + 1) * n + 2 * len(spans) * n + (dt2 + 1) * len(spans)
    chunk = max(1, min(_CHUNK, _CHUNK_FLOATS // per_start))
    work = np.empty(chunk * per_start)
    bound = _screen_bound(returns)
    for lo in range(0, len(starts), chunk):
        t = starts[lo:lo + chunk]
        block, mean, scale, s0[t] = _window_kernel(returns, t, dt1, dt2, work, bound)
        pair_band = pair_row[bands[t]]
        skip = np.count_nonzero(pair_band < 0, axis=0)  # -1 (no pair level) sorts first
        if skip.min() == len(t):
            continue  # no χ row in this chunk
        order = pair_band.argsort(axis=0, kind="stable")  # each span's χ rows by χ band
        sorted_bands = np.take_along_axis(pair_band, order, axis=0)
        for j in np.flatnonzero(skip < len(t)):  # the spans with χ rows
            rows, b = order[skip[j]:, j], sorted_bands[skip[j]:, j]
            # Zᵀ Z = Σ_w (block_w·a_w)ᵀ (block_w·a_w) − m·(μ_w·a_w)ᵀ (μ_w·a_w)
            a = scale[j, rows]
            z = block.transpose(1, 0, 2)[rows, :spans[j] + 1]
            z *= a[:, None]
            centre = mean[j, rows] * a * np.sqrt(spans[j] + 1)
            flags = (a > 0) * 1.0
            cuts = [0, *np.flatnonzero(b[1:] != b[:-1]) + 1, len(b)]
            for g0, g1 in zip(cuts, cuts[1:]):
                zz, cc, ff = z[g0:g1].reshape(-1, n), centre[g0:g1], flags[g0:g1]
                products[0, j, b[g0]] += zz.T @ zz - cc.T @ cc
                products[1, j, b[g0]] += ff.T @ ff
    del returns  # the reductions below need only the grid: free the returns first

    # the curve sums the grid in start order, in fixed blocks of starts (whose
    # partial sums round less than one running sum), whatever the chunking
    defined = ~np.isnan(s0)
    stats = np.zeros((3, len(spans) * n_bands))  # member count, Σ S_0, Σ S_0² per (span, band)
    for part in (slice(lo, lo + _ROWS) for lo in range(0, len(s0), _ROWS)):
        use = defined[part]
        vals, cell = s0[part][use], (bands[part] + n_bands * np.arange(len(spans)))[use]
        stats += [np.bincount(cell, w, stats.shape[1]) for w in (None, vals, vals * vals)]
    time_resolved = []
    for k in range(len(time_levels)):  # C_t(t): the mean of S_0(t, δt) over level k's δt
        in_level = time_member[:, k][bands] & defined
        count = in_level.sum(axis=1)
        times = np.flatnonzero(count)
        c_t = np.where(in_level, s0, 0.0).sum(axis=1)[times] / count[times]
        time_resolved.append(TimeResolvedCorrelation(times, c_t))
    psum, pcnt = np.moveaxis(np.moveaxis(products, 2, -1) @ pair_member, -1, 2)
    psum /= (spans + 1)[:, None, None, None]
    pair_num = (psum / np.maximum(pcnt, 1.0)).sum(axis=0)  # psum is 0 where pcnt is
    return _SweepSums(spans, stats.reshape(3, len(spans), n_bands) @ member, pair_num,
                      (pcnt > 0).sum(axis=0), pcnt.sum(axis=0).astype(np.int64),
                      time_resolved)


def _curve_point(sums: _SweepSums, i: int, rho: float, n_spans: int) -> CurvePoint | None:
    """C(ρ) of level i of a sweep, the mean over δt of the member means;
    None when no δt has members.  Of the n_spans requested δt, those with
    no members, the ones too long for the panel included, are excluded."""
    counts, level_sums, level_sumsqs = sums.stats[:, :, i]
    have, ok = counts > 0, counts > 1
    if not np.any(have):
        return None
    mean = level_sums[ok] / counts[ok]
    var = np.maximum(level_sumsqs[ok] / counts[ok] - mean * mean, 0.0)
    # adjacent member windows share span of their span+1 days, so the mean's
    # variance shrinks roughly like var×(span+1)/count, not var/count
    se2 = var * (sums.spans[ok] + 1) / (counts[ok] - 1)
    total = int(counts.sum())
    return CurvePoint(rho=rho, value=float(np.mean(level_sums[have] / counts[have])),
                      sample_count=total, excluded_windows=n_spans - int(np.sum(have)),
                      stderr=float(np.sqrt(np.mean(se2))) if np.any(ok) else None,
                      flagged=total < MIN_SAMPLES)


# ---------------------------------------------------------------------------
# χ and the one entry point


def _chi_report(panel: AlignedPanel, sums: _SweepSums, minus: int, plus: int) -> ChiReport:
    tickers = panel.tickers
    iu, ju = np.triu_indices(len(tickers), k=1)
    # each array's (∓|ρ|, pair) entries in one read: rows minus and plus, pairs i < j
    (den_m, den_p), (num_m, num_p), (n_m, n_p) = (
        a[[[minus], [plus]], iu, ju].tolist()
        for a in (sums.pair_den, sums.pair_num, sums.pair_members))
    pairs = []
    small_denom = 0
    missing = 0
    for i, j, dm, dp, sm, sp, cm, cp in zip(iu.tolist(), ju.tolist(), den_m, den_p,
                                            num_m, num_p, n_m, n_p):
        c_minus = sm / dm if dm else None
        c_plus = sp / dp if dp else None
        chi = None
        if c_minus is None or c_plus is None:
            missing += 1
        elif abs(c_plus) <= EPSILON:
            small_denom += 1
        else:
            chi = (c_minus - c_plus) / abs(c_plus)
        pairs.append(PairConditional((tickers[i], tickers[j]), c_minus, c_plus, cm, cp, chi))
    return ChiReport(pairs=tuple(pairs), excluded_denominator=small_denom,
                     excluded_missing=missing)


def analyze_panel(panel: AlignedPanel, rho_grid: Sequence[float],
                  window_range: tuple[int, int] = DEFAULT_WINDOW_RANGE,
                  horizon: int = 1,
                  chi_levels: Sequence[float] = (),
                  ct_levels: Sequence[float] = ()) -> PanelAnalysis:
    """Run curve, per-pair χ, and time-resolved analyses in one sweep.

    chi_levels are |ρ| magnitudes (each expands to a ± pair of conditional
    runs, the sign dropped); ct_levels are signed.  Every level must pass
    ``errors.check_level``.  Every requested level shares one gather of the
    member windows, and the sums are taken once per band between adjacent
    levels, so adding levels or analyses is nearly free.
    """
    dt1, dt2 = window_range
    if not (1 <= dt1 < dt2):
        raise ValidationError(f"window range must satisfy 1 <= dt1 < dt2, got ({dt1}, {dt2})")
    if horizon < 1:
        raise ValidationError("horizon must be >= 1 trading day")
    if panel.n_days <= horizon:
        raise ValidationError(f"panel of {panel.n_days} days too short for horizon {horizon}")

    chi_levels = tuple(abs(check_level("chi_levels", l)) for l in chi_levels)
    if any(lev <= 0 for lev in chi_levels):
        raise ValidationError("chi levels must be positive magnitudes")
    pair_levels = [signed for lev in chi_levels for signed in (-lev, lev)]
    ct_levels = tuple(check_level("ct_levels", l) for l in ct_levels)
    curve_levels = sorted({check_level("rho_grid", r) for r in rho_grid})
    levels = sorted(set(curve_levels) | set(pair_levels) | set(ct_levels))

    sums = _sweep(panel, horizon, window_range, levels, pair_levels, ct_levels)

    points = (_curve_point(sums, levels.index(lev), lev, dt2 - dt1 + 1) for lev in curve_levels)
    curve = CorrelationCurve(points=tuple(p for p in points if p is not None))

    chi = {lev: _chi_report(panel, sums, 2 * k, 2 * k + 1)
           for k, lev in enumerate(chi_levels)}

    return PanelAnalysis(curve=curve, chi=chi,
                         time_resolved=dict(zip(ct_levels, sums.time_resolved)))
