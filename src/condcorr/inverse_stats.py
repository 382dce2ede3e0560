"""First-passage waiting times, their histograms, and tail-exponent fits.

Inverse statistics fix a return level ρ and ask how long a log-price path
takes to move by ρ from each start: τ = min{k ≥ 1 : s(t0+k) − s(t0) ≥ ρ}
for ρ > 0, with ≤ for ρ < 0.  Every index is a start (overlapping starts),
and starts whose level is never reached before the series ends are censored:
counted, but excluded from the histogram so they cannot fake a tail cutoff.

Crossing comparisons are evaluated as s(t0+k) ≥ s(t0) + ρ — the threshold is
rounded once per start, which keeps the search monotone; on adversarial
inputs this can differ from the subtract-first form by one ulp.

The waiting times for all starts are found in O(n log n) total by a binary
descent over range maxima, kept at two scales (the block decomposition of
range-maximum queries).  The series is padded with +inf to a multiple of
B = 32 positions, at least one past its end, so a search that finds no
crossing stops at position n, which marks the start censored.  Below B the
tables are full resolution: the maxima over 1, 2, 4, 8 and 16 positions
from every position, plus each position's maximum to the end of its block.
Above B they are doubling tables over the n/B block maxima.  A start whose
own block holds no crossing descends over the blocks to the first block
that does; either way a five-level descent inside the block finishes.
That is about (5 + 1)·n floats plus (n/B)·log₂(n/B), where a doubling table
at every scale would take n·log₂n.  The tables depend only on the series
and the sign of the level, so ``gain_loss_report`` runs one descent per
sign over every magnitude at once, chunk by chunk of starts, freeing each
sign's tables before the next build.  The descent yields the waiting times
chunk by chunk, 0 where a start is censored, and the report bins each chunk
through a lookup from waiting time to log bin with one ``np.bincount`` into
(magnitude, bin) counts, so no (magnitude, start) array is ever built.

The block descent is split into a near and a far search; the docstring
of ``_first_passage_up`` says how, and why the split is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, InsufficientDataError, ValidationError, check_level

__all__ = [
    "WaitingTimeHistogram",
    "TailFit",
    "GainLossEntry",
    "GainLossReport",
    "fit_tail_exponent",
    "gain_loss_report",
]

# each waiting-time bin edge is this times the last (but at least 1 day more)
LOG_BIN_RATIO = 1.25
# (magnitude, start) elements one descent step handles: a chunk's positions,
# thresholds and gathered maxima stay in cache across all the table levels
_DESCENT_CHUNK = 1 << 15
# positions per block of the first-passage tables: full-resolution tables
# cover the scales below it, doubling tables over block maxima those above.
# B = 8, 16, 32 and 64 ran within 2% of each other on a 5e5-day walk at 8
# magnitudes, and 32 ran 2% faster than 16 at 4e6 days; at 5e5 days the
# tables take 6.4 floats a day at B = 32 (5.9 at 16, 7.2 at 64)
_BLOCK = 32
_FINE_LEVELS = _BLOCK.bit_length() - 1
# block levels every (magnitude, start) descends before the search splits:
# crossings within 2**G blocks of the start's next block need no more, the
# rest descend every block level.  On a 5e5-day fear-market index at the 8
# default magnitudes (a third of the elements far at G = 4, 28% at 5) the
# descent took 0.53 s at G = 4 or 5 against 0.59 s unsplit (medians of 21
# interleaved runs on one CPU of a 2-vCPU Xeon VM); G = 2, 3 and 6 did no
# better
_NEAR_LEVELS = 4


def _log_price_values(log_prices) -> np.ndarray:
    try:
        arr = np.asarray(log_prices, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError("log-price series must be an array of numbers, got "
                              f"{type(log_prices).__name__}") from None
    if arr.ndim != 1:
        raise ValidationError("log-price series must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise DataError("log-price series contains non-finite values")
    if len(arr) < 2:
        raise ValidationError(f"series of length {len(arr)} has no starts")
    return arr


class _PassageTables(NamedTuple):
    """Range maxima of a series at two scales, padded with +inf past its end.

    ``fine[k][i]`` is the maximum of the padded series over [i, i + 2**k)
    for k < log2(_BLOCK), ``suffix[i]`` its maximum from i to the end of i's
    block, and ``coarse[k][b]`` the maximum over blocks [b, b + 2**k), with
    one +inf block past the last and at least two levels.  A window that
    runs past the end is +inf.
    """

    n: int
    fine: list[np.ndarray]
    suffix: np.ndarray
    coarse: list[np.ndarray]


def _doubling_maxima(base: np.ndarray, levels: int) -> list[np.ndarray]:
    # tables[k][i] = max of base[i : i + 2**k], +inf where that runs past the end
    tables = [base]
    for k in range(1, levels):
        h = 1 << (k - 1)
        prev = tables[-1]
        table = np.empty_like(prev)
        np.maximum(prev[:-h], prev[h:], out=table[:-h])
        table[-h:] = np.inf
        tables.append(table)
    return tables


def _first_passage_tables(values: np.ndarray, sign: float) -> _PassageTables:
    # of sign·values; at least one +inf pads them, so every search stops by n
    n = len(values)
    padded = np.full(-(-(n + 1) // _BLOCK) * _BLOCK, np.inf)
    np.multiply(values, sign, out=padded[:n])
    blocks = padded.reshape(-1, _BLOCK)
    suffix = np.empty_like(padded)
    np.maximum.accumulate(blocks[:, ::-1], axis=1,
                          out=suffix.reshape(-1, _BLOCK)[:, ::-1])
    block_max = np.append(suffix[::_BLOCK], np.inf)
    return _PassageTables(n, _doubling_maxima(padded, _FINE_LEVELS), suffix,
                          _doubling_maxima(block_max, max(2, len(blocks).bit_length())))


def _first_passage_up(tables: _PassageTables, rhos):
    """Yield the waiting times to the first s[j] >= s[t0] + rho with j > t0,
    chunk by chunk of starts t0 in order.

    Each chunk is an integer array with one row per rho in ``rhos`` and one
    column per start; no crossing waits 0, so 0 marks a censored start.
    ``tables`` are ``_first_passage_tables`` of s.

    The block search starts at b0, the block after the one holding t0 + 1.
    A (rho, start) element is near when its threshold is reached within
    the 2**G blocks from b0 (G = _NEAR_LEVELS >= 1, capped below the number
    of block levels, which is at least 2): levels G-1..0 find its block,
    and no higher level could move it.  The far rest, compacted, resume at b0 + 2**G over every block
    level; their 2**G blocks have a finite maximum, so they lie inside the
    series and b0 + 2**G is at most the +inf block.  Each element pays G
    block levels, and only the far share the full descent as well.
    """
    n, fine, suffix, coarse = tables
    rhos = np.asarray(rhos, dtype=np.float64)[:, None]
    near_levels = min(_NEAR_LEVELS, len(coarse) - 1)
    step = max(1, _DESCENT_CHUNK // max(len(rhos), 1))
    for a in range(0, n - 1, step):
        b = min(a + step, n - 1)
        thresholds = fine[0][a:b] + rhos
        first = np.arange(a + 1, b + 1)  # the first position each start tries
        b0 = first // _BLOCK + 1
        # the first block from b0 whose maximum reaches the threshold: the
        # levels below near_levels find it for a near element, every level
        # from b0 + 2**near_levels for a far one
        k = near_levels - 1
        block = b0 + ((coarse[k].take(b0) < thresholds) << k)
        for k in range(near_levels - 2, -1, -1):
            block += (coarse[k].take(block) < thresholds) << k
        far = np.flatnonzero(coarse[near_levels].take(b0) < thresholds)
        if len(far):
            far_block = b0.take(far % len(b0)) + (1 << near_levels)
            far_thresholds = thresholds.take(far)
            for k in range(len(coarse) - 1, -1, -1):
                far_block += (coarse[k].take(far_block) < far_thresholds) << k
            np.put(block, far, far_block)
        # the crossing lies in first's own block when that block's suffix
        # from first reaches the threshold, else in the block found
        pos = np.where(suffix.take(first) < thresholds, block * _BLOCK, first)
        for k in range(_FINE_LEVELS - 1, -1, -1):
            pos += (fine[k].take(pos) < thresholds) << k
        # a search that found no crossing stopped at n: that start waits 0
        censored = pos == n
        pos -= np.arange(a, b)
        pos[censored] = 0
        yield pos


def _log_edges(tau_max: float, ratio: float) -> np.ndarray:
    # multiplicative edges, but never narrower than 1 so every bin of the
    # integer-valued waiting times contains at least one attainable value
    edges = [0.5]
    while edges[-1] <= tau_max:
        edges.append(max(edges[-1] * ratio, edges[-1] + 1.0))
    return np.asarray(edges)


def _bin_lookup(edges: np.ndarray, n: int) -> np.ndarray:
    # bin_of[τ] for τ in [0, n): 0 at τ = 0 (a censored start), else the i
    # with edges[i-1] <= τ < edges[i], so integer τ runs up to ceil(edges[i]) - 1
    ends = np.minimum(np.ceil(edges), n).astype(np.int64)
    return np.repeat(np.arange(len(edges), dtype=np.min_scalar_type(len(edges) - 1)),
                     np.diff(ends, prepend=0))


@dataclass(frozen=True)
class WaitingTimeHistogram:
    """Normalized waiting-time density at one level over logarithmic bins
    with geometric centres (censored starts excluded)."""

    bin_edges: np.ndarray
    bin_centers: np.ndarray
    densities: np.ndarray
    counts: np.ndarray
    total_samples: int
    censored_count: int

    @property
    def mode(self) -> float:
        """Center of the maximal-density bin."""
        return float(self.bin_centers[int(np.argmax(self.densities))])


def _histogram(counts: np.ndarray, edges: np.ndarray) -> WaitingTimeHistogram:
    # counts[0] starts were censored and counts[i] waited τ in [edges[i-1],
    # edges[i]); at least one start crossed.  The edges stop at the first one
    # past the longest wait, as _log_edges(τ_max) would
    last = np.flatnonzero(counts)[-1]
    edges, binned = edges[:last + 1], counts[1:last + 1]
    total = int(binned.sum())
    densities = binned / (total * np.diff(edges))
    return WaitingTimeHistogram(edges, np.sqrt(edges[:-1] * edges[1:]), densities, binned,
                                total_samples=total, censored_count=int(counts[0]))


@dataclass(frozen=True)
class TailFit:
    """Power-law tail p(τ) ~ τ^(−exponent) fitted on the log-log histogram."""

    exponent: float
    fit_range: tuple[float, float]
    stderr: float
    n_bins: int


def fit_tail_exponent(hist: WaitingTimeHistogram) -> TailFit:
    """Least-squares slope of (ln τ, ln density) over the tail bins, negated.

    The fit window, kept as ``TailFit.fit_range``, runs from 3x the mode
    (past the pre-peak rise) to the centre of the last bin still holding 5
    samples (before counting noise takes over), and needs 4 nonzero bins.
    Raises InsufficientDataError when no bin holds 5 samples, when the last
    such bin lies at or below 3x the mode (no tail to fit), or when fewer
    than 4 nonzero bins fall in the window.
    """
    well_filled = np.nonzero(hist.counts >= 5)[0]
    if len(well_filled) == 0:
        raise InsufficientDataError("no bin holds 5 samples")
    tau_min = 3.0 * hist.mode
    tau_max = float(hist.bin_centers[well_filled[-1]])
    if not tau_min < tau_max:
        raise InsufficientDataError(
            f"no bin past 3x the mode ({tau_min:g}) holds 5 samples; "
            f"the last one is centered at {tau_max:g}"
        )
    centers = hist.bin_centers
    use = (centers >= tau_min) & (centers <= tau_max) & (hist.densities > 0.0)
    n_bins = int(np.sum(use))
    if n_bins < 4:
        raise InsufficientDataError(
            f"only {n_bins} nonzero bins in [{tau_min:g}, {tau_max:g}]; "
            "need 4 for a tail fit"
        )
    # least squares from the biased second moments; r is clipped to [-1, 1]
    # and undefined (so is stderr) when a variance and the covariance vanish
    x, y = np.log(centers[use]), np.log(hist.densities[use])
    sxx, sxy, _, syy = np.cov(x, y, bias=1).flat
    if sxx == 0.0 or syy == 0.0:
        r = np.nan if sxy == 0.0 else 0.0
    else:
        r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)
    stderr = np.sqrt((1.0 - r**2) * syy / sxx / (n_bins - 2))
    return TailFit(exponent=float(-(sxy / sxx)), fit_range=(tau_min, tau_max),
                   stderr=float(stderr), n_bins=n_bins)


@dataclass(frozen=True)
class GainLossEntry:
    """Paired ±|ρ| histograms and their peak positions.

    A side where no start reaches the level (every start censored) has no
    histogram and no mode, so its histogram, mode and the asymmetry are None.
    """

    level_abs: float
    plus: WaitingTimeHistogram | None
    minus: WaitingTimeHistogram | None
    mode_plus: float | None
    mode_minus: float | None
    asymmetry: float | None  # mode(+) − mode(−); positive when losses come sooner


@dataclass(frozen=True)
class GainLossReport:
    entries: tuple[GainLossEntry, ...]

    def entry(self, level_abs: float) -> GainLossEntry:
        for e in self.entries:
            if e.level_abs == level_abs:
                return e
        raise ValidationError(f"no entry for level {level_abs}")


def gain_loss_report(log_prices, levels) -> GainLossReport:
    """Waiting-time histograms at ±|ρ| for each magnitude in ``levels``,
    binned logarithmically with edges ``LOG_BIN_RATIO`` apart.

    ``log_prices`` is a one-dimensional array of at least two finite log
    prices, such as ``np.log(series.closes)`` or the output of
    ``detrend_log_price``; anything that is not an array of numbers raises
    ValidationError.  A positive asymmetry (mode(+) above mode(−)) means the
    series reaches losses sooner than equal-sized gains.  Every level must
    pass ``errors.check_level`` and be nonzero, checked before the first
    scan; ±|ρ| name one magnitude, reported once in first-seen order.  Each
    sign runs one descent over every magnitude and bins its waits
    chunk by chunk, so memory holds the tables (about 6 floats a day) and a
    1–2-byte bin lookup.
    """
    values = _log_price_values(log_prices)
    magnitudes = list(dict.fromkeys(abs(check_level("levels", level)) for level in levels))
    if 0.0 in magnitudes:
        raise ValidationError("levels must be nonzero")
    edges = _log_edges(len(values), LOG_BIN_RATIO)
    bin_of = _bin_lookup(edges, len(values))
    offsets = len(edges) * np.arange(len(magnitudes))[:, None]
    hists = {}
    for sign in (1.0, -1.0):
        # the tables are freed as the descent ends, so one sign's are alive at
        # a time; each chunk's waits are binned into (magnitude, bin) counts
        counts = np.zeros(len(magnitudes) * len(edges), dtype=np.int64)
        for waits in _first_passage_up(_first_passage_tables(values, sign), magnitudes):
            bins = offsets + bin_of.take(waits)
            counts += np.bincount(bins.ravel(), minlength=len(counts))
        # a side no start crosses counts only censored starts
        hists[sign] = [_histogram(row, edges) if row[1:].any() else None
                       for row in counts.reshape(len(magnitudes), len(edges))]
    return GainLossReport(tuple(
        GainLossEntry(
            level_abs=magnitude,
            plus=plus,
            minus=minus,
            mode_plus=None if plus is None else plus.mode,
            mode_minus=None if minus is None else minus.mode,
            asymmetry=None if plus is None or minus is None else plus.mode - minus.mode,
        )
        for magnitude, plus, minus in zip(magnitudes, hists[1.0], hists[-1.0])
    ))
